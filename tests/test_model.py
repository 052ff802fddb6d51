"""Loader tests: version normalization, inheritance, refs, diagnostics."""

from __future__ import annotations

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from rest_lint import (
    NotAnApiSpec,
    ParseError,
    VersionKind,
    load_spec,
    load_spec_file,
    model,
)
from test_acceptance import _fuzzed_inputs

MINIMAL_V3 = b"""
{
  "openapi": "3.0.0",
  "info": {"title": "Minimal", "version": "1.0.0"},
  "paths": {
    "/users": {
      "get": {
        "responses": {"200": {"description": "OK", "content": {"application/json": {}}}}
      }
    }
  }
}
"""


_OK = {"responses": {"200": {"description": "OK"}}}

# 200 and "200" normalize alike; true and 1 are one YAML key, the first kept.
STATUS_KEYS_THAT_HASH_ALIKE = (
    b"openapi: 3.0.0\npaths:\n  /c:\n    get:\n      responses:\n"
    b"        200: {description: a}\n        '200': {description: b}\n"
    b"        true: {description: c}\n        1: {description: d}\n"
    b"        2xx: {description: e}\n"
)


def spec_bytes(doc: dict) -> bytes:
    return json.dumps(doc).encode("utf-8")


class TestLoadBasics:
    def test_minimal_openapi3(self):
        spec = load_spec(MINIMAL_V3, "minimal")
        assert spec.version_kind is VersionKind.OPENAPI3
        assert list(spec.paths) == ["/users"]
        entry = spec.paths["/users"]
        assert list(entry.operations) == ["GET"]
        op = entry.operations["GET"]
        assert op.responses["200"] == frozenset({"application/json"})
        assert not op.has_request_body

    def test_trace_operation_loaded(self):
        ok = {"responses": {"200": {"description": "OK"}}}
        spec = load_spec(spec_bytes({
            "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "paths": {"/users": {"get": ok, "trace": ok}},
        }), "trace")
        assert list(spec.paths["/users"].operations) == ["GET", "TRACE"]
        assert spec.diagnostics == ()

    def test_swagger2_trace_is_not_an_operation(self):
        raw = (b"swagger: '2.0'\ninfo: {title: T, version: '1'}\npaths:\n  /users:\n"
               b"    get: {responses: {'200': {description: OK}}}\n"
               b"    trace: {responses: {'200': {description: OK}}}\n"
               b"    trace: {responses: {'200': {description: OK}}}\n")
        spec = load_spec(raw, "trace")
        assert list(spec.paths["/users"].operations) == ["GET"]
        assert spec.diagnostics == ()

    def test_accepts_binary_stream(self):
        spec = load_spec(io.BytesIO(MINIMAL_V3), "stream")
        assert spec.spec_id == "stream"

    def test_yaml_input(self):
        text = b"openapi: 3.0.0\ninfo: {title: T, version: '1'}\npaths:\n  /users:\n    get:\n      responses:\n        '200': {description: OK}\n"
        spec = load_spec(text, "yaml")
        assert "/users" in spec.paths

    def test_malformed_input_raises_parse_error(self):
        with pytest.raises(ParseError):
            load_spec(b"not: [valid", "bad")

    def test_invalid_json_position_reported(self):
        with pytest.raises(ParseError) as exc:
            load_spec(b'{"openapi": 3,,}', "bad")
        assert exc.value.position is not None

    def test_unacceptable_yaml_character_is_one_line(self):
        with pytest.raises(ParseError) as exc:
            load_spec(b"openapi: 3\n\x0bpaths: {}\n", "bad")
        assert str(exc.value) == ("invalid YAML: unacceptable character #x000b: special "
                                  "characters are not allowed (character 12)")

    def test_not_utf8_raises_parse_error(self):
        with pytest.raises(ParseError):
            load_spec(b"\xff\xfe\x00\x01", "bad")

    def test_not_an_api_spec(self):
        with pytest.raises(NotAnApiSpec):
            load_spec(b'{"name": "just some json"}', "bad")

    def test_scalar_document_rejected(self):
        with pytest.raises(NotAnApiSpec):
            load_spec(b'"just a string"', "bad")

    def test_paths_without_marker_assumes_openapi3(self):
        spec = load_spec(spec_bytes({"paths": {}}), "bare")
        assert spec.version_kind is VersionKind.OPENAPI3
        assert any("assuming OpenAPI 3" in d for d in spec.diagnostics)

    def test_loading_same_bytes_is_deterministic(self):
        assert load_spec(MINIMAL_V3, "a") == load_spec(MINIMAL_V3, "a")

    def test_load_spec_file_defaults_spec_id_to_path(self, tmp_path):
        target = tmp_path / "api.json"
        target.write_bytes(MINIMAL_V3)
        assert load_spec_file(target).spec_id == str(target)
        assert load_spec_file(target, spec_id="name").spec_id == "name"


class TestSwagger2Mapping:
    def test_root_produces_inherited_by_responses(self):
        doc = {
            "swagger": "2.0",
            "info": {"title": "T", "version": "1"},
            "produces": ["application/json"],
            "paths": {
                "/things": {"get": {"responses": {"200": {"description": "OK"}}}}
            },
        }
        spec = load_spec(spec_bytes(doc), "v2")
        assert spec.version_kind is VersionKind.SWAGGER2
        op = spec.paths["/things"].operations["GET"]
        assert op.responses["200"] == frozenset({"application/json"})

    def test_operation_produces_overrides_root(self):
        doc = {
            "swagger": "2.0",
            "info": {"title": "T", "version": "1"},
            "produces": ["application/json"],
            "paths": {
                "/things": {
                    "get": {
                        "produces": ["text/csv"],
                        "responses": {"200": {"description": "OK"}},
                    }
                }
            },
        }
        op = load_spec(spec_bytes(doc), "v2").paths["/things"].operations["GET"]
        assert op.responses["200"] == frozenset({"text/csv"})

    def test_empty_operation_produces_clears_inherited(self):
        doc = {
            "swagger": "2.0",
            "info": {"title": "T", "version": "1"},
            "produces": ["application/json"],
            "paths": {
                "/things": {
                    "get": {"produces": [], "responses": {"200": {"description": "OK"}}}
                }
            },
        }
        op = load_spec(spec_bytes(doc), "v2").paths["/things"].operations["GET"]
        assert op.responses["200"] == frozenset()

    def test_body_parameter_maps_to_request_body(self):
        doc = {
            "swagger": "2.0",
            "info": {"title": "T", "version": "1"},
            "consumes": ["application/json"],
            "paths": {
                "/things": {
                    "post": {
                        "parameters": [{"name": "thing", "in": "body", "schema": {}}],
                        "responses": {"201": {"description": "Created"}},
                    }
                }
            },
        }
        op = load_spec(spec_bytes(doc), "v2").paths["/things"].operations["POST"]
        assert op.has_request_body
        assert op.request_media_types == frozenset({"application/json"})

    def test_form_data_counts_as_body(self):
        doc = {
            "swagger": "2.0",
            "info": {"title": "T", "version": "1"},
            "paths": {
                "/upload": {
                    "post": {
                        "parameters": [{"name": "f", "in": "formData", "type": "file"}],
                        "responses": {"201": {"description": "Created"}},
                    }
                }
            },
        }
        op = load_spec(spec_bytes(doc), "v2").paths["/upload"].operations["POST"]
        assert op.has_request_body
        assert op.request_media_types == frozenset()


class TestSecurity:
    def base(self, op_security=None, global_security=None, include_op_key=True):
        op = {"responses": {"200": {"description": "OK"}}}
        if include_op_key:
            op["security"] = op_security
        doc = {
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "paths": {"/users": {"get": op}},
        }
        if global_security is not None:
            doc["security"] = global_security
        return load_spec(spec_bytes(doc), "sec")

    def test_inherits_global(self):
        spec = self.base(global_security=[{"bearer": []}], include_op_key=False)
        op = spec.paths["/users"].operations["GET"]
        assert op.requires_credentials is True

    def test_explicit_empty_list_opts_out(self):
        spec = self.base(op_security=[], global_security=[{"bearer": []}])
        op = spec.paths["/users"].operations["GET"]
        assert op.requires_credentials is False

    def test_no_auth_anywhere(self):
        spec = self.base(include_op_key=False)
        op = spec.paths["/users"].operations["GET"]
        assert op.requires_credentials is False

    def test_operation_requirement_wins(self):
        spec = self.base(op_security=[{"oauth": ["read"]}])
        op = spec.paths["/users"].operations["GET"]
        assert op.requires_credentials is True


class TestDiagnostics:
    @pytest.mark.parametrize("raw", [
        pytest.param(
            b'{"openapi":"3.0.0","info":{"title":"T"},"paths":{'
            b'"/users":{"get":{"operationId":"first","responses":{"200":{"description":"x"}}}},'
            b'"/users":{"get":{"operationId":"second","responses":{"200":{"description":"x"}}}}}}',
            id="json"),
        pytest.param(
            b"openapi: 3.0.0\ninfo: {title: T}\npaths:\n"
            b"  /users:\n    get: {operationId: first, responses: {'200': {description: x}}}\n"
            b"  /users:\n    get: {operationId: second, responses: {'200': {description: x}}}\n",
            id="yaml"),
    ])
    def test_duplicate_path_keeps_first(self, raw):
        spec = load_spec(raw, "dup")
        assert list(spec.paths) == ["/users"]
        assert spec.paths["/users"].operations["GET"].operation_id == "first"
        assert any("duplicate path" in d for d in spec.diagnostics)

    @pytest.mark.parametrize("raw", [
        pytest.param(
            b'{"openapi":"3.0.0","info":{"title":"T"},"paths":{"/users":{'
            b'"get":{"operationId":"first","responses":{"200":{"description":"x"}}},'
            b'"get":{"operationId":"second","responses":{"200":{"description":"x"}}}}}}',
            id="json"),
        pytest.param(
            b"openapi: 3.0.0\ninfo: {title: T}\npaths:\n  /users:\n"
            b"    get: {operationId: first, responses: {'200': {description: x}}}\n"
            b"    get: {operationId: second, responses: {'200': {description: x}}}\n",
            id="yaml"),
    ])
    def test_duplicate_method_keeps_first(self, raw):
        spec = load_spec(raw, "dup")
        assert spec.paths["/users"].operations["GET"].operation_id == "first"
        assert any("duplicate method" in d for d in spec.diagnostics)

    def test_path_without_leading_slash_flagged(self):
        doc = {"openapi": "3.0.0", "info": {"title": "T"},
               "paths": {"users": {"get": {"responses": {"200": {"description": "x"}}}}}}
        spec = load_spec(spec_bytes(doc), "noslash")
        assert "users" in spec.paths
        assert any("does not begin with '/'" in d for d in spec.diagnostics)

    def test_missing_responses_flagged(self):
        doc = {"openapi": "3.0.0", "info": {"title": "T"},
               "paths": {"/users": {"get": {}}}}
        spec = load_spec(spec_bytes(doc), "nores")
        op = spec.paths["/users"].operations["GET"]
        assert not op.responses
        assert any("no responses declared" in d for d in spec.diagnostics)

    def test_invalid_status_key_dropped(self):
        doc = {"openapi": "3.0.0", "info": {"title": "T"},
               "paths": {"/users": {"get": {"responses": {
                   "ok": {"description": "bad"},
                   "200": {"description": "good"}}}}}}
        spec = load_spec(spec_bytes(doc), "status")
        assert list(spec.paths["/users"].operations["GET"].responses) == ["200"]
        assert any("invalid response status key" in d for d in spec.diagnostics)

    def test_status_keys_normalized(self):
        raw = (
            b"openapi: 3.0.0\ninfo: {title: T}\npaths:\n  /users:\n    get:\n"
            b"      responses:\n        200: {description: int key}\n"
            b"        4xx: {description: range}\n        default: {description: d}\n"
        )
        spec = load_spec(raw, "norm")
        keys = list(spec.paths["/users"].operations["GET"].responses)
        assert keys == ["200", "4XX", "default"]

    def test_invalid_media_type_dropped(self):
        doc = {"openapi": "3.0.0", "info": {"title": "T"},
               "paths": {"/users": {"get": {"responses": {"200": {
                   "description": "x",
                   "content": {"application/json": {}, "not a media type": {}}}}}}}}
        spec = load_spec(spec_bytes(doc), "media")
        op = spec.paths["/users"].operations["GET"]
        assert op.responses["200"] == frozenset({"application/json"})
        assert any("invalid media type" in d for d in spec.diagnostics)

    @pytest.mark.parametrize("raw, version, diagnostics", [
        (spec_bytes({"openapi": "3.0.0", "paths": ["/a"]}), VersionKind.OPENAPI3,
         ("'paths' is not a mapping; treated as empty",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": ["get"]}}), VersionKind.OPENAPI3,
         ("/a: path item is not a mapping; treated as empty",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": {"get": "x"}}}), VersionKind.OPENAPI3,
         ("/a: operation GET is not a mapping; skipped",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": {"get": {"responses": ["200"]}}}}),
         VersionKind.OPENAPI3,
         ("/a GET: 'responses' is not a mapping; treated as empty",
          "/a GET: no responses declared")),
        (spec_bytes({"swagger": "2.0", "consumes": "application/json",
                     "produces": "application/json", "paths": {"/a": {"post": {
                         "parameters": [{"in": "body", "name": "b"}], **_OK}}}}),
         VersionKind.SWAGGER2,
         ("root consumes: expected a list of media types; ignored",
          "root produces: expected a list of media types; ignored")),
        (spec_bytes({"swagger": "2.0", "paths": {"/a": {"post": {
            "consumes": "application/json", "produces": "application/json", **_OK}}}}),
         VersionKind.SWAGGER2,
         ("/a POST consumes: expected a list of media types; ignored",
          "/a POST produces: expected a list of media types; ignored")),
        (spec_bytes({"swagger": "1.2", "paths": {"/a": {"get": _OK}}}), VersionKind.OPENAPI3,
         ("unrecognized swagger version '1.2'; treating as OpenAPI 3",)),
        (spec_bytes({"paths": {"/a": {"get": _OK}}}), VersionKind.OPENAPI3,
         ("no 'swagger'/'openapi' version marker; assuming OpenAPI 3",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": {"$ref": "#/paths/~1a"}}}),
         VersionKind.OPENAPI3, ("/a: $ref chain too deep or cyclic, treated as empty",)),
        (b"openapi: 3.0.0\npaths:\n  /a:\n    get:\n      responses:\n"
         b"        200: {description: int}\n        '200': {description: str}\n",
         VersionKind.OPENAPI3, ("/a GET: duplicate response status '200'; first kept",)),
        (b'{"openapi":"3.0.0","paths":{"/a":{"get":{"responses":'
         b'{"200":{"description":"a"},"200":{"description":"b"}}}}}}',
         VersionKind.OPENAPI3, ("/a GET: duplicate response status '200'; first kept",)),
        (b"openapi: 3.0.0\npaths:\n  /a:\n    get:\n      responses:\n"
         b"        200: {description: a}\n        200: {description: b}\n",
         VersionKind.OPENAPI3, ("/a GET: duplicate response status '200'; first kept",)),
        (b'{"openapi":"3.0.0","paths":{"/a":{"get":{"responses":'
         b'{"foo":{"description":"a"},"foo":{"description":"b"},"200":{"description":"c"}}}}}}',
         VersionKind.OPENAPI3, ("/a GET: invalid response status key 'foo'; dropped",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {
            "/b": {"parameters": [{"$ref": "#/nope"}], "get": {"$ref": "#/y"},
                   "post": {"parameters": [{"$ref": "other#/p"}],
                            "requestBody": {"$ref": "#/rb"},
                            "responses": {"200": {"$ref": "#/r"}}}},
            "/a": {"$ref": "#/x"}}}),
         VersionKind.OPENAPI3,
         ("/b parameter: $ref '#/nope' does not resolve, treated as empty",
          "/b.get: $ref '#/y' does not resolve, treated as empty",
          "/b GET: no responses declared",
          "/b POST parameter: non-local $ref 'other#/p' not resolved, treated as empty",
          "/b POST requestBody: $ref '#/rb' does not resolve, treated as empty",
          "/b POST 200: $ref '#/r' does not resolve, treated as empty",
          "/a: $ref '#/x' does not resolve, treated as empty")),
        (STATUS_KEYS_THAT_HASH_ALIKE, VersionKind.OPENAPI3,
         ("/c GET: duplicate response status '200'; first kept",
          "/c GET: invalid response status key True; dropped")),
        (b'{"swagger": "2.0", "paths": {"/\\xe9": {"get": {"responses": {"200": {}}}}}}',
         VersionKind.SWAGGER2,
         ("not valid JSON (Invalid \\escape at line 1 column 32); read as YAML",)),
        (b"\n  {openapi: 3.0.0, paths: {/a: {get: {responses: {200: {description: x}}}}}}",
         VersionKind.OPENAPI3,
         ("not valid JSON (Expecting property name enclosed in double quotes at line 2 "
          "column 4); read as YAML",)),
    ], ids=["paths-not-mapping", "path-item-not-mapping", "operation-not-mapping",
            "responses-not-mapping", "root-media-not-list", "operation-media-not-list",
            "unrecognized-swagger-version", "no-version-marker", "cyclic-path-ref",
            "duplicate-response-status", "repeated-response-status-json",
            "repeated-response-status-yaml", "repeated-invalid-status-key", "ref-contexts",
            "status-keys-that-hash-alike", "json-escape-read-as-yaml", "yaml-flow-mapping"])
    def test_builder_diagnostics(self, raw, version, diagnostics):
        spec = load_spec(raw, "diag")
        assert (spec.version_kind, spec.diagnostics) == (version, diagnostics)

    def test_status_keys_that_hash_alike_normalize_apart(self):
        # true, 1 and 1.0 hash alike, as do 200 and 200.0, across operations too.
        raw = STATUS_KEYS_THAT_HASH_ALIKE + (
            b"    post:\n      responses:\n"
            b"        200.0: {description: f}\n        1: {description: g}\n"
            b"        201: {description: h}\n"
        )
        spec = load_spec(raw, "diag")
        operations = spec.paths["/c"].operations
        assert set(operations["GET"].responses) == {"200", "2XX"}
        assert set(operations["POST"].responses) == {"201"}
        assert spec.diagnostics[2:] == ("/c POST: invalid response status key 200.0; dropped",
                                        "/c POST: invalid response status key 1; dropped")


class TestModelBudget:
    # Each use of the shared operation builds 5 nodes: itself, 2 responses, the
    # path-level parameter and its own $ref-shared parameter.
    SHARED = spec_bytes({
        "openapi": "3.0.0",
        "x-parameter": {"in": "query", "name": "q"},
        "x-operation": {"parameters": [{"$ref": "#/x-parameter"}],
                        "responses": {"200": {"description": "a"}, "404": {"description": "b"}}},
        "paths": {"/a": {"parameters": [{"in": "query", "name": "p"}],
                         "get": {"$ref": "#/x-operation"}, "put": {"$ref": "#/x-operation"}}},
    })

    def test_shared_nodes_count_each_time_used(self, monkeypatch):
        monkeypatch.setattr(model, "_MAX_MODEL_NODES", 10)
        assert list(load_spec(self.SHARED, "s").paths["/a"].operations) == ["GET", "PUT"]
        monkeypatch.setattr(model, "_MAX_MODEL_NODES", 9)
        with pytest.raises(ParseError, match=r"^model too large: more than 9 operations"):
            load_spec(self.SHARED, "s")


class TestReferences:
    def test_local_parameter_ref_resolves(self):
        doc = {
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "components": {"parameters": {
                "Q": {"name": "q", "in": "query", "schema": {"type": "string"}}}},
            "paths": {"/search": {"get": {
                "parameters": [{"$ref": "#/components/parameters/Q"}],
                "responses": {"200": {"description": "OK"}}}}},
        }
        op = load_spec(spec_bytes(doc), "ref").paths["/search"].operations["GET"]
        assert op.query_parameter_names == ("q",)

    def test_local_response_ref_resolves(self):
        doc = {
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "components": {"responses": {"OK": {
                "description": "fine", "content": {"application/json": {}}}}},
            "paths": {"/users": {"get": {
                "responses": {"200": {"$ref": "#/components/responses/OK"}}}}},
        }
        op = load_spec(spec_bytes(doc), "ref").paths["/users"].operations["GET"]
        assert op.responses["200"] == frozenset({"application/json"})

    def test_remote_ref_becomes_diagnostic(self):
        doc = {
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "paths": {"/users": {"get": {
                "responses": {"200": {"$ref": "other.yaml#/responses/OK"}}}}},
        }
        spec = load_spec(spec_bytes(doc), "remote")
        assert any("non-local $ref" in d for d in spec.diagnostics)
        op = spec.paths["/users"].operations["GET"]
        assert op.responses["200"] == frozenset()

    def test_dangling_ref_becomes_diagnostic(self):
        doc = {
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "paths": {"/users": {"get": {
                "responses": {"200": {"$ref": "#/components/responses/Missing"}}}}},
        }
        spec = load_spec(spec_bytes(doc), "dangling")
        assert any("does not resolve" in d for d in spec.diagnostics)

    def test_cyclic_ref_terminates(self):
        doc = {
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "components": {"responses": {
                "A": {"$ref": "#/components/responses/B"},
                "B": {"$ref": "#/components/responses/A"}}},
            "paths": {"/users": {"get": {
                "responses": {"200": {"$ref": "#/components/responses/A"}}}}},
        }
        spec = load_spec(spec_bytes(doc), "cycle")
        assert any("too deep or cyclic" in d for d in spec.diagnostics)


class TestQueryParameters:
    def test_path_level_query_params_merge_into_operations(self):
        doc = {
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "paths": {"/users": {
                "parameters": [{"name": "tenant", "in": "query"}],
                "get": {
                    "parameters": [{"name": "page", "in": "query"}],
                    "responses": {"200": {"description": "OK"}}}}},
        }
        spec = load_spec(spec_bytes(doc), "qp")
        assert spec.paths["/users"].operations["GET"].query_parameter_names == ("tenant", "page")


def _duplicate_keys(doc, seen=None) -> list:
    """Every mapping's duplicate_keys, in document order (aliases may cycle).

    A mapping whose text repeats no key is a plain dict, without the attribute.
    """
    seen = set() if seen is None else seen
    if not isinstance(doc, (dict, list)) or id(doc) in seen:
        return []
    seen.add(id(doc))
    found = [list(getattr(doc, "duplicate_keys", ()))] if isinstance(doc, dict) else []
    for child in doc.values() if isinstance(doc, dict) else doc:
        found += _duplicate_keys(child, seen)
    return found


def _parsed(data: bytes) -> tuple:
    try:
        doc = model._parse_document(data)
    except ParseError as exc:
        return ("error", str(exc), exc.position)
    return ("document", repr(doc), _duplicate_keys(doc))


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up while defining
    spec.loader.exec_module(workloads)
    return workloads


# Pieces of small YAML texts for the differential property: scalars of every
# resolved type, quoted and tagged ones, empty block scalars, anchors, aliases
# (one never defined), "<<" and complex keys, in block and flow style. Odd
# pieces are drawn less often, so that most texts load.
_YAML_VALUES = st.sampled_from([
    "1", "-3", "0x1A", "0o17", "1_000", "1.5", "6.8e+2", ".inf", "-.NaN", "true", "False",
    "yes", "off", "null", "~", "", "2001-12-14", "2001-12-14 21:59:43.10 -5", "abc",
    "a b", "'1'", '"true"', "'what?'", '"x\\u00e9"', "''", "!!str 1", "!!binary aGk=",
    "*m", "[*m, {z: 3}]",
])
_YAML_ODD = st.sampled_from([
    "what?", "=", "<<", "!", "! x", "! 1", "!!str", "!!binary a", "!!int 7", "!!int x",
    "!!float 1", "!!null ''", "!!timestamp 2001-12-14", "!!set", "!local x", "!!map x",
    "*a", "*b", "*c",
    # Block scalar headers, some with a "#" right after them, which LibYAML reads.
    "|", ">-", "|+2", "|#", ">-#", "|+2#", "|2-#", "!!str |#", "!!str >", "&c |#",
])
_YAML_SCALARS = st.one_of(*[_YAML_VALUES] * 5, _YAML_ODD)
_YAML_ANCHORS = st.sampled_from([""] * 8 + ["&a ", "&b "])
_YAML_KEYS = st.sampled_from(
    ["a", "b", "c", "<<", "<<", "1", "true", "~", "'a'", "[x, y]", "{k: v}", "*a", "&b a",
     "!!str 1"]
)


def _yaml_node(children):
    collection = st.tuples(_YAML_ANCHORS, st.booleans())
    return st.one_of(
        st.tuples(st.just("seq"), collection, st.lists(children, max_size=4)),
        st.tuples(st.just("map"), collection,
                  st.lists(st.tuples(_YAML_KEYS, children), max_size=4)),
    )


def _render_yaml(node, indent: int, flow: bool) -> str:
    if isinstance(node, str):
        return node
    kind, (anchor, as_flow), children = node
    if flow or as_flow or not children:
        if kind == "seq":
            return anchor + "[%s]" % ", ".join(_render_yaml(child, 0, True) for child in children)
        return anchor + "{%s}" % ", ".join(f"{key}: {_render_yaml(value, 0, True)}"
                                           for key, value in children)
    pad = " " * indent
    if kind == "seq":
        lines = [f"{pad}- {_render_yaml(child, indent + 2, False)}" for child in children]
    else:
        lines = [f"{pad}{key}: {_render_yaml(value, indent + 2, False)}"
                 for key, value in children]
    return anchor.rstrip() + "\n" + "\n".join(lines)


def _yaml_texts():
    """Small YAML documents: any node; a mapping after one anchored "m" to
    merge; or a node in flow sequences nested to just below or just above
    the event loop's depth count."""
    nodes = st.recursive(st.tuples(_YAML_ANCHORS, _YAML_SCALARS).map("".join), _yaml_node,
                         max_leaves=12)
    mapping = st.lists(st.tuples(_YAML_KEYS, nodes), min_size=1, max_size=5).map(
        lambda pairs: "m: &m {x: 1, y: [2]}" + _render_yaml(("map", ("", False), pairs), 0, False))
    deep = st.tuples(st.integers(model._MAX_EVENT_DEPTH - 3, model._MAX_EVENT_DEPTH), nodes)
    return st.one_of(
        nodes.map(lambda node: _render_yaml(node, 0, False)),
        mapping,
        deep.map(lambda pair: "[" * pair[0] + _render_yaml(pair[1], 0, True) + "]" * pair[0]),
    )


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML lacks LibYAML")

# Text that LibYAML reads and the pure-Python scanner rejects or reads otherwise.
LIBYAML_DIVERGENCES = [
    b"a: x\tb\n",
    b"a: b\t# comment\n",
    b"a: b\n\xef\xbb\xbfc: d\n",
    b"a: [what?]\n",
    b"a: {url: http://x?y=1}\n",
    b"a: [x, {y: z?}]\n",
    b"a: [?]]\n",
    # ...and text close to those that both read alike.
    b"a: 'x\ty'\n",
    b"a: what? yes\n",
    b"a: [x, ?y, 'z?']\n",
    b"a: {b: , c: []}\n",
    # An empty node tagged "!" is null, as the pure-Python parser reads it.
    b"a: !\n",
    b"a: ! x\n",
    # A "#" right after a directive or a block scalar header...
    b"%YAML 1.1#\n---\na: 1\n",
    b"a: |#\n  x\n",
    b"d: >-#\n  x\n",
    b"a: |+2#\n   x\n",
    b"- |#\n  x\n",
    b"a: !!str |#\n  x\n",
    b"a: &q !!str |2-#\n   x\n",
    # ...and text close to those that both read alike.
    b"%YAML 1.1\n---\na: 1\n",
    b"%YAML 1.1 #c\n---\na: |-2 #c\n   x\n",
    b"a: '|#'\nb: >\n  y#\n",
    # The event loop's other hand-overs, read alike: the stream ends before a
    # document, a second document follows, and a collection tag other than map or seq.
    b"",
    b"# only a comment\n",
    b"a: 1\n---\nb: 2\n",
    b"!!set {a, b}\n",
    b"a: !!omap [b: 1]\n",
    b"a: !!pairs [b: 1]\n",
]


class TestYamlLoaders:
    @pytest.mark.parametrize("raw", [
        b"a: " + b"[" * 5000 + b"]" * 5000,
        b"[" * 5000 + b"]" * 5000,
    ], ids=["yaml", "json"])
    def test_deep_nesting_is_a_parse_error(self, raw):
        with pytest.raises(ParseError) as exc:
            load_spec(raw, "deep")
        assert str(exc.value) == "document nesting too deep"

    @needs_libyaml
    def test_c_and_pure_python_loaders_agree_on_fixture_corpus(self, tmp_path):
        texts = {path.name: path.read_text(encoding="utf-8") for path in CORPUS.glob("*.yaml")}
        workloads = _perfbench_workloads()
        for name in workloads.WORKLOADS:
            workloads.generate(name, 7, tmp_path / name, scale=0.05)
        for path in tmp_path.rglob("*.y*ml"):
            texts[str(path.relative_to(tmp_path))] = path.read_text(encoding="utf-8")
        assert len(texts) > len(list(CORPUS.glob("*.yaml")))
        for name, text in sorted(texts.items()):  # the loop itself: a hand-over fails here
            fast = model._yaml_from_events(text)
            pure = yaml.load(text, Loader=model._DupSafeLoader)
            assert repr(fast) == repr(pure), name
            assert _duplicate_keys(fast) == _duplicate_keys(pure), name

    @needs_libyaml
    def test_parse_matches_pure_python_parse(self, monkeypatch):
        samples = _fuzzed_inputs(1000) + LIBYAML_DIVERGENCES
        with_libyaml = [_parsed(data) for data in samples]
        monkeypatch.setattr(model, "_FAST_YAML", None)
        assert [_parsed(data) for data in samples] == with_libyaml

    @needs_libyaml
    @pytest.mark.parametrize("raw, expected", [
        (b"&x [*x]\n", ("document", "[[...]]", [])),
        (b"[&x [*x]]\n", ("document", "[[[...]]]", [])),
        (b"a: &x [*x]\n", ("error", "invalid YAML: found unconstructable recursive node "
                                     "(line 1 column 4)", "line 1 column 4")),
        (b"&x {a: *x}\n", ("error", "invalid YAML: found unconstructable recursive node "
                                    "(line 1 column 1)", "line 1 column 1")),
        (b"a: &x 1\nb: &x 2\n", ("error", "invalid YAML: second occurrence (line 2 column 4)",
                                  "line 2 column 4")),
        (b"[" * 120 + b"x" + b"]" * 120, ("document", "[" * 120 + "'x'" + "]" * 120, [])),
    ], ids=["self-sequence", "nested-self-sequence", "self-sequence-in-mapping",
            "self-mapping", "repeated-anchor", "depth-120"])
    def test_recursion_and_depth_read_alike_on_both_paths(self, raw, expected, monkeypatch):
        fast = _parsed(raw)
        monkeypatch.setattr(model, "_FAST_YAML", None)
        assert _parsed(raw) == fast == expected

    @needs_libyaml
    @settings(max_examples=300, deadline=None)
    @given(_yaml_texts())
    def test_event_loop_matches_pure_python_parse(self, text):
        data = text.encode("utf-8")
        fast = _parsed(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_FAST_YAML", None)
            assert _parsed(data) == fast


# Few distinct keys, so that lists of pairs often repeat one.
_KEYS = st.sampled_from(["a", "b", "c", "paths", "get"])
_PAIRS = st.lists(st.tuples(_KEYS, st.integers(-9, 9)), max_size=10)


def _keep_first(pairs: list) -> tuple[dict, list]:
    kept, repeats = {}, []
    for key, value in pairs:
        if key in kept:
            repeats.append(key)
        else:
            kept[key] = value
    return kept, repeats


class TestDuplicateKeys:
    @given(st.lists(st.tuples(st.one_of(_KEYS, st.integers(0, 3)), st.integers()), max_size=12))
    def test_keyed_from_pairs_keeps_first_and_records_repeats(self, pairs):
        kept, repeats = _keep_first(pairs)
        mapping = model._keyed_from_pairs(pairs)
        assert list(mapping.items()) == list(kept.items())
        assert list(getattr(mapping, "duplicate_keys", ())) == repeats
        assert repeats or type(mapping) is dict

    @given(st.lists(st.tuples(_KEYS, st.one_of(st.integers(-9, 9), _PAIRS)), max_size=8))
    def test_json_and_yaml_record_the_same_duplicates(self, pairs):
        def flow(pairs: list) -> str:
            return "{" + ", ".join(f'"{k}": {value(v)}' for k, v in pairs) + "}"

        def value(v) -> str:
            return flow(v) if isinstance(v, list) else str(v)

        as_json = flow(pairs).encode()
        as_yaml = "".join(f'"{k}": {value(v)}\n' for k, v in pairs).encode() or b"{}"
        from_json = model._parse_document(as_json)
        from_yaml = model._parse_document(as_yaml)
        assert from_json == from_yaml
        assert _duplicate_keys(from_json) == _duplicate_keys(from_yaml)
        repeats = _keep_first(pairs)[1]
        assert list(getattr(from_json, "duplicate_keys", ())) == repeats
        assert repeats or type(from_json) is type(from_yaml) is dict


MERGES = {
    "single": b"base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  z: 3\n",
    "list": b"a: &a {x: 1, y: 2}\nb: &b {y: 3, z: 4}\nd:\n  <<: [*a, *b]\n",
    "override": b"a: &a {x: 1, y: 2}\nd:\n  x: 5\n  <<: *a\n  w: 0\n",
    "list-override": b"a: &a {x: 1, y: 2}\nb: &b {y: 3, z: 4}\nd: {w: 0, <<: [*a, *b], x: 9}\n",
    "nested": b"a: &a {x: 1}\nb: &b\n  <<: *a\n  y: 2\nc:\n  <<: *b\n  x: 3\n",
    "inline": b"d: {<<: {x: 1, y: 2}, y: 3}\n",
}


class TestMergeKeys:
    @pytest.mark.parametrize("raw", MERGES.values(), ids=MERGES.keys())
    def test_merge_matches_safe_load_without_duplicates(self, raw, monkeypatch):
        expected = yaml.safe_load(raw)
        for fast in (model._FAST_YAML, None):
            monkeypatch.setattr(model, "_FAST_YAML", fast)
            doc = model._parse_document(raw)
            assert doc == expected
            assert all(not keys for keys in _duplicate_keys(doc))

    def test_duplicate_explicit_key_still_recorded(self):
        doc = model._parse_document(b"a: &a {x: 1}\nd:\n  <<: *a\n  y: 1\n  y: 2\n")
        assert doc["d"] == {"x": 1, "y": 1}
        assert doc["d"].duplicate_keys == ("y",)

    @pytest.mark.parametrize("raw", [b"d:\n  <<: 3\n", b"d:\n  <<: [{a: 1}, 3]\n"],
                             ids=["scalar", "list-with-scalar"])
    def test_non_mapping_merge_is_a_parse_error(self, raw):
        with pytest.raises(ParseError, match="expected a mapping or list of mappings for merging"):
            model._parse_document(raw)
