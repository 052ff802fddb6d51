"""Loader tests: version normalization, inheritance, refs, diagnostics."""

from __future__ import annotations

import datetime
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from rest_lint import (
    NotAnApiSpec,
    OperationRecord,
    ParseError,
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
        assert any("assuming OpenAPI 3" in d for d in spec.diagnostics)

    @pytest.mark.parametrize("marker, swagger2", [
        ({"swagger": "2.0"}, True), ({"swagger": 2}, True), ({"swagger": "1.2"}, False),
        ({"openapi": "3.0.0"}, False), ({}, False),
    ], ids=["swagger-2.0", "swagger-2-number", "swagger-1.2", "openapi-3", "no-marker"])
    def test_version_decides_trace_and_inherited_media(self, marker, swagger2):
        # Only Swagger 2 inherits the root's produces list, and it has no trace operation.
        spec = load_spec(spec_bytes({**marker, "produces": ["application/json"],
                                     "paths": {"/a": {"get": _OK, "trace": _OK}}}), "v")
        operations = spec.paths["/a"].operations
        assert list(operations) == (["GET"] if swagger2 else ["GET", "TRACE"])
        assert operations["GET"].responses["200"] == (
            frozenset({"application/json"}) if swagger2 else frozenset())

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

    @pytest.mark.parametrize("raw, diagnostics", [
        (spec_bytes({"openapi": "3.0.0", "paths": ["/a"]}),
         ("'paths' is not a mapping; treated as empty",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": ["get"]}}),
         ("/a: path item is not a mapping; treated as empty",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": {"get": "x"}}}),
         ("/a: operation GET is not a mapping; skipped",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": {"get": {"responses": ["200"]}}}}),
         ("/a GET: 'responses' is not a mapping; treated as empty",
          "/a GET: no responses declared")),
        (spec_bytes({"swagger": "2.0", "consumes": "application/json",
                     "produces": "application/json", "paths": {"/a": {"post": {
                         "parameters": [{"in": "body", "name": "b"}], **_OK}}}}),
         ("root consumes: expected a list of media types; ignored",
          "root produces: expected a list of media types; ignored")),
        (spec_bytes({"swagger": "2.0", "paths": {"/a": {"post": {
            "consumes": "application/json", "produces": "application/json", **_OK}}}}),
         ("/a POST consumes: expected a list of media types; ignored",
          "/a POST produces: expected a list of media types; ignored")),
        (spec_bytes({"swagger": "1.2", "paths": {"/a": {"get": _OK}}}),
         ("unrecognized swagger version '1.2'; treating as OpenAPI 3",)),
        (spec_bytes({"paths": {"/a": {"get": _OK}}}),
         ("no 'swagger'/'openapi' version marker; assuming OpenAPI 3",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {"/a": {"$ref": "#/paths/~1a"}}}),
         ("/a: $ref chain too deep or cyclic, treated as empty",)),
        (b"openapi: 3.0.0\npaths:\n  /a:\n    get:\n      responses:\n"
         b"        200: {description: int}\n        '200': {description: str}\n",
         ("/a GET: duplicate response status '200'; first kept",)),
        (b'{"openapi":"3.0.0","paths":{"/a":{"get":{"responses":'
         b'{"200":{"description":"a"},"200":{"description":"b"}}}}}}',
         ("/a GET: duplicate response status '200'; first kept",)),
        (b"openapi: 3.0.0\npaths:\n  /a:\n    get:\n      responses:\n"
         b"        200: {description: a}\n        200: {description: b}\n",
         ("/a GET: duplicate response status '200'; first kept",)),
        (b'{"openapi":"3.0.0","paths":{"/a":{"get":{"responses":'
         b'{"foo":{"description":"a"},"foo":{"description":"b"},"200":{"description":"c"}}}}}}',
         ("/a GET: invalid response status key 'foo'; dropped",)),
        (spec_bytes({"openapi": "3.0.0", "paths": {
            "/b": {"parameters": [{"$ref": "#/nope"}], "get": {"$ref": "#/y"},
                   "post": {"parameters": [{"$ref": "other#/p"}],
                            "requestBody": {"$ref": "#/rb"},
                            "responses": {"200": {"$ref": "#/r"}}}},
            "/a": {"$ref": "#/x"}}}),
         ("/b parameter: $ref '#/nope' does not resolve, treated as empty",
          "/b.get: $ref '#/y' does not resolve, treated as empty",
          "/b GET: no responses declared",
          "/b POST parameter: non-local $ref 'other#/p' not resolved, treated as empty",
          "/b POST requestBody: $ref '#/rb' does not resolve, treated as empty",
          "/b POST 200: $ref '#/r' does not resolve, treated as empty",
          "/a: $ref '#/x' does not resolve, treated as empty")),
        (STATUS_KEYS_THAT_HASH_ALIKE,
         ("/c GET: duplicate response status '200'; first kept",
          "/c GET: invalid response status key True; dropped")),
        (b'{"swagger": "2.0", "paths": {"/\\xe9": {"get": {"responses": {"200": {}}}}}}',
         ("not valid JSON (Invalid \\escape at line 1 column 32); read as YAML",)),
        (b"\n  {openapi: 3.0.0, paths: {/a: {get: {responses: {200: {description: x}}}}}}",
         ("not valid JSON (Expecting property name enclosed in double quotes at line 2 "
          "column 4); read as YAML",)),
        # Each use of a content key set with an invalid media type has its own
        # diagnostic, however often the set repeats; a valid set has none.
        (b"openapi: 3.0.0\npaths:\n" + b"".join(
            b"  /%s:\n    get:\n      responses:\n        '200':\n          content:\n"
            b"            json: {}\n        '201':\n          content:\n"
            b"            application/json: {}\n" % name for name in (b"a", b"b")),
         ("/a GET 200: invalid media type 'json'; dropped",
          "/b GET 200: invalid media type 'json'; dropped")),
    ], ids=["paths-not-mapping", "path-item-not-mapping", "operation-not-mapping",
            "responses-not-mapping", "root-media-not-list", "operation-media-not-list",
            "unrecognized-swagger-version", "no-version-marker", "cyclic-path-ref",
            "duplicate-response-status", "repeated-response-status-json",
            "repeated-response-status-yaml", "repeated-invalid-status-key", "ref-contexts",
            "status-keys-that-hash-alike", "json-escape-read-as-yaml", "yaml-flow-mapping",
            "media-types-in-two-operations"])
    def test_builder_diagnostics(self, raw, diagnostics):
        assert load_spec(raw, "diag").diagnostics == diagnostics

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

    def test_many_distinct_names_load_in_linear_time(self):
        # Each tenth name is given again nine names later. Looked up in a list,
        # 40,000 distinct names took 16.7 s to load.
        names = [f"q{i}" for i in range(40_000)]
        params = []
        for i, name in enumerate(names):
            params.append({"name": name, "in": "query"})
            if i % 10 == 9:
                params.append({"name": names[i - 9], "in": "query"})
        data = spec_bytes({"openapi": "3.0.0", "paths": {"/items": {"get": {
            "parameters": params, "responses": {"200": {"description": "OK"}}}}}})
        start = time.perf_counter()
        spec = load_spec(data, "many")
        assert time.perf_counter() - start < 5
        assert spec.paths["/items"].operations["GET"].query_parameter_names == tuple(names)

    def test_operations_are_operation_records(self):
        for data in (MINIMAL_V3, (CORPUS / "create_user.json").read_bytes()):
            for entry in load_spec(data, "r").paths.values():
                for op in entry.operations.values():
                    assert type(op) is OperationRecord
                    assert op == tuple(getattr(op, name) for name in OperationRecord._fields)
                    changed = op._replace(operation_id="x")
                    assert type(changed) is OperationRecord and changed.operation_id == "x"
                    assert changed[1:] == op[1:]


# A repeated NaN key as _duplicate_keys lists it: each reader's NaN is one float of
# its own (math.nan, SafeConstructor.nan_value), and a NaN equals no other.
NAN_KEY = "<a NaN key>"


def _duplicate_keys(doc, seen=None) -> list:
    """Every mapping's duplicate_keys, in document order (aliases may cycle).

    A mapping whose text repeats no key is a plain dict, without the attribute.
    """
    seen = set() if seen is None else seen
    if not isinstance(doc, (dict, list)) or id(doc) in seen:
        return []
    seen.add(id(doc))
    found = [[key if key == key else NAN_KEY for key in getattr(doc, "duplicate_keys", ())]
             ] if isinstance(doc, dict) else []
    for child in doc.values() if isinstance(doc, dict) else doc:
        found += _duplicate_keys(child, seen)
    return found


def _parsed(data: bytes) -> tuple:
    try:
        doc = model._parse_document(data)
    except ParseError as exc:
        return ("error", str(exc), exc.position)
    return ("document", repr(doc), _duplicate_keys(doc))


def _parse_in_fresh_interpreter(data: str) -> str:
    """What _parse_document gives for the bytes literal data, and whether it
    imported yaml, printed by a fresh interpreter: in-process tests import yaml
    themselves."""
    code = f"import sys; from rest_lint import model; print(model._parse_document({data}), " \
           "'yaml' in sys.modules)"
    src = str(Path(model.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-300:]
    return proc.stdout


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up while defining
    spec.loader.exec_module(workloads)
    return workloads


# How texts start and go on for the JSON gate property: each JSON value start,
# near-misses of one, and YAML starts.
_JSON_GATE_STARTS = [
    "{", "[", '"', "0", "7", "7e5", "-1", "-0", "-2E-1", "9" * 4301, "-Infinity", "Infinity",
    "NaN", "true", "false", "null", "nul", "tru", "fals", "Na", "Inf", "-", "-x", "-I", "---",
    "- a", "#", "a", ".5", "+1", "",
]
_JSON_GATE_TAILS = [
    "", "}", "]", '"', ",", ": 1", ": [1, 2]", '"a": 1}', "1, 2]", "e5", ".5", "\n", " x",
    " # c", "\n  - b", "\ta", "\\u", "x: &a [*a]",
]


# Pieces of small YAML texts for the differential property: scalars of every
# resolved type, quoted and tagged ones, empty block scalars, anchors, aliases
# (one never defined), "<<" and complex keys, in block and flow style. Odd
# pieces are drawn less often, so that most texts load: one draw in six, by
# repeats in one sampled_from, since one_of draws a repeated strategy once.
_YAML_VALUES = [
    "1", "-3", "0x1A", "0o17", "1_000", "1.5", "6.8e+2", ".inf", "-.NaN", "true", "False",
    "yes", "off", "null", "~", "", "2001-12-14", "2001-12-14 21:59:43.10 -5", "abc",
    "a b", "'1'", '"true"', "'what?'", '"x\\u00e9"', "''", "!!str 1", "!!binary aGk=",
    "*m", "[*m, {z: 3}]",
]
_YAML_ODD = [
    "what?", "=", "<<", "!", "! x", "! 1", "!!str", "!!binary a", "!!int 7", "!!int x",
    "!!float 1", "!!null ''", "!!timestamp 2001-12-14", "!!set", "!local x", "!!map x",
    "*a", "*b", "*c",
    # Block scalar headers, some with a "#" right after them, which LibYAML reads.
    "|", ">-", "|+2", "|#", ">-#", "|+2#", "|2-#", "!!str |#", "!!str >", "&c |#",
]
_YAML_SCALARS = st.sampled_from(_YAML_VALUES * 5 + _YAML_ODD)
_YAML_ANCHORS = st.sampled_from([""] * 8 + ["&a ", "&b "])
_YAML_KEYS = st.sampled_from(
    ["a", "b", "c", "<<", "<<", "1", "true", "~", "'a'", "[x, y]", "{k: v}", "*a", "&b a",
     "!!str 1", ".nan"]
)
# Two-key mappings for the repeat and merge rules: equal keys (1 and true, a
# repeated key), two NaNs (one float object, though a NaN equals no other NaN), a
# "<<" before or after a key, which no reader may store as a plain key, and two
# distinct keys.
_KEY_PAIRS = [("1", "true"), (".nan", ".NaN"), ("<<", "a"), ("a", "<<"), ("a", "a"), ("a", "b")]


def _two_keys(children):
    """A two-key mapping's (key, value) pairs, its keys one of _KEY_PAIRS."""
    return st.tuples(st.sampled_from(_KEY_PAIRS), children, children).map(
        lambda drawn: list(zip(drawn[0], drawn[1:])))


def _yaml_node(children):
    collection = st.tuples(_YAML_ANCHORS, st.booleans())
    return st.one_of(
        st.tuples(st.just("seq"), collection, st.lists(children, max_size=4)),
        st.tuples(st.just("map"), collection,
                  st.lists(st.tuples(_YAML_KEYS, children), max_size=4)),
        st.tuples(st.just("map"), collection, _two_keys(children)),
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


# Pieces of block-style texts for the line reader's property: what it reads,
# and, about one draw in ten, what it must hand over or fail on. The weights
# are repeats in one sampled_from, since one_of draws a repeated strategy once.
_BLOCK_VALUES = [
    "a", "a b", "a  b", "a:b", "a#b", "a #b", "-foo", "-1", "1", "-3", "0x1A", "0o17", "1_000",
    "1.5", "6.8e+2", ".inf", "-.NaN", "yes", "No", "on", "OFF", "true", "False", "null", "~",
    "y", "2001-12-14", "2001-12-14 21:59:43.10 -5", "é ü", "'it''s'", "''", "'a # b'", "' x '",
    '"x\\u00e9\\n\\"q\\\\"', '"a\\x41\\tb\\/"', '""', '"\\U0010FFFF"', "{}", "[]", "",
    # Prose: an indicator after a space, where no node can start.
    "see {id}", "x > y", "a & b", "what ? now", "see [docs]", "b, *c",
    # Tabs inside quotes; and a date that does not exist, an error on every path.
    "'a\tb'", '"\t\\\tc\t"', "2001-02-30",
]
_BLOCK_SCALARS = st.sampled_from(_BLOCK_VALUES * 3 + [
    '"\\q"', '"\\x4"', "<<", "=", ":x", "?x", "x:", "'a'b", "{a: 1}", "[a]", "*a", "&a b",
    "a\tb"])
_BLOCK_KEY_WORDS = ["a", "b", "a", "<<", "1", "0x1", "true", "on", "~", "'a'", '"b"', "a b", "-k",
                    "x:y", "k#", '"\\t"', "''", "2001-12-14", "a  ", "'k\tk'", ".nan"]
_LONG_KEYS = st.one_of(st.integers(1020, 1030).map(lambda n: "k" * n),
                       st.integers(1020, 1030).map(lambda n: "'" + "k" * (n - 2) + "'"))
_BLOCK_KEYS = st.integers(0, 15).flatmap(lambda i: _LONG_KEYS if i == 0 else st.sampled_from(
    _BLOCK_KEY_WORDS * 2 + ["? q", "a: b", "&k k"]))
# Added to a line: trailing spaces, a comment (a tab in it or not), a comment
# or blank line after it, or a more indented plain line that continues a
# scalar or breaks the text, or a tab outside a comment.
_BLOCK_TAILS = st.sampled_from(["", "", " ", "  # c", " #", "\n# own", "\n", " # a\tb", "\n#\t"] * 3
                               + ["\n   q", "\n  ...", "\n--- x", "\t", "\t# c"])


def _block_lines(node, indent: int, step: int, indentless: bool) -> list[str]:
    kind, children = node
    pad, lines = " " * indent, []
    for child in children:
        head, value = (f"{pad}{child[0]}:", child[1]) if kind == "map" else (f"{pad}-", child)
        if isinstance(value, str):
            lines.append(f"{head} {value}")
        elif not value[1]:
            lines.append(f"{head} " + ("{}" if value[0] == "map" else "[]"))
        elif kind == "seq" and step == 2:  # compact: "- key: value", "- - entry"
            inner = _block_lines(value, indent + 2, step, indentless)
            lines += [f"{head} {inner[0][indent + 2:]}"] + inner[1:]
        else:
            deeper = indent if indentless and kind == "map" and value[0] == "seq" else indent + step
            lines += [head] + _block_lines(value, deeper, step, indentless)
    return lines


def _block_texts():
    """Block-style YAML: nested and compact sequences, sequences at their key's
    column, every kind of scalar, with comments, trailing spaces and CRLF."""
    nodes = st.recursive(
        _BLOCK_SCALARS,
        lambda children: st.one_of(
            st.tuples(st.just("seq"), st.lists(children, max_size=4)),
            st.tuples(st.just("map"), st.lists(st.tuples(_BLOCK_KEYS, children), max_size=4)),
            st.tuples(st.just("map"), _two_keys(children)),
        ),
        max_leaves=12,
    )
    roots = st.one_of(
        st.tuples(st.just("map"), st.lists(st.tuples(_BLOCK_KEYS, nodes), min_size=1, max_size=4)),
        st.tuples(st.just("seq"), st.lists(nodes, min_size=1, max_size=4)),
    )

    def render(drawn) -> str:
        root, step, indentless, tails, newline, start = drawn
        lines = _block_lines(root, 0, step, indentless)
        text = "\n".join(line + tails[i % len(tails)] for i, line in enumerate(lines))
        return start + text.replace("\n", newline) + newline

    return st.tuples(roots, st.integers(1, 4), st.booleans(), st.lists(_BLOCK_TAILS, min_size=1),
                     st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "", "---\n", "# c\n"])
                     ).map(render)


# The fixture specs, which repeat many lines between them, and texts whose lines
# many documents share: .nan keys, {} and [] values, in a mapping or a sequence.
FIXTURE_YAML = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.yaml"))]
_SHARED_VALUES = st.one_of(
    st.lists(st.sampled_from([".nan: {}", ".NaN: []", ".nan: a", "a: {}", "a: []", "b: .nan",
                              "c:", "  .nan: {}", "  - []"]), min_size=1, max_size=6),
    st.lists(st.sampled_from(["- {}", "- []", "- .nan", "- a: {}", "- .nan: []", "  b: []"]),
             min_size=1, max_size=6),
).map(lambda lines: "\n".join(lines) + "\n")

# The event loop needs LibYAML; the line reader and the pure-Python parser do not.
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML lacks LibYAML")
FAST_READERS = (model._yaml_from_lines,) + ((model._yaml_from_events,) if yaml.__with_libyaml__
                                            else ())

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

    def test_c_and_pure_python_loaders_agree_on_fixture_corpus(self, tmp_path):
        texts = {path.name: path.read_text(encoding="utf-8") for path in CORPUS.glob("*.yaml")}
        workloads = _perfbench_workloads()
        for name in workloads.WORKLOADS:
            workloads.generate(name, 7, tmp_path / name, scale=0.05)
        for path in tmp_path.rglob("*.y*ml"):
            texts[str(path.relative_to(tmp_path))] = path.read_text(encoding="utf-8")
        assert len(texts) > len(list(CORPUS.glob("*.yaml")))
        for name, text in sorted(texts.items()):
            pure = yaml.load(text, Loader=model._pure_loader())
            # Each fast path on its own: a hand-over fails here, so none can go unseen.
            for fast_path in FAST_READERS:
                fast = fast_path(text)
                assert repr(fast) == repr(pure), (fast_path.__name__, name)
                assert _duplicate_keys(fast) == _duplicate_keys(pure), (fast_path.__name__, name)

    def test_parse_matches_pure_python_parse(self, monkeypatch):
        samples = _fuzzed_inputs(1000) + LIBYAML_DIVERGENCES
        fast = [_parsed(data) for data in samples]
        monkeypatch.setattr(model, "_FAST_YAML", None)
        assert [_parsed(data) for data in samples] == fast

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
        (b"".join(b" " * i + b"k:\n" for i in range(1000)),
         ("error", "document nesting too deep", None)),
        (b"".join(b" " * i + b"-\n" for i in range(1000)),
         ("error", "document nesting too deep", None)),
    ], ids=["self-sequence", "nested-self-sequence", "self-sequence-in-mapping",
            "self-mapping", "repeated-anchor", "depth-120", "block-mappings-1000-deep",
            "block-sequences-1000-deep"])
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

    @settings(max_examples=400, deadline=None)
    @given(_block_texts())
    def test_line_reader_matches_pure_python_parse(self, text):
        try:
            read = model._yaml_from_lines(text)
        except Exception:  # a hand-over, or an error the pure-Python parser reports
            pass
        else:
            pure = yaml.load(text, Loader=model._pure_loader())
            assert repr(read) == repr(pure)
            assert _duplicate_keys(read) == _duplicate_keys(pure)
        data = text.encode("utf-8")
        fast = _parsed(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_FAST_YAML", None)
            assert _parsed(data) == fast

    @pytest.mark.parametrize("raw, taken, expected", [
        (b"a: -foo\n", True, ("document", "{'a': '-foo'}", [[]])),
        (b"- -1\n", True, ("document", "[-1]", [])),
        (b"a: b: c\n", False, ("error", "invalid YAML: mapping values are not allowed here "
                                        "(line 1 column 5)", "line 1 column 5")),
        (b"a:b: c\n", True, ("document", "{'a:b': 'c'}", [[]])),
        (b"a: b#c: d\n", False, ("error", "invalid YAML: mapping values are not allowed here "
                                           "(line 1 column 7)", "line 1 column 7")),
        (b"a: b\n  c\n", False, ("document", "{'a': 'b c'}", [[]])),
        (b"a: 1\n  b: 2\n", False, ("error", "invalid YAML: mapping values are not allowed here "
                                             "(line 2 column 4)", "line 2 column 4")),
        (b"---\na: 1\n", True, ("document", "{'a': 1}", [[]])),
        (b"k" * 1024 + b": v\n", True, ("document", repr({"k" * 1024: "v"}), [[]])),
        (b"'" + b"k" * 1023 + b"': v\n", False,
         ("error", "invalid YAML: mapping values are not allowed here (line 1 column 1026)",
          "line 1 column 1026")),
        (b"a:\n- b\nc: d\n", True, ("document", "{'a': ['b'], 'c': 'd'}", [[]])),
        (b"a:\r\n- b # c\r\n-\r\nd: ''\r\n", True,
         ("document", "{'a': ['b', None], 'd': ''}", [[]])),
        (b"a: 1\n--- b: 2\n", False, ("error", "invalid YAML: but found another document "
                                               "(line 2 column 1)", "line 2 column 1")),
        (b"a: b\x7f\n", False, ("error", "invalid YAML: unacceptable character #x007f: special "
                                         "characters are not allowed (character 5)",
                                "character 5")),
        (b"a: b\xc2\x85c\n", False, ("error", "invalid YAML: could not find expected ':' "
                                               "(line 3 column 1)", "line 3 column 1")),
        (b"a: b\xe2\x80\xa8c\n", False, ("error", "invalid YAML: could not find expected ':' "
                                                   "(line 3 column 1)", "line 3 column 1")),
        # An indicator after other text is part of a plain scalar...
        (b"description: Returns the {id} item\n", True,
         ("document", "{'description': 'Returns the {id} item'}", [[]])),
        (b"a: x > b\n", True, ("document", "{'a': 'x > b'}", [[]])),
        (b"q: What ? now\n", True, ("document", "{'q': 'What ? now'}", [[]])),
        (b"a: b & c\n", True, ("document", "{'a': 'b & c'}", [[]])),
        (b"a: see [docs]\n", True, ("document", "{'a': 'see [docs]'}", [[]])),
        # ...and one where a node starts, at a line's content or after ": " or "- ",
        # is handed over.
        (b"- &a x\n", False, ("document", "['x']", [])),
        (b"k:\n  &a b: c\n", False, ("document", "{'k': {'b': 'c'}}", [[], []])),
        (b"a:   |\n  x\n", False, ("document", "{'a': 'x\\n'}", [[]])),
        (b"a: b\n  > c\n", False, ("document", "{'a': 'b > c'}", [[]])),
        # One line text in two roles, matched once: "  a: 1" opens a mapping, then
        # follows a sibling; "  - x" is an entry at its key's column, then nested;
        # "  b: 1" is aligned, then misaligned; "- a: {}" gives a new {} each time.
        (b"x:\n  a: 1\ny:\n  b: 2\n  a: 1\n", True,
         ("document", "{'x': {'a': 1}, 'y': {'b': 2, 'a': 1}}", [[], [], []])),
        (b"a:\n  k:\n  - x\nj:\n  - x\n", True,
         ("document", "{'a': {'k': ['x']}, 'j': ['x']}", [[], []])),
        (b"a:\n  b: 1\nc:\n   d: 2\n  b: 1\n", False,
         ("error", "invalid YAML: expected <block end>, but found '<block mapping start>' "
                   "(line 5 column 3)", "line 5 column 3")),
        (b"- a: {}\n- a: {}\n", True, ("document", "[{'a': {}}, {'a': {}}]", [[], [], [], []])),
        # A line's record: a null key is a key, not its absence; "<<" as a value is
        # handed over; one "  k: {}" record gives a new {} at each use.
        (b"~: a\n", True, ("document", "{None: 'a'}", [[]])),
        (b"null: b\n", True, ("document", "{None: 'b'}", [[]])),
        (b"- ~\n", True, ("document", "[None]", [])),
        (b"a: <<\n", False, ("error", "invalid YAML: could not determine a constructor for the "
                                       "tag 'tag:yaml.org,2002:merge' (line 1 column 4)",
                               "line 1 column 4")),
        (b"x:\n  k: {}\ny:\n  k: {}\n", True,
         ("document", "{'x': {'k': {}}, 'y': {'k': {}}}", [[], [], [], [], []])),
        # A tab in a comment or a quoted scalar is read; one elsewhere is the
        # pure-Python parser's error.
        (b"a: b # c\td\n", True, ("document", "{'a': 'b'}", [[]])),
        (b"# a\tb\na: 1\n", True, ("document", "{'a': 1}", [[]])),
        (b"a: 'x\ty'\n", True, ("document", "{'a': 'x\\ty'}", [[]])),
        (b"'k\tk': \"v\\\tw\\t\"\n", True, ("document", "{'k\\tk': 'v\\tw\\t'}", [[]])),
        (b"a: x\tb\n", False, ("error", "invalid YAML: found character '\\t' that cannot start "
                                          "any token (line 1 column 5)", "line 1 column 5")),
        (b"a:\tb\n", False, ("error", "invalid YAML: found character '\\t' that cannot start "
                                        "any token (line 1 column 3)", "line 1 column 3")),
        (b"a: b\t# c\n", False, ("error", "invalid YAML: found character '\\t' that cannot "
                                            "start any token (line 1 column 5)",
                                   "line 1 column 5")),
        (b"d: 2024-01-01\n", True, ("document", "{'d': datetime.date(2024, 1, 1)}", [[]])),
        # Two-key mappings: keys that are equal, or one of them "<<", are not
        # built as a display, which would keep the last value and the "<<".
        (b"1: a\ntrue: b\n", True, ("document", "{1: 'a'}", [[True]])),
        (b".nan: a\n.NaN: b\n", True, ("document", "{nan: 'a'}", [[NAN_KEY]])),
        (b"a:\n  <<: {}\n  k: v\n", True, ("document", "{'a': {'k': 'v'}}", [[], []])),
        (b"a: 1\na: 2\n", True, ("document", "{'a': 1}", [["a"]])),
        (b"a: 1\nb: 2\n", True, ("document", "{'a': 1, 'b': 2}", [[]])),
        # The line reader stores each value as it arrives; a repeated key's first
        # value stays, whether it or the repeat's is a nested node or empty, and
        # a "<<" is merged when its mapping closes. A second "<<" is handed over.
        (b"a:\n  b: 1\na: 2\n", True, ("document", "{'a': {'b': 1}}", [["a"], []])),
        (b"a: 1\na:\n  b: 2\n", True, ("document", "{'a': 1}", [["a"]])),
        (b"a:\na: 1\n", True, ("document", "{'a': None}", [["a"]])),
        (b"- a: 1\n  a: 2\n", True, ("document", "[{'a': 1}]", [["a"]])),
        (b"a:\n  j: 0\n  <<:\n    k: 1\n    j: 2\n    m: 2\n  k: 3\n", True,
         ("document", "{'a': {'j': 0, 'k': 3, 'm': 2}}", [[], []])),
        (b"<<:\n  a: 1\n  b: 1\n<<:\n  b: 2\n  c: 2\n", False,
         ("document", "{'a': 1, 'b': 1, 'c': 2}", [[]])),
    ], ids=["dash-word", "negative-entry", "key-in-value", "colon-in-key", "hash-in-value",
            "continued-scalar", "deeper-key",
            "document-start", "key-of-1024", "quoted-key-of-1025", "key-after-key-column-sequence",
            "crlf-line-ends",
            "second-document", "delete-character", "next-line-break", "line-separator",
            "prose-brace", "prose-folded", "prose-question", "prose-ampersand", "prose-bracket",
            "anchored-entry", "anchored-key", "spaced-block-scalar", "continued-at-indicator",
            "repeated-first-key", "repeated-entry", "repeated-then-misaligned",
            "repeated-empty-map", "null-key", "null-word-key", "null-entry", "merge-value",
            "one-record-two-maps", "tab-in-comment", "tab-in-comment-line", "tab-in-single-quoted",
            "tab-in-quoted-key-and-escape", "tab-in-plain", "tab-after-colon",
            "tab-before-comment", "date", "two-keys-1-and-true", "two-keys-nan",
            "two-keys-merge", "two-keys-repeated", "two-keys-distinct",
            "repeated-after-nested", "repeated-with-nested", "repeated-after-empty",
            "repeated-in-compact-entry", "merge-nested-overridden", "two-merge-keys"])
    def test_line_reader_cases(self, raw, taken, expected):
        text = raw.decode("utf-8")
        try:
            model._yaml_from_lines(text)
        except model._HandOver:
            assert not taken
        else:
            assert taken
        assert _parsed(raw) == expected

    @pytest.mark.parametrize("depth", [model._MAX_EVENT_DEPTH, model._MAX_EVENT_DEPTH + 1])
    @pytest.mark.parametrize("nest", [
        lambda n: "".join(" " * i + "k:\n" for i in range(n - 1)) + " " * (n - 1) + "k: v\n",
        lambda n: "".join(" " * i + "k:\n" for i in range(n - 2)) + " " * (n - 2) + "k: {}\n",
        lambda n: "- " * n + "v\n",
        lambda n: "- " * (n - 1) + "[]\n",
        lambda n: "- " * (n - 1) + "k: v\n",
    ], ids=["block-mappings", "empty-map-deepest", "compact-entries", "empty-seq-deepest",
            "compact-entries-then-key"])
    def test_line_reader_takes_documents_up_to_the_depth_limit(self, nest, depth):
        def nested(node) -> int:  # the containers from the root to the first leaf
            if not isinstance(node, (dict, list)):
                return 0
            children = list(node.values()) if isinstance(node, dict) else node
            return 1 + (nested(children[0]) if children else 0)

        text = nest(depth)
        pure = yaml.load(text, Loader=model._pure_loader())
        assert nested(pure) == depth
        if depth > model._MAX_EVENT_DEPTH:
            with pytest.raises(model._HandOver):
                model._yaml_from_lines(text)
        else:
            assert repr(model._yaml_from_lines(text)) == repr(pure)
        assert _parsed(text.encode("utf-8")) == ("document", repr(pure), _duplicate_keys(pure))

    # The two-key rows of test_line_reader_cases in flow style, which the event
    # loop reads: a second "<<" is handed over, as the line reader hands it over.
    @needs_libyaml
    @pytest.mark.parametrize("raw, taken", [
        (b"{1: a, true: b}\n", True),
        (b"{.nan: a, .NaN: b}\n", True),
        (b"{a: {<<: {}, k: v}}\n", True),
        (b"{a: 1, a: 2}\n", True),
        (b"{a: 1, b: 2}\n", True),
        (b"{<<: {a: 1}, <<: {b: 2}, a: 3}\n", False),
    ], ids=["two-keys-1-and-true", "two-keys-nan", "two-keys-merge", "two-keys-repeated",
            "two-keys-distinct", "two-merge-keys"])
    def test_event_loop_cases(self, raw, taken):
        text = raw.decode("utf-8")
        pure = yaml.load(text, Loader=model._pure_loader())
        try:
            read = model._yaml_from_events(text)
        except model._HandOver:
            assert not taken
        else:
            assert taken
            assert repr(read) == repr(pure)
            assert _duplicate_keys(read) == _duplicate_keys(pure)
        assert _parsed(raw) == ("document", repr(pure), _duplicate_keys(pure))

    @pytest.mark.parametrize("last", ["x: |\n  a\n", "x: >-\n  a\n", "x: &a 1\ny: *a\n",
                                      "x: !!str 1\n", "x: [a, b]\n", "- {a: 1}\n", "? x\n"])
    def test_line_reader_hands_over_before_reading_a_line(self, last, monkeypatch):
        # A construct it does not take, on the last line, costs no read of the lines before.
        monkeypatch.setattr(model, "_BLOCK_LINE", "(")  # reading a line would fail to compile
        with pytest.raises(model._HandOver):
            model._yaml_from_lines("a: 1\n" * 1000 + last)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("ab \r\n"), max_size=40).flatmap(
        lambda text: st.tuples(st.just(text), st.integers(0, len(text)), st.integers(0, 6))))
    def test_line_walk_splits_like_str_split(self, drawn):
        # Slices of a few characters end inside lines, between "\r" and "\n",
        # and at the text's end, with and without a last "\n".
        text, pos, size = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_LINE_SLICE", size)
            assert list(model._lines(text, pos)) == text[pos:].split("\n")

    def test_line_reader_matches_each_distinct_line_once(self, monkeypatch):
        # One memo for every document of the process: each distinct line is
        # matched once across documents, within the memo's two bounds.
        monkeypatch.setattr(model, "_LINE_RECORDS", {})
        distinct = [f"- v{i}\n" for i in range(5_000)]
        long, capped = ("- " + "v" * (model._LINE_CHARS - 2 + extra) for extra in (1, 0))
        texts = ["- x\n" * 10_000 + "".join(distinct[:1_000]), "".join(distinct[:2_000]) + "- x\n",
                 "".join(distinct[:2_000]) + "- x\n", f"{long}\n{capped}\n" * 3,
                 "- x\n" * 10_000 + "".join(distinct)]
        pure = [yaml.load(text, Loader=model._pure_loader()) for text in texts]
        matched = []

        def compile(pattern, flags=0):
            compiled = re.compile(pattern, flags)
            if pattern != model._BLOCK_LINE:
                return compiled
            return types.SimpleNamespace(
                fullmatch=lambda line: matched.append(line) or compiled.fullmatch(line))

        monkeypatch.setattr(model, "re", types.SimpleNamespace(compile=compile))
        runs = []
        for text, expected in zip(texts[:4], pure):
            matched.clear()
            assert repr(model._yaml_from_lines(text)) == repr(expected)
            runs.append(list(matched))
        # "- x", 1,000 distinct lines and the empty one after the last "\n"; then
        # the next 1,000 only; then none, for the same lines again.
        assert [len(run) for run in runs[:3]] == [1_002, 1_000, 0]
        # A line over the cap is matched each time it comes, one at the cap once,
        # and only lines within the cap are held.
        assert runs[3] == [long, capped, long, long]
        assert set(model._LINE_RECORDS) == set(runs[0] + runs[1] + [capped])
        # A full memo: the next new line clears it, is matched once and then looked
        # up, and a line held before the clear is matched again.
        model._LINE_RECORDS.clear()
        model._yaml_from_lines("".join(distinct[:model._LINE_MEMO - 1]))  # and ""
        assert len(model._LINE_RECORDS) == model._LINE_MEMO
        matched.clear()
        model._yaml_from_lines("- new\n" * 100 + distinct[0])
        assert matched == ["- new", "- v0", ""]
        assert set(model._LINE_RECORDS) == set(matched)
        # A document of more distinct lines than the memo holds: each matched once,
        # the memo cleared once, at its 4,097th.
        model._LINE_RECORDS.clear()
        matched.clear()
        assert repr(model._yaml_from_lines(texts[4])) == repr(pure[4])
        assert len(matched) == len(set(matched)) == 5_002
        assert len(model._LINE_RECORDS) == 5_002 - model._LINE_MEMO

    def test_line_memo_is_bounded_whatever_the_input(self, monkeypatch):
        # What the memo keeps between documents: at most _LINE_MEMO records, of
        # lines of at most _LINE_CHARS characters, however many and long the lines.
        monkeypatch.setattr(model, "_LINE_RECORDS", {})
        for width in (1, 100, 255, 300, 5_000):
            lines = "".join(f"k{i}: {'v' * width}\n" for i in range(6_000))
            assert len(model._yaml_from_lines(lines)) == 6_000
            assert len(model._LINE_RECORDS) <= model._LINE_MEMO
            assert max(map(len, model._LINE_RECORDS), default=0) <= model._LINE_CHARS

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(FIXTURE_YAML), _block_texts(), _SHARED_VALUES),
                    min_size=2, max_size=6),
           st.sampled_from([model._LINE_MEMO, 4, 1]))
    def test_parse_does_not_depend_on_documents_read_before(self, texts, size):
        # Texts parsed one after another through one memo, full or clearing often,
        # read as each does through an empty memo.
        def parsed(text: str) -> tuple:
            notes: list[str] = []
            try:
                doc = model._parse_document(text.encode("utf-8"), notes)
            except ParseError as exc:
                return ("error", str(exc), exc.position, notes)
            return ("document", repr(doc), _duplicate_keys(doc), notes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_LINE_RECORDS", {})
            patch.setattr(model, "_LINE_MEMO", size)
            shared = [parsed(text) for text in texts]
            assert len(model._LINE_RECORDS) <= size
            alone = []
            for text in texts:
                patch.setattr(model, "_LINE_RECORDS", {})
                alone.append(parsed(text))
        assert shared == alone

    @pytest.mark.parametrize("text", ["a: {}\nb: {}\n", "a: []\nb: []\n", "- a: {}\n- a: {}\n",
                                      "- []\n- []\n", "x:\n  k: {}\ny:\n  k: {}\n"],
                             ids=["map", "seq", "repeated-map-line", "repeated-seq-line",
                                  "repeated-key-line"])
    def test_equal_empty_containers_are_distinct(self, text, monkeypatch):
        def empties(node) -> list:
            children = node.values() if isinstance(node, dict) else node
            return [node] if not node else [empty for child in children
                                            if isinstance(child, (dict, list))
                                            for empty in empties(child)]

        pure = yaml.load(text, Loader=model._pure_loader())
        for doc in [read(text) for read in FAST_READERS] + [pure]:
            first, second = empties(doc)
            assert first == second and first is not second
        # The line memo outlives a document: "a: {}" in one, then the text in
        # two more, still give a new container at each use.
        monkeypatch.setattr(model, "_LINE_RECORDS", {})
        docs = [model._yaml_from_lines(doc) for doc in ("a: {}\n", text, text)]
        found = [empty for doc in docs for empty in empties(doc)]
        assert len(found) == len({id(empty) for empty in found}) == 5
        assert found[0] == {} and found[3:] == found[1:3]

    def test_scalar_table_makes_each_value_once(self):
        table = model._Scalars()
        expected = {"yes": True, "'yes'": "yes", '"\\u00e9"': "\u00e9", "''": "", "": None,
                    "<<": model._MERGE, "2001-12-14": datetime.date(2001, 12, 14), "1.5": 1.5,
                    "3.0.0": "3.0.0", "1.0.0": "1.0.0", "-foo": "-foo", ".5": 0.5, "0o12": "0o12"}
        for token, value in expected.items():
            assert type(table[token]) is type(value) and table[token] == value, token
        assert table["1.5"] is table["1.5"] and table["2001-12-14"] is table["2001-12-14"]
        with pytest.raises(KeyError):  # a tag SafeLoader does not construct
            table["="]
        assert list(table) == list(expected)

    def test_resolver_table_is_safeloaders(self):
        def shape(table: dict) -> list:
            return [(first, [(tag, pattern.pattern, pattern.flags) for tag, pattern in resolvers])
                    for first, resolvers in table.items()]

        table = model._implicit_resolvers()
        assert shape(table) == shape(yaml.SafeLoader.yaml_implicit_resolvers)
        assert {"!", "&", "*", ""} <= set(table)

    def test_escape_table_is_the_scanners(self):
        assert model._ESCAPE_REPLACEMENTS == yaml.scanner.Scanner.ESCAPE_REPLACEMENTS

    @pytest.mark.parametrize("word", [
        *"yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF".split(),
        "~", "null", "Null", "NULL", "", "<<",
        "yEs", "nULL", "onn", "~~", "<<<",  # near misses, which are strings
    ])
    def test_plain_words_build_safeloaders_values(self, word):
        loader = yaml.SafeLoader("")
        tag = loader.resolve(yaml.ScalarNode, word, (True, False))
        assert (tag == "tag:yaml.org,2002:merge") == (word == "<<")
        value = model._Scalars()[word]
        if word == "<<":
            assert value is model._MERGE  # a merge key once its mapping is built
        else:
            expected = loader.construct_object(yaml.ScalarNode(tag, word))
            assert type(value) is type(expected) and value == expected

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        [st.from_regex(re.compile(pattern, flags), fullmatch=True)
         for tag, pattern, flags, _ in model._IMPLICIT_RESOLVERS if tag in model._NUMBERS]
        # Around Python's limit of 4,300 digits for a decimal int, which raises.
        + [st.tuples(st.sampled_from(["", "-", "+1_"]), st.integers(4_298, 4_302),
                     st.sampled_from(["", ":30", ".5"])).map(lambda p: p[0] + "7" * p[1] + p[2])]))
    def test_numbers_build_safeloaders_values(self, token):
        def outcome(build) -> tuple:
            try:
                value = build()
            except Exception as exc:
                return ("raises", type(exc))
            return (type(value), "nan" if isinstance(value, float) and math.isnan(value) else value)

        loader = yaml.SafeLoader("")
        tag = loader.resolve(yaml.ScalarNode, token, (True, False))
        expected = outcome(lambda: loader.construct_object(yaml.ScalarNode(tag, token)))
        assert outcome(lambda: model._Scalars()[token]) == expected

    def test_numbers_need_no_pyyaml(self):
        expected = "{'x-min': 0, 'ratio': 1.5, 'd': 'a\\nb'} False\n"
        data = "b'x-min: 0\\nratio: 1.5\\nd: \"a\\\\nb\"\\n'"
        assert _parse_in_fresh_interpreter(data) == expected

    def test_dates_need_no_pyyaml(self):
        expected = "{'d': datetime.date(2024, 1, 1), 'e': '2024-1-1'} False\n"
        assert _parse_in_fresh_interpreter("b'd: 2024-01-01\\ne: 2024-1-1\\n'") == expected

    def test_line_reader_runs_without_libyaml(self, monkeypatch):
        monkeypatch.setattr(yaml, "__with_libyaml__", False)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        with pytest.raises(model._HandOver):
            model._yaml_from_events("a: 1\n")
        calls = []
        for name in ("_yaml_from_lines", "_yaml_from_events"):
            monkeypatch.setattr(model, name, lambda text, name=name, read=getattr(model, name):
                                calls.append(name) or read(text))
        assert model._parse_document(b"a:\n  - b: 1\nc: d # note\n") == {"a": [{"b": 1}], "c": "d"}
        assert calls == ["_yaml_from_lines"]
        # What the line reader hands over, the event loop hands to the pure-Python parser.
        calls.clear()
        assert model._parse_document(b"a: |\n  x\n") == {"a": "x\n"}
        assert calls == ["_yaml_from_lines", "_yaml_from_events"]

    def test_pure_python_runs_use_neither_fast_path(self, monkeypatch):
        def refuse(text):
            raise AssertionError("a fast path ran")

        monkeypatch.setattr(model, "_yaml_from_lines", refuse)
        monkeypatch.setattr(model, "_yaml_from_events", refuse)
        monkeypatch.setattr(model, "_FAST_YAML", None)
        assert model._parse_document(b"a: [1]\nb: c\n") == {"a": [1], "b": "c"}

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from([b"", b"\xef\xbb\xbf"]),
           st.text(st.sampled_from(" \t\r\n\x0c\u00a0\u2028\ufeff"), max_size=3),
           st.sampled_from(_JSON_GATE_STARTS),
           st.lists(st.sampled_from(_JSON_GATE_TAILS), max_size=3))
    @example(b"", "", "", [])
    @example(b"\xef\xbb\xbf", "\ufeff", "{", ["}"])
    def test_json_is_skipped_only_where_it_would_change_nothing(self, bom, space, start, tail):
        # The reference tries json.loads on every text first, as by a gate that
        # always matches.
        data = bom + (space + start + "".join(tail)).encode("utf-8")

        def outcome() -> tuple:
            diagnostics: list[str] = []
            try:
                doc = model._parse_document(data, diagnostics)
            except ParseError as exc:
                return ("error", str(exc), exc.position)
            return ("document", repr(doc), _duplicate_keys(doc), diagnostics)

        gated = outcome()
        with mock.patch.object(model, "_JSON_VALUE_START", re.compile("")):
            assert outcome() == gated


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
