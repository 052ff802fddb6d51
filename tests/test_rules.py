"""Checker-level tests: one class per rule, plus run_rules orchestration."""

from __future__ import annotations

import ast
import json
import string
from pathlib import Path

import pytest
from conftest import CORPUS, lint_fixture, rule_config_for
from hypothesis import given
from hypothesis import strategies as st
from rest_lint import (
    ApiSpecification,
    Archetype,
    OperationRecord,
    RuleConfig,
    RuleId,
    Violation,
    build_report,
    default_lexicon,
    load_spec,
    load_spec_file,
    model,
    reporting,
    rules,
    run_rules,
    split_words,
    tokenize_path,
    uri,
)

LEX = default_lexicon()


def check(rule: RuleId, spec: ApiSpecification, **cfg) -> list[Violation]:
    """Run one rule alone through run_rules."""
    return run_rules(spec, RuleConfig(enabled=frozenset({rule}), **cfg), LEX)


def make_spec(paths: dict, spec_id: str = "t", security: list | None = None,
              schemes: dict | None = None) -> ApiSpecification:
    doc = {"openapi": "3.0.0", "info": {"title": "T", "version": "1"}, "paths": paths}
    if security is not None:
        doc["security"] = security
    if schemes is not None:
        doc["components"] = {"securitySchemes": schemes}
    return load_spec(json.dumps(doc).encode(), spec_id)


def get_op(summary: str | None = None, description: str | None = None,
           responses: dict | None = None, **extra) -> dict:
    op = {"responses": responses if responses is not None
          else {"200": {"description": "OK", "content": {"application/json": {}}}}}
    if summary:
        op["summary"] = summary
    if description:
        op["description"] = description
    op.update(extra)
    return op


OK_JSON = {"description": "OK", "content": {"application/json": {}}}
_ABSENT = object()


class TestRC401:
    def test_secured_with_401_is_clean(self):
        spec = make_spec(
            {"/users": {"get": get_op(responses={"200": OK_JSON, "401": {"description": "no"}})}},
            security=[{"bearer": []}],
        )
        assert check(RuleId.RC401, spec) == []

    def test_secured_without_401_violates(self):
        spec = make_spec({"/users": {"get": get_op()}}, security=[{"bearer": []}])
        violations = check(RuleId.RC401, spec)
        assert len(violations) == 1
        assert violations[0].method == "GET" and violations[0].fragment == "401"

    def test_unsecured_is_out_of_scope(self):
        spec = make_spec({"/users": {"get": get_op()}})
        assert check(RuleId.RC401, spec) == []

    def test_4xx_range_satisfies(self):
        spec = make_spec(
            {"/users": {"get": get_op(responses={"200": OK_JSON, "4XX": {"description": "err"}})}},
            security=[{"bearer": []}],
        )
        assert check(RuleId.RC401, spec) == []

    # An operation's own security, when present and not null, replaces the
    # root's. Credentials are required by a list holding a non-empty mapping.
    @pytest.mark.parametrize("version", [{"openapi": "3.0.0"}, {"swagger": "2.0"}],
                             ids=["openapi3", "swagger2"])
    @pytest.mark.parametrize("root,own,findings", [
        (_ABSENT, _ABSENT, 0),
        ([{"bearer": []}], _ABSENT, 1),
        ([{"bearer": []}], None, 1),
        ([{"bearer": []}], [], 0),
        ([{"bearer": []}], [{}], 0),
        ([{"bearer": []}], "bearer", 0),
        (_ABSENT, [{}, {"b": []}], 1),
        ([{}], _ABSENT, 0),
        ("bearer", _ABSENT, 0),
        (None, [{"bearer": []}], 1),
        ({"bearer": []}, _ABSENT, 0),
        ([1, {"b": []}], _ABSENT, 1),
    ])
    def test_credential_requirement(self, version, root, own, findings):
        op = {"responses": {"200": {"description": "OK"}}}
        if own is not _ABSENT:
            op["security"] = own
        doc = {**version, "paths": {"/users": {"get": op}}}
        if root is not _ABSENT:
            doc["security"] = root
        assert len(check(RuleId.RC401, load_spec(json.dumps(doc).encode(), "t"))) == findings


class TestPluralNoun:
    def test_plural_collection_is_clean(self):
        assert check(RuleId.PLURAL_NOUN, make_spec({"/users/{id}": {"get": get_op()}})) == []

    def test_singular_collection_violates(self):
        violations = check(RuleId.PLURAL_NOUN, make_spec({"/user/{id}": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["user"]

    def test_irregular_plural_is_clean(self):
        assert check(RuleId.PLURAL_NOUN, make_spec({"/people/{id}": {"get": get_op()}})) == []

    def test_multiword_uses_head_noun(self):
        violations = check(
            RuleId.PLURAL_NOUN, make_spec({"/order-item/{id}": {"get": get_op()}})
        )
        assert [v.fragment for v in violations] == ["order-item"]


class TestSingularNoun:
    def test_singular_document_is_clean(self):
        spec = make_spec({"/users/{id}/profile": {"get": get_op()}})
        assert check(RuleId.SINGULAR_NOUN, spec) == []

    def test_plural_document_violates_with_override(self):
        spec = make_spec({"/users/{id}/profiles": {"get": get_op()}}, spec_id="s")
        cfg = RuleConfig(
            archetype_overrides={("s", "/users/{id}/profiles"): {2: Archetype.DOCUMENT}}
        )
        violations = run_rules(spec, cfg, LEX)
        assert [v.fragment for v in violations if v.rule is RuleId.SINGULAR_NOUN] == ["profiles"]

    def test_parameter_segments_exempt(self):
        assert check(RuleId.SINGULAR_NOUN, make_spec({"/users/{id}": {"get": get_op()}})) == []


class TestNoTrailingSlash:
    def test_trailing_slash_violates(self):
        violations = check(RuleId.NO_TRAILING_SLASH, make_spec({"/users/": {"get": get_op()}}))
        assert [v.path for v in violations] == ["/users/"]

    def test_plain_path_is_clean(self):
        assert check(RuleId.NO_TRAILING_SLASH, make_spec({"/users": {"get": get_op()}})) == []

    def test_root_path_exempt(self):
        assert check(RuleId.NO_TRAILING_SLASH, make_spec({"/": {"get": get_op()}})) == []


class TestVerbController:
    def test_verb_controller_is_clean(self):
        spec = make_spec({"/users/{id}/activate": {"post": get_op()}})
        assert check(RuleId.VERB_CONTROLLER, spec) == []

    def test_noun_controller_violates_via_override(self):
        spec = make_spec({"/users/{id}/activation": {"post": get_op()}}, spec_id="s")
        cfg = RuleConfig(
            archetype_overrides={("s", "/users/{id}/activation"): {2: Archetype.CONTROLLER}}
        )
        violations = run_rules(spec, cfg, LEX)
        assert [v.fragment for v in violations if v.rule is RuleId.VERB_CONTROLLER] == [
            "activation"
        ]

    def test_no_controllers_no_violations(self):
        assert check(RuleId.VERB_CONTROLLER, make_spec({"/users": {"get": get_op()}})) == []


class TestNoCrudNames:
    def test_create_prefix_violates(self):
        violations = check(RuleId.NO_CRUD_NAMES, make_spec({"/createUser": {"post": get_op()}}))
        assert [v.fragment for v in violations] == ["create"]

    def test_plain_collection_is_clean(self):
        assert check(RuleId.NO_CRUD_NAMES, make_spec({"/users": {"post": get_op()}})) == []

    def test_get_prefix_mid_path_violates(self):
        violations = check(
            RuleId.NO_CRUD_NAMES, make_spec({"/getOrders/recent": {"get": get_op()}})
        )
        assert [v.fragment for v in violations] == ["get"]

    def test_one_violation_per_segment(self):
        violations = check(
            RuleId.NO_CRUD_NAMES, make_spec({"/create/delete": {"post": get_op()}})
        )
        assert sorted(v.fragment for v in violations) == ["create", "delete"]


class TestContentType:
    def test_declared_media_is_clean(self):
        spec = make_spec({"/users": {"post": get_op(
            requestBody={"content": {"application/json": {}}},
            responses={"201": {"description": "C", "content": {"application/json": {}}}},
        )}})
        assert check(RuleId.CONTENT_TYPE, spec) == []

    def test_response_without_media_violates(self):
        spec = make_spec({"/users": {"get": get_op(responses={"200": {"description": "OK"}})}})
        violations = check(RuleId.CONTENT_TYPE, spec)
        assert len(violations) == 1
        assert violations[0].status_key == "200"

    def test_204_exempt(self):
        spec = make_spec({"/users/{id}": {"delete": get_op(
            responses={"204": {"description": "gone"}})}})
        assert check(RuleId.CONTENT_TYPE, spec) == []

    def test_304_and_1xx_exempt(self):
        spec = make_spec({"/users": {"get": get_op(responses={
            "304": {"description": "cached"}, "100": {"description": "continue"},
            "1XX": {"description": "info"}})}})
        assert check(RuleId.CONTENT_TYPE, spec) == []

    def test_body_without_media_violates(self):
        spec = make_spec({"/users": {"post": get_op(requestBody={})}})
        violations = check(RuleId.CONTENT_TYPE, spec)
        assert [v.status_key for v in violations] == [None]
        assert violations[0].method == "POST"


class TestDescriptionType:
    def test_matching_description_is_clean(self):
        spec = make_spec({"/users": {"get": get_op(description="Retrieve all users")}})
        assert check(RuleId.DESCRIPTION_TYPE, spec) == []

    def test_contradicting_description_violates(self):
        spec = make_spec({"/users": {"get": get_op(description="Delete a user")}})
        violations = check(RuleId.DESCRIPTION_TYPE, spec)
        assert [v.fragment for v in violations] == ["delete"]

    def test_missing_description_is_clean(self):
        spec = make_spec({"/users": {"post": get_op()}})
        assert check(RuleId.DESCRIPTION_TYPE, spec) == []

    def test_summary_used_as_fallback(self):
        spec = make_spec({"/users": {"get": get_op(summary="Remove the user")}})
        assert [v.fragment for v in check(RuleId.DESCRIPTION_TYPE, spec)] == ["remove"]

    def test_put_and_patch_share_update_class(self):
        spec = make_spec({"/users/{id}": {"patch": get_op(description="Update the user")}})
        assert check(RuleId.DESCRIPTION_TYPE, spec) == []

    def test_non_crud_leading_word_is_clean(self):
        spec = make_spec({"/users": {"get": get_op(description="Browse the users")}})
        assert check(RuleId.DESCRIPTION_TYPE, spec) == []

    def test_methods_without_a_crud_class_are_clean(self):
        spec = make_spec({"/users": {method: get_op(description="Delete a user")
                                     for method in ("head", "options", "trace")}})
        assert check(RuleId.DESCRIPTION_TYPE, spec) == []

    def test_description_without_an_ascii_letter_is_clean(self):
        spec = make_spec({"/users": {"get": get_op(description="¿Ñ? 42 — ε")}})
        assert check(RuleId.DESCRIPTION_TYPE, spec) == []


class TestForwardSlash:
    def test_empty_segment_violates(self):
        violations = check(RuleId.FORWARD_SLASH, make_spec({"/users//orders": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["//"]

    def test_dot_separator_violates(self):
        violations = check(RuleId.FORWARD_SLASH, make_spec({"/users.orders": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["users.orders"]

    def test_slash_hierarchy_is_clean(self):
        assert check(RuleId.FORWARD_SLASH, make_spec({"/users/orders": {"get": get_op()}})) == []

    def test_colon_and_semicolon_violate(self):
        spec = make_spec({"/users:orders": {"get": get_op()},
                          "/a;b": {"get": get_op()}})
        assert len(check(RuleId.FORWARD_SLASH, spec)) == 2


class TestNoTunnel:
    def test_post_with_delete_token_violates(self):
        violations = check(RuleId.NO_TUNNEL, make_spec({"/users/delete": {"post": get_op()}}))
        assert [(v.method, v.fragment) for v in violations] == [("POST", "delete")]

    def test_post_create_semantics_is_clean(self):
        assert check(RuleId.NO_TUNNEL, make_spec({"/users": {"post": get_op()}})) == []

    def test_post_with_create_token_is_legitimate(self):
        assert check(RuleId.NO_TUNNEL, make_spec({"/createUser": {"post": get_op()}})) == []

    def test_method_query_parameter_violates(self):
        spec = make_spec({"/users": {"get": get_op(
            parameters=[{"name": "_method", "in": "query"}])}})
        violations = check(RuleId.NO_TUNNEL, spec)
        assert [v.fragment for v in violations] == ["_method"]

    def test_operation_id_tokens_scanned(self):
        spec = make_spec({"/users": {"post": get_op(operationId="deleteUser")}})
        assert [v.fragment for v in check(RuleId.NO_TUNNEL, spec)] == ["delete"]

    def test_other_methods_ignored(self):
        spec = make_spec({"/users/delete": {"delete": get_op()}})
        assert check(RuleId.NO_TUNNEL, spec) == []

    @given(st.text(st.sampled_from(string.ascii_letters + string.digits + "-_.~\ud800é²İǅＡ")
                   | st.characters(exclude_categories=()), max_size=24))
    def test_operation_id_words_are_split_words(self, text):
        # A lexicon that reads every word as a CRUD token shows every operationId word.
        lexicon = LEX._replace(crud_token_to_method=_EveryWordIsCrud())
        op = OperationRecord(text, None, None, False, frozenset(), {}, False, ())
        tokens = rules._action_tokens(tokenize_path("/"), op, lexicon)
        assert [word for word, _ in tokens] == list(dict.fromkeys(split_words(text)[0]))


class _EveryWordIsCrud(dict):
    def get(self, key, default=None):
        return "GET"


class TestGetRetrieve:
    def test_get_that_deletes_violates(self):
        violations = check(RuleId.GET_RETRIEVE, make_spec({"/deleteUser": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["delete"]

    def test_plain_get_is_clean(self):
        assert check(RuleId.GET_RETRIEVE, make_spec({"/users": {"get": get_op()}})) == []

    def test_get_with_body_violates(self):
        spec = make_spec({"/users": {"get": get_op(
            requestBody={"content": {"application/json": {}}})}})
        violations = check(RuleId.GET_RETRIEVE, spec)
        assert [v.fragment for v in violations] == ["request-body"]

    def test_read_tokens_are_fine(self):
        assert check(RuleId.GET_RETRIEVE, make_spec({"/fetchUsers": {"get": get_op()}})) == []


class TestHyphens:
    def test_camel_case_violates(self):
        violations = check(RuleId.HYPHENS, make_spec({"/userProfiles": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["userProfiles"]

    def test_hyphenated_is_clean(self):
        assert check(RuleId.HYPHENS, make_spec({"/user-profiles": {"get": get_op()}})) == []

    def test_digit_boundary_exempt(self):
        assert check(RuleId.HYPHENS, make_spec({"/v2": {"get": get_op()}})) == []

    def test_underscore_boundary_violates(self):
        violations = check(RuleId.HYPHENS, make_spec({"/user_profiles": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["user_profiles"]


class TestLowercase:
    def test_uppercase_literal_violates(self):
        violations = check(RuleId.LOWERCASE, make_spec({"/Users": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["Users"]

    def test_parameter_names_exempt(self):
        assert check(RuleId.LOWERCASE, make_spec({"/users/{userId}": {"get": get_op()}})) == []

    def test_lowercase_is_clean(self):
        assert check(RuleId.LOWERCASE, make_spec({"/users": {"get": get_op()}})) == []

    def test_parameter_exemption_toggle(self):
        spec = make_spec({"/users/{userId}": {"get": get_op()}})
        violations = check(RuleId.LOWERCASE, spec, exempt_parameter_names=False)
        assert [v.fragment for v in violations] == ["{userId}"]


class TestNoUnderscores:
    def test_underscore_literal_violates(self):
        violations = check(RuleId.NO_UNDERSCORES, make_spec({"/user_profiles": {"get": get_op()}}))
        assert [v.fragment for v in violations] == ["user_profiles"]

    def test_parameter_names_exempt(self):
        spec = make_spec({"/users/{user_id}": {"get": get_op()}})
        assert check(RuleId.NO_UNDERSCORES, spec) == []

    def test_hyphenated_is_clean(self):
        assert check(RuleId.NO_UNDERSCORES, make_spec({"/user-profiles": {"get": get_op()}})) == []

    def test_parameter_exemption_toggle(self):
        spec = make_spec({"/users/{user_id}": {"get": get_op()}})
        violations = check(RuleId.NO_UNDERSCORES, spec, exempt_parameter_names=False)
        assert [v.fragment for v in violations] == ["{user_id}"]


_SEGMENT_TEXT_RULES = frozenset({RuleId.LOWERCASE, RuleId.NO_UNDERSCORES, RuleId.HYPHENS,
                                 RuleId.FORWARD_SLASH})


class TestNonAsciiSegments:
    # Titlecase ǅ is not upper-case, though lower() changes it; İ lowers to
    # two characters; ß upper-cases to two; Ａ-style fullwidth letters
    # have case; é is a word character on either side of a separator.
    @pytest.mark.parametrize("path, exempt, rules", [
        ("/ǅemo", True, []),
        ("/aǅ", True, []),
        ("/İtems", True, ["Lowercase"]),
        ("/straße_items", True, ["Hyphens", "NoUnderscores"]),
        ("/ａＢc", True, ["Hyphens", "Lowercase"]),
        ("/café.menu", True, ["ForwardSlash"]),
        ("/é:ß", True, ["ForwardSlash"]),
        ("/ß;x", True, ["ForwardSlash"]),
        ("/a．b", True, []),
        ("/ÉtatCivil", True, ["Hyphens", "Lowercase"]),
        ("/café-menu", True, []),
        ("/ßé", True, []),
        ("/{Éid}", True, []),
        ("/{Éid}", False, ["Lowercase"]),
        ("/{ǅ_é}", False, ["NoUnderscores"]),
    ])
    def test_segment_text_rules(self, path, exempt, rules):
        spec = make_spec({path: {"get": get_op()}})
        violations = run_rules(
            spec, RuleConfig(enabled=_SEGMENT_TEXT_RULES, exempt_parameter_names=exempt), LEX)
        assert sorted(v.rule.value for v in violations) == rules
        assert {v.fragment for v in violations} <= {path[1:]}


class TestRunRules:
    def test_clean_spec_has_no_violations(self):
        spec = make_spec({"/users": {"get": get_op()}})
        assert run_rules(spec, RuleConfig(), LEX) == []

    def test_create_user_triggers_crud_and_hyphens(self):
        spec = make_spec({"/createUser": {"post": get_op(
            requestBody={"content": {"application/json": {}}})}})
        rules = {v.rule for v in run_rules(spec, RuleConfig(), LEX)}
        assert {RuleId.NO_CRUD_NAMES, RuleId.HYPHENS} <= rules

    def test_nothing_enabled_means_no_output(self):
        spec = make_spec({"/createUser": {"post": get_op()}})
        assert run_rules(spec, RuleConfig(enabled=frozenset()), LEX) == []

    def test_output_is_sorted_and_deterministic(self):
        spec = make_spec({"/deleteUser": {"get": get_op()},
                          "/Users_": {"get": get_op()}})
        first = run_rules(spec, RuleConfig(), LEX)
        second = run_rules(spec, RuleConfig(), LEX)
        assert first == second
        ordered = list(build_report("t", first).violations)
        assert ordered == sorted(ordered, key=lambda v: (
            v.path, v.method or "", v.rule.value, v.fragment, v.status_key or ""))

    def test_disabling_one_rule_removes_exactly_its_violations(self, corpus_labels, lexicon):
        for entry in corpus_labels:
            full = lint_fixture(entry, lexicon)
            spec = load_spec_file(CORPUS / entry["file"], spec_id=entry["file"])
            base_cfg = rule_config_for(entry, entry["file"])
            for rule in RuleId:
                cfg = base_cfg._replace(enabled=frozenset(set(RuleId) - {rule}))
                reduced = run_rules(spec, cfg, lexicon)
                expected = [v for v in full if v.rule is not rule]
                assert reduced == expected, (entry["file"], rule)

    def test_exact_duplicates_coalesce(self):
        spec = make_spec({"/create/create": {"post": get_op()}})
        violations = [v for v in build_report("t", run_rules(spec, RuleConfig(), LEX)).violations
                      if v.rule is RuleId.NO_CRUD_NAMES]
        # both segments carry the same token; identical tuples collapse
        assert len(violations) == 1

    def test_violations_are_violation_records(self):
        spec = make_spec({"/createUser": {"post": get_op(operationId="deleteUser")}})
        violations = run_rules(spec, RuleConfig(), LEX)
        assert violations and all(type(v) is Violation for v in violations)
        first = violations[0]
        assert first == (first.rule, first.path, first.method, first.status_key,
                         first.fragment, first.message)
        changed = first._replace(message="m")
        assert type(changed) is Violation and changed.message == "m"
        assert changed[:5] == first[:5]

    def test_cross_rule_overlap_preserved(self):
        spec = make_spec({"/user_profiles": {"get": get_op()}})
        rules = {v.rule for v in run_rules(spec, RuleConfig(), LEX)}
        assert {RuleId.HYPHENS, RuleId.NO_UNDERSCORES} <= rules


_ENUMS = {"SegmentKind", "Archetype", "RuleId", "Category"}


def _enum_read(node: ast.AST) -> tuple[str, str] | None:
    """(enum class, attribute) of a read such as SegmentKind.LITERAL."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in _ENUMS):
        return node.value.id, node.attr
    return None


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


class TestEnumReads:
    """On Python 3.10 and 3.11 a read through an Enum class takes
    EnumType.__getattr__'s slow path, ~10 times a module constant's cost, so
    function bodies in the hot modules read members through constants bound at
    import. Module-level tables may read through the class."""

    @pytest.mark.parametrize("module", [uri, rules, model, reporting],
                             ids=lambda module: module.__name__)
    def test_no_function_reads_a_member_through_its_class(self, module):
        reads = sorted({
            f"line {node.lineno}: {'.'.join(read)}"
            for function in ast.walk(_tree(module))
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(function) if (read := _enum_read(node))
        })
        assert reads == []

    @pytest.mark.parametrize("module", [uri, rules], ids=lambda module: module.__name__)
    def test_each_constant_is_its_member(self, module):
        bound = {}
        for statement in _tree(module).body:
            if not isinstance(statement, ast.Assign):
                continue
            target, value = statement.targets[0], statement.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            bound.update((name.id, read) for name, node in pairs
                         if isinstance(name, ast.Name) and (read := _enum_read(node)))
        assert bound
        for name, (enum_name, member) in bound.items():
            assert name == f"_{member}"
            assert getattr(module, name) is getattr(module, enum_name)[member]
