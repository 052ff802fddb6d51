"""Report building, corpus aggregation arithmetic, and rendering."""

from __future__ import annotations

import json
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_reports
from rest_lint import (
    ALL_RULES,
    EmptyCorpus,
    LintReport,
    RuleConfig,
    RuleId,
    UnsupportedFormat,
    Violation,
    aggregate,
    build_report,
    default_lexicon,
    load_spec,
    render,
    run_rules,
)

LEX = default_lexicon()


def make_violation(rule: RuleId, path: str, fragment: str) -> Violation:
    return Violation(
        rule=rule, path=path, method=None, status_key=None,
        fragment=fragment, message="synthetic",
    )


def report_with(spec_id: str, counts: dict[RuleId, int]):
    violations = [
        make_violation(rule, f"/p{i}", "x")
        for rule, n in counts.items()
        for i in range(n)
    ]
    return build_report(spec_id, violations)


class TestBuildReport:
    def test_counts_match_violations(self):
        report = report_with("a", {RuleId.HYPHENS: 3, RuleId.RC401: 1})
        assert report.counts[RuleId.HYPHENS] == 3
        assert report.counts[RuleId.RC401] == 1
        assert sum(report.counts.values()) == len(report.violations)

    def test_all_rules_have_a_count(self):
        report = build_report("a", [])
        assert set(report.counts) == set(RuleId)
        assert all(n == 0 for n in report.counts.values())

    def test_duplicates_coalesce(self):
        v = make_violation(RuleId.HYPHENS, "/p", "x")
        report = build_report("a", [v, v])
        assert len(report.violations) == 1

    def test_violations_sorted(self):
        vs = [
            make_violation(RuleId.HYPHENS, "/z", "x"),
            make_violation(RuleId.HYPHENS, "/a", "x"),
        ]
        report = build_report("a", vs)
        assert [v.path for v in report.violations] == ["/a", "/z"]

    def test_first_of_equal_keys_is_kept(self):
        # Both segments give NoCRUDNames 'create' on one path: one finding, the first.
        report = json.loads(_report_bytes({"openapi": "3.0.0", "paths": {
            "/create-user/create-item": {"get": {"responses": {"200": _JSON_BODY}}}}}))
        found = [v for v in report["violations"] if v["rule"] == "NoCRUDNames"]
        assert len(found) == 1
        assert found[0]["fragment"] == "create"
        assert "'create-user'" in found[0]["message"]

    @given(st.data())
    def test_equals_reference(self, data):
        # Few distinct values, so keys repeat; a repeat may be the same object.
        drawn = data.draw(st.lists(st.builds(
            Violation, _RULES, st.sampled_from(["/a", "/b", ""]),
            st.sampled_from([None, "", "GET"]), st.sampled_from([None, "", "200"]),
            st.sampled_from(["x", ""]), st.text(max_size=2)), max_size=12))
        repeats = data.draw(st.lists(st.sampled_from(drawn), max_size=4) if drawn else st.just([]))
        violations = drawn + repeats
        assert build_report("s", violations) == _report_via_sort_key("s", violations)


def _report_via_sort_key(spec_id: str, violations: list[Violation]) -> LintReport:
    """The oracle: keep the first violation of each sort_key(), sort, count per rule."""
    unique: dict[tuple, Violation] = {}
    for violation in violations:
        unique.setdefault(violation.sort_key(), violation)
    ordered = tuple(unique[key] for key in sorted(unique))
    counts = {rule: sum(v.rule is rule for v in ordered) for rule in RuleId}
    return LintReport(spec_id, ordered, counts)


class TestAggregate:
    def test_half_case_rounds_up(self):
        # 39 of 40 affected: 97.5 renders as 98
        reports = [report_with(f"p{i}", {RuleId.HYPHENS: 1}) for i in range(39)]
        reports[0] = report_with("p0", {RuleId.HYPHENS: 132})
        reports.append(report_with("p39", {}))
        summary = aggregate(reports, total_projects=40)
        row = next(r for r in summary.rows if r.rule is RuleId.HYPHENS)
        assert (row.occurrences, row.projects_affected, row.percentage) == (170, 39, 98)

    def test_other_half_case(self):
        # 35 of 40 affected: 87.5 renders as 88
        reports = [report_with(f"p{i}", {RuleId.PLURAL_NOUN: 1}) for i in range(35)]
        reports[0] = report_with("p0", {RuleId.PLURAL_NOUN: 145})
        reports += [report_with(f"p{i}", {}) for i in range(35, 40)]
        summary = aggregate(reports, total_projects=40)
        row = next(r for r in summary.rows if r.rule is RuleId.PLURAL_NOUN)
        assert (row.occurrences, row.projects_affected, row.percentage) == (179, 35, 88)

    def test_single_clean_project(self):
        summary = aggregate([build_report("only", [])], total_projects=1)
        assert all(
            (r.occurrences, r.projects_affected, r.percentage) == (0, 0, 0)
            for r in summary.rows
        )

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            aggregate([], total_projects=0)

    def test_total_must_cover_distinct_ids(self):
        with pytest.raises(ValueError):
            aggregate([build_report("a", []), build_report("b", [])], total_projects=1)

    def test_rows_are_in_canonical_rule_order(self):
        summary = aggregate([build_report("a", [])], total_projects=1)
        assert [r.rule for r in summary.rows] == list(RuleId)

    def test_permutation_invariant(self):
        rng = random.Random(11)
        reports = [
            report_with(f"p{i}", {rule: (i + j) % 3 for j, rule in enumerate(RuleId)})
            for i in range(12)
        ]
        baseline = aggregate(reports, total_projects=15)
        for _ in range(10):
            rng.shuffle(reports)
            assert aggregate(reports, total_projects=15) == baseline

    def test_multiple_reports_same_project_count_once(self):
        reports = [
            report_with("p0", {RuleId.HYPHENS: 2}),
            report_with("p0", {RuleId.HYPHENS: 3}),
        ]
        row = next(
            r for r in aggregate(reports, total_projects=4).rows
            if r.rule is RuleId.HYPHENS
        )
        assert (row.occurrences, row.projects_affected, row.percentage) == (5, 1, 25)


class TestPercentageRounding:
    @pytest.mark.parametrize(
        "affected,total,expected",
        [
            (39, 40, 98), (35, 40, 88), (33, 40, 83), (11, 40, 28), (9, 40, 23),
            (5, 40, 13), (3, 40, 8), (1, 40, 3),  # all the .5 cases round up
            (12, 40, 30), (14, 40, 35), (4, 40, 10),  # exact cases
            (0, 40, 0), (40, 40, 100), (1, 3, 33), (2, 3, 67),
        ],
    )
    def test_round_half_up(self, affected, total, expected):
        reports = [report_with(f"p{i}", {RuleId.RC401: 1}) for i in range(affected)]
        reports += [report_with(f"q{i}", {}) for i in range(total - affected)]
        summary = aggregate(reports, total_projects=total)
        row = next(r for r in summary.rows if r.rule is RuleId.RC401)
        assert row.percentage == expected


class TestRender:
    def test_empty_report_json(self):
        data = render(build_report("x", []), "json")
        text = data.decode("utf-8")
        assert text.startswith('{"spec_id":"x","violations":[],"counts":{')
        assert '"Hyphens":0' in text

    def test_json_omits_absent_method_and_status(self):
        report = build_report("x", [make_violation(RuleId.HYPHENS, "/p", "f")])
        text = render(report, "json").decode("utf-8")
        assert '"method"' not in text and '"status_key"' not in text
        assert '"category":"URIDesign"' in text

    def test_text_line_has_rule_path_fragment_message(self):
        report = build_report("x", [make_violation(RuleId.HYPHENS, "/userProfiles", "userProfiles")])
        lines = render(report, "text").decode("utf-8").splitlines()
        assert lines[0] == "x: 1 violation"
        assert lines[1] == "  /userProfiles Hyphens 'userProfiles': synthetic"

    def test_csv_summary_shape(self):
        summary = aggregate([build_report("a", [])], total_projects=1)
        lines = render(summary, "csv").decode("utf-8").splitlines()
        assert lines[0] == "rule,occurrences,projects,percentage"
        assert len(lines) == 15
        assert lines[1] == "RC401,0,0,0"
        assert lines[-1] == "NoUnderscores,0,0,0"

    def test_csv_uses_lf_endings(self):
        summary = aggregate([build_report("a", [])], total_projects=1)
        assert b"\r" not in render(summary, "csv")

    def test_csv_rejected_for_reports(self):
        with pytest.raises(UnsupportedFormat):
            render(build_report("x", []), "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(UnsupportedFormat):
            render(build_report("x", []), "xml")

    def test_summary_text_mentions_totals(self):
        summary = aggregate([build_report("a", [])], total_projects=7)
        text = render(summary, "text").decode("utf-8")
        assert text.startswith("total projects: 7\n")

    def test_json_injective_over_corpus_reports(self, corpus_labels, lexicon):
        reports = corpus_reports(corpus_labels, lexicon)
        rendered = [render(r, "json") for r in reports]
        assert len(set(rendered)) == len(rendered)

    def test_render_is_deterministic(self, corpus_labels, lexicon):
        for report in corpus_reports(corpus_labels, lexicon):
            for fmt in ("text", "json"):
                assert render(report, fmt) == render(report, fmt)


def _json_via_dumps(report: LintReport) -> bytes:
    """The oracle: the json renderer as it was when it built the document."""
    violations = []
    for v in report.violations:
        doc = {"rule": v.rule.value, "category": v.rule.category.value, "path": v.path}
        if v.method is not None:
            doc["method"] = v.method
        if v.status_key is not None:
            doc["status_key"] = v.status_key
        doc["fragment"] = v.fragment
        doc["message"] = v.message
        violations.append(doc)
    doc = {
        "spec_id": report.spec_id,
        "violations": violations,
        "counts": {rule.value: report.counts.get(rule, 0) for rule in RuleId},
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


# Text json must escape: quotes, backslashes, control characters, a non-BMP
# character and lone surrogates, mixed with any other code point.
_AWKWARD_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\n\x1f\x7f\u2028\U0001f600\ud800\udfff'),
    st.characters(exclude_categories=()),
), max_size=8)
_RULES = st.sampled_from(list(RuleId))
_FINDINGS = st.builds(Violation, _RULES, _AWKWARD_TEXT, st.none() | _AWKWARD_TEXT,
                      st.none() | _AWKWARD_TEXT, _AWKWARD_TEXT, _AWKWARD_TEXT)
_REPORTS = st.builds(LintReport, _AWKWARD_TEXT, st.lists(_FINDINGS, max_size=6).map(tuple),
                     st.dictionaries(_RULES, st.integers(0, 10**9)))


class TestJsonRenderer:
    @given(_REPORTS)
    def test_bytes_equal_json_dumps(self, report):
        assert render(report, "json") == _json_via_dumps(report)

    def test_one_finding_escaped(self):
        violation = Violation(RuleId.LOWERCASE, '/a"\\\ud800\U0001f600', "GET", None,
                              "\x00", "caf\u00e9")
        text = render(LintReport("s\n", (violation,), {}), "json").decode("ascii")
        assert text.startswith(
            '{"spec_id":"s\\n","violations":[{"rule":"Lowercase","category":"URIDesign",'
            '"path":"/a\\"\\\\\\ud800\\ud83d\\ude00","method":"GET","fragment":"\\u0000",'
            '"message":"caf\\u00e9"}],"counts":{"RC401":0,')

    def test_violation_is_a_tuple(self):
        violation = make_violation(RuleId.HYPHENS, "/p", "f")
        assert violation == (RuleId.HYPHENS, "/p", None, None, "f", "synthetic")
        rule, path, *_ = violation
        assert (rule, path) == (violation.rule, violation.path)
        assert violation.sort_key() == ("/p", "", "Hyphens", "f", "")


# Small OpenAPI 3 documents whose paths and operations trip most rules: upper
# case, underscores, CRUD words, parameters, trailing and doubled slashes,
# unsecured 401-less operations, bodies without media types.
_JSON_BODY = {"description": "d", "content": {"application/json": {}}}
_SEGMENTS = st.sampled_from([
    "users", "user", "Users", "user_profiles", "userProfiles", "create", "createUser",
    "delete-item", "getOrders", "items", "v2", "api", "{id}", "{user_id}", "{Id}",
    "export.csv", "",
])
_PATHS = st.builds(lambda segments, tail: "/" + "/".join(segments) + tail,
                   st.lists(_SEGMENTS, min_size=1, max_size=4), st.sampled_from(["", "", "/"]))
_OPERATIONS = st.fixed_dictionaries(
    {"responses": st.dictionaries(
        st.sampled_from(["200", "201", "204", "401", "4XX", "default"]),
        st.sampled_from([{"description": "d"}, _JSON_BODY]), min_size=1, max_size=4)},
    optional={
        "operationId": st.sampled_from(["listUsers", "createUser", "deleteItem",
                                        "update_order", "getAll"]),
        "requestBody": st.sampled_from([{}, {"content": {"application/json": {}}}]),
        "security": st.sampled_from([[], [{"key": []}]]),
    },
)
_METHODS = st.dictionaries(st.sampled_from(["get", "post", "put", "patch", "delete"]),
                           _OPERATIONS, min_size=1, max_size=3)
_SPECS = st.fixed_dictionaries(
    {"openapi": st.just("3.0.0"), "paths": st.dictionaries(_PATHS, _METHODS, max_size=5)},
    optional={"security": st.just([{"key": []}])},
)


def _report_bytes(doc: dict, encode=json.dumps, cfg: RuleConfig = RuleConfig()) -> bytes:
    spec = load_spec(encode(doc).encode("utf-8"), "generated")
    return render(build_report(spec.spec_id, run_rules(spec, cfg, LEX)), "json")


def _as_swagger2(doc: dict) -> dict:
    """The same API as a Swagger 2.0 document, with no media types."""
    paths = {}
    for path, item in doc["paths"].items():
        paths[path] = {}
        for method, op in item.items():
            own = {"responses": {status: {"description": "d"} for status in op["responses"]}}
            own.update((key, op[key]) for key in ("operationId", "security") if key in op)
            if "requestBody" in op:
                own["parameters"] = [{"in": "body", "name": "body", "schema": {}}]
            paths[path][method] = own
    swagger = {"swagger": "2.0", "paths": paths}
    if "security" in doc:
        swagger["security"] = doc["security"]
    return swagger


def _shuffled(data, mapping: dict) -> dict:
    return dict(data.draw(st.permutations(list(mapping.items()))))


class TestGeneratedSpecs:
    @settings(max_examples=100, deadline=None)
    @given(_SPECS, st.data())
    def test_path_order_does_not_change_bytes(self, doc, data):
        shuffled = {**doc, "paths": _shuffled(data, doc["paths"])}
        assert _report_bytes(shuffled) == _report_bytes(doc)

    @settings(max_examples=100, deadline=None)
    @given(_SPECS, st.data())
    def test_method_and_response_order_does_not_change_bytes(self, doc, data):
        paths = {
            path: _shuffled(data, {
                method: {**op, "responses": _shuffled(data, op["responses"])}
                for method, op in item.items()
            })
            for path, item in doc["paths"].items()
        }
        assert _report_bytes({**doc, "paths": paths}) == _report_bytes(doc)

    @settings(max_examples=100, deadline=None)
    @given(_SPECS)
    def test_json_and_yaml_encodings_give_equal_bytes(self, doc):
        as_yaml = _report_bytes(doc, lambda d: yaml.safe_dump(d, sort_keys=False))
        assert as_yaml == _report_bytes(doc)

    @settings(max_examples=100, deadline=None)
    @given(_SPECS)
    def test_swagger2_and_openapi3_give_equal_bytes(self, doc):
        # Swagger 2 declares response media types per operation, not per response.
        cfg = RuleConfig(enabled=ALL_RULES - {RuleId.CONTENT_TYPE})
        assert _report_bytes(_as_swagger2(doc), cfg=cfg) == _report_bytes(doc, cfg=cfg)
