"""Acceptance suite: one test per shipping criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import time

from conftest import CORPUS, expected_key, lint_fixture, violation_key
from rest_lint import (
    NotAnApiSpec,
    ParseError,
    RuleConfig,
    RuleId,
    Violation,
    aggregate,
    build_report,
    is_plural,
    load_spec,
    render,
    run_rules,
)
from rest_lint.cli import EXIT_ERROR, main
from test_lexicon import REGULAR_NOUN_PAIRS

# A reference 40-project corpus exercising every half-percent rounding case:
# (rule, total occurrences, projects affected, expected integer percentage).
REFERENCE_ROWS = [
    (RuleId.RC401, 52, 5, 13),
    (RuleId.PLURAL_NOUN, 179, 35, 88),
    (RuleId.SINGULAR_NOUN, 48, 12, 30),
    (RuleId.NO_TRAILING_SLASH, 5, 5, 13),
    (RuleId.VERB_CONTROLLER, 1, 1, 3),
    (RuleId.NO_CRUD_NAMES, 61, 11, 28),
    (RuleId.CONTENT_TYPE, 322, 14, 35),
    (RuleId.DESCRIPTION_TYPE, 10, 9, 23),
    (RuleId.FORWARD_SLASH, 3, 3, 8),
    (RuleId.NO_TUNNEL, 28, 4, 10),
    (RuleId.GET_RETRIEVE, 201, 33, 83),
    (RuleId.HYPHENS, 170, 39, 98),
    (RuleId.LOWERCASE, 35, 5, 13),
    (RuleId.NO_UNDERSCORES, 5, 3, 8),
]

REFERENCE_CSV = """rule,occurrences,projects,percentage
RC401,52,5,13
PluralNoun,179,35,88
SingularNoun,48,12,30
NoTrailingSlash,5,5,13
VerbController,1,1,3
NoCRUDNames,61,11,28
ContentType,322,14,35
DescriptionType,10,9,23
ForwardSlash,3,3,8
NoTunnel,28,4,10
GETRetrieve,201,33,83
Hyphens,170,39,98
Lowercase,35,5,13
NoUnderscores,5,3,8
""".encode("utf-8")

TOTAL_PROJECTS = 40


def synthetic_reference_reports() -> list:
    """40 reports whose per-rule totals equal the reference rows.

    The first affected project absorbs the occurrence surplus; every
    other affected project contributes exactly one violation.
    """
    violations: dict[str, list[Violation]] = {
        f"p{i:02d}": [] for i in range(TOTAL_PROJECTS)
    }
    for rule, occurrences, affected, _ in REFERENCE_ROWS:
        for project_index in range(affected):
            count = occurrences - (affected - 1) if project_index == 0 else 1
            spec_id = f"p{project_index:02d}"
            for k in range(count):
                violations[spec_id].append(Violation(
                    rule=rule, path=f"/{rule.value.lower()}/{k}",
                    method=None, status_key=None, fragment=str(k),
                    message="synthetic",
                ))
    return [build_report(spec_id, found) for spec_id, found in violations.items()]


def test_reference_corpus_aggregation_exact():
    """Synthetic 40-project corpus aggregates to the reference rows exactly."""
    start = time.perf_counter()
    reports = synthetic_reference_reports()
    summary = aggregate(reports, total_projects=TOTAL_PROJECTS)
    elapsed = time.perf_counter() - start

    got = [(r.rule, r.occurrences, r.projects_affected, r.percentage) for r in summary.rows]
    assert got == REFERENCE_ROWS
    assert render(summary, "csv") == REFERENCE_CSV
    assert elapsed < 5.0, f"aggregation took {elapsed:.2f}s"
    print("ACCEPTANCE corpus-arithmetic: PASS")


def test_fixture_corpus_matches_labels_exactly(corpus_labels, lexicon):
    """Hand-labeled corpus: zero false positives, zero false negatives."""
    assert len(corpus_labels) >= 15
    for entry in corpus_labels:
        got = sorted(violation_key(v) for v in lint_fixture(entry, lexicon))
        expected = sorted(expected_key(e) for e in entry["violations"])
        assert got == expected, f"{entry['file']}: {got} != {expected}"
    print("ACCEPTANCE fixture-oracle-equivalence: PASS")


def test_crud_name_anti_pattern(lexicon):
    spec = load_spec((CORPUS / "create_user.json").read_bytes(), "create_user")
    rules = {v.rule for v in run_rules(spec, RuleConfig(), lexicon)}
    assert RuleId.NO_CRUD_NAMES in rules
    assert RuleId.HYPHENS in rules
    print("ACCEPTANCE crud-name-anti-pattern: PASS")


def test_get_that_deletes_anti_pattern(lexicon):
    spec = load_spec((CORPUS / "delete_via_get.json").read_bytes(), "delete_via_get")
    rules = {v.rule for v in run_rules(spec, RuleConfig(), lexicon)}
    assert RuleId.GET_RETRIEVE in rules
    print("ACCEPTANCE get-that-deletes-anti-pattern: PASS")


def test_word_oracle_suite(lexicon):
    for plural, singular in lexicon.irregular_plural_to_singular.items():
        assert is_plural(plural, lexicon)
        assert not is_plural(singular, lexicon)
    for word in lexicon.invariant_forms:
        assert not is_plural(word, lexicon)
    assert len(REGULAR_NOUN_PAIRS) * 2 == 100
    for singular, plural in REGULAR_NOUN_PAIRS:
        assert not is_plural(singular, lexicon)
        assert is_plural(plural, lexicon)
    print("ACCEPTANCE lexicon-properties: PASS")


def test_deterministic_output(tmp_path, capsys, corpus_labels, lexicon):
    """Consecutive lint/aggregate runs are byte-identical; order is irrelevant."""
    files = sorted(str(CORPUS / entry["file"]) for entry in corpus_labels)
    main(["lint", *files])
    first_lint = capsys.readouterr().out
    main(["lint", *files])
    second_lint = capsys.readouterr().out
    assert first_lint == second_lint and first_lint

    root = tmp_path / "corpus"
    for i, entry in enumerate(corpus_labels):
        project = root / f"project{i:02d}"
        project.mkdir(parents=True)
        shutil.copy(CORPUS / entry["file"], project / entry["file"])
    main(["aggregate", str(root), "--format", "csv"])
    first_agg = capsys.readouterr().out
    main(["aggregate", str(root), "--format", "csv"])
    second_agg = capsys.readouterr().out
    assert first_agg == second_agg and first_agg

    # Project order cannot change the aggregate.
    reports = [
        build_report(entry["file"], lint_fixture(entry, lexicon))
        for entry in corpus_labels
    ]
    baseline = aggregate(reports, total_projects=len(reports))
    rng = random.Random(23)
    for _ in range(10):
        rng.shuffle(reports)
        assert aggregate(reports, total_projects=len(reports)) == baseline
    print("ACCEPTANCE determinism: PASS")


def test_pipeline_leaves_no_cyclic_garbage(collector_off, lexicon):
    """Every object loading, linting and rendering makes is freed by reference
    counting, so the CLI can run with automatic collection off."""
    for path in sorted(CORPUS.iterdir()):
        try:
            spec = load_spec(path.read_bytes(), path.name)
        except NotAnApiSpec:
            pass
        else:
            report = build_report(spec.spec_id, run_rules(spec, RuleConfig(), lexicon))
            for fmt in ("text", "json"):
                render(report, fmt)
        assert gc.collect() == 0, path.name


def _fuzzed_inputs(count: int) -> list[bytes]:
    """Deterministically generated malformed or non-spec inputs.

    The generator never emits the key tokens that would make a document
    an API description, so every input must be rejected.
    """
    rng = random.Random(0x5EED)
    keys = ["alpha", "beta", "gamma", "k1", "zz", "data", "items", "x"]
    samples: list[bytes] = []
    for i in range(count):
        kind = i % 5
        if kind == 0:  # raw bytes
            samples.append(bytes(rng.randrange(256) for _ in range(rng.randrange(1, 120))))
        elif kind == 1:  # truncated JSON
            doc = {rng.choice(keys): [rng.randrange(100) for _ in range(5)]}
            text = json.dumps(doc)
            samples.append(text[: rng.randrange(1, len(text))].encode("utf-8"))
        elif kind == 2:  # unbalanced brackets / YAML flow errors
            samples.append((rng.choice(["[", "{", "a: ["]) * rng.randrange(1, 40)).encode())
        elif kind == 3:  # valid JSON that is not an API description
            doc = {rng.choice(keys): rng.randrange(1000), "n": [1, 2, 3]}
            samples.append(json.dumps(doc).encode("utf-8"))
        else:  # hostile YAML-isms
            samples.append(rng.choice([
                b"!!python/object:os.system echo pwned",
                b"&a [*a, *a]",
                b"\x00\x01\x02\x03",
                b"%%%%%\n\t\t:::",
                b"- - - - -\n  - :",
                b'{"a": 1' + b"\xed\xa0\x80",  # invalid UTF-8 tail
            ]))
    return samples


def test_malformed_inputs_never_crash(tmp_path, capsys):
    """1,000 fuzzed inputs: always a clean rejection, never a crash."""
    samples = _fuzzed_inputs(1000)
    assert len(samples) == 1000
    for i, data in enumerate(samples):
        try:
            load_spec(data, f"fuzz{i}")
        except (ParseError, NotAnApiSpec):
            continue
        raise AssertionError(f"fuzz input {i} was not rejected: {data[:40]!r}")

    # A sample of them through the CLI must exit 2 with a diagnostic.
    for i in range(0, 1000, 97):
        target = tmp_path / f"fuzz{i}.json"
        target.write_bytes(samples[i])
        assert main(["lint", str(target)]) == EXIT_ERROR
        assert capsys.readouterr().err
    print("ACCEPTANCE malformed-input-robustness: PASS")


def test_large_spec_lints_under_two_seconds(lexicon):
    """1,000 paths x 3 operations lints in < 2 s."""
    paths: dict = {}
    ok = {"description": "OK", "content": {"application/json": {}}}
    for i in range(1000):
        paths[f"/collection{i}/{{id}}/userItems"] = {
            "get": {"summary": "Fetch items", "responses": {"200": ok}},
            "post": {
                "summary": "Create an item",
                "requestBody": {"content": {"application/json": {}}},
                "responses": {"201": ok},
            },
            "delete": {"summary": "Drop the item", "responses": {"204": {"description": "gone"}}},
        }
    doc = json.dumps({
        "openapi": "3.0.0",
        "info": {"title": "Big", "version": "1.0.0"},
        "paths": paths,
    }).encode("utf-8")

    start = time.perf_counter()
    spec = load_spec(doc, "big")
    violations = run_rules(spec, RuleConfig(), lexicon)
    report = build_report(spec.spec_id, violations)
    render(report, "json")
    elapsed = time.perf_counter() - start

    assert len(spec.paths) == 1000
    assert violations  # the camel-case leaf violates Hyphens/Lowercase
    assert elapsed < 2.0, f"lint took {elapsed:.2f}s"
    print(f"ACCEPTANCE desk-scale-performance: PASS ({elapsed:.2f}s)")
