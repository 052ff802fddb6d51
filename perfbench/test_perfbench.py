"""Tests of the benchmark itself: generator, checks, span recorder, compare.

The smoke runs use a tiny scale, so they check behaviour, not speed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml

import compare
import run
from layers import traced_main
from spans import Span, Tracer, check_tree, self_times
from workloads import WORKLOADS, generate, to_json, to_yaml

CHECKOUT = Path(__file__).resolve().parent.parent
TINY = 0.02


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_bytes(tmp_path, name):
    first = generate(name, 7, tmp_path / "a", TINY)
    second = generate(name, 7, tmp_path / "b", TINY)
    generate(name, 8, tmp_path / "c", TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first.expected_counts == second.expected_counts
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(tmp_path, name, trace):
    result = run.run(CHECKOUT, name, seed=3, seconds=0, trace=trace, scale=TINY,
                     work_root=tmp_path)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    declared = json.loads(run.SPEC_FILE.read_text())["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_changed_output_bytes_fail_the_check(tmp_path, monkeypatch):
    digests = tmp_path / "digests.json"
    pinned = json.loads(run.DIGESTS_FILE.read_text())
    digests.write_text(json.dumps({**pinned, "lint-yaml": "0" * 64}))
    monkeypatch.setattr(run, "DIGESTS_FILE", digests)
    result = run.run(CHECKOUT, "lint-yaml", seed=3, seconds=0, trace=False, scale=TINY,
                     work_root=tmp_path / "work")
    assert not result["correct"]
    assert result["failed"] == 1
    assert "output digest" in result["failures"][0]


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "lint-yaml", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name, encode", [("lint-yaml", to_json), ("lint-json", to_yaml)])
def test_json_and_yaml_encodings_give_identical_findings(tmp_path, name, encode):
    from rest_lint import RuleConfig, default_lexicon, load_spec, run_rules

    inputs = generate(name, 11, tmp_path, 0.05)
    original = (tmp_path / inputs.specs[0][0]).read_bytes()
    other = encode(yaml.safe_load(original))
    assert other != original
    found = [run_rules(load_spec(data, "spec"), RuleConfig(), default_lexicon())
             for data in (original, other)]
    assert found[0]
    assert found[0] == found[1]


def test_span_tree_is_well_formed_and_self_times_add_up(tmp_path):
    from rest_lint import cli

    inputs = generate("aggregate-corpus", 5, tmp_path / "in", 0.05)
    traced = traced_main(Tracer(), inputs.argv, inputs.directory, tmp_path / "out", 0)
    assert traced.exit_code == inputs.expected_exit
    assert check_tree(traced.spans) == []
    assert {"cli", "model", "uri", "rules", "reporting", "lexicon"} <= {
        s.layer for _, s in traced.spans}
    roots = [s for _, s in traced.spans if s.parent < 0]
    assert len(roots) == 1
    assert sum(self_times(traced.spans).values()) == pytest.approx(
        roots[0].end - roots[0].start, abs=1e-6)
    assert traced.counters.skipped_files >= 1
    assert not hasattr(cli.run_rules, "__wrapped__")  # wrappers are removed afterwards


def test_check_tree_reports_overlapping_siblings():
    spans = [(0, Span("main", "cli", 0.0, 10.0, -1, 0)),
             (1, Span("a", "model", 1.0, 5.0, 0, 0)),
             (2, Span("b", "rules", 4.0, 6.0, 0, 0)),
             (3, Span("c", "uri", 9.0, 11.0, 0, 0))]
    found = check_tree(spans)
    assert any("overlaps" in p for p in found)
    assert any("outside its parent" in p for p in found)


def test_compare_verdicts():
    before = {seed: 1.0 + 0.01 * (seed % 3) for seed in range(10)}

    def scaled(factor: float) -> dict[int, float]:
        return {seed: value * factor for seed, value in before.items()}

    assert compare.verdict(before, scaled(0.8), True, 0.1) == "improved"
    assert compare.verdict(before, scaled(1.3), True, 0.1) == "regressed"
    assert compare.verdict(before, scaled(1.05), True, 0.1) == "no worse"
    assert compare.verdict(before, scaled(1.3), False, 0.1) == "improved"
    noisy = {seed: 1.0 + 0.5 * (seed % 2) for seed in range(10)}
    assert compare.verdict(noisy, scaled(1.2), True, 0.1) == "unresolved"
    assert compare.verdict(before, scaled(1.3), True, None) == "worse"


def test_compare_keeps_every_run_of_a_repeated_seed():
    records = [{"workload": "lint-yaml", "seed": 1, "metrics": {"wall_s": {"value": v}}}
               for v in (1.0, 2.0, 3.0)]
    assert compare.by_metric(records)[("lint-yaml", "wall_s")] == {
        (1, 0): 1.0, (1, 1): 2.0, (1, 2): 3.0}
