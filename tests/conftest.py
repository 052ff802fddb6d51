"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from rest_lint import (
    Archetype,
    RuleConfig,
    Violation,
    build_report,
    default_lexicon,
    load_spec_file,
    run_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture
def collector_off():
    """Automatic garbage collection off for the test, starting from an empty heap
    of garbage; the collector's state is restored afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.fixture(scope="session")
def corpus_labels():
    return json.loads((CORPUS / "labels.json").read_text(encoding="utf-8"))["specs"]


def violation_key(v: Violation) -> tuple:
    return (v.rule.value, v.path, v.method, v.status_key, v.fragment)


def expected_key(entry: dict) -> tuple:
    return (
        entry["rule"],
        entry["path"],
        entry.get("method"),
        entry.get("status_key"),
        entry["fragment"],
    )


def rule_config_for(entry: dict, spec_id: str) -> RuleConfig:
    overrides: dict[tuple[str, str], dict[int, Archetype]] = {}
    for o in entry.get("archetype_overrides", []):
        overrides.setdefault((spec_id, o["path"]), {})[o["segment_index"]] = Archetype(
            o["archetype"]
        )
    return RuleConfig(archetype_overrides=overrides)


def lint_fixture(entry: dict, lexicon) -> list[Violation]:
    spec_id = entry["file"]
    spec = load_spec_file(CORPUS / entry["file"], spec_id=spec_id)
    return run_rules(spec, rule_config_for(entry, spec_id), lexicon)


def corpus_reports(labels, lexicon):
    return [
        build_report(entry["file"], lint_fixture(entry, lexicon)) for entry in labels
    ]
