"""Per-layer instrumentation of rest-lint for the traced benchmark run.

Layers are the modules of ``src/rest_lint``. The traced run wraps their
public functions, wherever a rest_lint module holds a reference to one,
in a span-recording wrapper for the duration of one in-process
``cli.main`` call. Only public names are used, so refactoring the
modules' private helpers does not break the benchmark; renaming one of
the functions in ``TARGETS`` does, loudly.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterator

from rest_lint import (
    RuleConfig, RuleId, aggregate, cli, load_spec, parse_lexicon, run_rules,
)
from rest_lint.errors import NotAnApiSpec
from spans import Span, Tracer, self_times
from workloads import Inputs

# Layers with a self-time metric; "py" (gc pauses) has py.gc_s instead.
SELF_TIMED = ("model", "uri", "lexicon", "rules", "reporting", "cli", "trace")

# (home module, public function, layer)
TARGETS = (
    ("rest_lint.model", "load_spec", "model"),
    ("rest_lint.model", "load_spec_file", "model"),
    ("rest_lint.uri", "tokenize_path", "uri"),
    ("rest_lint.uri", "classify_archetypes", "uri"),
    ("rest_lint.lexicon", "default_lexicon", "lexicon"),
    ("rest_lint.lexicon", "load_lexicon", "lexicon"),
    ("rest_lint.rules", "run_rules", "rules"),
    ("rest_lint.reporting", "build_report", "reporting"),
    ("rest_lint.reporting", "aggregate", "reporting"),
    ("rest_lint.reporting", "render", "reporting"),
)


@dataclass
class Counters:
    """Work counted at layer boundaries during one traced invocation."""

    files: int = 0
    skipped_files: int = 0
    failed_files: int = 0
    bytes_in: int = 0
    paths: int = 0
    operations: int = 0
    diagnostics: int = 0
    segments: int = 0
    repeated_segments: int = 0
    seen_segments: set[str] = field(default_factory=set)
    findings: Counter = field(default_factory=Counter)
    violations_passed: int = 0
    violations_kept: int = 0
    reports: list = field(default_factory=list)
    bytes_out: int = 0


def _count_input(c: Counters, name: str, args: tuple) -> None:
    c.files += 1
    source = args[0] if args else None
    if isinstance(source, bytes):
        c.bytes_in += len(source)
    elif name == "load_spec_file" and source is not None:
        try:
            c.bytes_in += os.path.getsize(source)
        except OSError:
            pass


def _count_model(c: Counters, name: str, args: tuple, spec: Any) -> None:
    _count_input(c, name, args)
    c.paths += len(spec.paths)
    c.operations += sum(len(entry.operations) for entry in spec.paths.values())
    c.diagnostics += len(spec.diagnostics)


def _count_model_error(c: Counters, name: str, args: tuple, error: Exception) -> None:
    _count_input(c, name, args)
    if isinstance(error, NotAnApiSpec):
        c.skipped_files += 1
    else:
        c.failed_files += 1


def _count_tokenize(c: Counters, name: str, args: tuple, template: Any) -> None:
    for segment in template.segments:
        c.segments += 1
        if segment.name in c.seen_segments:
            c.repeated_segments += 1
        else:
            c.seen_segments.add(segment.name)


def _count_rules(c: Counters, name: str, args: tuple, violations: Any) -> None:
    c.findings.update(v.rule.value for v in violations)


def _count_report(c: Counters, name: str, args: tuple, report: Any) -> None:
    c.violations_passed += len(args[1])  # cli passes the violations as a positional list
    c.violations_kept += len(report.violations)
    c.reports.append(report)


def _count_render(c: Counters, name: str, args: tuple, rendered: Any) -> None:
    c.bytes_out += len(rendered)


# Counting done after a wrapped call returns, or raises, keyed by function name.
_ON_RESULT = {
    "load_spec": _count_model,
    "load_spec_file": _count_model,
    "tokenize_path": _count_tokenize,
    "run_rules": _count_rules,
    "build_report": _count_report,
    "render": _count_render,
}
_ON_ERROR = {
    "load_spec": _count_model_error,
    "load_spec_file": _count_model_error,
}


def _traced(tracer: Tracer, counters: Counters, fn: Callable, name: str, layer: str) -> Callable:
    def traced(*args, **kwargs):
        parent = tracer.current()
        # Only the outermost call of a layer counts (load_spec_file calls load_spec).
        outermost = parent is None or parent.layer != layer
        index = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(index, type(exc).__name__)
            if outermost:
                _bookkeep(tracer, _ON_ERROR.get(name), counters, name, args, exc)
            raise
        except BaseException as exc:  # an interrupt: keep the tree closed, count nothing
            tracer.close(index, type(exc).__name__)
            raise
        tracer.close(index)
        if outermost:
            _bookkeep(tracer, _ON_RESULT.get(name), counters, name, args, result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def _bookkeep(tracer: Tracer, count: Callable | None, counters: Counters, name: str,
              args: tuple, outcome: Any) -> None:
    """Run ``count``, charging its time to the recorder rather than to a layer."""
    if count is None:
        return
    start = time.perf_counter()
    count(counters, name, args, outcome)
    tracer.charge_bookkeeping(time.perf_counter() - start)


@contextmanager
def instrumented(tracer: Tracer, counters: Counters) -> Iterator[None]:
    """Route every rest_lint module's reference to a target through a span wrapper."""
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, func_name, layer in TARGETS:
            original = getattr(importlib.import_module(module_name), func_name, None)
            if original is None:
                raise RuntimeError(f"{module_name}.{func_name} is gone; update perfbench/layers.py")
            wrapper = _traced(tracer, counters, original, func_name, layer)
            for module in _rest_lint_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def _rest_lint_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rest_lint" or name.startswith("rest_lint."))]


# ---------------------------------------------------------------------------
# In-process runs
# ---------------------------------------------------------------------------


def run_main(call: Callable[[list[str]], int], argv: tuple[str, ...], cwd: Path,
             out_path: Path) -> tuple[int, float]:
    """Run ``call(argv)`` in ``cwd`` with stdout to ``out_path``; return (exit code, seconds).

    The benchmark's own heap (recorded spans, earlier results) is frozen
    for the call, so the collector walks only what ``call`` allocates, as
    it would in a fresh CLI process.
    """
    gc.collect()
    gc.freeze()
    previous = os.getcwd()
    try:
        with open(out_path, "w", encoding="utf-8") as out, open(os.devnull, "w") as err:
            os.chdir(cwd)
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = call(list(argv))
                except SystemExit as exc:  # argparse errors
                    code = exc.code if isinstance(exc.code, int) else 2
                elapsed = time.perf_counter() - start
    finally:
        os.chdir(previous)
        gc.unfreeze()
    return code, elapsed


@dataclass
class TracedInvocation:
    exit_code: int
    counters: Counters
    spans: list[tuple[int, Span]]


def traced_main(tracer: Tracer, argv: tuple[str, ...], cwd: Path, out_path: Path,
                invocation: int) -> TracedInvocation:
    """One in-process ``cli.main`` call with every layer boundary recorded."""
    counters = Counters()
    tracer.invocation = invocation

    def call(args: list[str]) -> int:
        index = tracer.open("main", "cli")
        try:
            return cli.main(args)
        finally:
            tracer.close(index)

    with instrumented(tracer, counters), tracer:
        code, _ = run_main(call, argv, cwd, out_path)
    return TracedInvocation(code, counters, tracer.of_invocation(invocation))


def layer_metrics(traced: TracedInvocation) -> dict[str, float]:
    """Per-layer times and counts of one traced invocation, keyed by metric name."""
    spans = traced.spans
    c = traced.counters

    def total(predicate: Callable[[Span], bool], attr: str = "") -> float:
        return sum((s.end - s.start) if not attr else getattr(s, attr)
                   for _, s in spans if predicate(s))

    by_index = dict(spans)

    def outermost(layer: str) -> Callable[[Span], bool]:
        return lambda s: s.layer == layer and (
            s.parent < 0 or by_index[s.parent].layer != layer)

    def named(name: str) -> Callable[[Span], bool]:
        return lambda s: s.name == name

    selfs = self_times(spans)
    passed = c.violations_passed
    out = {
        "model.load_s": total(outermost("model")),
        "model.bytes": c.bytes_in,
        "model.paths": c.paths,
        "model.operations": c.operations,
        "model.diagnostics": c.diagnostics,
        "model.gc_s": total(lambda s: s.layer == "model", "gc_s"),
        "uri.tokenize_s": total(named("tokenize_path")),
        "uri.classify_s": total(named("classify_archetypes")),
        "uri.segments": c.segments,
        "uri.segment_repeat_ratio": c.repeated_segments / c.segments if c.segments else 0.0,
        "rules.run_s": total(named("run_rules")),
        "rules.findings": sum(c.findings.values()),
        "reporting.build_report_s": total(named("build_report")),
        "reporting.render_s": total(named("render")),
        "reporting.bytes_out": c.bytes_out,
        "reporting.coalesce_ratio": c.violations_kept / passed if passed else 1.0,
        "cli.files": c.files,
        "cli.skipped_files": c.skipped_files,
        "cli.failed_files": c.failed_files,
        "py.gc_s": total(lambda s: True, "gc_s"),
        "py.gc_collections": total(lambda s: True, "gc_collections"),
        "trace.total_s": total(lambda s: s.parent < 0),
        "trace.spans": len(spans),
    }
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def isolated_costs(inputs: Inputs, lexicon: object, reports: list) -> dict[str, float]:
    """Layer costs timed outside ``cli.main``, summed over the workload's specs.

    ``rules.base_s`` is ``run_rules`` with no rule enabled (classification
    and coalescing); ``rules.<RuleId>_s`` is ``run_rules`` with that rule
    alone, minus the base; ``rules.gc_s`` is ``run_rules`` with every rule,
    collector on minus collector off; ``reporting.aggregate_s`` is
    ``aggregate`` over the reports the traced invocation built (lint
    workloads do not call it themselves). Apart from ``rules.gc_s`` the
    collector is off while timing, so these are compute costs.
    """
    specs = [load_spec((inputs.directory / rel).read_bytes(), spec_id)
             for rel, spec_id in inputs.specs]

    def timed(call: Callable[[], object], collector: bool = False) -> float:
        gc.collect()
        if not collector:
            gc.disable()
        try:
            start = time.perf_counter()
            call()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def rules(enabled: frozenset) -> Callable[[], None]:
        config = RuleConfig(enabled=enabled)

        def call() -> None:
            for spec in specs:
                run_rules(spec, config, lexicon)
        return call

    base = timed(rules(frozenset()))
    out = {"rules.base_s": base}
    for rule in RuleId:
        out[f"rules.{rule.value}_s"] = timed(rules(frozenset({rule}))) - base
    every = rules(frozenset(RuleId))
    out["rules.gc_s"] = timed(every, collector=True) - timed(every)
    out["reporting.aggregate_s"] = timed(
        lambda: aggregate(reports, total_projects=len(reports)))
    return out


def cold_lexicon_s() -> float:
    """Seconds to read and parse the bundled word lists, bypassing the cache."""
    start = time.perf_counter()
    text = resources.files("rest_lint").joinpath("data/lexicon.txt").read_text("utf-8")
    parse_lexicon(text, source="<bundled>")
    return time.perf_counter() - start
