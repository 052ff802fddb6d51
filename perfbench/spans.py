"""Span recorder for the traced benchmark run.

A span is one call into a rest-lint layer: its name, layer, start and end
(``time.perf_counter`` seconds), the index of the span open when it began
(-1 for none) and the id of the CLI invocation it belongs to. Garbage
collection pauses, reported by ``gc.callbacks``, are charged to the span
open when they happen. Spans stay in memory until ``dump`` writes them
out once, at the end of the run.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# Layer that gc pauses and the recorder's own bookkeeping are charged to.
GC_LAYER = "py"
TRACE_LAYER = "trace"


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    invocation: int
    gc_s: float = 0.0
    gc_collections: int = 0
    # Time the recorder spent counting results while this span was innermost.
    bookkeeping_s: float = 0.0
    error: str | None = None


class Tracer:
    """Records spans for one process; not thread-safe (the benchmark has one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._gc_start: float | None = None
        self.invocation = 0

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.invocation))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def charge_bookkeeping(self, seconds: float) -> None:
        span = self.current()
        if span is not None:
            span.bookkeeping_s += seconds

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None:
            return
        elapsed = time.perf_counter() - self._gc_start
        self._gc_start = None
        span = self.current()
        if span is not None:
            span.gc_s += elapsed
            span.gc_collections += 1

    def __enter__(self) -> Tracer:
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._on_gc)
        self._gc_start = None

    def of_invocation(self, invocation: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.invocation == invocation]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Seconds per layer during which a span of that layer was innermost.

    A span's self time is its duration minus its children's durations, gc
    pauses charged to it (counted under ``GC_LAYER``) and the recorder's
    bookkeeping (counted under ``TRACE_LAYER``). Summed over all layers this
    equals the total duration of the root spans.
    """
    children: dict[int, float] = defaultdict(float)
    for _, span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for index, span in spans:
        out[span.layer] += (span.end - span.start) - children[index] - span.gc_s \
            - span.bookkeeping_s
        out[GC_LAYER] += span.gc_s
        out[TRACE_LAYER] += span.bookkeeping_s
    return dict(out)


def check_tree(spans: list[tuple[int, Span]]) -> list[str]:
    """Problems that would make self times meaningless; empty when well formed."""
    problems = []
    by_index = dict(spans)
    last_child_end: dict[int, float] = {}
    for index, span in spans:
        if span.end < span.start:
            problems.append(f"span {index} {span.name} ends before it starts")
        if span.parent < 0:
            continue
        parent = by_index.get(span.parent)
        if parent is None or span.parent >= index:
            problems.append(f"span {index} {span.name} has no earlier parent in its invocation")
            continue
        if span.invocation != parent.invocation:
            problems.append(f"span {index} {span.name} crosses invocations")
        if span.start < parent.start or span.end > parent.end:
            problems.append(f"span {index} {span.name} lies outside its parent")
        if span.start < last_child_end.get(span.parent, float("-inf")):
            problems.append(f"span {index} {span.name} overlaps a sibling")
        last_child_end[span.parent] = span.end
    return problems
