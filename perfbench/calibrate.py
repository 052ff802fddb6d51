"""Fixed work that measures how fast the machine runs a linter-like process now.

    python3 perfbench/calibrate.py

On a shared machine, other tenants' load slows every process by tens of
percent, from second to second and for minutes at a time. ``run.py`` runs
this script as a fresh process before and after each CLI invocation (and
its set-up probes), timing it the way it times the CLI: spawn to exit,
and user+sys seconds from ``os.wait4``. Each wall time of that cycle is
divided by the cycle's slowdown, the mean of its two calibration wall
times over ``REFERENCE_S``; ``cpu_s`` is divided by the mean of their
user+sys times over ``REFERENCE_CPU_S``, because host CPU steal stretches
wall time without adding to a process's CPU time. The work resembles the
linter's (JSON round trip, a character loop over path templates, many
small frozen records, a sort, formatted output, enough heap for the
collector to matter) but uses only the standard library, never rest_lint,
so changes to the program cannot move it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Set the scale only: a run whose calibration medians are these reports its
# raw times. About what the work takes on the 2-vCPU Xeon VM the
# benchmark was defined on.
REFERENCE_S = 0.22
REFERENCE_CPU_S = 0.215


@dataclass(frozen=True)
class _Record:
    path: str
    method: str
    words: tuple[str, ...]
    responses: int


def _words(path: str) -> tuple[str, ...]:
    words: list[str] = []
    current = ""
    for ch in path:
        if ch.isalnum():
            if current and current[-1].islower() and ch.isupper():
                words.append(current.lower())
                current = ch
            else:
                current += ch
        elif current:
            words.append(current.lower())
            current = ""
    if current:
        words.append(current.lower())
    return tuple(words)


def work() -> int:
    doc = {
        f"/svc{i % 40}/itemsOf{i}/{{id}}/sub_parts": {
            method: {
                "summary": f"{method} item {i}",
                "responses": {str(200 + k): {"description": "ok",
                                             "content": {"application/json": {}}}
                              for k in range(3)},
            }
            for method in ("get", "put", "delete")
        }
        for i in range(1800)
    }
    records = [
        _Record(path, method, _words(path), len(op["responses"]))
        for path, item in json.loads(json.dumps(doc)).items()
        for method, op in item.items()
    ]
    records.sort(key=lambda r: (r.words[-1], r.path, r.method))
    return len("\n".join(f"{r.path} {r.method.upper()} {'-'.join(r.words)} {r.responses}"
                         for r in records))


if __name__ == "__main__":
    work()
