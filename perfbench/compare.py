"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py RESULTS.jsonl              # spread of each metric
    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl   # verdict per metric

A result file holds one JSON line per run, as ``run.py --out`` or
``sweep.py`` write them. For every workload and metric it prints the
median and quartiles over the runs. With two files it also gives a
verdict against the bounds in BENCHMARK.json:

- improved: the change is better in at least 9 of 10 runs paired by seed
  (the k-th run of a seed in one file with its k-th run in the other; all
  runs of the change better than all of the parent's, when no runs pair
  up), and the medians differ by more than the parent's quartile distance;
- regressed: the change's median is worse by more than the bound;
- unresolved: the spread of either side is wider than the bound, and not
  every run of the change is better than every run of the parent;
- no worse: otherwise.

Per-layer metrics have no bound: they are reported as improved, worse
(the same rule as improved, the other way) or unchanged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def by_metric(records: list[dict]) -> dict[tuple[str, str], dict[tuple[int, int], float]]:
    """(workload, metric) -> {(seed, k): value}, k counting earlier runs of that seed."""
    out: dict[tuple[str, str], dict[tuple[int, int], float]] = defaultdict(dict)
    for record in records:
        for name, metric in record["metrics"].items():
            values = out[(record["workload"], name)]
            k = sum(seed == record["seed"] for seed, _ in values)
            values[(record["seed"], k)] = metric["value"]
    return out


def verdict(before: dict, after: dict, lower_is_better: bool,
            bound: float | None) -> str:
    sign = 1 if lower_is_better else -1
    b, a = list(before.values()), list(after.values())
    b_q1, b_med, b_q3 = quartiles(b)
    a_med = statistics.median(a)

    def better(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    all_better = all(better(x, y) for x in a for y in b)
    paired = [(after[s], before[s]) for s in before.keys() & after.keys()]
    if paired:
        wins = sum(better(x, y) for x, y in paired)
        losses = sum(better(y, x) for x, y in paired)
        dominant = wins >= 0.9 * len(paired)
        dominated = losses >= 0.9 * len(paired)
    else:
        dominant = all_better
        dominated = all(better(y, x) for x in a for y in b)
    moved = abs(a_med - b_med) > (b_q3 - b_q1)

    if bound is None:
        if dominant and moved:
            return "improved"
        return "worse" if dominated and moved else "unchanged"
    if max(spread(b), spread(a)) > bound:
        return "improved" if all_better and moved else "unresolved"
    if dominant and moved:
        return "improved"
    worse_by = sign * (a_med - b_med) / abs(b_med) if b_med else 0.0
    return "regressed" if worse_by > bound else "no worse"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    order = {name: i for i, name in enumerate(declared)}
    runs = [load(Path(p)) for p in argv]
    sides = [by_metric(records) for records in runs]
    for path, records in zip(argv, runs):
        for workload in sorted({r["workload"] for r in records}):
            mine = [r for r in records if r["workload"] == workload]
            failed = sum(r["failed"] for r in mine)
            attempted = sum(r["attempted"] for r in mine)
            print(f"{path}: {workload:<17} failed_ratio {failed}/{attempted} "
                  f"= {failed / attempted:.3f} over {len(mine)} runs")
    compare = len(sides) == 2
    columns = f"{'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
    print(f"{'workload':<17} {'metric':<32} {'unit':<6} {columns}"
          + (f" {columns}  verdict" if compare else "  bound"))
    regressed = False
    for workload, name in sorted(set().union(*sides),
                                 key=lambda k: (k[0], order.get(k[1], len(order)))):
        meta = declared.get(name, {"unit": "?", "better": "lower"})
        bound = meta.get("bound")
        values = [side.get((workload, name)) for side in sides]
        if not all(values):
            continue
        line = f"{workload:<17} {name:<32} {meta['unit']:<6}"
        for side in values:
            q1, med, q3 = quartiles(list(side.values()))
            line += f" {len(side):>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} " \
                    f"{spread(list(side.values())):>7.3f}"
        if compare:
            result = verdict(values[0], values[1], meta["better"] == "lower", bound)
            regressed = regressed or result == "regressed"
            line += f"  {result}"
        elif bound is not None:
            wide = spread(list(values[0].values())) > bound
            line += f"  {bound:.2f}" + ("  WIDER THAN BOUND" if wide else "")
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
