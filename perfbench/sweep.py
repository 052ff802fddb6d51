"""Run the benchmark over several seeds and workloads, then summarise.

    python3 perfbench/sweep.py --seeds 1-10 --out results.jsonl [--trace 0|1]

Run from the root of a rest-lint checkout. Runs go one after another,
cycling through every workload for each seed, each for the ``run_seconds``
of BENCHMARK.json, and each appends its result to ``--out``. For a single
workload, call ``run.py`` directly.
``compare.py`` then prints the median, quartiles and spread of every
metric (this script does so at the end). Compare two such files, one per
commit, for a before/after table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads(compare.SPEC_FILE.read_text(encoding="utf-8"))["run_seconds"]
    for seed in args.seeds:
        for workload in WORKLOADS:
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
                 "--out", str(args.out)],
                check=True, stdout=subprocess.DEVNULL)
            print(f"done: {workload} seed {seed}", file=sys.stderr)
    return compare.main([str(args.out)])


if __name__ == "__main__":
    sys.exit(main())
