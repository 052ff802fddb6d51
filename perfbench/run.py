"""rest-lint benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of a rest-lint checkout. It generates the workload's
inputs from the seed under ``.perfbench_work/``, runs the ``rest-lint``
CLI from ``src/`` on them and checks every output. With ``--trace 0`` it
times CLI subprocesses, untraced, for the end-to-end metrics, scaled by
the machine's slowdown during the run (see calibrate.py). With
``--trace 1`` it also runs ``cli.main`` in this process, once untraced and
once with a span at every layer boundary, for the per-layer metrics. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--out`` also appends
the result, with sample counts, to a JSON-lines file that ``compare.py``
reads.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_CPU_S, REFERENCE_S
from workloads import PLANTED_RULES, WORKLOADS, Inputs, generate

BENCH_DIR = Path(__file__).resolve().parent
SPEC_FILE = BENCH_DIR.parent / "BENCHMARK.json"
DIGESTS_FILE = BENCH_DIR / "digests.json"
WORK_DIR = ".perfbench_work"

# Every run also lints a small input from this fixed seed and compares the
# output bytes with the digest pinned in digests.json.
REFERENCE_SEED = 0
REFERENCE_SCALE = 0.1

MIN_SAMPLES = 3
SETUP_PROBES = 2  # per CLI invocation, so set-up is sampled across the whole run
CLI_ENTRY = "import sys; from rest_lint.cli import main; sys.exit(main())"
# The same, also writing the seconds spent inside main() to the file named by argv[1].
TIMED_CLI_ENTRY = (
    "import sys, time; from pathlib import Path; from rest_lint.cli import main; "
    "start = time.perf_counter(); code = main(sys.argv[2:]); "
    "Path(sys.argv[1]).write_text(repr(time.perf_counter() - start)); sys.exit(code)")
SETUP_CODE = "import rest_lint, rest_lint.cli; rest_lint.default_lexicon()"


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    digest: str
    counts: dict[str, int]


def child_env(checkout: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REST_LINT_LEXICON", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], cwd: Path | None = None, env: dict[str, str] | None = None,
          stdout: object = None) -> tuple[float, os.struct_rusage, int]:
    """Run ``python3 *args`` as a fresh process: (wall seconds, its rusage, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=stdout, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return wall, usage, os.waitstatus_to_exitcode(status)


def invoke(checkout: Path, inputs: Inputs, out_path: Path,
           main_s_path: Path | None = None) -> Invocation:
    """Run the CLI once as a fresh process; stdout goes to ``out_path``.

    With ``main_s_path``, the process also writes there the seconds it
    spent inside ``cli.main``.
    """
    args = ["-c", CLI_ENTRY, *inputs.argv] if main_s_path is None else \
        ["-c", TIMED_CLI_ENTRY, str(main_s_path), *inputs.argv]
    with open(out_path, "wb") as out:
        wall, usage, exit_code = spawn(args, inputs.directory, child_env(checkout), out)
    output = out_path.read_bytes()
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        exit_code=exit_code,
        digest=hashlib.sha256(output).hexdigest(),
        counts=planted_counts(output, inputs.output_format),
    )


def calibration_probe() -> tuple[float, float]:
    """Wall and user+sys seconds of a fresh interpreter running the calibration work."""
    wall, usage, exit_code = spawn([str(BENCH_DIR / "calibrate.py")])
    if exit_code != 0:
        raise RuntimeError(f"calibrate.py exited with {exit_code}")
    return wall, usage.ru_utime + usage.ru_stime


def setup_probe(checkout: Path) -> float:
    """Wall seconds for a fresh interpreter to import the CLI and load the lexicon."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=checkout, env=child_env(checkout),
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def planted_counts(output: bytes, output_format: str) -> dict[str, int]:
    """Findings per planted rule, read from rendered CLI output."""
    counts = dict.fromkeys(PLANTED_RULES, 0)
    text = output.decode("utf-8", errors="replace")
    if output_format == "json":
        for line in text.splitlines():
            for rule, n in json.loads(line)["counts"].items():
                if rule in counts:
                    counts[rule] += n
    elif output_format == "csv":
        for line in text.splitlines()[1:]:
            rule, occurrences = line.split(",")[:2]
            if rule in counts:
                counts[rule] += int(occurrences)
    else:
        # "  <path> [METHOD] [[status]] <Rule> '<fragment>': <message>"
        for line in text.splitlines():
            if line.startswith("  "):
                rule = line.split(" '", 1)[0].rsplit(" ", 1)[-1]
                if rule in counts:
                    counts[rule] += 1
    return counts


def problems(inputs: Inputs, exit_code: int, counts: dict[str, int] | None, digest: str,
             expected_digest: str | None) -> list[str]:
    found = []
    if exit_code != inputs.expected_exit:
        found.append(f"exit code {exit_code}, expected {inputs.expected_exit}")
    if counts is not None and counts != inputs.expected_counts:
        found.append(f"planted findings {counts}, expected {inputs.expected_counts}")
    if expected_digest is not None and digest != expected_digest:
        found.append(f"output digest {digest[:12]}, expected {expected_digest[:12]}")
    return found


class Tally:
    """Invocations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {'; '.join(found)}")


def reference_digest(checkout: Path, workload: str, work: Path) -> tuple[Inputs, Invocation]:
    inputs = generate(workload, REFERENCE_SEED, work / "reference", REFERENCE_SCALE)
    return inputs, invoke(checkout, inputs, work / "reference.out")


def check_reference(checkout: Path, workload: str, work: Path, tally: Tally) -> None:
    pinned = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))[workload]
    inputs, inv = reference_digest(checkout, workload, work)
    tally.record("reference", problems(inputs, inv.exit_code, inv.counts, inv.digest, pinned))


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def end_to_end(checkout: Path, inputs: Inputs, work: Path, seconds: float,
               tally: Tally) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Repeat cycles of calibration, one CLI invocation, set-up probes and
    calibration until ``seconds`` would be exceeded.

    Machine speed varies by ~15% from one second to the next, so each time
    is divided by the slowdown of its own cycle: the mean of the cycle's two
    calibration probes over ``REFERENCE_S`` for wall times, and over
    ``REFERENCE_CPU_S`` in user+sys time for ``cpu_s`` (see calibrate.py).
    The metrics are the medians of these scaled times. The raw medians and
    the median slowdowns are returned as context.
    """
    runs: list[Invocation] = []
    setups: list[list[float]] = []  # per cycle
    slowdowns: list[tuple[float, float]] = []  # (wall, cpu) per cycle
    cycles: list[float] = []
    first_digest: str | None = None
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        before = calibration_probe()
        inv = invoke(checkout, inputs, work / "lint.out")
        tally.record(f"invocation {len(runs)}", problems(
            inputs, inv.exit_code, inv.counts, inv.digest, first_digest))
        first_digest = first_digest or inv.digest
        runs.append(inv)
        setups.append([setup_probe(checkout) for _ in range(SETUP_PROBES)])
        after = calibration_probe()
        slowdowns.append(((before[0] + after[0]) / 2 / REFERENCE_S,
                          (before[1] + after[1]) / 2 / REFERENCE_CPU_S))
        cycles.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_SAMPLES and elapsed + median(cycles) > seconds:
            break
    metrics = {
        "wall_s": median(r.wall_s / s for r, (s, _) in zip(runs, slowdowns)),
        "cpu_s": median(r.cpu_s / s for r, (_, s) in zip(runs, slowdowns)),
        "peak_rss_mb": median(r.peak_rss_mb for r in runs),
        "setup_s": median(t / s for ts, (s, _) in zip(setups, slowdowns) for t in ts),
    }
    samples = {"wall_s": len(runs), "cpu_s": len(runs), "peak_rss_mb": len(runs),
               "setup_s": len(runs) * SETUP_PROBES}
    context = {
        "raw.wall_s": median(r.wall_s for r in runs),
        "raw.cpu_s": median(r.cpu_s for r in runs),
        "raw.setup_s": median(t for ts in setups for t in ts),
        "slowdown": median(s for s, _ in slowdowns),
        "cpu_slowdown": median(s for _, s in slowdowns),
    }
    return metrics, samples, context


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def traced(checkout: Path, inputs: Inputs, work: Path, seconds: float,
           tally: Tally) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Rounds of: one CLI subprocess, untraced and traced in-process ``cli.main``,
    a cold lexicon parse and per-rule ``run_rules`` costs.

    ``cli.process_overhead_s`` is the subprocess's wall time minus the time
    it spent inside ``cli.main``, which it reports itself.
    """
    if str(checkout / "src") not in sys.path:
        sys.path.insert(0, str(checkout / "src"))
    import rest_lint
    from rest_lint import cli
    from layers import cold_lexicon_s, isolated_costs, layer_metrics, run_main, traced_main
    from spans import Tracer, check_tree

    if Path(rest_lint.__file__).resolve().parent != (checkout / "src" / "rest_lint").resolve():
        raise RuntimeError(f"imported rest_lint from {rest_lint.__file__}, not from {checkout}")
    lexicon = rest_lint.default_lexicon()

    # Warm-up: the first in-process call pays one-off costs a CLI process pays in setup_s.
    code, _ = run_main(cli.main, inputs.argv, inputs.directory, work / "main.out")
    tally.record("warm-up in-process", problems(inputs, code, None, "", None))

    tracer = Tracer()
    rounds: list[dict[str, float]] = []
    mains: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        label = f"round {len(rounds)}"
        main_s_file = work / "main_s.txt"
        main_s_file.unlink(missing_ok=True)
        inv = invoke(checkout, inputs, work / "lint.out", main_s_file)
        sub_found = problems(inputs, inv.exit_code, inv.counts, inv.digest, None)
        if not main_s_file.exists():
            sub_found.append("the CLI process wrote no cli.main time")
        tally.record(f"{label} subprocess", sub_found)
        sub_main_s = 0.0 if sub_found else float(main_s_file.read_text(encoding="utf-8"))

        # Alternate which goes first, so drift within a round does not bias the overhead.
        for tracing in ((False, True) if len(rounds) % 2 == 0 else (True, False)):
            out = work / ("traced.out" if tracing else "main.out")
            found: list[str] = []
            if tracing:
                run = traced_main(tracer, inputs.argv, inputs.directory, out, len(rounds))
                code = run.exit_code
                found = check_tree(run.spans)[:1]
            else:
                code, main_s = run_main(cli.main, inputs.argv, inputs.directory, out)
                mains.append(main_s)
            tally.record(f"{label} {'traced' if tracing else 'in-process'}",
                         problems(inputs, code, None, _digest(out), inv.digest) + found)

        metrics = layer_metrics(run)
        for rule in rest_lint.RuleId:
            metrics[f"rules.{rule.value}.findings"] = run.counters.findings[rule.value]
        metrics["trace.overhead_s"] = metrics["trace.total_s"] - mains[-1]
        # Timed inside the one subprocess: medians of separate runs differ by more
        # than the overhead itself.
        metrics["cli.process_overhead_s"] = inv.wall_s - sub_main_s
        metrics["lexicon.load_s"] = cold_lexicon_s()
        metrics.update(isolated_costs(inputs, lexicon, run.counters.reports))
        rounds.append(metrics)
        del run  # its reports must not stay in the heap during the next untraced call

        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > seconds:
            break

    tracer.dump(work.parent / f"spans-{work.name}.jsonl")
    metrics = {name: median([r[name] for r in rounds]) for name in rounds[0]}
    metrics["cli.main_s"] = median(mains)
    return metrics, dict.fromkeys(metrics, len(rounds)), {}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, work_root: Path | None = None) -> dict:
    """Run one workload and return the result record (metrics keyed by name).

    Inputs and outputs go to a directory under ``work_root`` (default
    ``<checkout>/.perfbench_work``) that is removed afterwards; only the
    trace's spans file stays.
    """
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    work_root = work_root or checkout / WORK_DIR
    work = work_root / f"{workload}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        compileall.compile_dir(str(checkout / "src" / "rest_lint"), quiet=1)
        tally = Tally()
        check_reference(checkout, workload, work, tally)
        inputs = generate(workload, seed, work / "input", scale)
        measure = traced if trace else end_to_end
        values, samples, context = measure(checkout, inputs, work, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = {m["name"] for m in declared}
    if names != set(values):
        raise RuntimeError(f"metrics not measured: {sorted(names - set(values))}; "
                           f"measured but not declared: {sorted(set(values) - names)}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "samples": {m["name"]: samples[m["name"]] for m in declared},
        "context": context,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "rest_lint" / "cli.py").is_file():
        print(f"perfbench: no src/rest_lint/cli.py under {checkout}; "
              "run from the root of a rest-lint checkout", file=sys.stderr)
        return 2

    result = run(checkout, args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"failed_ratio={result['failed']}/{result['attempted']} "
          f"= {result['failed'] / result['attempted']:.3f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"(median of {result['samples'][name]})")
    for name, value in result["context"].items():
        print(f"  {name:<34} {value:>14.6g}")
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(result) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
