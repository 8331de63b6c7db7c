"""Run the shearcount benchmark.

    python3 bench/run.py                                   # every workload, plain
    python3 bench/run.py --workload spectral --seed 3 --seconds 20 --trace 1

Each workload runs in a fresh process (bench/workloads.py) with numpy's
thread pools pinned to one thread, so its peak RSS is its own.  Before it,
``setup_s`` is timed as the median over fresh interpreters that only
``import shearcount``.  Every metric is printed by name with its unit,
followed by the outcome of each correctness check; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics for a plain run, per-layer
metrics for a traced one).  The program is imported from ``src/`` next to
this directory; without it the run fails and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-large", "spectral", "many-small")
SETUP_SAMPLES = 5  # before the workload, and as many after it
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_share", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_imports(env: dict, samples: int) -> list[float]:
    """Wall times of fresh interpreters that only import shearcount."""
    cmd = [sys.executable, "-c", "import shearcount"]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """One workload in a fresh process.  ``setup_s`` is the median of imports
    timed before and after it, so a slow spell of the host weighs less; one
    untimed import first writes the bytecode caches."""
    env = child_env()
    time_imports(env, 1)
    setup = time_imports(env, SETUP_SAMPLES)
    cmd = [sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(seconds), "1" if trace else "0"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.PIPE, text=True)
    setup += time_imports(env, SETUP_SAMPLES)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["end_to_end"]["setup_s"] = statistics.median(setup)
    return result


def describe(result: dict, trace: bool) -> list[str]:
    """Human-readable lines for one workload run."""
    w = result["workload"]
    e2e = result["end_to_end"]
    lines = [f"{w}: seed {result['seed']}, passes {result['passes']}", "host " + json.dumps(result["host"])]
    for metric, unit in END_TO_END:
        lines.append(f"{w}  {metric:<34} {e2e[metric]:.6g} {unit}")
    lines.append(f"{w}  {'failure_share':<34} {e2e['failure_share']:.6g} ratio"
                 f" ({result['failed']} of {result['attempted']} ops)")
    lines.append(f"{w}  {'op_samples':<34} {e2e['op_samples']} count")
    lines.append(f"{w}  {'ru_maxrss_mb':<34} {e2e['ru_maxrss_mb']:.6g} MB")
    if trace:
        for metric, value in result["per_layer"].items():
            lines.append(f"{w}  {metric:<34} {value:.6g} {layer_unit(metric)}")
    for check, (bad, total) in result["checks"].items():
        lines.append(f"{w}  check {check}: {'PASS' if bad == 0 else 'FAIL'} ({total - bad}/{total})")
    passes = sum(result["passes"].values())
    for cls, call, n in result["failures"]:
        lines.append(f"{w}  failed {cls}: {call} (in {n} of {passes} passes)")
    return lines


def layer_unit(metric: str) -> str:
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("share", "ratio", "speedup")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "shearcount" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'shearcount'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = args.trace == 1
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, trace, time.monotonic() + DEADLINE_S))
        except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
            print(f"bench: workload {name} failed: {exc!r}", file=sys.stderr)
            return 1
        for line in describe(results[-1], trace):
            print(line)

    def metrics_of(result):
        if trace:
            return {m: {"value": v, "unit": layer_unit(m)} for m, v in result["per_layer"].items()}
        return {m: {"value": result["end_to_end"][m], "unit": u} for m, u in END_TO_END}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in metrics_of(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
