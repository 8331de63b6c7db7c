"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/repeat.py --workloads spectral --seeds 5
    python3 bench/repeat.py --seeds 10 --trace 1 --record <commit>

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
the run length from BENCHMARK.json.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  For end-to-end
metrics the spread is compared with the metric's bound and with a third of
it.  ``--record`` appends the medians, spreads and host to
bench/trajectory.jsonl as one trajectory point.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0,
        "n": len(values),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="COMMIT", help="append the medians to bench/trajectory.jsonl")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"workloads": {}, "run_seconds": spec["run_seconds"], "trace": args.trace}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        correct = True
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            point.setdefault("host", next(json.loads(line[5:]) for line in proc.stdout.splitlines()
                                          if line.startswith("host ")))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: {time.monotonic() - t0:.1f} s wall, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {m: summarize(v) for m, v in values.items()}
        point["workloads"][name] = {"correct": correct, "failed": failed, "attempted": attempted,
                                    "metrics": summary}
        for metric, s in summary.items():
            verdict = ""
            if metric in bounds and metric != "setup_s":
                b = bounds[metric]
                verdict = "ok" if s["spread"] < b / 3 else ("within bound" if s["spread"] <= b else "OVER BOUND")
                verdict = f"bound {b}: {verdict}"
            print(f"{name}  {metric:<36} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  {verdict}")
    if args.record:
        point["commit"] = args.record
        with open(BENCH / "trajectory.jsonl", "a") as fh:
            fh.write(json.dumps(point) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
