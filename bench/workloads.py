"""The benchmark's workloads: inputs from a seed, timed passes over a fixed
op list, correctness checks and per-layer sums.

One pass runs every op of a workload once.  A run repeats passes until its
time is up, so every pass does the same work and per-pass figures compare
across runs.  Expected values are computed before the first timed pass, so
checks are cheap comparisons; op latencies never include them.  A run
with tracing alternates plain and traced passes: traced passes record a span
per call and replay inner public calls (see spans.py), and the difference
between the two kinds of pass is the tracing overhead.

run.py starts this file in a fresh process per workload, with numpy's
thread pools pinned to one thread:

    python3 bench/workloads.py <workload> <seed> <seconds> <trace 0|1>

It prints one JSON object with the run's figures.
"""
from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import shearcount as sc  # noqa: E402
from spans import Tracer, layer_seconds, timed_call  # noqa: E402

if Path(sc.__file__).resolve().parent != ROOT / "src" / "shearcount":
    raise ImportError(f"shearcount imported from {sc.__file__}, not from {ROOT / 'src'}")

NPROC = len(os.sched_getaffinity(0))
SWEEP_WORKERS = min(2, NPROC)

#: Seeds move radii and heights by at most this share.  Breakpoint work grows
#: like T**2, so two seeds differ in work by under 1.6%.
JITTER = 0.004
#: auto_truncation's n_max goes like (T/sqrt(y)) / value, and the value moves
#: erratically with T: a 0.4% jitter moved the spectral pair total by up to
#: 7.6% between seeds, 1e-5 by about 1%.
SPECTRAL_JITTER = 1e-5
#: Fixed generator for many-small's base points; the run seed only jitters them.
BASE_SEED = 20150803

MEAN_TOL = 1e-9  # criterion 6: |mean - closed form| <= MEAN_TOL * (1 + pi T^2)

CHECKS = {
    "closed_mean": "criterion 6: mean equals the closed form",
    "csv_bytes": "criterion 12: CSV bytes equal the serial sweep's",
    "parseval_exact": "criterion 7: Parseval within its bound of the exact value",
    "parseval_bound": "criterion 7: bound under 1% of a value > 0.1",
    "certificate": "criterion 8: certificate dominates the Parseval value",
    "counters": "counters agree when ties == 0",
    "witness": "criterion 10: witness respects its floor and its mean is negative",
}


def raw_events(y: float, T: float) -> int:
    """Computed length of the event array ``breakpoints`` builds before it
    keeps the crossings inside (0, 1): per row m, the integers strictly
    inside (hw - m, hw) and (-hw - m, -hw)."""
    sy = math.sqrt(y)
    rows = math.ceil(T / sy) - 1
    if rows < 1:
        return 0
    ms = np.arange(1, rows + 1, dtype=float)
    hw = sy * np.sqrt(T - ms * sy) * np.sqrt(T + ms * sy)
    exits = np.ceil(hw) - np.floor(hw - ms) - 1
    entries = np.ceil(-hw) - np.floor(-hw - ms) - 1
    return int(np.sum(np.maximum(exits, 0) + np.maximum(entries, 0)))


def lattice_rows(y: float, T: float) -> int:
    """Computed row count 2M + 1 a counter visits (M rows per sign)."""
    return 2 * max(0, math.ceil(T / math.sqrt(y)) - 1) + 1


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_off(report, closed: float) -> bool:
    """Criterion 6 on one report: is its mean outside the closed form's tolerance?"""
    T = report.T
    return not abs(report.mean_remainder - closed) <= MEAN_TOL * (1.0 + math.pi * T * T)


class Pass:
    """What one pass did: its wall time, op latencies, failures and counts."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.attempted = 0
        self.latencies_ms: dict[int, float] = {}  # op index in the pass -> latency
        self.failures: list[tuple[str, str]] = []  # (class or check name, call)
        self.wrong = 0
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.checks: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [failed, run]

    def op(self, error, seconds: float, call: str) -> bool:
        """Account one op; True when it returned."""
        self.attempted += 1
        if error is not None:
            self.failures.append((type(error).__name__, call))
            return False
        self.latencies_ms[self.attempted - 1] = seconds * 1e3
        return True

    def checked(self, call: str, **failed: bool) -> None:
        """Record the correctness checks of one op that returned; any failed
        check fails the op, once."""
        for name, bad in failed.items():
            self.checks[CHECKS[name]][1] += 1
            self.checks[CHECKS[name]][0] += bad
        bad = [CHECKS[name] for name, b in failed.items() if b]
        if bad:
            self.wrong += 1
            self.failures.append((f"wrong result ({'; '.join(bad)})", call))


def replay_breakpoints(tracer, op, parent, y, T, ps: Pass):
    """Replay mean_square_breakpoints' inner breakpoints call."""
    sweep, _, _, _ = timed_call(tracer, "stats.breakpoints", op, sc.breakpoints, y, T,
                                parent=parent, replay=True)
    raw = raw_events(y, T)
    ps.counts["stats.events.raw"] += raw
    ps.maxima["stats.event_bytes"] = max(ps.maxima["stats.event_bytes"], 16.0 * raw)
    if sweep is not None:
        ps.counts["stats.events.merged"] += int(sweep.xs.size)


class SweepLarge:
    """stats.sweep with the breakpoints integrator over the criterion-9 grid,
    widened to 36 radii, on the thread pool, then write_sweep_csv."""

    name = "sweep-large"
    Y_VALUES = (1.0, 2.0, 5.0)
    SAMPLES = 36

    def __init__(self, seed: int) -> None:
        scale = 1.0 + np.random.default_rng(seed).uniform(-JITTER, JITTER)
        self.config = sc.SweepConfig(
            y_values=self.Y_VALUES,
            radius_min=10.0 * scale,
            radius_max=2000.0 * scale,
            samples=self.SAMPLES,
            log_spaced=True,
        )
        self.rows = [(y, float(T)) for y in sorted(self.Y_VALUES) for T in self.config.radii()]

    def work(self) -> dict:
        return {"stats.events.raw": sum(raw_events(y, T) for y, T in self.rows)}

    def reference(self) -> dict:
        """Serial sweep (criterion 12's reference bytes) and closed-form means.

        The process peak is read after the serial sweep: once the pool runs,
        it becomes the high-water mark of how the largest rows happen to
        overlap and of what the allocator keeps per thread, which moved by
        over 15% between processes and kept rising over passes.
        """
        t0 = time.perf_counter()
        reports = sc.sweep(self.config, threads=1)
        serial_s = time.perf_counter() - t0
        peak = max_rss_mb()
        buf = io.StringIO()
        sc.write_sweep_csv(reports, buf)
        self.csv_lines = buf.getvalue().splitlines()
        self.closed = [sc.mean_remainder_closed(y, T) for y, T in self.rows]
        return {"stats.sweep.serial_s": serial_s, "peak_rss_mb": peak}

    def run_pass(self, tracer) -> Pass:
        ps = Pass()
        t0 = time.perf_counter()
        reports, error, _, span = timed_call(
            tracer, "stats.sweep", 0, sc.sweep, self.config, SWEEP_WORKERS)
        buf = io.StringIO()
        if error is None:
            _, error, _, _ = timed_call(tracer, "stats.write_sweep_csv", 0, sc.write_sweep_csv, reports, buf)
        if tracer is not None:
            self._replay(tracer, span, ps)
        ps.wall_s = time.perf_counter() - t0

        calls = [f"stats.sweep row (y={y!r}, T={T!r})" for y, T in self.rows]
        if error is not None:
            # an aborted sweep or CSV write loses every row
            for call in calls:
                ps.op(error, 0.0, call)
            return ps
        lines = buf.getvalue().splitlines()
        same_shape = len(lines) == len(self.csv_lines) and lines[0] == self.csv_lines[0]
        for i, (r, call) in enumerate(zip(reports, calls)):
            ps.attempted += 1
            if r.error:
                ps.failures.append(("ShearCountError", f"{call}: {r.error}"))
                continue
            ps.latencies_ms[i] = r.elapsed_ms
            ps.checked(call, closed_mean=mean_off(r, self.closed[i]),
                       csv_bytes=not (same_shape and lines[i + 1] == self.csv_lines[i + 1]))
        return ps

    def _replay(self, tracer, parent, ps: Pass) -> None:
        """Each row's mean_square_breakpoints and its breakpoints, serially."""
        for op, (y, T) in enumerate(self.rows, start=1):
            _, _, _, span = timed_call(tracer, "stats.mean_square_breakpoints", op,
                                       sc.mean_square_breakpoints, y, T, parent=parent, replay=True)
            replay_breakpoints(tracer, op, span, y, T, ps)


class Spectral:
    """mean_square_parseval with auto truncation plus four certificates per
    row, serially, on 24 rows of scaled radius 5..150."""

    name = "spectral"
    Y_CYCLE = (0.7, 1.0, 2.5)
    CUTOFFS = (2, 16, 128, 1024)
    ROWS = 24

    def __init__(self, seed: int) -> None:
        scaled = np.geomspace(5.0, 150.0, self.ROWS)
        jitter = 1.0 + np.random.default_rng(seed).uniform(-SPECTRAL_JITTER, SPECTRAL_JITTER, self.ROWS)
        self.rows = []
        for i in range(self.ROWS):
            y = self.Y_CYCLE[i % len(self.Y_CYCLE)]
            self.rows.append((y, float(scaled[i] * jitter[i] * math.sqrt(y))))

    def work(self) -> dict:
        pairs = 0
        for y, T in self.rows:
            k_max, n_max = sc.auto_truncation(y, T)
            pairs += (k_max // n_max) * n_max
        return {"fourier.pairs": pairs}

    def reference(self) -> dict:
        """Exact oscillatory mean squares from the breakpoint integrator."""
        self.exact = []
        for y, T in self.rows:
            rep = sc.mean_square_breakpoints(y, T)
            self.exact.append(rep.mean_square - rep.mean_remainder**2)
        return {}

    def run_pass(self, tracer) -> Pass:
        ps = Pass()
        eps = np.finfo(float).eps
        for i, (y, T) in enumerate(self.rows):
            op = i * (1 + len(self.CUTOFFS))
            call = f"stats.mean_square_parseval(y={y!r}, T={T!r})"
            t0 = time.perf_counter()
            rep, error, seconds, span = timed_call(
                tracer, "stats.mean_square_parseval", op, sc.mean_square_parseval, y, T)
            if tracer is not None:
                self._replay(tracer, op, span, y, T, ps)
            ps.wall_s += time.perf_counter() - t0
            value = self.exact[i]
            if ps.op(error, seconds, call):
                value = rep.mean_square - rep.mean_remainder**2
                # recovering value from mean_square rounds by a few ulps of mean_square
                slack = 4.0 * eps * rep.mean_square
                ps.checked(call, parseval_exact=not abs(value - self.exact[i]) <= rep.error_bound + slack,
                           parseval_bound=value > 0.1 and not rep.error_bound <= 0.01 * value)
            for j, cutoff in enumerate(self.CUTOFFS, start=1):
                call = f"fourier.mean_square_certificate(y={y!r}, T={T!r}, cutoff={cutoff})"
                t0 = time.perf_counter()
                cert, error, seconds, _ = timed_call(
                    tracer, "fourier.mean_square_certificate", op + j, sc.mean_square_certificate, y, T, cutoff)
                ps.wall_s += time.perf_counter() - t0
                if ps.op(error, seconds, call):
                    ps.checked(call, certificate=not cert >= value)
        return ps

    def _replay(self, tracer, op, parent, y, T, ps: Pass) -> None:
        """auto_truncation, then parseval_mean_square and its cosine_spectrum."""
        trunc, error, _, _ = timed_call(tracer, "fourier.auto_truncation", op, sc.auto_truncation, y, T,
                                        parent=parent, replay=True)
        if error is not None:
            return
        k_max, n_max = trunc
        _, _, _, span = timed_call(tracer, "fourier.parseval_mean_square", op, sc.parseval_mean_square,
                                   y, T, k_max, n_max, parent=parent, replay=True)
        timed_call(tracer, "fourier.cosine_spectrum", op, sc.cosine_spectrum, y, T, k_max, n_max,
                   parent=span, replay=True)
        ps.counts["fourier.pairs"] += (k_max // n_max) * n_max
        ps.maxima["fourier.coeff_bytes"] = max(ps.maxima["fourier.coeff_bytes"], 8.0 * k_max)


class ManySmall:
    """Over a thousand small calls: point counts, lower-bound witnesses, the
    integer (y, T) grid and generic small-T rows."""

    name = "many-small"
    POINTS = 200
    WITNESS_Y = (1.0, 4.0)
    WITNESS_K = range(2, 101)
    GRID_Y = (1.0, 2.0, 4.0)
    GRID_T = range(1, 41)
    GENERIC = 240

    def __init__(self, seed: int) -> None:
        base = np.random.default_rng(BASE_SEED)
        rng = np.random.default_rng(seed)

        def jitter(n):
            return 1.0 + rng.uniform(-JITTER, JITTER, n)

        ys = base.uniform(0.5, 4.0, self.POINTS) * jitter(self.POINTS)
        Ts = base.uniform(1.0, 150.0, self.POINTS) * jitter(self.POINTS)
        xs = rng.uniform(0.0, 1.0, self.POINTS)
        self.points = [(float(x), float(y), float(T)) for x, y, T in zip(xs, ys, Ts)]
        self.witnesses = [(y, k) for y in self.WITNESS_Y for k in self.WITNESS_K]
        gy = base.uniform(0.5, 4.0, self.GENERIC) * jitter(self.GENERIC)
        gT = base.uniform(1.0, 40.0, self.GENERIC) * jitter(self.GENERIC)
        # the integer grid is not jittered: it is where users meet ties
        self.rows = [(y, float(T)) for y in self.GRID_Y for T in self.GRID_T]
        self.rows += [(float(y), float(T)) for y, T in zip(gy, gT)]

    def work(self) -> dict:
        events = sum(raw_events(y, T) for y, T in self.rows)
        events += sum(raw_events(y, k * math.sqrt(y)) for y, k in self.witnesses)
        return {
            "stats.events.raw": events,
            "lattice.rows": 3 * sum(lattice_rows(y, T) for _, y, T in self.points),
        }

    def reference(self) -> dict:
        """Closed-form means for the breakpoint rows, and a warm-up pass."""
        self.closed = [sc.mean_remainder_closed(y, T) for y, T in self.rows]
        self.run_pass(None)
        return {}

    def run_pass(self, tracer) -> Pass:
        ps = Pass()
        t0 = time.perf_counter()
        op = 0
        counters = (
            ("lattice.count_rowslice", sc.count_rowslice),
            ("formula.count_formula", sc.count_formula),
            ("lattice.count_enumerate", sc.count_enumerate),
        )
        for x, y, T in self.points:
            z = sc.ShearPoint(x, y)
            got = {}
            for name, fn in counters:
                res, error, seconds, span = timed_call(tracer, name, op, fn, z, T)
                if tracer is not None:
                    ps.counts["lattice.rows"] += lattice_rows(y, T)
                    ps.counts["lattice.count_calls"] += 1
                    if name == "lattice.count_rowslice":
                        ps.counts["lattice.count_rowslice.calls"] += 1
                    if name == "formula.count_formula":
                        timed_call(tracer, "formula.count_decomposition", op, sc.count_decomposition, z, T,
                                   parent=span, replay=True)
                    if res is not None and res.ties > 0:
                        ps.counts["lattice.tie_calls"] += 1
                if ps.op(error, seconds, f"{name}(x={x!r}, y={y!r}, T={T!r})"):
                    got[name] = res
                op += 1
            oracle = got.get("lattice.count_enumerate")
            for name in ("lattice.count_rowslice", "formula.count_formula"):
                res = got.get(name)
                if oracle is not None and res is not None and res.ties == 0 and oracle.ties == 0:
                    ps.checked(f"{name}(x={x!r}, y={y!r}, T={T!r})", counters=res.count != oracle.count)

        for y, k in self.witnesses:
            call = f"stats.lower_bound_witness(y={y!r}, k={k})"
            w, error, seconds, span = timed_call(tracer, "stats.lower_bound_witness", op,
                                                 sc.lower_bound_witness, y, k)
            if tracer is not None:
                T = k * math.sqrt(y)
                timed_call(tracer, "formula.chord_length_sum", op, sc.chord_length_sum, float(k),
                           parent=span, replay=True)
                _, _, _, inner = timed_call(tracer, "stats.mean_square_breakpoints", op,
                                            sc.mean_square_breakpoints, y, T, parent=span, replay=True)
                replay_breakpoints(tracer, op, inner, y, T, ps)
            if ps.op(error, seconds, call):
                ps.checked(call, witness=not (w.mean_square >= w.floor_value and w.mean_remainder < 0.0))
            op += 1

        for i, (y, T) in enumerate(self.rows):
            call = f"stats.mean_square_breakpoints(y={y!r}, T={T!r})"
            rep, error, seconds, span = timed_call(tracer, "stats.mean_square_breakpoints", op,
                                                   sc.mean_square_breakpoints, y, T)
            if tracer is not None:
                replay_breakpoints(tracer, op, span, y, T, ps)
            if ps.op(error, seconds, call):
                ps.checked(call, closed_mean=mean_off(rep, self.closed[i]))
            op += 1
        ps.wall_s = time.perf_counter() - t0
        return ps


WORKLOADS = {w.name: w for w in (SweepLarge, Spectral, ManySmall)}


def median_of(passes: list[Pass], fn) -> float:
    return float(statistics.median(fn(p) for p in passes))


def layer_metrics(traced: list[Pass], plain: list[Pass], pass_spans: list[list[dict]], reference: dict) -> dict:
    """Per-layer figures, each the median over traced passes of one pass's value."""
    sums = [layer_seconds(s) for s in pass_spans]

    def total(name):
        return float(statistics.median(t.get(name, 0.0) for t, _ in sums))

    def own(name):
        return float(statistics.median(o.get(name, 0.0) for _, o in sums))

    def count(name):
        return median_of(traced, lambda p: p.counts.get(name, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "lattice.count_rowslice.s": total("lattice.count_rowslice"),
        "lattice.count_rowslice.calls": count("lattice.count_rowslice.calls"),
        "lattice.count_enumerate.s": total("lattice.count_enumerate"),
        "lattice.rows": count("lattice.rows"),
        "lattice.tie_share": ratio(count("lattice.tie_calls"), count("lattice.count_calls")),
        "formula.count_decomposition.s": total("formula.count_decomposition"),
        "formula.count_formula.s": total("formula.count_formula"),
        "formula.chord_length_sum.s": total("formula.chord_length_sum"),
        "fourier.cosine_spectrum.s": total("fourier.cosine_spectrum"),
        "fourier.parseval_mean_square.self_s": own("fourier.parseval_mean_square"),
        "fourier.auto_truncation.self_s": own("fourier.auto_truncation"),
        "fourier.mean_square_certificate.s": total("fourier.mean_square_certificate"),
        "fourier.pairs": count("fourier.pairs"),
        "fourier.coeff_bytes": median_of(traced, lambda p: p.maxima.get("fourier.coeff_bytes", 0.0)),
        "stats.breakpoints.s": total("stats.breakpoints"),
        "stats.integrate.self_s": own("stats.mean_square_breakpoints"),
        "stats.events.raw": count("stats.events.raw"),
        "stats.events.merged": count("stats.events.merged"),
        "stats.event_bytes": median_of(traced, lambda p: p.maxima.get("stats.event_bytes", 0.0)),
        "stats.sweep.wall_s": total("stats.sweep"),
        "stats.sweep.serial_s": reference.get("stats.sweep.serial_s", 0.0),
        "stats.sweep.workers": float(SWEEP_WORKERS) if "stats.sweep.serial_s" in reference else 0.0,
        "stats.mean_square_parseval.self_s": own("stats.mean_square_parseval"),
        "stats.lower_bound_witness.s": total("stats.lower_bound_witness"),
        "stats.write_sweep_csv.s": total("stats.write_sweep_csv"),
    }
    m["fourier.pairs_per_s"] = ratio(m["fourier.pairs"], m["fourier.cosine_spectrum.s"])
    m["stats.merge_ratio"] = ratio(m["stats.events.merged"], m["stats.events.raw"])
    m["stats.events_per_s"] = ratio(m["stats.events.raw"], m["stats.breakpoints.s"])
    m["stats.sweep.pool_speedup"] = ratio(m["stats.sweep.serial_s"], m["stats.sweep.wall_s"])

    every = traced + plain
    failed = Counter(cls for p in every for cls, _ in p.failures)
    per_pass = len(every)
    m["stats.failed_ops.IndexError"] = failed.get("IndexError", 0) / per_pass
    m["stats.failed_ops.ShearCountError"] = failed.get("ShearCountError", 0) / per_pass
    wrong = sum(p.wrong for p in every)
    m["stats.failed_ops.wrong_result"] = wrong / per_pass
    m["stats.failed_ops.other"] = (sum(failed.values()) - failed.get("IndexError", 0)
                                   - failed.get("ShearCountError", 0) - wrong) / per_pass
    plain_wall = median_of(plain, lambda p: p.wall_s)
    traced_wall = median_of(traced, lambda p: p.wall_s)
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.overhead_share"] = ratio(traced_wall - plain_wall, plain_wall)
    return m


def host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sweep_workers": SWEEP_WORKERS,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    reference = workload.reference()
    tracer = Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    pass_spans: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            mark = tracer.mark()
            traced.append(workload.run_pass(tracer))
            pass_spans.append(tracer.spans[mark:])
        else:
            plain.append(workload.run_pass(None))
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break

    every = plain + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(len(p.failures) for p in every)
    # An op's latency is its median over the plain passes, and throughput is
    # the median pass's: the host's CPU speed swings by up to 2x over tens of
    # seconds, and per-op medians spread least between runs.
    repeats: dict[int, list[float]] = defaultdict(list)
    for p in plain:
        for i, ms in p.latencies_ms.items():
            repeats[i].append(ms)
    latencies = [statistics.median(v) for v in repeats.values()]
    checks: dict[str, list[int]] = {}
    for p in every:
        for check, (bad, total) in p.checks.items():
            agg = checks.setdefault(check, [0, 0])
            agg[0] += bad
            agg[1] += total
    distinct = Counter(f for p in every for f in p.failures)
    result = {
        "workload": name,
        "seed": seed,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "correct": all(p.wrong == 0 for p in every),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "ops_per_s": median_of(plain, lambda p: p.attempted / p.wall_s),
            "op_p50_ms": float(np.percentile(latencies, 50)) if latencies else float("nan"),
            "op_p90_ms": float(np.percentile(latencies, 90)) if latencies else float("nan"),
            "op_samples": len(latencies),
            "peak_rss_mb": reference.get("peak_rss_mb", max_rss_mb()),
            "ru_maxrss_mb": max_rss_mb(),
            "failure_share": failed / attempted,
            "success_share": 1.0 - failed / attempted,
        },
        "checks": checks,
        "failures": [[cls, call, n] for (cls, call), n in sorted(distinct.items())],
        "host": host(),
    }
    if trace:
        result["per_layer"] = layer_metrics(traced, plain, pass_spans, reference)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{name}-seed{seed}.jsonl")
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] not in WORKLOADS:
        print(f"usage: workloads.py {{{','.join(WORKLOADS)}}} <seed> <seconds> <trace 0|1>", file=sys.stderr)
        return 2
    result = run(argv[0], int(argv[1]), float(argv[2]), argv[3] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
