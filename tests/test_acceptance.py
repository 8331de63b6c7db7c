"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
watch them as the suite progresses).  Frozen constants come from the oracle
sweeps recorded under results/.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import shearcount as sc
from shearcount.numerics import compensated_sum, frac_snapped
from shearcount.verify import sample_tie_free_cases

SEED = 42
MEAN_GRID = [(y, T) for T in (1.5, 7.3, 20.0, 50.0) for y in (0.7, 1.0, 2.5)]
PARSEVAL_GRID = [(y, s * math.sqrt(y)) for s in (1.5, 7.3, 20.0, 50.0, 100.0) for y in (0.7, 1.0, 2.5)]


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def seeded_cases():
    rng = np.random.Generator(np.random.PCG64(SEED))
    return [case[:3] for case in sample_tie_free_cases(rng, 500, 150.0)]


def test_criterion_1_and_2_exact_identity_and_oracles(seeded_cases):
    t0 = time.perf_counter()
    worst_gap = 0.0
    identity_ok = True
    oracle_ok = True
    for x, y, T in seeded_cases:
        z = sc.ShearPoint(x, y)
        enum = sc.count_enumerate(z, T).count
        rows = sc.count_rowslice(z, T).count
        total = sc.count_decomposition(z, T).total
        gap = abs(total - round(total))
        worst_gap = max(worst_gap, gap)
        if gap >= 1e-6 or round(total) != enum:
            identity_ok = False
        if rows != enum:
            oracle_ok = False
    elapsed = time.perf_counter() - t0
    report(1, "decomposition identity on 500 tie-free cases", identity_ok and elapsed < 60.0,
           f"worst |total-round|={worst_gap:.2e}, {elapsed:.1f}s")
    report(2, "row-sliced count equals enumeration on the same cases", oracle_ok)


def test_criterion_3_chord_sum_asymptotics():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    ok = True
    for T in np.geomspace(2.0, 1e4, 200):
        err = sc.chord_sum_error(float(T))
        if abs(err) > sc.chord_sum_error_bound(float(T)):
            ok = False
        # constant 9 confirmed by the oracle sweep (observed max 1.18)
        worst_ratio = max(worst_ratio, abs(err) / math.sqrt(T))
        if abs(err) > 9.0 * math.sqrt(T):
            ok = False
    elapsed = time.perf_counter() - t0
    report(3, "chord-sum error within explicit bound and 9*sqrt(T)", ok and elapsed < 30.0,
           f"max |err|/sqrt(T)={worst_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_4_chord_identity():
    ok = True
    worst = 0.0
    for T in (5.0, 10.0, 50.0, 200.0):
        residual, integral, bound = sc.chord_identity_residual(T)
        worst = max(worst, abs(residual))
        if abs(residual) > 1e-8 or not (0.0 <= integral <= bound):
            ok = False
    report(4, "integration-by-parts identity at 1e-8 with integral bounds", ok,
           f"worst residual={worst:.2e}")


def _oscillatory_period_integral(y, T):
    sw = sc.breakpoints(y, T)
    edges = np.concatenate([[0.0], sw.xs, [1.0]])
    lengths = np.diff(edges)
    counts = sw.base_count + np.concatenate([[0], np.cumsum(sw.deltas)])
    if sw.axis_tie:
        counts = counts + 2
    scaled = T / math.sqrt(y)
    flat = y * sc.chord_length_sum(scaled) + (1.0 - 2.0 * frac_snapped(math.sqrt(y) * T))
    return compensated_sum(lengths * (counts - flat))


def test_criterion_5_oscillatory_mean_zero():
    ok = True
    worst = 0.0
    for y, T in MEAN_GRID:
        val = abs(_oscillatory_period_integral(y, T)) / (1.0 + math.pi * T * T)
        worst = max(worst, val)
        if val > 1e-9:
            ok = False
    report(5, "oscillatory part integrates to zero over the period", ok, f"worst={worst:.2e}")


def test_criterion_6_closed_form_mean():
    ok = True
    worst = 0.0
    for y, T in MEAN_GRID:
        rep = sc.mean_square_breakpoints(y, T)
        val = abs(rep.mean_remainder - sc.mean_remainder_closed(y, T)) / (1.0 + math.pi * T * T)
        worst = max(worst, val)
        if val > 1e-9:
            ok = False
    report(6, "sweep mean equals the closed form", ok, f"worst={worst:.2e}")


@pytest.fixture(scope="module")
def parseval_results():
    out = {}
    for y, T in PARSEVAL_GRID:
        k_max, n_max = sc.auto_truncation(y, T)
        value, err = sc.parseval_mean_square(y, T, k_max, n_max)
        rep = sc.mean_square_breakpoints(y, T)
        exact = rep.mean_square - rep.mean_remainder**2
        out[(y, T)] = (value, err, exact)
    return out


def test_criterion_7_parseval_vs_breakpoints(parseval_results):
    t0 = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for (y, T), (value, err, exact) in parseval_results.items():
        if abs(value - exact) > err:
            ok = False
        if value > 0.1:
            worst_rel = max(worst_rel, err / value)
            if err > 0.01 * value:
                ok = False
    elapsed = time.perf_counter() - t0
    report(7, "Parseval value within its bound, bound under 1% of value", ok and elapsed < 300.0,
           f"worst bound/value={worst_rel:.4f}, {elapsed:.1f}s")


def test_criterion_8_certificate_domination(parseval_results):
    ok = True
    violations = 0
    for (y, T), (value, _, _) in parseval_results.items():
        for cutoff in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            if value > sc.mean_square_certificate(y, T, cutoff):
                violations += 1
                ok = False
    report(8, "certificate dominates the Parseval value at every cutoff", ok,
           f"violations={violations}")


def test_criterion_9_upper_bound_sweep():
    t0 = time.perf_counter()
    ratios = {}
    for y in (1.0, 2.0, 5.0):
        for T in np.geomspace(10.0, 2000.0, 24):
            rep = sc.mean_square_breakpoints(y, float(T))
            ratios[(y, float(T))] = rep.ratio
    finite = all(math.isfinite(r) for r in ratios.values())
    low = max(r for (y, T), r in ratios.items() if T <= 500.0)
    high = max(r for (y, T), r in ratios.items() if T > 500.0)
    elapsed = time.perf_counter() - t0
    ok = finite and high <= 2.0 * low and elapsed < 1800.0
    report(9, "mean square stays under the bound shape over the sweep", ok,
           f"sup ratio={max(ratios.values()):.4f} (T<=500: {low:.4f}, T>500: {high:.4f}), {elapsed:.0f}s")


def test_criterion_10_lower_bound_witnesses():
    ok = True
    min_ratio = math.inf
    for y in (1.0, 4.0):
        for k in range(2, 101):
            w = sc.lower_bound_witness(y, k)
            if w.mean_square < w.floor_value or w.mean_remainder >= 0.0:
                ok = False
            # c0 = 1 frozen from the oracle sweep (observed min 1.1584)
            if w.deficit < math.sqrt(k):
                ok = False
            min_ratio = min(min_ratio, w.deficit / math.sqrt(k))
    report(10, "witness floor, negative mean, and deficit >= sqrt(k)", ok,
           f"min deficit/sqrt(k)={min_ratio:.4f}")


def test_criterion_11_polygon_identity():
    ok = True
    worst = 0.0
    for R in range(1, 501):
        area = sc.inscribed_polygon_area(R)
        chord = sc.chord_length_sum(float(R))
        rel = abs(area - chord) / chord
        worst = max(worst, rel)
        if rel > 1e-9:
            ok = False
    report(11, "polygon area equals the chord sum for radii 1..500", ok, f"worst rel={worst:.2e}")


def test_criterion_12_sweep_determinism(tmp_path):
    cmd = [sys.executable, "-m", "shearcount", "sweep", "--y", "1", "--y", "2",
           "--radius-min", "10", "--radius-max", "200", "--samples", "6", "--log"]
    blobs = []
    for threads, name in (("1", "a.csv"), ("4", "b.csv")):
        path = tmp_path / name
        subprocess.run(cmd + ["--threads", threads, "--out", str(path)], check=True)
        blobs.append(path.read_bytes())
    report(12, "sweep output byte-identical across worker counts", blobs[0] == blobs[1])
