import io
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearcount import (
    InvalidParameter,
    RangeExceeded,
    ShearPoint,
    SweepConfig,
    breakpoints,
    chord_length_sum,
    count_enumerate,
    count_rowslice,
    lower_bound_witness,
    mean_remainder_closed,
    mean_square_breakpoints,
    mean_square_pairwise,
    mean_square_parseval,
    mean_square_upper_bound,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from shearcount.lattice import halfwidths, row_limit, scaled_radius
from shearcount.numerics import TEMP_ENTRIES, snap_integer
from shearcount.stats import SWEEP_HEADER, default_threads

MEAN_GRID = [(y, T) for T in (1.5, 7.3, 20.0, 50.0) for y in (0.7, 1.0, 2.5)]
INTEGER_GRID = [(y, float(T)) for y in (1.0, 2.0, 4.0) for T in range(1, 41)]


def _reference_breakpoints(y, T):
    """Per-row event loop with a stable float argsort: the reference that
    ``breakpoints`` must reproduce byte for byte.  Returns
    (xs, deltas, base_count, axis_tie)."""
    M = row_limit(scaled_radius(y, T))
    xs_parts, delta_parts = [], []
    if M > 0:
        hw = halfwidths(y, T, np.arange(1, M + 1, dtype=float))
        for m in range(1, M + 1):
            g, _ = snap_integer(float(hw[m - 1]))
            n = np.arange(math.floor(g - m) + 1, math.ceil(g))
            xs_parts.append((g - n) / m)
            delta_parts.append(np.full(n.size, -2, dtype=np.int64))
            n = np.arange(math.floor(-g - m) + 1, math.ceil(-g))
            xs_parts.append((-g - n) / m)
            delta_parts.append(np.full(n.size, 2, dtype=np.int64))
    xs = np.empty(0)
    deltas = np.empty(0, dtype=np.int64)
    if xs_parts:
        xs = np.round(np.concatenate(xs_parts), 13)
        deltas = np.concatenate(delta_parts)
        inside = (xs > 0.0) & (xs < 1.0)
        xs, deltas = xs[inside], deltas[inside]
        order = np.argsort(xs, kind="stable")
        xs, deltas = xs[order], deltas[order]
    if xs.size:
        starts = np.flatnonzero(np.r_[True, np.diff(xs) > 0.0])
        sums = np.add.reduceat(deltas, starts)
        keep = sums != 0
        xs, deltas = xs[starts][keep], sums[keep]
    # the count comes from count_rowslice at a tie-free point of the first
    # segment, independently of the row formula that breakpoints uses
    _, axis_tie = snap_integer(math.sqrt(y) * T)
    x_base = float(xs[0]) / 2.0 if xs.size else 0.5
    for _ in range(64):
        anchor = count_rowslice(ShearPoint(x_base, y), T)
        if anchor.ties <= (1 if axis_tie else 0):
            break
        x_base *= 0.6180339887498949
    return xs, deltas, anchor.count, axis_tie


def _assert_same_as_reference(y, T):
    sw = breakpoints(y, T)
    xs, deltas, base_count, axis_tie = _reference_breakpoints(y, T)
    assert sw.xs.tobytes() == xs.tobytes()
    assert sw.deltas.tobytes() == deltas.tobytes()
    assert sw.deltas.dtype == deltas.dtype
    assert (sw.base_count, sw.axis_tie) == (base_count, axis_tie)


# ---- breakpoints ----

def test_breakpoints_constant_region():
    sw = breakpoints(1.0, 0.5)
    assert sw.xs.size == 0
    assert sw.base_count == 1
    assert not sw.axis_tie


def test_breakpoints_reconstruction_small_case():
    sw = breakpoints(1.0, 1.5)
    assert sw.count_at(1e-9) == 9
    assert sw.count_at(0.5) == 7


def test_breakpoints_match_enumeration_with_boundary_column():
    # radius 2, square lattice: (0, +-2) sit on the circle for every x
    sw = breakpoints(1.0, 2.0)
    assert sw.axis_tie
    rng = np.random.default_rng(5)
    for x in rng.uniform(0.0, 1.0, 100):
        assert sw.count_at(float(x)) == count_enumerate(ShearPoint(float(x), 1.0), 2.0).count


def test_breakpoint_deltas_balance():
    for y, T in [(1.0, 7.7), (0.7, 12.0), (2.5, 30.0)]:
        sw = breakpoints(y, T)
        assert int(np.sum(sw.deltas)) == 0
        assert np.all(np.diff(sw.xs) > 0)


def test_breakpoints_range_guard():
    with pytest.raises(RangeExceeded):
        breakpoints(1e-4, 500.0)


@settings(max_examples=25)
@given(st.floats(0.5, 4.0), st.floats(1.0, 30.0, exclude_min=True), st.integers(0, 10**6))
@example(y=2.0, T=2.0, salt=0)
def test_reconstruction_equals_rowslice(y, T, salt):
    sw = breakpoints(y, T)
    x = (salt + 0.5) / (10**6 + 1)
    assert sw.count_at(x) == count_rowslice(ShearPoint(x, y), T).count


# Every occupied row has an integer half-width, so every crossing lands on
# x = 0 and the count is constant.
@pytest.mark.parametrize("y,T,count", [(2.0, 2.0, 13), (1.0, math.sqrt(2.0), 7), (4.0, math.sqrt(5.0), 17)])
def test_integer_halfwidths_give_empty_jump_set(y, T, count):
    sw = breakpoints(y, T)
    assert sw.xs.size == 0 and sw.deltas.dtype == np.int64
    for x in (1e-9, 0.25, 0.5, 0.999):
        assert sw.count_at(x) == count_rowslice(ShearPoint(x, y), T).count == count
    rep = mean_square_breakpoints(y, T)
    assert abs(rep.mean_remainder - mean_remainder_closed(y, T)) <= 1e-9 * (1.0 + math.pi * T * T)
    assert rep.breakpoint_count == 0


# Near-Pythagorean radii T ~ sqrt(m**2 + t**2): row t has a half-width within
# the tie tolerance of m, and the first jump sits at x = 1.5e-12 (m = 50) or
# 5.9e-11 (m = 300), so every point before it is tied.  The first-segment
# count comes from the snapped rows, not from a probe.
@pytest.mark.parametrize("T", [50.00999900018495, 300.0066665927124])
def test_breakpoints_answer_when_the_first_segment_is_tied(T):
    sw = breakpoints(1.0, T)
    rng = np.random.default_rng(11)
    checked = 0
    for x in np.concatenate([rng.uniform(0.0, 1.0, 40), sw.xs[:20] + 1e-7]):
        ref = count_rowslice(ShearPoint(float(x), 1.0), T)
        if ref.ties == 0:
            assert sw.count_at(float(x)) == ref.count
            checked += 1
    assert checked >= 30
    bp, pw = mean_square_breakpoints(1.0, T), mean_square_pairwise(1.0, T)
    assert abs(bp.mean_square - pw.mean_square) <= bp.error_bound + pw.error_bound


# ---- byte identity with the per-row reference ----

def test_breakpoints_match_reference_on_integer_grid_and_merge_heavy_row():
    # (1, 100.0449898795538) has crossings that round onto x = 0 (k = 0)
    for y, T in INTEGER_GRID + [(1.0, 500.0), (1.0, 100.0449898795538)]:
        _assert_same_as_reference(y, T)


@settings(max_examples=40)
@given(st.floats(0.3, 5.0), st.floats(0.5, 60.0))
def test_breakpoints_match_reference(y, T):
    _assert_same_as_reference(y, T)


# ---- exact mean square ----

def test_mean_square_constant_case():
    rep = mean_square_breakpoints(1.0, 0.5)
    assert rep.mean_remainder == pytest.approx(1.0 - 0.25 * math.pi, abs=1e-15)
    assert rep.mean_square == pytest.approx((1.0 - 0.25 * math.pi) ** 2, abs=1e-15)
    assert rep.method == "breakpoints"


def test_mean_square_radius_two():
    rep = mean_square_breakpoints(1.0, 2.0)
    want = chord_length_sum(2.0) - 4.0 * math.pi + 1.0
    assert rep.mean_remainder == pytest.approx(want, abs=1e-12)


def test_breakpoint_error_bound_covers_the_merge_grid():
    # y = 1, T = 2: the count plus the axis tie is 13 on (2 - sqrt(3), sqrt(3) - 1)
    # and 11 elsewhere, while the jumps sit on the 1e-13 grid
    rep = mean_square_breakpoints(1.0, 2.0)
    inner = 2.0 * math.sqrt(3.0) - 3.0
    exact = (1.0 - inner) * (11.0 - 4.0 * math.pi) ** 2 + inner * (13.0 - 4.0 * math.pi) ** 2
    assert abs(rep.mean_square - exact) <= rep.error_bound


def _segment_integral(y, T):
    """The mean, mean square and absolute mass of count - P over the merged
    count of breakpoints(y, T), segment by segment in exact rationals, with
    P = fl(pi*T*T) and the axis tie added as in the integrator."""
    sw = breakpoints(y, T)
    scaled = sw.xs * 1e13
    keys = np.rint(scaled)
    assert np.all(np.abs(scaled - keys) < 1e-2)  # the jumps sit on the 1e-13 grid
    edges = [0] + [int(k) for k in keys] + [10**13]
    counts = [sw.base_count + 2 * sw.axis_tie]
    for d in sw.deltas.tolist():
        counts.append(counts[-1] + d)
    P = Fraction(math.pi * T * T)
    s0 = s1 = s2 = mass = 0
    for lo, hi, c in zip(edges, edges[1:], counts):
        s0, s1, s2 = s0 + (hi - lo), s1 + (hi - lo) * c, s2 + (hi - lo) * c * c
        mass += (hi - lo) * abs(c - P)
    assert s0 == 10**13
    return (s1 - P * s0) / s0, (s2 - 2 * P * s1 + P * P * s0) / s0, mass / s0


@pytest.mark.parametrize("y,T", [(1.0, 99.0), (1.0, 200.3), (2.0, 7.0), (1.0, 7.0)])
def test_breakpoint_integral_is_exact_to_a_few_ulps(y, T):
    # (1, 200.3) has 40,200 segments, more than one 32,768-entry chunk;
    # (2, 7) has integer half-widths and (1, 7) an axis tie.  The level sums
    # round each mean term 3 times and each square term 5 times, plus once in
    # math.fsum: under 2 eps of the absolute mass and 3 eps of the mean square.
    rep = mean_square_breakpoints(y, T)
    mean, mean_sq, mass = _segment_integral(y, T)
    assert abs(Fraction(rep.mean_remainder) - mean) <= 2.0 * EPS * mass
    assert abs(Fraction(rep.mean_square) - mean_sq) <= 3.0 * EPS * mean_sq
    assert abs(Fraction(rep.mean_remainder) - mean) <= rep.error_bound
    assert abs(Fraction(rep.mean_square) - mean_sq) <= rep.error_bound


def test_mean_square_cauchy_schwarz():
    rep = mean_square_breakpoints(1.0, 50.0)
    assert rep.mean_square >= rep.mean_remainder**2


@pytest.mark.parametrize("y,T", MEAN_GRID)
def test_mean_matches_closed_form(y, T):
    rep = mean_square_breakpoints(y, T)
    tol = 1e-9 * (1.0 + math.pi * T * T)
    assert abs(rep.mean_remainder - mean_remainder_closed(y, T)) <= tol


def test_closed_form_values():
    assert mean_remainder_closed(1.0, 0.5) == pytest.approx(1.0 - 0.25 * math.pi, abs=1e-15)
    want = chord_length_sum(2.0) - 4.0 * math.pi + 1.0
    assert mean_remainder_closed(1.0, 2.0) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("T", [3, 10, 57])
def test_closed_form_below_one_at_integers(T):
    # equals 1 - (pi T^2 - chord sum), and the polygon deficit is positive
    assert mean_remainder_closed(1.0, float(T)) < 1.0


# ---- pairwise integrator ----

EPS = np.finfo(float).eps
# rows whose sqrt(y)*T is an integer: (0, +-T) lie on the circle at every x
AXIS_TIE_ROWS = [(1.0, 7.0), (0.25, 6.0), (2.0, 3.0 * math.sqrt(2.0)), (9.0, 5.0 / 3.0), (0.5, 4.0 * math.sqrt(0.5))]
INTEGER_HALFWIDTH_ROWS = [(2.0, 2.0), (1.0, math.sqrt(2.0)), (4.0, math.sqrt(5.0))]


def _reference_oscillatory_square(y, T):
    """Franel's sum over every ordered pair (m, n), one pair at a time, with
    math.gcd and a scalar B2: the reference for the banded kernel.  Returns
    (integral of osc**2, the absolute mass of its terms)."""
    M = row_limit(scaled_radius(y, T))
    hw = halfwidths(y, T, np.arange(1, M + 1, dtype=float))
    g = [snap_integer(float(h))[0] for h in hw]

    def b2(u):
        f = u - math.floor(u)
        return f * f - f + 1.0 / 6.0

    terms, mass = [], 0.0
    for m in range(1, M + 1):
        for n in range(1, M + 1):
            d = math.gcd(m, n)
            lo = b2((n * g[m - 1] - m * g[n - 1]) / d)
            hi = b2((n * g[m - 1] + m * g[n - 1]) / d)
            w = 4.0 * d * d / (m * n)
            terms.append(w * (lo - hi))
            mass += w * (abs(lo) + abs(hi))
    return math.fsum(terms), mass


def _assert_matches_reference(y, T):
    # The kernel forms each B2 argument with the same float operations as the
    # reference; evaluation order and summation differ, by at most a few ulps
    # per term plus at most 26 roundings per row sum.  32 eps of the term
    # mass covers both, and the squared mean adds one rounding.
    rep = mean_square_pairwise(y, T)
    ref, mass = _reference_oscillatory_square(y, T)
    mu = mean_remainder_closed(y, T)
    assert abs(rep.mean_square - (ref + mu * mu)) <= 32.0 * EPS * (mass + mu * mu)


def _assert_agrees_with_breakpoints(y, T):
    pw, bp = mean_square_pairwise(y, T), mean_square_breakpoints(y, T)
    allowed = pw.error_bound + bp.error_bound
    assert abs(pw.mean_square - bp.mean_square) <= allowed
    assert abs(pw.mean_remainder - bp.mean_remainder) <= 1e-9 * (1.0 + math.pi * T * T)


def test_pairwise_matches_the_pair_by_pair_reference():
    rows_ = [r for r in INTEGER_GRID if row_limit(scaled_radius(*r)) <= 60]
    for y, T in rows_ + AXIS_TIE_ROWS + INTEGER_HALFWIDTH_ROWS + [(1.0, 60.5), (0.7, 37.3)]:
        _assert_matches_reference(y, T)


@settings(max_examples=25)
@given(st.floats(0.3, 5.0), st.floats(0.2, 60.0))
def test_pairwise_matches_the_pair_by_pair_reference_on_random_rows(y, scaled):
    _assert_matches_reference(y, scaled * math.sqrt(y))  # M <= 60


@pytest.mark.parametrize("entries", [1, 256])
def test_pairwise_tiles_match_the_pair_by_pair_reference(monkeypatch, entries):
    # shrink the bands so rows with M <= 60 span many of them: one row per
    # band, or (256 // 4) // M rows with divisors both within and beyond a band
    import shearcount.stats as stats

    monkeypatch.setattr(stats, "TEMP_ENTRIES", entries)
    for y, T in [(1.0, 40.0), (2.0, 40.0), (1.0, 60.5), (0.7, 37.3), (4.0, math.sqrt(5.0)), (1.0, 7.0)]:
        _assert_matches_reference(y, T)


# Axis ties that snap: sqrt(y)*T lies within TIE_EPS of an integer but not on it,
# so the closed-form mean must count the snapped column the breakpoints count.
SNAPPED_AXIS_TIE_ROWS = [(1.0, 7.0 + 5e-12), (4.0, 3.5 + 2e-12), (1.0, 5.0 + 3e-12)]


def test_pairwise_agrees_with_breakpoints_on_integer_grid_and_ties():
    for y, T in INTEGER_GRID + INTEGER_HALFWIDTH_ROWS + AXIS_TIE_ROWS + SNAPPED_AXIS_TIE_ROWS:
        _assert_agrees_with_breakpoints(y, T)


@pytest.mark.parametrize("T", [1e-13, 5e-13])
def test_a_radius_that_snaps_to_zero_is_no_axis_tie(T):
    # sqrt(y)*T snaps to 0: the m = 0 column holds the origin alone and no
    # vector lies on the circle, so no segment gains the axis column's 2
    sw = breakpoints(1.0, T)
    assert (sw.base_count, sw.axis_tie) == (1, False)
    pw, bp = mean_square_pairwise(1.0, T), mean_square_breakpoints(1.0, T)
    # the closed-form mean counts the snapped column, the origin alone
    assert pw.mean_remainder == bp.mean_remainder
    osc_pw, osc_bp = (rep.mean_square - rep.mean_remainder**2 for rep in (pw, bp))
    assert abs(osc_pw - osc_bp) <= pw.error_bound + bp.error_bound


@settings(max_examples=40)
@given(st.floats(0.3, 5.0), st.floats(0.5, 120.0))
def test_pairwise_agrees_with_breakpoints(y, T):
    _assert_agrees_with_breakpoints(y, T)


def test_pairwise_agrees_with_breakpoints_across_several_tiles():
    # M = 1199 > 2**16 // M rows per band, so the sum spans several bands
    _assert_agrees_with_breakpoints(1.0, 1200.0)


def test_pairwise_report_fields():
    rep = mean_square_pairwise(1.0, 20.0)
    assert (rep.method, rep.breakpoint_count) == ("pairwise", 0)
    assert rep.mean_remainder == mean_remainder_closed(1.0, 20.0)
    assert 0.0 < rep.error_bound < 1e-9 * rep.mean_square
    empty = mean_square_pairwise(1.0, 0.5)  # no occupied rows: the remainder is constant
    assert empty.mean_square == empty.mean_remainder**2


def test_pairwise_refuses_rows_beyond_its_ceiling_before_building_them(monkeypatch):
    import shearcount.stats as stats

    class Built(Exception):
        pass

    def rows_built(*args):
        raise Built

    monkeypatch.setattr(stats, "halfwidths", rows_built)
    ceiling = stats._MAX_PAIRWISE_ROWS
    with pytest.raises(RangeExceeded, match=rf"M = {ceiling + 1} exceeds"):
        mean_square_pairwise(1.0, ceiling + 1.5)
    with pytest.raises(RangeExceeded, match=r"M = 49999 exceeds"):
        mean_square_pairwise(1e-4, 500.0)
    with pytest.raises(Built):  # the ceiling itself is accepted
        mean_square_pairwise(1.0, ceiling + 0.5)


def test_pairwise_sweep_rows_do_not_depend_on_the_thread_count():
    cfg = SweepConfig(y_values=(1.0, 0.5), radius_min=300.0, radius_max=900.0, samples=3, integrator="pairwise")
    one, four = sweep(cfg, threads=1), sweep(cfg, threads=4)
    assert [r.method for r in one] == ["pairwise"] * 6
    assert [(r.y, r.T, r.mean_square, r.mean_remainder, r.error_bound) for r in one] == [
        (r.y, r.T, r.mean_square, r.mean_remainder, r.error_bound) for r in four
    ]


def test_band_gcd_tables_match_math_gcd():
    # every (m, n) with M = 300, at band heights 1, 2, 3, 7 and whole; the
    # prime powers below have multiples on both sides of many band edges
    import shearcount.stats as stats

    M = 300
    ref = np.array([[math.gcd(m, n) for n in range(1, M + 1)] for m in range(1, M + 1)], dtype=float)
    prime_of = dict(zip(*(a.tolist() for a in stats._prime_powers())))
    assert {q: prime_of[q] for q in (4, 8, 9, 16, 25, 27, 32, 49)} == {
        4: 2, 8: 2, 9: 3, 16: 2, 25: 5, 27: 3, 32: 2, 49: 7
    }
    for height in (1, 2, 3, 7, M):
        for i0 in range(0, M, height):
            i1 = min(M, i0 + height)
            np.testing.assert_array_equal(stats._band_gcd(i0, i1, M), ref[i0:i1, i0:])


def test_pairwise_temporaries_stay_within_a_quarter_of_the_cap():
    # bands hold (TEMP_ENTRIES // 4) // M rows; the kernel keeps four band
    # arrays live, so a single band array of the full cap would show in the peak
    import tracemalloc

    import shearcount.stats as stats

    quarter = TEMP_ENTRIES // 4
    for M in (1, 255, 256, 257, 2000, 20000):
        height = max(1, quarter // M)
        for i0 in {i0 for i0 in (0, height, (M - 1) // height * height) if i0 < M}:  # first, second, last
            assert stats._band_gcd(i0, min(M, i0 + height), M).size <= quarter
    for T in (200.5, 2000.5):
        mean_square_pairwise(1.0, T)  # first use builds the prime powers
        tracemalloc.start()
        try:
            mean_square_pairwise(1.0, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * quarter


def _longdouble_oscillatory_square(y, T):
    """Franel's sum on the same snapped half-widths, row by row in
    np.longdouble with exact gcds."""
    M = row_limit(scaled_radius(y, T))
    ms = np.arange(1, M + 1)
    g = np.array([snap_integer(float(h))[0] for h in halfwidths(y, T, ms.astype(float))], dtype=np.longdouble)
    n = ms.astype(np.longdouble)
    total = np.longdouble(0)
    for m in range(1, M + 1):
        d = np.gcd(m, ms).astype(np.longdouble)
        lo = (n * g[m - 1] - m * g) / d
        hi = (n * g[m - 1] + m * g) / d
        lo -= np.floor(lo)
        hi -= np.floor(hi)
        total += np.sum(4 * d * d / (m * n) * (lo * lo - lo - hi * hi + hi))
    return total


@pytest.mark.parametrize("y, T", [(1.0, 300.0), (2.0, 800.0), (0.7, 500.3)])
def test_pairwise_stays_within_its_bound_of_a_long_double_sum(y, T):
    # worst |error| / error_bound over these rows: 1.5e-5, at (0.7, 500.3)
    # (x86-64, 80-bit long double); the error is the float64 arguments' rounding
    rep = mean_square_pairwise(y, T)
    mu = np.longdouble(rep.mean_remainder)
    exact = _longdouble_oscillatory_square(y, T) + mu * mu
    assert abs(float(np.longdouble(rep.mean_square) - exact)) <= rep.error_bound


# ---- parseval-assembled integrator ----

# M = 1 and 2, integer-grid rows with y in {1, 2, 4} and T <= 40, and two
# generic rows: all with M <= 39
PARSEVAL_ASSEMBLED_ROWS = [
    (1.0, 1.5), (1.0, 2.0), (2.0, 2.0), (4.0, 4.0), (1.0, 3.0), (2.0, 4.0), (4.0, 5.0),
    (4.0, 13.0), (1.0, 17.0), (2.0, 23.0), (4.0, 40.0), (2.0, 40.0), (1.0, 40.0), (0.7, 6.1), (2.5, 31.6),
]


def test_parseval_assembled_matches_exact():
    for y, T in PARSEVAL_ASSEMBLED_ROWS:
        M = row_limit(scaled_radius(y, T))
        pa = mean_square_parseval(y, T)
        exact = mean_square_breakpoints(y, T)
        assert pa.method == "parseval-assembled"
        assert abs(pa.mean_square - exact.mean_square) <= pa.error_bound
        # both means add M rows' terms
        assert pa.mean_remainder == pytest.approx(exact.mean_remainder, abs=1e-12 * M)
        # criterion 7's 1% rule on the oscillatory value
        value = pa.mean_square - pa.mean_remainder**2
        if value > 0.1:
            assert pa.error_bound <= 0.01 * value


# ---- lower-bound witnesses ----

def test_witness_square_lattice():
    w = lower_bound_witness(1.0, 2)
    assert w.T == 2.0
    assert w.deficit == pytest.approx(1.6381673840836637, abs=1e-12)
    assert w.mean_remainder == pytest.approx(-0.6381673840836637, abs=1e-12)
    assert w.floor_value == pytest.approx(0.4072576101081863, abs=1e-12)
    assert w.mean_square >= w.floor_value


def test_witness_tall_lattice():
    w = lower_bound_witness(4.0, 2)
    assert w.T == 4.0
    assert w.mean_remainder == pytest.approx(-4.0 * 1.6381673840836637 + 1.0, abs=1e-12)
    assert w.floor_value == pytest.approx(30.832138979738907, rel=1e-10)
    # compare against the bound scale y^{3/2} T = 32
    assert w.floor_value < 32.0 < 1.2 * w.mean_square


def test_witness_first_radius():
    w = lower_bound_witness(1.0, 1)
    assert w.deficit == pytest.approx(math.pi - 2.0, abs=1e-15)


def test_witness_validation():
    with pytest.raises(InvalidParameter):
        lower_bound_witness(1.0, 0)


# ---- upper bound expression ----

def test_upper_bound_clamps_log():
    # below scaled radius e the log factor pins at 1
    assert mean_square_upper_bound(1.0, 2.0) == pytest.approx(2.0 + 2.0, rel=1e-15)
    val = mean_square_upper_bound(1.0, 100.0)
    assert val == pytest.approx(100.0 * math.log(100.0) ** 2 + 100.0, rel=1e-12)


# ---- sweep ----

def test_sweep_shapes_and_order():
    cfg = SweepConfig(y_values=(2.0, 1.0), radius_min=5.0, radius_max=20.0, samples=4, log_spaced=True)
    reports = sweep(cfg, threads=1)
    assert len(reports) == 8
    keys = [(r.y, r.T) for r in reports]
    assert keys == sorted(keys)
    assert all(math.isfinite(r.ratio) for r in reports)


def test_sweep_empty():
    cfg = SweepConfig(y_values=(1.0,), radius_min=5.0, radius_max=20.0, samples=0)
    assert sweep(cfg) == []


def test_sweep_thread_count_is_immaterial():
    cfg = SweepConfig(y_values=(1.0, 2.0), radius_min=3.0, radius_max=40.0, samples=5, log_spaced=True)

    def data(reports):  # everything but the wall-clock column
        return [
            (r.y, r.T, r.mean_remainder, r.mean_square, r.method, r.ratio, r.breakpoint_count, r.error)
            for r in reports
        ]

    assert data(sweep(cfg, threads=1)) == data(sweep(cfg, threads=4))


def test_sweep_records_row_errors():
    cfg = SweepConfig(y_values=(1e-4,), radius_min=500.0, radius_max=500.0, samples=1)
    reports = sweep(cfg, threads=1)
    assert len(reports) == 1
    assert reports[0].error
    assert math.isnan(reports[0].mean_square)


def test_sweep_rejects_bad_config():
    with pytest.raises(InvalidParameter):
        sweep(SweepConfig(y_values=(1.0,), radius_min=5.0, radius_max=2.0, samples=3))
    with pytest.raises(InvalidParameter):
        sweep(SweepConfig(y_values=(1.0,), radius_min=1.0, radius_max=2.0, samples=3, integrator="magic"))


def test_sweep_csv_round_trip():
    cfg = SweepConfig(y_values=(1.0,), radius_min=2.0, radius_max=9.0, samples=3)
    reports = sweep(cfg, threads=1)
    buf = io.StringIO()
    write_sweep_csv(reports, buf)
    buf.seek(0)
    back = read_sweep_csv(buf)
    assert [(r.T, r.y, r.mean_square, r.mean_remainder, r.method) for r in back] == [
        (r.T, r.y, r.mean_square, r.mean_remainder, r.method) for r in reports
    ]


@pytest.mark.parametrize("row", ["2.0,1.0,0.5", "2.0,1.0,x,0.1,1,0.5,pairwise,0,0"])
def test_sweep_csv_malformed_row_is_invalid(row):
    buf = io.StringIO(SWEEP_HEADER + "\n" + row + "\n")
    with pytest.raises(InvalidParameter, match="line 2"):
        read_sweep_csv(buf)


@pytest.mark.parametrize(
    "header, row",
    [
        (SWEEP_HEADER, "2.0,1.0,1.4,0.1,4,0.35,pairwise,0,0,junk,more"),
        (SWEEP_HEADER, "2.0,1.0,1.4,0.1,4,0.35,pairwise,0,0,"),
        (SWEEP_HEADER + ",error", "2.0,1.0,1.4,0.1,4,0.35,pairwise,0,0"),
        (SWEEP_HEADER + ",error", "2.0,1.0,1.4,0.1,4,0.35,pairwise,0,0,oops,more"),
    ],
)
def test_sweep_csv_row_must_match_the_header_field_count(header, row):
    buf = io.StringIO(header + "\n" + row + "\n")
    with pytest.raises(InvalidParameter, match="line 2: .* fields where the header has"):
        read_sweep_csv(buf)


def test_untimed_sweep_csv_writes_zero_elapsed_ms():
    reports = sweep(SweepConfig(y_values=(1.0,), radius_min=2.0, radius_max=9.0, samples=2), threads=1)
    assert all(r.elapsed_ms > 0 for r in reports)
    buf = io.StringIO()
    write_sweep_csv(reports, buf)
    assert [line.rsplit(",", 1)[1] for line in buf.getvalue().splitlines()[1:]] == ["0", "0"]


def test_default_threads_counts_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_threads() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_threads() == 64


@pytest.mark.parametrize("threads", [0, -3])
def test_sweep_rejects_fewer_than_one_thread(threads):
    cfg = SweepConfig(y_values=(1.0,), radius_min=2.0, radius_max=4.0, samples=2)
    with pytest.raises(InvalidParameter, match="threads must be >= 1"):
        sweep(cfg, threads=threads)


def test_sweep_csv_error_column_only_when_needed():
    cfg = SweepConfig(y_values=(1.0,), radius_min=2.0, radius_max=4.0, samples=2)
    buf = io.StringIO()
    write_sweep_csv(sweep(cfg, threads=1), buf)
    assert "error" not in buf.getvalue().splitlines()[0]

    bad = SweepConfig(y_values=(1e-4,), radius_min=500.0, radius_max=500.0, samples=1)
    buf = io.StringIO()
    write_sweep_csv(sweep(bad, threads=1), buf)
    header, row = buf.getvalue().splitlines()
    assert header.endswith(",error")
    assert "exceeds" in row
