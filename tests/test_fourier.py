import io
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shearcount import (
    InvalidParameter,
    ShearPoint,
    auto_truncation,
    cosine_spectrum,
    mean_square_breakpoints,
    mean_square_certificate,
    mean_square_parseval,
    oscillatory_partial_sum,
    oscillatory_sum,
    parseval_mean_square,
    read_spectrum_csv,
    write_spectrum_csv,
)
from shearcount import fourier
from shearcount.lattice import halfwidths, row_limit, rows
from shearcount.numerics import TEMP_ENTRIES, compensated_sum

SQ125 = math.sqrt(1.25)
FOUR_OVER_PI = 4.0 / math.pi


def breakpoint_oscillatory_mean_square(y, T):
    """Independent route: integrate the squared oscillatory part from the
    exact count sweep (mean square of the remainder minus its squared mean)."""
    rep = mean_square_breakpoints(y, T)
    return rep.mean_square - rep.mean_remainder**2


def test_spectrum_single_pair():
    s = cosine_spectrum(1.0, 1.5, 1, 1)
    assert s.coeffs[0] == pytest.approx(FOUR_OVER_PI * math.sin(2.0 * math.pi * SQ125), rel=1e-14)


def test_spectrum_empty_rows():
    s = cosine_spectrum(1.0, 0.5, 10, 5)
    assert np.all(s.coeffs == 0.0)
    assert s.l2_truncation_bound == 0.0


def test_spectrum_second_harmonic():
    s = cosine_spectrum(1.0, 1.5, 2, 2)
    assert s.coeffs[1] == pytest.approx(FOUR_OVER_PI * math.sin(4.0 * math.pi * SQ125) / 2.0, rel=1e-14)


def test_spectrum_validation():
    with pytest.raises(InvalidParameter):
        cosine_spectrum(1.0, 1.5, 0, 4)
    with pytest.raises(InvalidParameter):
        cosine_spectrum(-1.0, 1.5, 4, 4)


def test_spectrum_against_divisor_bruteforce():
    y, T, k_max, n_max = 1.3, 7.9, 60, 12
    s = cosine_spectrum(y, T, k_max, n_max)
    rows = row_limit(T / math.sqrt(y))
    hw = halfwidths(y, T, np.arange(1, rows + 1, dtype=float))
    for k in range(1, k_max + 1):
        want = 0.0
        for m in range(1, min(k, rows) + 1):
            if k % m == 0 and k // m <= n_max:
                n = k // m
                want += FOUR_OVER_PI * math.sin(2.0 * math.pi * n * hw[m - 1]) / n
        assert s.coeffs[k - 1] == pytest.approx(want, abs=1e-13)


def test_truncation_bound_decreases_with_harmonics():
    bounds = [cosine_spectrum(1.0, 9.0, 100, n).l2_truncation_bound for n in (2, 8, 64, 512)]
    assert all(b >= 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


@pytest.mark.parametrize("y, T", [(1.0, 20.0), (2.5, 31.6), (4.0, 60.0)])
def test_truncation_bound_covers_the_measured_tail(y, T):
    # The bound treats the n > n_max pairs as if no two rows shared a
    # frequency; rows do share k = m*n = m'*n', so check the assumption on
    # the tail it covers, n_max < n <= 2**15, with a margin (measured: 0.70).
    n_top = 1 << 15
    k_max = rows(y, T)[2].size * n_top
    full = cosine_spectrum(y, T, k_max, n_top).coeffs
    for n_max in (8, 128, 512):
        spectrum = cosine_spectrum(y, T, k_max, n_max)
        tail = full - spectrum.coeffs
        assert math.sqrt(0.5 * compensated_sum(tail * tail)) < 0.9 * spectrum.l2_truncation_bound


def test_parseval_empty():
    assert parseval_mean_square(1.0, 0.5, 16, 16) == (0.0, 0.0)


def test_parseval_against_breakpoints():
    value, err = parseval_mean_square(1.0, 1.5, 300, 200)
    exact = breakpoint_oscillatory_mean_square(1.0, 1.5)
    assert abs(value - exact) <= err
    assert err < 0.2


def test_parseval_internal_consistency():
    v1, e1 = parseval_mean_square(1.0, 1.5, 300, 10)
    v2, e2 = parseval_mean_square(1.0, 1.5, 3000, 1000)
    assert abs(v1 - v2) <= e1 + e2


@pytest.mark.parametrize(
    "k_max", [300, 1 << 15, (1 << 15) + 1, 1 << 18, (1 << 18) + 5, 1 << 20, (1 << 20) + 5, 3 * (1 << 20) + 7]
)
def test_parseval_sums_the_squared_spectrum_bit_for_bit(k_max):
    # parseval_mean_square squares the coefficients block by block; its value
    # must have the bits of summing the whole squared spectrum at once
    n_max = k_max // 17  # 17 rows: the products m*n fill every block
    value, _ = parseval_mean_square(1.3, 20.0, k_max, n_max)
    coeffs = cosine_spectrum(1.3, 20.0, k_max, n_max).coeffs
    assert value == 0.5 * compensated_sum(coeffs * coeffs)


def test_parseval_covers_dropped_pairs():
    # k_max below n_max*rows: dropped pairs must widen the bound, not the value
    v_small, e_small = parseval_mean_square(1.0, 9.7, 40, 400)
    v_full, e_full = parseval_mean_square(1.0, 9.7, 3600, 400)
    exact = breakpoint_oscillatory_mean_square(1.0, 9.7)
    assert abs(v_small - exact) <= e_small
    assert abs(v_full - exact) <= e_full
    assert e_full < e_small


def _bincount_dropped(y, T, k_max, n_max):
    """The dropped-pair amplitude as parseval_mean_square once computed it:
    every dropped (m, n) pair in one array, grouped by k = m*n with
    np.unique and summed with np.bincount."""
    _, _, hw = rows(y, T)
    sines = fourier._RowSines(hw, n_max)
    ks, amps = [], []
    for m in range(1, hw.size + 1):
        n_lo = k_max // m + 1
        if n_lo > n_max:
            continue
        for a, b, terms in sines.pieces(m, n_lo, n_max):
            n = np.arange(a, b + 1, dtype=float)
            ks.append(m * n.astype(np.int64))
            amps.append(terms / n)
    uniq, inv = np.unique(np.concatenate(ks), return_inverse=True)
    sums = FOUR_OVER_PI * np.bincount(inv, weights=np.concatenate(amps), minlength=uniq.size)
    return math.sqrt(0.5 * compensated_sum(sums**2))


def test_parseval_dropped_pairs_stay_within_a_few_blocks_of_memory():
    # 3.6e6 dropped pairs: the dropped coefficients are built block by block,
    # so the peak stays near a few _BLOCK arrays instead of every pair at once
    import tracemalloc

    y, T, k_max, n_max = 1.0, 9.7, 40, 400000
    tracemalloc.start()
    try:
        value, bound = parseval_mean_square(y, T, k_max, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    eps = math.sqrt(value + bound) - math.sqrt(value)  # bound = 2*sqrt(value)*eps + eps**2
    dropped = eps - fourier._tail_l2_bound(9.7, 9, n_max)
    expected = _bincount_dropped(y, T, k_max, n_max)
    assert dropped == pytest.approx(expected, rel=1e-12)


def test_parseval_quadrature_cross_check():
    # third route: midpoint quadrature of the squared sawtooth pair sum
    y, T = 1.0, 1.5
    n = 20001
    vals = [oscillatory_sum(ShearPoint((j + 0.5) / n, y), T) ** 2 for j in range(n)]
    quad = math.fsum(vals) / n
    value, err = parseval_mean_square(y, T, 3000, 1000)
    assert value == pytest.approx(quad, abs=5e-3)


@pytest.mark.parametrize("y, T", [(1.0, 100.5), (1.0, 1.5)])
def test_auto_truncation_runs_without_the_certificate(monkeypatch, y, T):
    def refuse(*args):
        raise AssertionError("auto_truncation called mean_square_certificate")

    monkeypatch.setattr(fourier, "mean_square_certificate", refuse)
    k_max, n_max = auto_truncation(y, T)
    assert k_max == n_max * row_limit(T / math.sqrt(y))
    assert mean_square_parseval(y, T).error_bound > 0.0


@pytest.mark.parametrize(
    "y, T, expected",
    [(1.0, 100.5, (6169400, 61694)), (2.0, 150.3, (6046240, 57040)), (1.0, 600.5, (33554400, 55924))],
)
def test_auto_truncation_keeps_its_truncation_on_wide_rows(y, T, expected):
    # 100 to 600 rows: the refinement from the first pass at n_max = 64 sets these
    assert auto_truncation(y, T) == expected


def test_partial_sum_trivial_and_single_term():
    assert oscillatory_partial_sum(ShearPoint(0.0, 1.0), 0.5, 100) == 0.0
    got = oscillatory_partial_sum(ShearPoint(0.0, 1.0), 1.5, 1)
    assert got == pytest.approx(FOUR_OVER_PI * math.sin(2.0 * math.pi * SQ125), rel=1e-14)


def test_partial_sum_converges_pointwise():
    z = ShearPoint(0.3, 1.0)
    got = oscillatory_partial_sum(z, 1.5, 10**4)
    assert abs(got - oscillatory_sum(z, 1.5)) < 0.01


@given(st.floats(0.05, 0.95), st.floats(0.6, 3.0), st.floats(1.1, 9.0))
def test_partial_sum_tracks_exact_sum(x, y, T):
    # convergence is pointwise away from the sawtooth jumps; near a jump the
    # partial sum error decays like 1/(n_max * distance), so keep distance
    # bounded below
    rows = row_limit(T / math.sqrt(y))
    assume(rows > 0)
    hw = halfwidths(y, T, np.arange(1, rows + 1, dtype=float))
    args = np.concatenate([hw + np.arange(1, rows + 1) * x, hw - np.arange(1, rows + 1) * x])
    assume(float(np.min(np.abs(args - np.rint(args)))) > 0.02)
    z = ShearPoint(x, y)
    got = oscillatory_partial_sum(z, T, 4096)
    assert abs(got - oscillatory_sum(z, T)) < 0.2


@pytest.mark.parametrize("piece", [fourier._PIECE, 256])
def test_partial_sum_sums_the_spectrum(monkeypatch, piece):
    # M*n_max = 300,000 frequencies span two blocks; a row's table has
    # 5000 // 70 + 1 = 72 entries, so with 256-entry pieces only rows 1..3
    # are tabulated and the rest take np.sin directly
    monkeypatch.setattr(fourier, "_PIECE", piece)
    x, y, T, n_max = 0.4, 1.0, 60.2, 5000
    M = row_limit(T / math.sqrt(y))
    assert M * n_max > fourier._BLOCK
    assert fourier._RowSines(rows(y, T)[2], n_max).tabulated == min(M, piece // 72)
    coeffs = cosine_spectrum(y, T, M * n_max, n_max).coeffs
    terms = coeffs * np.cos(2.0 * math.pi * x * np.arange(1, coeffs.size + 1, dtype=float))
    got = oscillatory_partial_sum(ShearPoint(x, y), T, n_max)
    assert abs(got - math.fsum(terms.tolist())) <= 16.0 * EPS * float(np.sum(np.abs(coeffs)))


def test_certificate_empty():
    assert mean_square_certificate(1.0, 0.5, 2) == 0.0


def test_certificate_validation():
    with pytest.raises(InvalidParameter):
        mean_square_certificate(1.0, 1.5, 1)


def test_certificate_dominates_parseval():
    for y, T in [(1.0, 1.5), (0.7, 6.3), (2.5, 14.0)]:
        value, _ = parseval_mean_square(y, T, 60000, 2000)
        for cutoff in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            assert value <= mean_square_certificate(y, T, cutoff)


def test_certificate_scaling_shape():
    # with cutoff ~ scaled radius, certificate / (R (1+log R)^2) stays bounded
    ratios = []
    for T in np.geomspace(4.0, 400.0, 10):
        cutoff = max(2, int(math.ceil(T)))
        c = mean_square_certificate(1.0, float(T), cutoff)
        ratios.append(c / (T * (1.0 + math.log(T)) ** 2))
    assert max(ratios) < 10.0


def test_spectrum_csv_round_trip():
    s = cosine_spectrum(1.0, 4.2, 25, 40)
    buf = io.StringIO()
    write_spectrum_csv(s, buf)
    buf.seek(0)
    coeffs, bound = read_spectrum_csv(buf)
    assert np.array_equal(coeffs, s.coeffs)
    assert bound == s.l2_truncation_bound


@pytest.mark.parametrize("line", ["x,1", "1", "# l2_truncation_bound=x"])
def test_spectrum_csv_malformed_line_is_invalid(line):
    with pytest.raises(InvalidParameter, match="line 3"):
        read_spectrum_csv(io.StringIO("k,c_k\n1,0.5\n" + line + "\n"))


# The angle-addition sine kernel: sin((q*B + j)*theta) from tables of
# sin/cos(q*B*theta) and sin/cos(j*theta).  Its argument roundings differ
# from a direct np.sin's, so the two agree to a few ulps of the argument.
EPS = np.finfo(float).eps


def _kernel_sines(sines, n_lo, n_hi):
    got, covered = [], n_lo
    for a, b, piece in sines.pieces(1, n_lo, n_hi):
        assert a == covered and b >= a
        got.append(piece.copy())
        covered = b + 1
    assert covered == n_hi + 1
    return np.concatenate(got)


@pytest.mark.parametrize("hw", [0.37, math.sqrt(2.0), 17.77, 99.5, 149.99, 150.0])
@pytest.mark.parametrize("n_lo, n_hi", [(1, 1 << 18), (1000, 5000), ((1 << 18) - 700, 1 << 18)])
def test_sine_kernel_matches_direct_sines(hw, n_lo, n_hi):
    sines = fourier._RowSines(np.array([hw]), n_hi)
    assert sines.tabulated == 1
    B = sines.B
    # the range, and sub-ranges that start, end and straddle q*B boundaries
    first = (n_lo // B + 1) * B
    for a, b in [(n_lo, n_hi), (first - 1, first + 2 * B), (first, first + B - 1), (n_hi - B - 3, n_hi)]:
        a, b = max(a, 1), min(b, n_hi)
        n = np.arange(a, b + 1, dtype=float)
        want = np.sin(2.0 * math.pi * n * hw)
        got = _kernel_sines(sines, a, b)
        assert np.all(np.abs(got - want) <= 4.0 * EPS * (1.0 + 2.0 * math.pi * n * hw))


def test_row_sines_do_not_depend_on_the_requested_range(monkeypatch):
    # small pieces and a small table: rows 1..4 from the table, later rows
    # direct, and every request split into several pieces
    monkeypatch.setattr(fourier, "_PIECE", 256)
    hw = np.array([0.3, 1.7, 2.9, 7.25, 11.5, 12.0])
    n_max = 3000
    sines = fourier._RowSines(hw, n_max)
    assert sines.tabulated == 256 // max(54, 3000 // 54 + 1) == 4
    for m in range(1, hw.size + 1):
        whole = np.concatenate([s.copy() for _, _, s in sines.pieces(m, 1, n_max)])
        for a, b in [(1, 1), (17, 900), (54, 55), (2001, n_max)]:
            part = np.concatenate([s.copy() for _, _, s in sines.pieces(m, a, b)])
            assert np.array_equal(part, whole[a - 1 : b])
        n = np.arange(1, n_max + 1, dtype=float)
        assert np.all(np.abs(whole - np.sin(2.0 * math.pi * n * hw[m - 1])) <= 4.0 * EPS * (1.0 + 2.0 * math.pi * n * hw[m - 1]))


@pytest.mark.parametrize("k_max", [300, 1 << 15, (1 << 18) + 5])
def test_parseval_bits_match_the_spectrum_with_direct_rows_and_small_pieces(monkeypatch, k_max):
    # as test_parseval_sums_the_squared_spectrum_bit_for_bit, with most rows
    # past the table and every tabulated row's range split into pieces
    monkeypatch.setattr(fourier, "_PIECE", 256)
    n_max = k_max // 17
    value, _ = parseval_mean_square(1.3, 20.0, k_max, n_max)
    coeffs = cosine_spectrum(1.3, 20.0, k_max, n_max).coeffs
    assert value == 0.5 * compensated_sum(coeffs * coeffs)


def test_parseval_dropped_pairs_take_the_spectrum_sines():
    # the dropped pairs of a short spectrum are the pairs a longer spectrum
    # keeps: both must come from the same sines
    y, T, n_max = 1.0, 9.7, 4000
    full = cosine_spectrum(y, T, 9 * n_max, n_max).coeffs
    k_max = 5000
    _, bound = parseval_mean_square(y, T, k_max, n_max)
    tail = full[k_max:]
    eps = fourier._tail_l2_bound(9.7, 9, n_max) + math.sqrt(0.5 * compensated_sum(tail * tail))
    value = 0.5 * compensated_sum(full[:k_max] ** 2)
    assert bound == 2.0 * math.sqrt(value) * eps + eps * eps


def test_sine_tables_and_scratch_stay_within_the_temporary_cap():
    for M, n_max in [(150, 60000), (2000, 16777), (20000, 1677), (1, 1 << 25)]:
        sines = fourier._RowSines(np.linspace(0.5, 100.0, M), n_max)
        assert sines.tabulated >= 1
        for arr in (*sines._tables[0], sines._piece, sines._temp):
            assert (arr if arr.base is None else arr.base).size <= TEMP_ENTRIES


@pytest.mark.parametrize("y", [1.0, 2.0, 4.0])
def test_certificate_dominates_the_exact_mean_square_on_the_integer_grid(y):
    for T in range(1, 41):
        rep = mean_square_breakpoints(y, float(T))
        exact = rep.mean_square - rep.mean_remainder**2
        for cutoff in (2, 16, 128, 1024):
            assert mean_square_certificate(y, float(T), cutoff) >= exact - rep.error_bound


@pytest.mark.parametrize("y, scaled", [(0.7, 37.3), (1.0, 61.8), (2.5, 99.1), (1.3, 150.0)])
def test_certificate_dominates_the_exact_mean_square_on_generic_rows(y, scaled):
    T = scaled * math.sqrt(y)
    exact = breakpoint_oscillatory_mean_square(y, T)
    for cutoff in (2, 16, 128, 1024):
        assert mean_square_certificate(y, T, cutoff) >= exact


# The certificate's n > A tail in closed form: with f = {2h},
# sum_{n>=1} sin(2*pi*n*h)**2 / n**2 = (pi**2/2) * f * (1 - f).
@pytest.mark.parametrize("h", [1.5, 1.5 - 5e-7, 1.5 + 5e-7, 1.25, 1.25 - 5e-7, 1.25 + 5e-7, 0.5, math.sqrt(2.0)])
def test_sine_square_series_has_the_closed_form(h):
    N = 1 << 17
    n = np.arange(1, N + 1, dtype=float)
    partial = compensated_sum(np.sin(2.0 * math.pi * n * h) ** 2 / (n * n))
    f = 2.0 * h - math.floor(2.0 * h)
    closed = 0.5 * math.pi**2 * f * (1.0 - f)
    # the terms past N are nonnegative and sum to at most 1/N
    assert -1e-12 <= closed - partial <= 1.0 / N


def _certificate_reference(y, T, cutoffs, N):
    """The certificate's formula with its n > A sums taken directly up to N,
    per cutoff A; the rest adds at most (32/pi**2) * (T/sqrt(y)) * M/(2N)."""
    scaled, _, hw = rows(y, T)
    n = np.arange(1, N + 1, dtype=float)
    squares = np.zeros(N)
    for h in hw:
        squares += np.sin(n * (2.0 * math.pi * h)) ** 2
    out = []
    for A in cutoffs:
        harmonic = math.fsum(1.0 / n[:A])
        head = 0.5 * compensated_sum(squares[:A] / n[:A])
        tail = 0.5 * compensated_sum(squares[A:] / (n[A:] * n[A:]))
        out.append(2.0 * FOUR_OVER_PI**2 * (harmonic * head + scaled * tail))
    return out, 2.0 * FOUR_OVER_PI**2 * scaled * 0.5 * hw.size / N


@pytest.mark.parametrize(
    "grid",
    [[(y, float(T)) for T in range(1, 41)] for y in (1.0, 2.0, 4.0)] + [[(0.7, 37.3 * math.sqrt(0.7)), (1.3, 61.8 * math.sqrt(1.3))]],
    ids=["y=1", "y=2", "y=4", "generic"],
)
def test_certificate_evaluates_its_formula_with_the_exact_tail(grid):
    # N = 64*1024 leaves a remainder well under the M/(20A) that a tail
    # truncated at 10A and padded by M/(10A) adds; the rounding slack covers
    # the sine noise of integer half-widths, such as hw = 2 at (2, 2)
    cutoffs, N = (2, 16, 1024), 1 << 16
    for y, T in grid:
        refs, remainder = _certificate_reference(y, T, cutoffs, N)
        for A, ref in zip(cutoffs, refs):
            slack = 1e-12 * (1.0 + ref)
            assert ref - slack <= mean_square_certificate(y, T, A) <= ref + remainder + slack
