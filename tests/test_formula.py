import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from shearcount import (
    InvalidParameter,
    ShearPoint,
    chord_identity_residual,
    chord_length_sum,
    chord_sum_error,
    chord_sum_error_bound,
    circle_area_tail,
    count_decomposition,
    count_enumerate,
    count_formula,
    count_rowslice,
    inscribed_polygon_area,
    oscillatory_sum,
    remainder,
    sawtooth,
    sawtooth_integral,
)

SQ125 = math.sqrt(1.25)


# ---- sawtooth ----

def test_sawtooth_values():
    assert sawtooth(0.0) == 0.5
    assert sawtooth(0.25) == 0.25
    assert sawtooth(-0.25) == -0.25  # frac(-0.25) = 0.75
    np.testing.assert_array_equal(sawtooth(np.array([0.0, 0.25, -0.25, 3.75])), [0.5, 0.25, -0.25, -0.25])


@given(st.floats(-1e6, 1e6))
def test_sawtooth_periodic(t):
    # away from the jump points, where t + 1.0 cannot round across an integer
    assume(abs(t - round(t)) > 1e-9)
    assert sawtooth(t + 1.0) == pytest.approx(sawtooth(t), abs=1e-9)


@given(st.floats(-1e6, 1e6))
def test_sawtooth_odd(t):
    assume(abs(t - round(t)) > 1e-9)
    assert sawtooth(-t) == pytest.approx(-sawtooth(t), abs=1e-12)


def test_sawtooth_integrates_to_zero():
    # midpoint rule is exact for the linear pieces
    n = 1 << 12
    vals = [sawtooth((j + 0.5) / n) for j in range(n)]
    assert math.fsum(vals) / n == pytest.approx(0.0, abs=1e-15)


# ---- chord-length sum ----

def test_chord_sum_values():
    assert chord_length_sum(1.0) == 2.0
    assert chord_length_sum(2.0) == pytest.approx(4.0 + 4.0 * math.sqrt(3.0), rel=1e-14)
    assert chord_length_sum(1.5) == pytest.approx(3.0 + 4.0 * SQ125, rel=1e-14)


def test_chord_sum_rejects_nonpositive():
    for T in (0.0, -1.0):
        with pytest.raises(InvalidParameter):
            chord_length_sum(T)


def test_chord_sum_rejects_beyond_regime():
    from shearcount import RangeExceeded

    with pytest.raises(RangeExceeded):
        chord_length_sum(2e6)


def test_chord_sum_error_values():
    assert chord_sum_error(1.0) == pytest.approx(2.0 - math.pi, abs=1e-15)
    assert chord_sum_error(2.0) == pytest.approx(4.0 + 4.0 * math.sqrt(3.0) - 4.0 * math.pi, abs=1e-12)
    # pinned by a 40-digit independent summation of the same series
    assert chord_sum_error(10.0) == pytest.approx(-3.7074327341474900, abs=1e-9)
    with pytest.raises(InvalidParameter):
        chord_sum_error(0.5)


def test_chord_sum_error_bound_values():
    w = math.sqrt(3.0)
    assert chord_sum_error_bound(2.0) == pytest.approx(1.0 / (2.0 * w) + 8.0 * w, rel=1e-14)
    w = math.sqrt(199.0)
    assert chord_sum_error_bound(100.0) == pytest.approx(99.0 / (2.0 * w) + 8.0 * w, rel=1e-14)
    assert abs(chord_sum_error(100.0)) <= chord_sum_error_bound(100.0)
    with pytest.raises(InvalidParameter):
        chord_sum_error_bound(1.5)


def test_chord_sum_error_dominated_on_log_grid():
    for T in np.geomspace(2.0, 1e3, 40):
        assert abs(chord_sum_error(float(T))) <= chord_sum_error_bound(float(T))


@pytest.mark.parametrize("T", [1, 2, 3, 7, 30, 211])
def test_chord_sum_error_negative_at_integers(T):
    assert chord_sum_error(float(T)) < 0.0


# ---- oscillatory sum ----

def test_oscillatory_empty_below_one_row():
    assert oscillatory_sum(ShearPoint(0.0, 1.0), 0.5) == 0.0


def test_oscillatory_rejects_beyond_regime():
    from shearcount import RangeExceeded

    with pytest.raises(RangeExceeded):
        oscillatory_sum(ShearPoint(0.0, 1.0), 2e6)


def test_oscillatory_single_row_values():
    got = oscillatory_sum(ShearPoint(0.0, 1.0), 1.5)
    assert got == pytest.approx(4.0 * sawtooth(SQ125), rel=1e-14)
    got = oscillatory_sum(ShearPoint(0.5, 1.0), 1.5)
    assert got == pytest.approx(2.0 * (sawtooth(SQ125 + 0.5) + sawtooth(SQ125 - 0.5)), rel=1e-13)


@given(st.floats(-2.0, 2.0), st.floats(0.5, 4.0), st.floats(1.0, 20.0, exclude_min=True))
@example(-3.0386062255941586e-55, 0.5, 4.0)  # x - floor(x) rounds to 1.0 here
def test_oscillatory_symmetries(x, y, T):
    base = oscillatory_sum(ShearPoint(x, y), T)
    assert oscillatory_sum(ShearPoint(-x, y), T) == pytest.approx(base, abs=1e-10)
    assert oscillatory_sum(ShearPoint(x + 1.0, y), T) == pytest.approx(base, abs=1e-10)


def test_tiny_negative_shear_reduces_to_zero():
    z = ShearPoint(-3.0386062255941586e-55, 0.5)
    assert count_formula(z, 4.0).count == count_rowslice(z, 4.0).count == count_enumerate(z, 4.0).count == 47


# ---- decomposition ----

def test_decomposition_examples():
    d = count_decomposition(ShearPoint(0.0, 1.0), 1.5)
    assert (d.main_term, d.correction) == (pytest.approx(3.0 + 4.0 * SQ125), 0.0)
    assert d.total == pytest.approx(9.0, abs=1e-9)

    d = count_decomposition(ShearPoint(0.5, 1.0), 1.5)
    assert d.oscillatory == pytest.approx(-0.4721359549995796, abs=1e-12)
    assert d.total == pytest.approx(7.0, abs=1e-9)

    d = count_decomposition(ShearPoint(0.0, 1.0), 0.5)
    assert d.total == pytest.approx(1.0, abs=1e-12)
    assert abs(d.correction) <= 1.0


@given(st.floats(0.0, 1.0), st.floats(0.5, 4.0), st.floats(1.0, 20.0, exclude_min=True))
def test_decomposition_matches_enumeration(x, y, T):
    z = ShearPoint(x, y)
    enum = count_enumerate(z, T)
    assume(enum.ties == 0)
    total = count_decomposition(z, T).total
    assert abs(total - round(total)) < 1e-6
    assert round(total) == enum.count


def test_count_formula_reports_ties():
    r = count_formula(ShearPoint(0.0, 1.0), 2.0)
    assert r.method == "formula"
    assert r.ties > 0


def test_remainder_examples():
    assert remainder(ShearPoint(0.0, 1.0), 1.0) == pytest.approx(1.0 - math.pi)
    assert remainder(ShearPoint(0.0, 1.0), 2.0) == pytest.approx(9.0 - 4.0 * math.pi)
    assert remainder(ShearPoint(0.5, 1.0), 1.5) == pytest.approx(7.0 - 2.25 * math.pi)


def test_remainder_tracks_oscillatory_part():
    # |remainder - oscillatory| <= y |chord error| + 1 <= y * bound + 1
    for x, y, T in [(0.13, 1.0, 9.7), (0.71, 2.2, 14.3), (0.5, 0.8, 6.0)]:
        z = ShearPoint(x, y)
        scaled = T / math.sqrt(y)
        gap = abs(remainder(z, T) - oscillatory_sum(z, T))
        assert gap <= y * abs(chord_sum_error(scaled)) + 1.0 + 1e-9
        assert y * abs(chord_sum_error(scaled)) <= y * chord_sum_error_bound(scaled)


# ---- sawtooth integral and the chord identity ----

def test_sawtooth_integral_empty():
    assert sawtooth_integral(10.0, 0) == 0.0


def test_sawtooth_integral_bounded():
    val = sawtooth_integral(2.0, 1)
    assert 0.0 <= val <= 1.0 / (8.0 * math.sqrt(3.0))


def test_sawtooth_integral_domain():
    with pytest.raises(InvalidParameter):
        sawtooth_integral(2.0, 2)
    with pytest.raises(InvalidParameter):
        sawtooth_integral(2.0, -1)


def test_circle_area_tail_quarter_disk():
    assert circle_area_tail(3.0, 0.0) == pytest.approx(math.pi * 9.0 / 4.0, rel=1e-15)
    assert circle_area_tail(3.0, 3.0) == 0.0


@pytest.mark.parametrize("T", [1e4, 1e5, 1e6])
def test_circle_area_tail_over_the_last_unit(T):
    # integral from T - 1 to T of sqrt(2T s - s^2) ds, expanded in 1/T; the
    # expansion is within 3e-15 of the exact value for T >= 1e4
    want = math.sqrt(2.0 * T) * (2.0 / 3.0 - 1.0 / (10.0 * T) - 1.0 / (112.0 * T * T))
    assert abs(circle_area_tail(T, T - 1.0) - want) <= 1e-9 * want


@pytest.mark.parametrize("T", [5.0, 10.0, 50.0, 200.0])
def test_chord_identity(T):
    residual, integral, bound = chord_identity_residual(T)
    assert abs(residual) < 1e-8
    assert 0.0 <= integral <= bound


def test_chord_identity_example_t10():
    residual, _, _ = chord_identity_residual(10.0)
    assert abs(residual) < 1e-10


# The identity's left side is pi*T**2/4 minus a sum of the same size, so its
# rounding scale is eps * pi*T**2/4; the residual must stay within 8 of it.
@pytest.mark.parametrize("T", [1e3, 1e4, 1e5])
def test_chord_identity_at_large_radius(T):
    residual, integral, bound = chord_identity_residual(T)
    assert abs(residual) <= 8.0 * 2.0**-52 * 0.25 * math.pi * T * T
    assert 0.0 <= integral <= bound


def test_chord_identity_at_the_contract_edge():
    # T = 1e6 in a subprocess with a timeout, so that a call that runs
    # without bound fails the test
    script = (
        "import math\n"
        "from shearcount import chord_identity_residual\n"
        "residual, integral, bound = chord_identity_residual(1e6)\n"
        "assert abs(residual) <= 8.0 * 2.0**-52 * 0.25 * math.pi * 1e12, residual\n"
        "assert 0.0 <= integral <= bound, (integral, bound)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---- inscribed polygon ----

def test_polygon_examples():
    assert inscribed_polygon_area(1) == pytest.approx(2.0, rel=1e-15)
    assert inscribed_polygon_area(2) == pytest.approx(chord_length_sum(2.0), rel=1e-14)
    assert inscribed_polygon_area(500) == pytest.approx(chord_length_sum(500.0), rel=1e-9)


def test_polygon_rejects_bad_radius():
    with pytest.raises(InvalidParameter):
        inscribed_polygon_area(0)
    with pytest.raises(InvalidParameter):
        inscribed_polygon_area(2.5)
