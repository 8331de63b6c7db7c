import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shearcount import (
    InvalidParameter,
    RangeExceeded,
    ShearPoint,
    count_decomposition,
    count_enumerate,
    count_formula,
    count_rowslice,
    lattice_vector,
)

coords = st.floats(-2.0, 2.0)
heights = st.floats(0.5, 4.0)
radii = st.floats(1.0, 25.0, exclude_min=True)


def test_lattice_vector_square_lattice():
    z = ShearPoint(0.0, 1.0)
    assert lattice_vector(z, 1, 0) == (1.0, 0.0)
    assert lattice_vector(z, 0, 5) == (0.0, 5.0)


def test_lattice_vector_sheared():
    assert lattice_vector(ShearPoint(0.5, 1.0), 1, 0) == (1.0, 0.5)


def test_basis_is_unimodular():
    (a, b), (c, d) = ShearPoint(0.37, 2.9).basis()
    assert a * d - b * c == pytest.approx(1.0, abs=1e-15)


def test_height_must_be_positive():
    with pytest.raises(InvalidParameter):
        ShearPoint(0.0, 0.0)
    with pytest.raises(InvalidParameter):
        ShearPoint(0.0, -1.0)


def test_enumerate_examples():
    assert count_enumerate(ShearPoint(0.0, 1.0), 1.0).count == 1
    assert count_enumerate(ShearPoint(0.0, 1.0), 2.0).count == 9
    assert count_enumerate(ShearPoint(0.5, 1.0), 1.5).count == 7


def test_rowslice_examples():
    r = count_rowslice(ShearPoint(0.0, 1.0), 2.0)
    assert r.count == 9
    assert r.ties > 0  # (0, +-2) lie exactly on the circle
    assert count_rowslice(ShearPoint(0.0, 1.0), 0.5).count == 1


def test_rowslice_matches_enumerate_at_moderate_size():
    z = ShearPoint(0.3, 2.7)
    assert count_rowslice(z, 50.0).count == count_enumerate(z, 50.0).count


def test_boundary_points_are_excluded_but_flagged():
    # radius 2 on the square lattice: 4 boundary vectors, strict count 9
    enum = count_enumerate(ShearPoint(0.0, 1.0), 2.0)
    assert (enum.count, enum.method) == (9, "enumerate")
    assert enum.ties == 4


@pytest.mark.parametrize("T", [0.0, -2.0, float("nan")])
def test_invalid_radius(T):
    with pytest.raises(InvalidParameter):
        count_enumerate(ShearPoint(0.0, 1.0), T)
    with pytest.raises(InvalidParameter):
        count_rowslice(ShearPoint(0.0, 1.0), T)


def test_scaled_radius_limit():
    with pytest.raises(RangeExceeded):
        count_rowslice(ShearPoint(0.0, 1.0), 2e6)
    with pytest.raises(RangeExceeded):
        count_enumerate(ShearPoint(0.0, 0.25), 6e5)


def test_origin_always_counted():
    assert count_rowslice(ShearPoint(0.9, 3.0), 1e-4).count == 1
    assert count_enumerate(ShearPoint(0.9, 3.0), 1e-4).count == 1


@given(coords, heights, radii)
def test_oracle_equivalence(x, y, T):
    z = ShearPoint(x, y)
    a = count_rowslice(z, T)
    b = count_enumerate(z, T)
    assume(a.ties == 0 and b.ties == 0)
    assert a.count == b.count


@given(coords, heights, radii, st.integers(-1000, 1000))
def test_shear_periodicity(x, y, T, shift):
    base = count_rowslice(ShearPoint(x, y), T).count
    assert count_rowslice(ShearPoint(x + 1.0, y), T).count == base
    assert count_rowslice(ShearPoint(x + shift, y), T).count == base


@given(coords, heights, radii)
def test_reflection_symmetry(x, y, T):
    base = count_rowslice(ShearPoint(x, y), T).count
    assert count_rowslice(ShearPoint(-x, y), T).count == base


@given(coords, heights, radii, radii)
def test_count_monotone_in_radius(x, y, T1, T2):
    lo, hi = sorted((T1, T2))
    z = ShearPoint(x, y)
    assert count_rowslice(z, lo).count <= count_rowslice(z, hi).count


@settings(max_examples=20)
@given(coords, heights)
def test_count_is_positive(x, y):
    assert count_rowslice(ShearPoint(x, y), 0.7).count >= 1


def test_gauss_order_sanity():
    # |count - pi T^2| / T stays bounded; observed max 1.45 for this z
    z = ShearPoint(0.3, 1.7)
    worst = max(
        abs(count_rowslice(z, float(T)).count - math.pi * T * T) / T
        for T in np.geomspace(1.0, 500.0, 60)
    )
    assert worst < 8.0


# ---- exact arithmetic at ties ----

def exact_count(x: Fraction, y: Fraction, T2: Fraction) -> tuple[int, int]:
    """Strict count of m**2 y**2 + (m x + n)**2 < T2 y in rational
    arithmetic, and how many (m, n) lie exactly on the circle."""
    count, on_circle = 0, 0
    m_max = math.isqrt(math.floor(T2 / y))  # every m with m**2 y**2 <= T2 y
    for m in range(-m_max, m_max + 1):
        rhs = T2 * y - m * m * y * y
        c = m * x
        r = math.isqrt(math.floor(rhs)) + 1  # |c + n| < sqrt(rhs) < r
        for n in range(math.floor(-c) - r, math.ceil(-c) + r + 1):
            lhs = (c + n) ** 2
            count += lhs < rhs
            on_circle += lhs == rhs
    return count, on_circle


@st.composite
def tie_aimed_cases(draw):
    """Dyadic x (exact in floating point), rational y and rational T**2; half
    of the radii are put through a lattice point so it lies on the circle."""
    x = Fraction(draw(st.integers(-128, 128)), 64)
    y = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    if draw(st.booleans()):
        m, n = draw(st.integers(0, 4)), draw(st.integers(-6, 6))
        T2 = (m * m * y * y + (m * x + n) ** 2) / y
        assume(T2 > 0)
    else:
        T2 = Fraction(draw(st.integers(1, 300)), draw(st.integers(1, 4)))
    return x, y, T2


@settings(max_examples=150)
@given(tie_aimed_cases())
@example((Fraction(0), Fraction(2), Fraction(4)))  # y=2, T=2: hw_1 = 2
@example((Fraction(1, 2), Fraction(2), Fraction(4)))
@example((Fraction(0), Fraction(1), Fraction(5)))  # (1, 2) on the circle
@example((Fraction(1, 4), Fraction(1), Fraction(5)))
@example((Fraction(0), Fraction(1, 2), Fraction(1, 2)))  # boundary row m = T/sqrt(y) = 1 touches
def test_counters_match_exact_arithmetic_at_ties(case):
    x, y, T2 = case
    want, on_circle = exact_count(x, y, T2)
    z = ShearPoint(float(x), float(y))
    T = math.sqrt(float(T2))
    rowslice = count_rowslice(z, T)
    for result in (rowslice, count_formula(z, T)):
        if on_circle:
            assert result.ties > 0
        if result.ties == 0:
            assert result.count == want
    # snapping keeps the strict inequality at exact rational ties as well
    assert rowslice.count == want


@pytest.mark.parametrize("T", [1e-13, 5e-13])
def test_a_radius_that_snaps_to_zero_holds_the_origin_untied(T):
    # sqrt(y)*T and T/sqrt(y) snap to 0: neither the m = 0 column nor the
    # edge rows +-R touch the circle
    z = ShearPoint(0.3, 1.0)
    for result in (count_rowslice(z, T), count_enumerate(z, T)):
        assert (result.count, result.ties) == (1, 0)


@pytest.mark.parametrize(
    "y,k", [(Fraction(1), 3), (Fraction(2), 4), (Fraction(1, 4), 3), (Fraction(9, 4), 6), (Fraction(3), 7)]
)
def test_axis_tie_counts_the_column_by_its_decomposition_value(y, k):
    # sqrt(y)*T = k puts (0, +-k) on the circle for every x; the decomposition
    # counts them, so its total is the strict count + 2 at tie-free x
    T2 = k * k / y
    T = math.sqrt(float(T2))
    for j in range(64):
        x = Fraction(2 * j + 1, 128)
        want, on_circle = exact_count(x, y, T2)
        assert on_circle == 2  # (0, +-k) alone: x is otherwise tie-free
        total = count_decomposition(ShearPoint(float(x), float(y)), T).total
        assert abs(total - (want + 2)) < 1e-6
