"""Shear-lattice parameterization and two independent exact counting methods.

The lattice attached to the upper-half-plane point z = x + iy has basis
(sqrt(y), x/sqrt(y)) and (0, 1/sqrt(y)), so its vectors are

    v(m, n) = (m*sqrt(y), (m*x + n)/sqrt(y)),      m, n integers,

and the covolume is 1 for every (x, y).  Membership of v in the open disk of
radius T reduces row by row to

    (m*x + n)**2 < y*T**2 - y**2*m**2.

Two counting routines implement this test independently:

* :func:`count_enumerate` walks every candidate n in a padded interval and
  applies the strict inequality one pair at a time.  Slow on purpose; it is
  the oracle everything else is checked against.
* :func:`count_rowslice` counts each row in O(1) by counting the integers in
  the open interval (-hw - m*x, hw - m*x) with hw the row half-width, for a
  total cost O(T/sqrt(y)).

Both report a ``ties`` diagnostic: the number of rows (or individual tests)
that fell within tolerance of the disk boundary, where strict counting in
floating point is ambiguous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, RangeExceeded
from .numerics import TIE_EPS, snap_integer, snap_integers

#: Largest scaled radius T/sqrt(y) accepted.  Beyond this, fractional parts of
#: quantities of magnitude ~sqrt(y)*T lose too many significant digits in
#: double precision for strict boundary tests to be trustworthy.
MAX_SCALED_RADIUS = 1e6


@dataclass(frozen=True)
class ShearPoint:
    """Upper-half-plane parameter z = x + iy of the sheared lattice.

    x is the shear coordinate (the lattice is 1-periodic in x) and y > 0 the
    height.  The generated lattice always has covolume 1.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.x):
            raise InvalidParameter(f"shear coordinate x must be finite, got x={self.x}")
        require_positive("y", self.y)

    def basis(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The two generating vectors; their determinant is exactly 1."""
        sy = math.sqrt(self.y)
        return (sy, self.x / sy), (0.0, 1.0 / sy)


@dataclass(frozen=True)
class CountResult:
    """Lattice count inside an open disk, with boundary-tie diagnostics.

    ties == 0 means every boundary test was decisively away from the circle
    at the stated tolerance, so the count is unambiguous.
    """

    count: int
    ties: int
    method: str


def lattice_vector(z: ShearPoint, m: int, n: int) -> tuple[float, float]:
    """The lattice vector indexed by (m, n)."""
    sy = math.sqrt(z.y)
    return (m * sy, (m * z.x + n) / sy)


def shear_mod_one(x: float) -> float:
    """The shear coordinate reduced to [0, 1).

    The lattice is invariant under x -> x + 1 (the index n absorbs the
    shift), so every counting routine reduces first; this makes the
    1-periodicity of counts exact in floating point as well.  For tiny
    negative x the difference x - floor(x) rounds up to 1.0; that is x = 0
    to working precision and is returned as 0.0, so the result stays in
    [0, 1).
    """
    r = x - math.floor(x)
    return 0.0 if r == 1.0 else r


def require_positive(name: str, value: float) -> None:
    """Raise InvalidParameter unless value is a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidParameter(f"{name} must be positive and finite, got {name}={value}")


def require_integer(name: str, value: float, least: int) -> int:
    """value as an int; InvalidParameter unless it is an integer >= least."""
    if not (float(value).is_integer() and value >= least):
        raise InvalidParameter(f"{name} must be an integer >= {least}, got {name}={value}")
    return int(value)


def scaled_radius(y: float, T: float) -> float:
    """T/sqrt(y), the number of occupied rows per sign.

    This is the parameter check of every public (y, T) entry point: y and T
    must be positive and finite (InvalidParameter), and T/sqrt(y) must not
    exceed MAX_SCALED_RADIUS (RangeExceeded).
    """
    require_positive("y", y)
    require_positive("T", T)
    s = T / math.sqrt(y)
    if s > MAX_SCALED_RADIUS:
        raise RangeExceeded(
            f"scaled radius T/sqrt(y) = {s:.3g} exceeds the supported {MAX_SCALED_RADIUS:.0e}"
        )
    return s


def row_limit(scaled: float) -> int:
    """Largest row index m >= 1 with m strictly below the scaled radius.

    Near-integer radii are treated as exact, so the boundary row (which holds
    no interior points under strict counting) is excluded deterministically.
    """
    snapped, tie = snap_integer(scaled)
    if tie:
        return max(0, int(snapped) - 1)
    return max(0, int(math.floor(scaled)))


def halfwidths(y: float, T: float, ms: np.ndarray) -> np.ndarray:
    """Row half-widths sqrt(y*T**2 - y**2*m**2), factored to stay accurate
    when m is close to the scaled radius."""
    sy = math.sqrt(y)
    return sy * np.sqrt(T - ms * sy) * np.sqrt(T + ms * sy)


def rows(y: float, T: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The row model shared by every counter, integrator and spectrum.

    Checks (y, T) with :func:`scaled_radius` and returns
    (scaled radius, rows ms = 1..M as floats, half-widths hw_m), where M is
    :func:`row_limit` of the scaled radius; the rows -m mirror them.
    """
    scaled = scaled_radius(y, T)
    ms = np.arange(1, row_limit(scaled) + 1, dtype=float)
    return scaled, ms, halfwidths(y, T, ms)


def axis_column(y: float, T: float) -> tuple[int, bool]:
    """(strict count, tie) of the m = 0 column |n| < g0, g0 the snapped sqrt(y)*T:
    max(2*ceil(g0) - 1, 1) points; (0, +-T) on the circle, a tie, needs g0 >= 1."""
    g0, tie = snap_integer(math.sqrt(y) * T)
    return max(2 * int(math.ceil(g0)) - 1, 1), tie and g0 >= 1


def count_enumerate(z: ShearPoint, T: float) -> CountResult:
    """Count lattice vectors of norm < T by brute-force enumeration.

    For each row m a padded closed interval of candidate n is generated and
    every candidate is tested individually against the strict inequality.
    Cost is proportional to the number of candidates, about 2*T**2 in total;
    this routine deliberately shares no logic with :func:`count_rowslice`.
    """
    scaled = scaled_radius(z.y, T)
    y, x = z.y, shear_mod_one(z.x)
    yT2 = y * T * T
    tol = TIE_EPS * yT2

    count = 0
    ties = 0
    m_pad = int(math.floor(scaled)) + 2
    for m in range(-m_pad, m_pad + 1):
        rhs = yT2 - y * y * m * m
        if rhs < -tol:
            continue
        hw = math.sqrt(max(rhs, 0.0))
        center = -m * x
        n = np.arange(math.floor(center - hw) - 1, math.ceil(center + hw) + 2)
        vals = (m * x + n) ** 2
        count += int(np.count_nonzero(vals < rhs))
        ties += int(np.count_nonzero(np.abs(vals - rhs) <= tol))
    return CountResult(count=count, ties=ties, method="enumerate")


def count_rowslice(z: ShearPoint, T: float) -> CountResult:
    """Count lattice vectors of norm < T row by row in O(T/sqrt(y)).

    Each row contributes the number of integers in the open interval
    (-hw - m*x, hw - m*x), evaluated as ceil(hw - m*x) + ceil(hw + m*x) - 1
    after snapping near-integer endpoints.  Off ties this equals the floor
    difference floor(hw - m*x) - floor(-hw - m*x); at exact rational ties the
    snapped form keeps the strict-inequality semantics (boundary points are
    never counted).  ``ties`` counts rows whose interval endpoints fell within
    tolerance of an integer, plus the axis column's tie and the rows +-R of
    an integer scaled radius R >= 1, which touch the circle at integer R*x.
    """
    scaled, ms, hw = rows(z.y, T)
    x = shear_mod_one(z.x)

    count, ties = axis_column(z.y, T)

    lo, tie_lo = snap_integers(hw - ms * x)
    hi, tie_hi = snap_integers(hw + ms * x)
    # Rows m and -m hold the same number of points at every x.
    per_row = np.ceil(lo) + np.ceil(hi) - 1.0
    count += 2 * int(np.sum(np.maximum(per_row, 0.0)))
    ties += 2 * int(np.count_nonzero(tie_lo | tie_hi))
    R, edge = snap_integer(scaled)
    if edge and R >= 1 and snap_integer(R * x)[1]:
        ties += 2
    return CountResult(count=count, ties=ties, method="rowslice")
