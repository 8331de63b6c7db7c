"""Closed-form decomposition of the disk count and its error machinery.

For z = x + iy the count of lattice vectors of norm < T splits exactly
(away from boundary ties) into three pieces:

    count = y * C(T/sqrt(y)) + oscillatory(z, T) + (1 - 2*frac(sqrt(y)*T))

where

* ``C(R) = 2 * sum_{|m| < R} sqrt(R**2 - m**2)`` is the chord-length sum of
  the radius-R circle over integer abscissas (:func:`chord_length_sum`); for
  integer R it equals the area of the inscribed polygon with vertices on the
  circle at integer abscissas (:func:`inscribed_polygon_area`),
* the oscillatory part collects one sawtooth pair per row
  (:func:`oscillatory_sum`),
* the last term corrects the m = 0 row by the fractional part of sqrt(y)*T.

``C(R) - pi*R**2`` is O(sqrt(R)); :func:`chord_sum_error_bound` makes the
constant explicit, and :func:`sawtooth_integral` evaluates the integral that
drives that bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, RangeExceeded
from .lattice import (
    CountResult,
    ShearPoint,
    count_enumerate,
    count_rowslice,
    require_integer,
    require_positive,
    rows,
    shear_mod_one,
)
from .numerics import compensated_sum, frac_snapped, snap_integer

__all__ = [
    "DecompositionResult",
    "sawtooth",
    "chord_length_sum",
    "chord_sum_error",
    "chord_sum_error_bound",
    "oscillatory_sum",
    "count_decomposition",
    "count_formula",
    "remainder",
    "sawtooth_integral",
    "circle_area_tail",
    "chord_identity_residual",
    "inscribed_polygon_area",
]


@dataclass(frozen=True)
class DecompositionResult:
    """The three exact pieces of the count and their sum.

    Away from boundary ties, ``total`` agrees with the integer count to well
    under 1e-6 absolute.
    """

    main_term: float
    oscillatory: float
    correction: float
    total: float


def sawtooth(t: float) -> float:
    """The odd 1-periodic sawtooth 1/2 - frac(t), with values in (-1/2, 1/2]."""
    return 0.5 - (t - math.floor(t))


def _sawtooth_arr(t: np.ndarray) -> np.ndarray:
    return 0.5 - (t - np.floor(t))


def chord_length_sum(T: float) -> float:
    """2 * sum over integers |m| < T of sqrt(T**2 - m**2), by direct summation.

    The rows are those of the unit-height lattice, rows(1.0, T).  Strictly
    positive for T > 0; cost O(T).
    """
    _, _, hw = rows(1.0, T)
    return 2.0 * T + 4.0 * compensated_sum(hw)


def chord_sum_error(T: float) -> float:
    """Signed deviation chord_length_sum(T) - pi*T**2; negative at integer T."""
    if not T >= 1:
        raise InvalidParameter(f"need T >= 1, got {T}")
    return chord_length_sum(T) - math.pi * T * T


def chord_sum_error_bound(T: float) -> float:
    """Explicit bound B(T) with |chord_sum_error(T)| <= B(T) for T >= 2.

    With M = floor(T) - 1 and w = sqrt(T**2 - M**2),

        B(T) = M / (2*w) + 8*w.

    M/(2w) + 4w bounds the deviation of the sum truncated at |m| <= M (via
    the sawtooth integral and the circular tail), and a further 4w covers the
    at most two |m| = floor(T) terms the truncation drops.
    """
    require_positive("T", T)
    if not T >= 2:
        raise InvalidParameter(f"need T >= 2, got {T}")
    snapped, _ = snap_integer(T)
    M = int(math.floor(snapped)) - 1
    w = math.sqrt((T - M) * (T + M))
    return M / (2.0 * w) + 8.0 * w


def oscillatory_sum(z: ShearPoint, T: float) -> float:
    """The sawtooth pair sum 2 * sum over rows 0 < m < T/sqrt(y) of
    s(hw_m + m*x) + s(hw_m - m*x), with hw_m the row half-width.

    Returns 0 when T/sqrt(y) <= 1 (empty sum); cost O(T/sqrt(y)).
    """
    return count_decomposition(z, T).oscillatory


def count_decomposition(z: ShearPoint, T: float) -> DecompositionResult:
    """Evaluate the three-term decomposition of the count in one row pass.

    The main term y * C(T/sqrt(y)) is accumulated as sum of 2*hw_m over the
    same rows that feed the sawtooth sum, so both pieces see identical
    half-width roundings.
    """
    _, ms, hw = rows(z.y, T)
    sy = math.sqrt(z.y)
    x = shear_mod_one(z.x)
    main = 2.0 * sy * T + 4.0 * compensated_sum(hw)
    osc = 2.0 * compensated_sum(_sawtooth_arr(hw + ms * x) + _sawtooth_arr(hw - ms * x))
    corr = 1.0 - 2.0 * frac_snapped(sy * T)
    return DecompositionResult(main_term=main, oscillatory=osc, correction=corr, total=main + osc + corr)


def count_formula(z: ShearPoint, T: float) -> CountResult:
    """The decomposition rounded to an integer count, with tie diagnostics.

    The ties are those of the row-sliced count: a row is ambiguous when
    hw_m -+ m*x is within tolerance of an integer (the sawtooth jump
    points), or when sqrt(y)*T is for the m = 0 row.
    """
    ties = count_rowslice(z, T).ties
    return CountResult(count=int(round(count_decomposition(z, T).total)), ties=ties, method="formula")


#: The counters that the CLI selects by name; each maps (z, T) to a
#: CountResult named by its ``method``.
COUNTERS = {
    "enumerate": count_enumerate,
    "rowslice": count_rowslice,
    "formula": count_formula,
}


def remainder(z: ShearPoint, T: float) -> float:
    """count(z, T) - pi*T**2 with the row-sliced count."""
    return count_rowslice(z, T).count - math.pi * T * T


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

#: Agreement of successive panel doublings at which sawtooth_integral stops.
_SAWTOOTH_TOL = 1e-10


def sawtooth_integral(T: float, M: int) -> float:
    """integral from 0 to M of d/dx sqrt(T**2 - x**2) * sawtooth(x) dx.

    The integrand is analytic between consecutive integers (the sawtooth
    breakpoints), so each unit interval is handled by a 64-point Gauss
    rule, with panels doubled until successive refinements agree to 1e-10;
    RangeExceeded is raised when 256 panels do not.  Satisfies
    0 <= value <= M / (8*sqrt(T**2 - M**2)).
    """
    if not (math.isfinite(T) and T >= 1):
        raise InvalidParameter(f"need T >= 1, got {T}")
    M = require_integer("M", M, 0)
    if M > T - 1:
        raise InvalidParameter(f"need M <= T - 1, got M={M} for T={T}")
    if M == 0:
        return 0.0

    def at_panels(panels: int) -> float:
        total = 0.0
        width = 1.0 / panels
        for m in range(M):
            for p in range(panels):
                a = m + p * width
                xs = 0.5 * width * _GL_NODES + (a + 0.5 * width)
                vals = -xs / np.sqrt((T - xs) * (T + xs)) * (0.5 - (xs - m))
                total += 0.5 * width * float(np.dot(_GL_WEIGHTS, vals))
        return total

    prev = at_panels(1)
    for doublings in range(1, 9):
        cur = at_panels(2**doublings)
        if abs(cur - prev) < _SAWTOOTH_TOL:
            return cur
        prev = cur
    raise RangeExceeded(f"sawtooth integral not converged to tol={_SAWTOOTH_TOL} after 256 panels at T={T}, M={M}")


def circle_area_tail(T: float, a: float) -> float:
    """Closed form of the integral from a to T of sqrt(T**2 - x**2) dx."""
    require_positive("T", T)
    if not (0 <= a <= T):
        raise InvalidParameter(f"need 0 <= a <= T, got a={a}, T={T}")
    return 0.5 * T * T * (0.5 * math.pi - math.asin(a / T)) - 0.5 * a * math.sqrt((T - a) * (T + a))


def chord_identity_residual(T: float) -> tuple[float, float, float]:
    """Residual of the integration-by-parts identity that controls the chord
    sum, evaluated with both sides computed independently.

    With M = floor(T) - 1 it checks

        pi*T**2/4 - (1/2) * sum_{|m| <= M} sqrt(T**2 - m**2)
            = sawtooth_integral(T, M) + circle_area_tail(T, M)
              - sqrt(T**2 - M**2) / 2

    and returns (lhs - rhs, integral value, integral upper bound M/(8w)).
    """
    require_positive("T", T)
    if not T >= 2:
        raise InvalidParameter(f"need T >= 2, got {T}")
    snapped, _ = snap_integer(T)
    M = int(math.floor(snapped)) - 1
    ms = np.arange(1, M + 1, dtype=float)
    half_sum = 0.5 * (T + 2.0 * compensated_sum(np.sqrt(T - ms) * np.sqrt(T + ms)))
    lhs = 0.25 * math.pi * T * T - half_sum
    w = math.sqrt((T - M) * (T + M))
    integral = sawtooth_integral(T, M)
    rhs = integral + circle_area_tail(T, M) - 0.5 * w
    return lhs - rhs, integral, M / (8.0 * w)


def inscribed_polygon_area(radius: int) -> float:
    """Shoelace area of the polygon with vertices (m, +-sqrt(R**2 - m**2))
    over integer |m| <= R; equals chord_length_sum(R) for integer R."""
    R = require_integer("radius", radius, 1)
    ms = np.arange(-R, R + 1, dtype=float)
    f = np.sqrt(R - ms) * np.sqrt(R + ms)
    # counterclockwise: upper arc right to left, lower arc left to right
    xs = np.concatenate([ms[::-1], ms[1:-1]])
    ys = np.concatenate([f[::-1], -f[1:-1]])
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    return 0.5 * abs(compensated_sum(xs * y2 - x2 * ys))
