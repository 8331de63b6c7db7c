"""Mean and mean square of the count remainder over one shear period.

The production integrator, :func:`mean_square_pairwise`, is exact and
finite: the remainder is the closed-form mean plus the oscillatory part, a
sum of sawtooth pairs, and Franel's identity integrates the product of any
two sawtooths in closed form.  Its O(M**2) sum over row pairs, M = T/sqrt(y),
needs O(M) memory, no sort and no truncation, and serves the CLI and
:func:`sweep` by default.  The kernel walks bands of (TEMP_ENTRIES // 4) // M
rows, 2**16 entries (512 KiB) per array: it builds each band's gcd table
from 1 by multiplying in the primes p of every prime power p**k that
divides a row, and evaluates the difference of the two B2 terms as one
product, (f- - f+)*(f- + f+ - 1) with f+- the fractional parts of the two
arguments.

Independent integrators check it.  As x sweeps [0, 1) at fixed (y, T)
the count is piecewise constant: row m gains or loses a point exactly when
one of its interval endpoints -+hw_m - m*x crosses an integer.  Enumerating
those crossings gives the exact jump set (:func:`breakpoints`).  The
crossings of all rows are built in one vectorised pass and merged by one
in-place sort of int64 keys: crossings closer than 1e-13 share a key, so
coincident jumps are summed exactly in integers, independent of their
order; the events grow like 2*T**2/y, which caps the sweep.  The count on
the first segment is read off the same snapped rows in closed form (2*g_m,
or 2*floor(g_m) + 1, per row and mirror), so no count is probed and tied
rows still answer.  :func:`mean_square_breakpoints` integrates the
piecewise constant remainder level by level: the total length of each
count level is an exact integer number of grid steps, and math.fsum adds
the few level terms, so its mean and mean square are within a few ulps of
the exact integral of the merged count, with no sum whose bits depend on
the numpy build.  :func:`mean_square_parseval` assembles the mean square
from the truncated cosine spectrum instead.  ``INTEGRATORS`` maps the names
that :func:`sweep` and the CLI accept to these three.

Counting convention for the integrals: point counts are strict (boundary
vectors excluded), but when sqrt(y)*T is a positive integer the two vectors
(0, +-T) lie on the circle for *every* x, and the closed-form decomposition
counts that column by its limiting value.  The integrators follow the
decomposition (adding 2 when that axis tie occurs, flagged on the sweep as
``axis_tie``) so that the oscillatory part integrates to zero and the closed
form of the mean holds identically; pointwise reconstruction via
:meth:`BreakpointSweep.count_at` stays strict.
"""
from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, RangeExceeded, ShearCountError
from .formula import chord_length_sum
from .fourier import auto_truncation, parseval_mean_square
from .lattice import (
    axis_column,
    halfwidths,
    require_integer,
    require_positive,
    row_limit,
    rows,
    scaled_radius,
    shear_mod_one,
)
from .numerics import TEMP_ENTRIES, TIE_EPS, compensated_sum, frac_snapped, snap_integers

__all__ = [
    "BreakpointSweep",
    "MeanSquareReport",
    "LowerBoundWitness",
    "SweepConfig",
    "breakpoints",
    "mean_square_breakpoints",
    "mean_square_pairwise",
    "mean_square_parseval",
    "mean_remainder_closed",
    "mean_square_upper_bound",
    "lower_bound_witness",
    "sweep",
    "write_sweep_csv",
    "read_sweep_csv",
    "SWEEP_HEADER",
]

#: Refuse breakpoint sweeps whose projected event count exceeds this.
_MAX_SWEEP_EVENTS = 10**8

#: Largest row count M that mean_square_pairwise accepts.  Its O(M**2) sum
#: takes about 2.2 s at this M on one core of a 2 vCPU x86-64 host (0.33 s
#: at M = 7,071, where the breakpoint sweep stops when y = 1).
_MAX_PAIRWISE_ROWS = 20_000

_MERGE_SCALE = 10**13  # jump locations are merged on the grid of 1e-13


@dataclass(frozen=True)
class BreakpointSweep:
    """Sorted jump events of the count as a function of the shear x in [0, 1).

    ``xs``/``deltas`` give the merged event positions and signed jump sizes
    (coincident crossings are summed; mirror rows make every single crossing
    a +-2).  ``base_count`` is the strict count just above x = 0 and
    ``axis_tie`` flags the x-independent boundary column described in the
    module docstring.  The deltas of one period always sum to zero.
    """

    y: float
    T: float
    xs: np.ndarray
    deltas: np.ndarray
    base_count: int
    axis_tie: bool

    def segment_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, strict counts) of the constant segments partitioning [0, 1]."""
        edges = np.concatenate([[0.0], self.xs, [1.0]])
        lengths = np.diff(edges)
        counts = self.base_count + np.concatenate([[0], np.cumsum(self.deltas)])
        return lengths, counts

    def count_at(self, x: float) -> int:
        """Strict count at a non-jump shear coordinate (x taken mod 1)."""
        idx = int(np.searchsorted(self.xs, shear_mod_one(x), side="right"))
        return int(self.base_count + (int(np.sum(self.deltas[:idx])) if idx else 0))


@dataclass(frozen=True)
class MeanSquareReport:
    """One (y, T) row of the mean-square analysis.

    ``upper_bound_value`` is (T/sqrt(y)) * max(1, log(T/sqrt(y)))**2
    + y**1.5 * T and ``ratio`` divides the mean square by it.  Rows produced
    inside a sweep carry a nonempty ``error`` instead of numbers when the
    integrator refused the parameters, and the refusal's exception class in
    ``error_class`` (not written to CSV).  ``elapsed_ms`` is the row's wall
    time, set by :func:`sweep`; the integrators leave it at 0.
    """

    y: float
    T: float
    mean_remainder: float
    mean_square: float
    method: str
    error_bound: float
    upper_bound_value: float
    ratio: float
    breakpoint_count: int
    elapsed_ms: float = 0.0
    error: str = ""
    error_class: type | None = None


@dataclass(frozen=True)
class LowerBoundWitness:
    """Exact quantities at the integer scaled radii T = k*sqrt(y)."""

    T: float
    mean_remainder: float
    mean_square: float
    deficit: float
    floor_value: float


def mean_square_upper_bound(y: float, T: float) -> float:
    """(T/sqrt(y)) * max(1, log(T/sqrt(y)))**2 + y**1.5 * T.

    The log factor is clamped at 1 so the expression stays positive and
    monotone for small scaled radii.
    """
    require_positive("y", y)
    require_positive("T", T)
    scaled = T / math.sqrt(y)
    log_term = max(1.0, math.log(scaled))
    return scaled * log_term * log_term + y**1.5 * T


def breakpoints(y: float, T: float) -> BreakpointSweep:
    """Enumerate the jump set of x -> count over one shear period.

    Row m > 0 (always together with its mirror -m) loses a point when
    hw_m - m*x crosses an integer from above, at x = (hw_m - n)/m, and gains
    one when -hw_m - m*x does, at x = (-hw_m - n)/m; only crossings interior
    to (0, 1) are events.

    The half-widths of all rows are snapped at once and every row's
    crossings are laid out in one array with np.repeat over the per-row
    counts.  Crossing x gets the int64 key 2*k + [entry] with
    k = rint(x*1e13), which groups exactly as np.round(x, 13) does.  One
    in-place sort of the keys, a slice to 0 < k < 1e13 and np.add.reduceat
    over the runs of equal k give the merged jumps; zero sums are dropped
    and the positions are k/1e13.  Working memory peaks at about 33 bytes
    per raw event: the 8-byte key and a byte of group mask per event, plus
    24 bytes per group of coincident crossings.

    The count on the first segment is read off the same snapped rows.  Just
    above x = 0 the m = 0 column holds :func:`axis_column`'s count, and
    rows m and -m hold 2*g_m points each when g_m snapped to an integer,
    else 2*floor(g_m) + 1.  The crossings that round
    onto k = 0, the sorted keys below 2, are added to that count, since the
    merged jumps start at k = 1.  No count is probed, so rows whose
    crossings crowd x = 0 within the tie tolerance still answer.

    Projected event counts beyond 1e8 raise RangeExceeded (the pairwise
    integrator needs no event array).
    """
    k, deltas, base, axis_tie = _merged_jumps(y, T)
    return BreakpointSweep(y=y, T=T, xs=k / _MERGE_SCALE, deltas=deltas, base_count=base, axis_tie=axis_tie)


def _merged_jumps(y: float, T: float) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """The merged jumps of :func:`breakpoints` on the merge grid: their int64
    keys k (the positions are k/1e13), the jumps, the first-segment count
    and the axis tie."""
    _, ms, hw = rows(y, T)
    if 2.0 * T * T / y > _MAX_SWEEP_EVENTS:
        raise RangeExceeded(
            f"projected event count 2*T^2/y = {2 * T * T / y:.3g} exceeds {_MAX_SWEEP_EVENTS:.0e}"
        )
    M = ms.size
    g, snapped = snap_integers(hw, TIE_EPS)

    # Half-rows 0..M-1 hold the exits x = (g - n)/m, half-rows M..2M-1 the
    # entries x = (-g - n)/m; n runs over the integers strictly inside
    # (c - m, c) for the half-row's centre c.
    centre = np.concatenate([g, -g])
    width = np.concatenate([ms, ms])
    first = np.floor(centre - width) + 1.0
    counts = np.maximum(np.ceil(centre) - first, 0.0).astype(np.int64)
    x = np.arange(int(np.sum(counts)), dtype=float)  # n first, then x in place
    x -= np.repeat(np.cumsum(counts) - counts - first, counts)
    np.subtract(np.repeat(centre, counts), x, out=x)
    x /= np.repeat(width, counts)

    # Merge key: k = rint(x * 1e13) is exactly the grouping of
    # np.round(x, 13), and the low bit of 2k + [entry] keeps the sign.
    x *= _MERGE_SCALE
    np.rint(x, out=x)
    keys = x.astype(np.int64)
    del x
    keys <<= 1
    keys[int(np.sum(counts[:M])):] += 1  # the entries follow every exit
    keys.sort()
    head = int(np.searchsorted(keys, 2))  # keys of k = 0: jumps at x = 0 on the merge grid
    base_jump = int(np.sum((keys[:head] & 1) * 4 - 2))
    keys = keys[head : np.searchsorted(keys, 2 * _MERGE_SCALE)]  # 0 < k < 1e13
    opens = np.ones(keys.size, dtype=bool)  # keys[i] starts a new k
    np.greater(keys[1:], keys[:-1] | 1, out=opens[1:])
    starts = np.flatnonzero(opens)
    k = keys[starts] >> 1
    keys &= 1  # the low bit becomes the jump: exits -2, entries +2
    keys <<= 2
    keys -= 2
    sums = np.add.reduceat(keys, starts)
    del keys, starts  # free per-event arrays before the per-group gathers
    keep = sums != 0
    deltas = sums[keep]
    del sums

    # The strict count just above x = 0, then the jumps merged onto k = 0.
    column, axis_tie = axis_column(y, T)
    per_row = np.where(snapped, 2.0 * g, 2.0 * np.floor(g) + 1.0)
    base = column + 2 * int(np.sum(per_row)) + base_jump
    return k[keep], deltas, base, axis_tie


def _report_from_integral(
    y: float,
    T: float,
    mean: float,
    mean_sq: float,
    method: str,
    error_bound: float,
    breakpoint_count: int,
) -> MeanSquareReport:
    ub = mean_square_upper_bound(y, T)
    return MeanSquareReport(
        y=y,
        T=T,
        mean_remainder=mean,
        mean_square=mean_sq,
        method=method,
        error_bound=error_bound,
        upper_bound_value=ub,
        ratio=mean_sq / ub,
        breakpoint_count=breakpoint_count,
    )


def mean_square_breakpoints(y: float, T: float) -> MeanSquareReport:
    """Exact period mean and mean square of the remainder via the jump set.

    The count is integrated by level, not by segment.  The merged jumps sit
    at the integer keys k of the 1e-13 merge grid (taken from the helper
    behind :func:`breakpoints`, not recovered from its float positions), so
    with the ends 0 and 10**13 every segment length is an exact int64 key
    difference and the running count the int64 cumsum of the jumps, plus 2
    at an axis tie.  np.bincount of the lengths over the count levels gives
    the total length L_c of each level c: integers below 10**13 < 2**53, so
    every total is exact, whatever the order of the additions and whatever
    the numpy build.  With P = fl(pi*T*T), w_c = L_c/1e13 and r_c = c - P,
    math.fsum adds the few level terms w_c*r_c (the mean), w_c*r_c*r_c (the
    mean square) and w_c*|r_c| (the absolute mass A of the bound).

    error_bound.  c, P, L_c and 1e13 are floats, so w_c and r_c round once
    each, w_c*r_c once more and (w_c*r_c)*r_c once more: at most 3 roundings
    (relative 1.5*eps) per mean term and 5 (2.5*eps) per square term, and
    math.fsum rounds its result once.  Against the integral with P in place
    of pi*T**2 the mean is therefore off by under 2*eps*A and the mean
    square by under 3*eps*mean_square.  P is pi*T**2 to within 3 roundings,
    |P - pi*T**2| <= 1.5*eps*P, which moves the mean by as much and the mean
    square by at most 2*|P - pi*T**2|*|mean| + (P - pi*T**2)**2 <=
    3*eps*P*A + (1.5*eps*P)**2.  The summation part of the bound is

        eps*(3*P*A + 1.5*P + 2*A + 4*mean_square) + (1.5*eps*P)**2.

    On top of it comes the merge grid: each jump sits at most half a grid
    step plus the rounding of its position away from its crossing, which
    moves the integral of r**2 by at most one grid step times the change of
    r**2 across the jump.  Both bounds cover the arithmetic on the computed
    half-widths.
    """
    k, deltas, base, axis_tie = _merged_jumps(y, T)
    n = k.size
    lengths = np.empty(n + 1, dtype=np.int64)  # segment lengths in grid steps
    lengths[:n] = k
    lengths[n] = _MERGE_SCALE
    lengths[1:] -= k
    del k
    counts = np.empty(n + 1, dtype=np.int64)
    counts[0] = base + 2 * axis_tie
    np.cumsum(deltas, out=counts[1:])
    counts[1:] += counts[0]
    del deltas
    P = math.pi * T * T
    square = counts - P
    square *= square
    grid = float(np.sum(np.abs(np.diff(square)))) / _MERGE_SCALE
    del square
    low = int(counts.min())
    counts -= low
    totals = np.bincount(counts, weights=lengths)
    del counts, lengths  # free the per-segment arrays before the level sums
    levels = np.flatnonzero(totals)
    r = (levels + low) - P
    terms = totals[levels] / _MERGE_SCALE
    terms *= r
    mean = math.fsum(terms.tolist())
    mass = math.fsum(np.abs(terms).tolist())
    terms *= r
    mean_sq = math.fsum(terms.tolist())
    eps = np.finfo(float).eps
    error_bound = eps * (3.0 * P * mass + 1.5 * P + 2.0 * mass + 4.0 * mean_sq) + (1.5 * eps * P) ** 2 + grid
    return _report_from_integral(y, T, mean, mean_sq, "breakpoints", error_bound, n)


def mean_remainder_closed(y: float, T: float) -> float:
    """Closed form of the period mean of the remainder.

    Rows m != 0 average to exactly twice their half-width over a full period
    of m*x mod 1, and the m = 0 column contributes its decomposition value,
    so with the half-widths g_m snapped as in :func:`breakpoints` the mean is
    axis_column's count, plus 2 at an axis tie, plus 4*sum g_m, minus
    pi*T**2: the mean of the count that both exact integrators integrate.
    """
    _, _, hw = rows(y, T)
    return _closed_mean(y, T, snap_integers(hw, TIE_EPS)[0])


def _closed_mean(y: float, T: float, g: np.ndarray) -> float:
    column, axis_tie = axis_column(y, T)
    return column + 2 * axis_tie + 4.0 * compensated_sum(g) - math.pi * T * T


def mean_square_pairwise(y: float, T: float) -> MeanSquareReport:
    """Exact period mean and mean square of the remainder by Franel's identity.

    With s(t) = 1/2 - {t}, d = gcd(m, n) and B2(u) = {u}**2 - {u} + 1/6,
    Franel's identity in Landau's form reads

        integral_0^1 s(m*x + a) * s(n*x + b) dx = d**2/(2*m*n) * B2((n*a - m*b)/d),

    and the oscillatory part is 2 * sum_m [s(m*x + hw_m) - s(m*x - hw_m)], so

        integral osc**2 = 4 * sum_{m, n <= M} (d**2/(m*n))
                            * [B2((n*hw_m - m*hw_n)/d) - B2((n*hw_m + m*hw_n)/d)],

    a finite sum with no event array and no truncation.  The oscillatory
    part has period mean zero, so the mean square is that sum plus the
    square of mean_remainder_closed, taken on the same snapped half-widths.
    They are snapped as in :func:`breakpoints`, so both integrators
    integrate the same count.

    error_bound is a priori.  |n*hw_m +- m*hw_n| <= 2*T**2, so each B2
    argument carries at most 3*eps*T**2/d of rounding, and B2 has Lipschitz
    constant 1 on the circle.  Per unit of weight d**2/(m*n) <= M*d/(m*n)
    the rest adds under 7*eps: under 3*eps from the product form of the B2
    difference (u - floor(u) is exact, except within eps/4 of {u} when
    -1/2 < u < 0), under eps/2 from the three roundings of d**2/n
    and 1/m, as the difference is at most 1/4 in size, and under 3.3*eps
    from numpy's row sums, at most 26 roundings deep for 20,000 terms
    (math.fsum of the row sums rounds once).  With the factor 4 that is
    28*eps, and the bound keeps 48*eps.  With
    S = sum_{m, n <= M} gcd(m, n)/(m*n) <= (1 + log M)**3 this gives

        eps * ((1 + log M)**3 * (24*T**2 + 48*M) + mean_square).

    Like the breakpoint integrator's, it covers the arithmetic on the
    computed half-widths.  Rows beyond M = 20,000 raise RangeExceeded
    before anything is allocated.
    """
    M = row_limit(scaled_radius(y, T))
    if M > _MAX_PAIRWISE_ROWS:
        raise RangeExceeded(f"row count M = {M} exceeds the pairwise ceiling {_MAX_PAIRWISE_ROWS}")
    ms = np.arange(1, M + 1, dtype=float)  # the rows of lattice.rows, checked once
    g, _ = snap_integers(halfwidths(y, T, ms), TIE_EPS)
    mu = _closed_mean(y, T, g)
    mean_sq = _franel_sum(ms, g) + mu * mu
    log_term = 1.0 + math.log(max(M, 1))
    error_bound = math.ulp(1.0) * (log_term**3 * (24.0 * T * T + 48.0 * M) + mean_sq)
    return _report_from_integral(y, T, mu, mean_sq, "pairwise", error_bound, 0)


def _franel_sum(ms: np.ndarray, g: np.ndarray) -> float:
    """Franel's sum for the integral of osc**2 (see mean_square_pairwise),
    over rows ms with snapped half-widths g.

    The term is symmetric in (m, n), so only n >= m is summed, in bands of
    (TEMP_ENTRIES // 4) // M rows m against every n >= the band's first row:
    2**16 entries, 512 KiB per array, whatever the host.  In each band, with
    d from :func:`_band_gcd` and f+- = {u+-},

        B2(u-) - B2(u+) = (f- - f+) * (f- + f+ - 1)

    is formed in place and multiplied by d**2/n; the n < m corner is zeroed
    and the diagonal halved, and each row is summed and divided by m.
    math.fsum adds the M row sums, so the value depends on M alone, not on
    the caller's threads.
    """
    M = ms.size
    if M == 0:
        return 0.0
    height = max(1, (TEMP_ENTRIES // 4) // M)
    row_sums = []
    for i0 in range(0, M, height):
        i1 = min(M, i0 + height)
        m, n = ms[i0:i1, None], ms[None, i0:]
        d = _band_gcd(i0, i1, M)
        minus = g[i0:i1, None] * n  # u+- = (n*g_m +- m*g_n)/d
        cross = m * g[None, i0:]
        plus = minus + cross
        minus -= cross
        minus /= d
        plus /= d
        np.floor(minus, out=cross)  # f+- = u+- - floor(u+-)
        minus -= cross
        np.floor(plus, out=cross)
        plus -= cross
        np.subtract(minus, plus, out=cross)  # (f- - f+)*(f- + f+ - 1)
        minus += plus
        minus -= 1.0
        minus *= cross
        del plus, cross
        d *= d
        d /= n
        minus *= d
        np.copyto(minus[:, : i1 - i0], 0.0, where=np.tri(i1 - i0, k=-1, dtype=bool))
        minus.ravel()[:: M - i0 + 1] *= 0.5  # the diagonal n = m, counted once below
        sums = minus.sum(axis=1)
        sums /= ms[i0:i1]
        row_sums += sums.tolist()
    return 8.0 * math.fsum(row_sums)


def _band_gcd(i0: int, i1: int, M: int) -> np.ndarray:
    """gcd(m, n) for the rows i0 < m <= i1 against the columns i0 < n <= M.

    Starting from 1, every prime power q = p**k that divides a row
    multiplies the entries whose row and column it divides by p, so each
    entry collects p once per k <= min(v_p(m), v_p(n)).  The diagonal is
    then set to m, so a q with a single multiple among the columns, which
    can only touch the diagonal, is skipped.
    """
    qs, ps = _prime_powers()
    # q must divide a row (q <= i1) and, to reach past the diagonal, two columns (2q <= M)
    k = int(qs.searchsorted(min(i1, M // 2), "right"))
    qs, ps = qs[:k], ps[:k]
    if i0:  # in the first band every such q divides the row q and the column 2q
        hit = (i1 // qs > i0 // qs) & (M // qs - i0 // qs > 1)
        qs, ps = qs[hit], ps[hit]
    d = np.ones((i1 - i0, M - i0))
    for q, p in zip(qs.tolist(), ps.tolist()):
        first = -(i0 + 1) % q
        d[first::q, first::q] *= p
    d.ravel()[:: M - i0 + 1] = np.arange(i0 + 1, i1 + 1)
    return d


@functools.cache
def _prime_powers() -> tuple[np.ndarray, np.ndarray]:
    """(q, p) for the prime powers q = p**k <= _MAX_PAIRWISE_ROWS, by
    increasing q; built on first use (about 2,300 entries)."""
    limit = _MAX_PAIRWISE_ROWS
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    pairs = []
    for p in np.flatnonzero(prime).tolist():
        q = p
        while q <= limit:
            pairs.append((q, p))
            q *= p
    table = np.array(sorted(pairs), dtype=np.int64).T.copy()
    table.flags.writeable = False  # shared by every call
    return table[0], table[1]


def mean_square_parseval(y: float, T: float) -> MeanSquareReport:
    """Mean square assembled from the cosine spectrum at auto_truncation(y, T).

    The remainder is the oscillatory part plus the constant
    mean_remainder_closed, and the oscillatory part has period mean zero, so
    the mean square is the Parseval value plus the squared mean; the Parseval
    error bound carries over unchanged.
    """
    value, err = parseval_mean_square(y, T, *auto_truncation(y, T))
    mu = mean_remainder_closed(y, T)
    return _report_from_integral(y, T, mu, value + mu * mu, "parseval-assembled", err, 0)


#: The integrators that sweep and the CLI select by name; each maps (y, T)
#: to a MeanSquareReport named by its ``method``.
INTEGRATORS = {
    "pairwise": mean_square_pairwise,
    "breakpoints": mean_square_breakpoints,
    "parseval-assembled": mean_square_parseval,
}


def lower_bound_witness(y: float, k: int) -> LowerBoundWitness:
    """Exact witnesses at T = k*sqrt(y), where the scaled radius is integer.

    deficit = pi*k**2 - chord_length_sum(k) is the area gap of the inscribed
    polygon (strictly positive), the mean is -y*deficit + (1 - 2*frac(k*y))
    and the mean square can never undercut the squared mean.
    """
    k = require_integer("k", k, 1)
    require_positive("y", y)
    T = k * math.sqrt(y)
    deficit = math.pi * k * k - chord_length_sum(float(k))
    mean = -y * deficit + (1.0 - 2.0 * frac_snapped(k * y))
    report = mean_square_breakpoints(y, T)
    floor_value = mean * mean
    if report.mean_square < floor_value * (1.0 - 1e-12) - 1e-12:
        raise ShearCountError(
            f"mean square {report.mean_square} fell below its floor {floor_value} at y={y}, k={k}"
        )
    return LowerBoundWitness(
        T=T,
        mean_remainder=mean,
        mean_square=report.mean_square,
        deficit=deficit,
        floor_value=floor_value,
    )


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for :func:`sweep`."""

    y_values: tuple[float, ...]
    radius_min: float
    radius_max: float
    samples: int
    log_spaced: bool = False
    integrator: str = "pairwise"

    def radii(self) -> np.ndarray:
        if self.samples == 0:
            return np.empty(0)
        if self.log_spaced:
            return np.geomspace(self.radius_min, self.radius_max, self.samples)
        return np.linspace(self.radius_min, self.radius_max, self.samples)


def _sweep_row(y: float, T: float, config: SweepConfig) -> MeanSquareReport:
    t0 = time.perf_counter()
    try:
        report = INTEGRATORS[config.integrator](y, T)
    except ShearCountError as exc:
        nan = float("nan")
        return MeanSquareReport(
            y=y,
            T=T,
            mean_remainder=nan,
            mean_square=nan,
            method=config.integrator,
            error_bound=nan,
            upper_bound_value=mean_square_upper_bound(y, T),
            ratio=nan,
            breakpoint_count=0,
            error=str(exc),
            error_class=type(exc),
        )
    return replace(report, elapsed_ms=(time.perf_counter() - t0) * 1e3)


def default_threads() -> int:
    """Worker count: SHEARCOUNT_THREADS if set, else the number of CPUs this
    process may run on (os.cpu_count() where affinity is not available)."""
    raw = os.environ.get("SHEARCOUNT_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidParameter(f"SHEARCOUNT_THREADS must be a positive integer, got {raw!r}")
    return value


def sweep(config: SweepConfig, threads: int | None = None) -> list[MeanSquareReport]:
    """One report per (y, T) grid point, ordered by (y, T).

    Rows are independent and may be computed by a worker pool, but results
    are assembled in grid order and each row's arithmetic is sequential, so
    the output does not depend on the worker count.  Integrator errors are
    recorded on the affected row instead of aborting the sweep.
    """
    if config.integrator not in INTEGRATORS:
        raise InvalidParameter(f"integrator must be one of {tuple(INTEGRATORS)}, got {config.integrator!r}")
    if config.samples < 0:
        raise InvalidParameter(f"samples must be >= 0, got {config.samples}")
    for y in config.y_values:
        require_positive("y", y)
    if config.samples > 0 and not (0 < config.radius_min <= config.radius_max < math.inf):
        raise InvalidParameter(
            f"need 0 < radius_min <= radius_max < inf, got {config.radius_min}, {config.radius_max}"
        )
    params = [(y, float(T)) for y in sorted(config.y_values) for T in config.radii()]
    if not params:
        return []
    workers = threads if threads is not None else default_threads()
    if workers <= 1 or len(params) == 1:
        return [_sweep_row(y, T, config) for y, T in params]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda p: _sweep_row(p[0], p[1], config), params))


SWEEP_HEADER = "T,y,mean_square,mean_remainder,upper_bound,ratio,method,breakpoints,elapsed_ms"


def write_sweep_csv(reports: list[MeanSquareReport], stream, include_timing: bool = False) -> None:
    """Write the sweep schema with shortest round-trip float formatting.

    The elapsed_ms column is zeroed unless timing is requested, keeping the
    bytes of a run reproducible across machines and worker counts; with
    timing it carries three decimals, so sub-millisecond rows read nonzero.
    """
    with_errors = any(r.error for r in reports)
    stream.write(SWEEP_HEADER + (",error\n" if with_errors else "\n"))
    for r in reports:
        elapsed = f"{r.elapsed_ms:.3f}" if include_timing else "0"
        row = (
            f"{r.T!r},{r.y!r},{r.mean_square!r},{r.mean_remainder!r},"
            f"{r.upper_bound_value!r},{r.ratio!r},{r.method},{r.breakpoint_count},{elapsed}"
        )
        if with_errors:
            row += "," + r.error.replace(",", ";")
        stream.write(row + "\n")


def read_sweep_csv(stream) -> list[MeanSquareReport]:
    """Parse a file produced by :func:`write_sweep_csv`."""
    header = stream.readline().strip()
    if header not in (SWEEP_HEADER, SWEEP_HEADER + ",error"):
        raise InvalidParameter(f"unexpected sweep header {header!r}")
    with_errors = header.endswith(",error")
    fields = header.count(",") + 1
    reports = []
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != fields:
            raise InvalidParameter(f"line {lineno}: {len(parts)} fields where the header has {fields}: {line!r}")
        try:
            report = MeanSquareReport(
                T=float(parts[0]),
                y=float(parts[1]),
                mean_square=float(parts[2]),
                mean_remainder=float(parts[3]),
                upper_bound_value=float(parts[4]),
                ratio=float(parts[5]),
                method=parts[6],
                breakpoint_count=int(parts[7]),
                elapsed_ms=float(parts[8]),
                error_bound=0.0,
                error=parts[9] if with_errors else "",
            )
        except ValueError as exc:
            raise InvalidParameter(f"line {lineno}: malformed sweep row {line!r}") from exc
        reports.append(report)
    return reports
