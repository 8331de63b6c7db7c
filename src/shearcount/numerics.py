"""Small numeric helpers: compensated summation and near-integer snapping.

Boundary tests of the form "is this real an integer" are everywhere in the
counting code (floor arguments, fractional parts, row limits).  They are all
funnelled through the snap helpers below so every module applies the same
relative tolerance, TIE_EPS.
"""
from __future__ import annotations

import math

import numpy as np

_CHUNK = 1 << 15

#: Relative tolerance within which a boundary quantity counts as an integer:
#: the one tie tolerance of every counter, integrator and spectrum.
TIE_EPS = 1e-12

#: Entries of the largest float64 temporary that a Parseval block or a
#: certificate chunk allocates (2 MiB); pairwise bands and sine tables take
#: a quarter of it.  This stays under numpy's 4 MiB huge-page threshold and
#: far under glibc's 32 MiB dynamic mmap ceiling: with 8 MiB blocks, a run's
#: peak RSS depended on which earlier arrays had raised glibc's mmap
#: threshold.
TEMP_ENTRIES = 1 << 18


def compensated_sum(values) -> float:
    """Sum of an array with compensated accumulation.

    Small inputs go straight to ``math.fsum`` (exactly rounded).  Large inputs
    are split into chunks summed pairwise by numpy, and the chunk partials are
    combined with ``math.fsum``; the result is deterministic and accurate to a
    few ulps regardless of length.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    if arr.size <= _CHUNK:
        return math.fsum(arr.tolist())
    return math.fsum(chunk_sums(arr))


def chunk_sums(arr: np.ndarray) -> list[float]:
    """The partials compensated_sum adds for arrays longer than one chunk:
    np.sum over consecutive slices of 32768 entries."""
    return [float(np.sum(arr[i:i + _CHUNK])) for i in range(0, arr.size, _CHUNK)]


def snap_integer(u: float) -> tuple[float, bool]:
    """Round u to the nearest integer when within TIE_EPS*max(1,|u|) of it.

    Returns (possibly snapped value, snapped?).  The tolerance is relative so
    the test stays meaningful when |u| is large.
    """
    r = float(round(u))
    if abs(u - r) <= TIE_EPS * max(1.0, abs(u)):
        return r, True
    return u, False


def snap_integers(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector version of :func:`snap_integer`; returns (snapped, tie_mask)."""
    r = np.rint(u)
    tie = np.abs(u - r) <= TIE_EPS * np.maximum(1.0, np.abs(u))
    return np.where(tie, r, u), tie


def frac_snapped(u: float) -> float:
    """Fractional part of u, with integers to within TIE_EPS treated as exact."""
    if snap_integer(u)[1]:
        return 0.0
    return u - math.floor(u)
