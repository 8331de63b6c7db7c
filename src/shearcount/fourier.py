"""Cosine spectrum of the oscillatory part and Parseval evaluation of its
mean square over one shear period.

Expanding each sawtooth in the oscillatory sum into its sine series and
collecting terms with equal cosine frequency k = m*n gives

    osc(x) = sum_{k >= 1} c_k cos(2*pi*k*x),
    c_k = (4/pi) * sum_{m*n = k, 0 < m < T/sqrt(y), 1 <= n <= n_max}
              sin(2*pi*n*hw_m) / n,

a finite divisor sum per coefficient (hw_m is the row half-width).  Distinct
cosine frequencies are orthogonal on [0, 1], so the mean square of the
retained part is half the sum of squared coefficients; the n > n_max tail is
reported as an L2 bound that assumes its rows share no frequency.

:func:`mean_square_certificate` is the fully explicit counterpart of the
same mean square: it splits the series at a cutoff, applies Cauchy-Schwarz
to each half with exact harmonic-number constants, and evaluates the
orthogonality sums directly, the tail in closed form, yielding a rigorous
upper bound for the true integral of osc**2 at every cutoff.

One sine source, :class:`_RowSines`, feeds the spectrum, the Parseval
blocks, the dropped pairs and :func:`oscillatory_partial_sum`, which sums
the spectrum's coefficients against cos(2*pi*k*x).  It takes sin(n*theta_m),
theta_m = 2*pi*hw_m, by angle addition: for n_max harmonics,
B = isqrt(n_max) and n = q*B + j,

    sin(n*theta) = sin(q*B*theta)*cos(j*theta) + cos(q*B*theta)*sin(j*theta),

so a row takes np.sin and np.cos of about 4*sqrt(n_max) arguments for its
tables, then two multiplies and an add per entry, instead of n_max calls
to the scalar libm sine.  Each entry is within 4*eps*(1 + n*theta) of
np.sin(2*pi*n*hw_m) (tested up to n = 2**18, hw = 150); either way the
rounded argument dominates, about 1e-8 from the exact sine at n*theta near
1e8.  A call builds its tables once, so every block sees the same bits for
a pair (m, n) at a given n_max.  n_max below _TABLE_MIN, and rows past the
tables' budget of _PIECE entries, call np.sin directly, as the certificate
always does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, RangeExceeded
from .lattice import MAX_SCALED_RADIUS, ShearPoint, require_integer, rows, shear_mod_one
from .numerics import TEMP_ENTRIES, chunk_sums, compensated_sum

__all__ = [
    "FourierSpectrum",
    "cosine_spectrum",
    "parseval_mean_square",
    "oscillatory_partial_sum",
    "mean_square_certificate",
    "auto_truncation",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

_FOUR_OVER_PI = 4.0 / math.pi

#: Hard ceiling on k_max (cosine_spectrum's array is then 256 MiB of float64)
#: and a work budget on the M*n_max (m, n) pairs of Parseval and the partial
#: sum, which auto_truncation keeps by capping n_max at MAX_COEFFICIENTS // M.
MAX_COEFFICIENTS = 1 << 25

#: Largest certificate cutoff: one past ceil(T/sqrt(y)) at the largest
#: accepted scaled radius, so a cutoff at the scaled radius (the one
#: scripts/upper_bound_sweep.py takes) fits every accepted row, and a cutoff
#: far beyond any row is refused before its A*M sines are taken.
_MAX_CUTOFF = math.ceil(MAX_SCALED_RADIUS) + 1

#: auto_truncation refines until the Parseval error bound is under this share
#: of the value, within the MAX_COEFFICIENTS budget: criterion 7's 1% rule.
_REL_TARGET = 0.01

#: Coefficients per block in parseval_mean_square; a multiple of the chunk
#: whose partial sums compensated_sum adds, so blocks sum alike.
_BLOCK = TEMP_ENTRIES


@dataclass(frozen=True)
class FourierSpectrum:
    """Cosine coefficients c_1..c_k_max of the oscillatory part.

    n_max is the largest sawtooth harmonic retained in each divisor sum and
    l2_truncation_bound bounds the L2(dx) norm of the discarded n > n_max
    part (it decreases as n_max grows, is 0 when no rows are occupied, and
    rests on the assumption stated in _tail_l2_bound).
    """

    k_max: int
    coeffs: np.ndarray
    n_max: int
    l2_truncation_bound: float


def _tail_l2_bound(scaled: float, M: int, n_max: int) -> float:
    """The n > n_max part's L2 norm as if no two rows shared a frequency.
    Rows m != m' do share k = m*n = m'*n', so this is an assumption, not a
    proof; tests pin it (measured tails stay under 0.7 of the bound)."""
    if M == 0:
        return 0.0
    # sum_{n > n_max} n**-2 <= 1/(n_max - 1) for n_max >= 2
    tail = 1.0 if n_max < 2 else 1.0 / (n_max - 1)
    return _FOUR_OVER_PI * math.sqrt(scaled * 0.5 * tail)


#: Shortest n range whose sines come from angle-addition tables; for a
#: shorter one, one np.sin per entry costs less than building the tables.
_TABLE_MIN = 256

#: Entries of each angle-addition table, and products per piece of a row.
_PIECE = TEMP_ENTRIES // 4


class _RowSines:
    """sin(2*pi*n*hw_m) for the rows m = 1..M of hw and 1 <= n <= n_max: the
    one sine source of a call, shared by every block of frequencies.

    The first rows, as many as keep the tables within _PIECE entries, come
    from the angle-addition tables of the module docstring (B = isqrt(n_max),
    n = q*B + j); later rows, and every row when n_max is below _TABLE_MIN,
    take np.sin of (2*pi*n)*hw_m.  Which one a pair takes, and so its bits,
    depends on m and n_max alone, not on the sub-range it is requested in.
    """

    def __init__(self, hw: np.ndarray, n_max: int) -> None:
        self.hw, self.rows, self.n_max = hw, hw.size, n_max
        B = self.B = math.isqrt(n_max)
        self.tabulated = 0 if n_max < _TABLE_MIN else min(hw.size, _PIECE // max(B, n_max // B + 1))
        if not self.tabulated:
            return
        theta = 2.0 * math.pi * hw[: self.tabulated]
        tables = []
        for n in (np.arange(n_max // B + 1, dtype=float) * B, np.arange(B, dtype=float)):
            arg = np.multiply.outer(theta, n)
            tables += [np.sin(arg), np.cos(arg, out=arg)]
        sin_q, cos_q, sin_j, cos_j = tables
        # per row: (q, 1) columns times (j,) rows broadcast to a (q, j) piece
        self._tables = [(sin_q[r, :, None], cos_q[r, :, None], sin_j[r], cos_j[r]) for r in range(self.tabulated)]
        self._step = _PIECE // B
        self._piece, self._temp = np.empty((2, self._step, B))

    def pieces(self, m: int, n_lo: int, n_hi: int):
        """Yield (a, b, sines) covering n_lo <= n <= n_hi for row m, sines the
        1-D array for a <= n <= b.  A tabulated piece is formed in scratch
        arrays of _PIECE entries; the caller may overwrite each piece before
        asking for the next."""
        if m > self.tabulated:
            yield n_lo, n_hi, np.sin(2.0 * math.pi * np.arange(n_lo, n_hi + 1, dtype=float) * self.hw[m - 1])
            return
        B = self.B
        sin_q, cos_q, sin_j, cos_j = self._tables[m - 1]
        for q in range(n_lo // B, n_hi // B + 1, self._step):
            a, b = max(n_lo, q * B), min(n_hi, (q + self._step) * B - 1)
            k = b // B + 1
            piece = np.multiply(sin_q[q:k], cos_j, out=self._piece[: k - q])
            np.add(piece, np.multiply(cos_q[q:k], sin_j, out=self._temp[: k - q]), out=piece)
            yield a, b, piece.ravel()[a - q * B : b - q * B + 1]


def cosine_spectrum(y: float, T: float, k_max: int, n_max: int) -> FourierSpectrum:
    """Divisor-sum coefficients for frequencies k = 1..k_max.

    Rows are visited in increasing m, each contributing to the arithmetic
    progression k = m, 2m, 3m, ... via one vectorized stride update, so the
    total work is the number of retained (m, n) pairs and the summation
    order is fixed (bit-reproducible results).
    """
    scaled, _, hw = rows(y, T)
    k_max, n_max = _truncation(k_max, n_max)
    return FourierSpectrum(
        k_max=k_max,
        coeffs=_coefficients(_RowSines(hw, n_max), 1, k_max + 1),
        n_max=n_max,
        l2_truncation_bound=_tail_l2_bound(scaled, hw.size, n_max),
    )


def _truncation(k_max: int, n_max: int) -> tuple[int, int]:
    k_max, n_max = require_integer("k_max", k_max, 1), require_integer("n_max", n_max, 1)
    if k_max > MAX_COEFFICIENTS:
        raise RangeExceeded(f"k_max={k_max} exceeds the supported {MAX_COEFFICIENTS}")
    return k_max, n_max


def _require_pairs(M: int, n_max: int) -> None:
    if M * n_max > MAX_COEFFICIENTS:
        raise RangeExceeded(f"M*n_max = {M}*{n_max} (m, n) pairs exceed the supported {MAX_COEFFICIENTS}")


def _coefficients(sines: _RowSines, k_lo: int, k_hi: int) -> np.ndarray:
    """c_k for k_lo <= k < k_hi, with ``sines`` a :class:`_RowSines`.  Each
    row m adds sin/n to the progression k = m*n through one strided view, in
    increasing m, and the block is scaled by 4/pi at the end, so every c_k
    sums the same terms in the same order whatever block it is computed in."""
    out = np.zeros(k_hi - k_lo)
    for m in range(1, min(sines.rows, k_hi - 1) + 1):
        n_lo, n_hi = -(-k_lo // m), min(sines.n_max, (k_hi - 1) // m)
        if n_lo > n_hi:
            continue
        for a, b, terms in sines.pieces(m, n_lo, n_hi):
            np.divide(terms, np.arange(a, b + 1, dtype=float), out=terms)
            view = out[m * a - k_lo : m * b - k_lo + 1 : m]
            np.add(view, terms, out=view)
    return np.multiply(out, _FOUR_OVER_PI, out=out)


def _squared_sum(sines: _RowSines, k_lo: int, k_hi: int) -> float:
    """Sum of c_k**2 for k_lo <= k < k_hi, built one block of _BLOCK
    frequencies at a time, with the bits of compensated_sum over the whole
    range."""
    if k_hi - k_lo <= _BLOCK:
        block = _coefficients(sines, k_lo, k_hi)
        return compensated_sum(np.square(block, out=block))
    partials = []
    for lo in range(k_lo, k_hi, _BLOCK):
        block = _coefficients(sines, lo, min(lo + _BLOCK, k_hi))
        partials += chunk_sums(np.square(block, out=block))
        del block  # freed before the next block is built
    return math.fsum(partials)


def parseval_mean_square(y: float, T: float, k_max: int, n_max: int) -> tuple[float, float]:
    """(value, error_bound) with value = 0.5 * sum of squared coefficients.

    error_bound controls |integral of osc**2 over one period - value| via the
    triangle inequality in L2: the n > n_max tail uses the spectrum's bound
    (an assumption, see _tail_l2_bound), and any retained (m, n) pair whose
    frequency m*n exceeds k_max (callers are advised to keep k_max >= n_max
    * floor(T/sqrt(y)) so there are none) is accumulated exactly and added
    to the truncation radius.

    The coefficients are built and squared one block of _BLOCK frequencies
    at a time, so no k_max-sized array is held.  The block sums are the
    chunk partials compensated_sum would add, so the value has the same
    bits as summing the whole squared spectrum.  The dropped pairs sum to
    exactly the coefficients c_k for k_max < k <= M*n_max, which are
    squared and summed the same way.  M*n_max above MAX_COEFFICIENTS
    raises RangeExceeded before any work.
    """
    scaled, _, hw = rows(y, T)
    M = hw.size
    k_max, n_max = _truncation(k_max, n_max)
    _require_pairs(M, n_max)
    sines = _RowSines(hw, n_max)
    value = 0.5 * _squared_sum(sines, 1, k_max + 1)
    dropped = 0.0
    if M * n_max > k_max:
        dropped = math.sqrt(0.5 * _squared_sum(sines, k_max + 1, M * n_max + 1))

    eps = _tail_l2_bound(scaled, M, n_max) + dropped
    error_bound = 2.0 * math.sqrt(max(value, 0.0)) * eps + eps * eps
    return value, error_bound


def oscillatory_partial_sum(z: ShearPoint, T: float, n_max: int) -> float:
    """The doubly truncated series at the given shear coordinate:
    sum_k c_k cos(2*pi*k*x) over 1 <= k <= M*n_max, with the coefficients of
    :func:`cosine_spectrum` built one block of _BLOCK frequencies at a time.

    Converges pointwise to :func:`shearcount.formula.oscillatory_sum` as
    n_max grows, at every x where no sawtooth argument is an integer.
    M*n_max above MAX_COEFFICIENTS raises RangeExceeded before any work.
    """
    n_max = require_integer("n_max", n_max, 1)
    _, _, hw = rows(z.y, T)
    _require_pairs(hw.size, n_max)
    sines = _RowSines(hw, n_max)
    turn = 2.0 * math.pi * shear_mod_one(z.x)
    k_hi, partials = hw.size * n_max + 1, []
    for lo in range(1, k_hi, _BLOCK):
        block = _coefficients(sines, lo, min(lo + _BLOCK, k_hi))
        block *= np.cos(turn * np.arange(lo, lo + block.size, dtype=float))
        partials.append(compensated_sum(block))
    return math.fsum(partials)


def _row_sums(n_max: int, theta: np.ndarray) -> np.ndarray:
    """S_n = sum_m sin(n*theta_m)**2 for 1 <= n <= n_max, from np.sin of the
    (n, m) outer products, TEMP_ENTRIES at a time; the result does not
    depend on the chunking."""
    out = np.empty(n_max)
    chunk = max(1, TEMP_ENTRIES // theta.size)
    for start in range(1, n_max + 1, chunk):
        stop = min(n_max, start + chunk - 1)
        block = np.outer(np.arange(start, stop + 1, dtype=float), theta)
        np.sin(block, out=block)
        np.square(block, out=block)
        block.sum(axis=1, out=out[start - 1 : stop])
    return out


def mean_square_certificate(y: float, T: float, cutoff: int) -> float:
    """Explicit upper bound for the period mean square of the oscillatory part.

    Splitting the sawtooth harmonics at the cutoff A and bounding the two
    halves separately (Cauchy-Schwarz over n <= A with the exact harmonic
    number, Cauchy-Schwarz over rows for n > A), then integrating with the
    exact orthogonality sums, gives, with S_n = sum_m sin^2(2 pi n hw_m),

        2*(16/pi**2) * [ H_A * sum_{n<=A} (1/n) * (1/2) S_n
                         + (T/sqrt(y)) * sum_m (1/2) sum_{n>A} sin^2(2 pi n hw_m) / n^2 ].

    The B2 series sum_{n>=1} sin^2(2 pi n h)/n^2 = (pi**2/2)*f*(1 - f),
    f = {2h}, makes the n > A sums exact: (pi**2/2) * sum_m f_m*(1 - f_m)
    minus sum_{n<=A} S_n/n**2, from the head's row sums S_1..S_A.

    That tail is about 1/A of the two sums it is the difference of, so their
    rounding errors are added back.  With k roundings within k*eps relative,
    and the computed sines as given (their argument rounding, shared with
    the head, is not covered): the second sum takes M per square (M terms in
    any order), one per division by n**2 and one in math.fsum; the first 6
    (1 - f, f*(1 - f), math.fsum, math.pi, its square and the last product;
    np.modf is exact).  With one each for the difference and the allowance,
    (M + 8)*eps times the two sums covers them; the tail is clamped at 0.
    A cutoff above _MAX_CUTOFF (10**6 + 1) raises RangeExceeded.
    """
    A = require_integer("cutoff", cutoff, 2)
    if A > _MAX_CUTOFF:
        raise RangeExceeded(f"cutoff={A} exceeds the supported {_MAX_CUTOFF}")
    scaled, _, hw = rows(y, T)
    M = hw.size
    if M == 0:
        return 0.0

    n = np.arange(1, A + 1, dtype=float)
    sums = _row_sums(A, 2.0 * math.pi * hw)
    harmonic = float(np.sum(1.0 / n))
    head = 0.5 * float(np.sum(sums / n))
    f = np.modf(2.0 * hw)[0]
    closed = 0.5 * math.pi**2 * math.fsum((f * (1.0 - f)).tolist())
    inner = math.fsum((sums / (n * n)).tolist())
    allowance = (M + 8) * np.finfo(float).eps * (closed + inner)
    tail = 0.5 * max(closed - inner + allowance, 0.0)

    return 2.0 * _FOUR_OVER_PI**2 * (harmonic * head + scaled * tail)


def auto_truncation(y: float, T: float) -> tuple[int, int]:
    """Pick (k_max, n_max) for :func:`parseval_mean_square`.

    Measures the Parseval value at n_max = 64, then refines once so the
    reported error bound undercuts _REL_TARGET (1%) of that value whenever
    it exceeds 0.1.  k_max is always n_max * (number of rows M), so no
    retained pair is dropped.  Both passes cap n_max at MAX_COEFFICIENTS //
    M, a work budget of 2**25 pairs, and the budget wins for large M: it
    binds from (y, T) = (1, 600.5), the bound is 1.2% of the value at
    (1, 1000.5) and 6.6% at M = 29,000.
    """
    scaled, _, hw = rows(y, T)
    M = hw.size
    if M == 0:
        return 1, 1
    n1 = min(64, MAX_COEFFICIENTS // M)
    value, _ = parseval_mean_square(y, T, n1 * M, n1)
    if value <= 0.1:
        return n1 * M, n1
    # 0.9 safety margin keeps the refined bound clear of the target
    eps_target = 0.9 * (math.sqrt(value * (1.0 + _REL_TARGET)) - math.sqrt(value))
    n2 = 2 + int((8.0 / math.pi**2) * scaled / (eps_target * eps_target))
    n2 = min(max(n1, n2), MAX_COEFFICIENTS // M)
    return n2 * M, n2


def write_spectrum_csv(spectrum: FourierSpectrum, stream) -> None:
    """Rows ``k,c_k`` followed by a comment line with the truncation bound."""
    stream.write("k,c_k\n")
    for k in range(1, spectrum.k_max + 1):
        stream.write(f"{k},{float(spectrum.coeffs[k - 1])!r}\n")
    stream.write(f"# l2_truncation_bound={float(spectrum.l2_truncation_bound)!r}\n")


def read_spectrum_csv(stream) -> tuple[np.ndarray, float]:
    """Inverse of :func:`write_spectrum_csv`; returns (coeffs, l2 bound)."""
    header = stream.readline().strip()
    if header != "k,c_k":
        raise InvalidParameter(f"unexpected spectrum header {header!r}")
    coeffs = []
    bound = 0.0
    for lineno, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition("=")
                if key == "l2_truncation_bound":
                    bound = float(val)
                continue
            k_str, _, c_str = line.partition(",")
            k, c = int(k_str), float(c_str)
        except ValueError as exc:
            raise InvalidParameter(f"line {lineno}: malformed spectrum line {line!r}") from exc
        if k != len(coeffs) + 1:
            raise InvalidParameter(f"line {lineno}: non-contiguous frequency index {k}")
        coeffs.append(c)
    return np.asarray(coeffs), bound
