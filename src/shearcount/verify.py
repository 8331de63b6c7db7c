"""Self-verification suite behind the ``verify`` CLI subcommand.

Samples tie-free parameters with a named seedable generator (numpy PCG64)
and runs the package's cross-checks: the two counting oracles against each
other and against the closed-form decomposition, shear symmetries, the
closed form of the period mean and the pairwise mean square against the
breakpoint sweep, Parseval against the sweep, certificate domination, the
polygon identity, and the chord-sum integration-by-parts identity.  Any
failure reports the offending parameters so the case can be replayed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .formula import (
    chord_identity_residual,
    chord_length_sum,
    count_decomposition,
    inscribed_polygon_area,
)
from .fourier import mean_square_certificate, parseval_mean_square
from .lattice import ShearPoint, count_enumerate, count_rowslice
from .stats import mean_remainder_closed, mean_square_breakpoints, mean_square_pairwise


@dataclass
class VerifyCheck:
    name: str
    cases: int
    worst: float
    tol: float
    passed: bool
    detail: str = ""


def sample_tie_free_cases(
    rng: np.random.Generator, cases: int, tmax: float
) -> list[tuple[float, float, float, int, int]]:
    """(x, y, T, enumerate count, rowslice count) with y in [0.5, 4], T in
    (1, tmax], resampled until both counting methods report zero boundary
    ties; tmax must lie in (1, inf), which run_verification checks."""
    out = []
    while len(out) < cases:
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(0.5, 4.0))
        T = float(rng.uniform(1.0, tmax))
        if T <= 1.0:
            continue
        z = ShearPoint(x, y)
        rows = count_rowslice(z, T)
        if rows.ties:
            continue
        enum = count_enumerate(z, T)
        if enum.ties:
            continue
        out.append((x, y, T, enum.count, rows.count))
    return out


def run_verification(seed: int = 42, cases: int = 500, tmax: float = 150.0) -> list[VerifyCheck]:
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if cases < 0:
        raise InvalidParameter(f"cases must be >= 0, got {cases}")
    if not 1.0 < tmax < math.inf:
        raise InvalidParameter(f"tmax must satisfy 1 < tmax < inf, got {tmax}")
    rng = np.random.Generator(np.random.PCG64(seed))
    checks: list[VerifyCheck] = []
    if cases == 0:
        return checks
    results = [
        (x, y, T, enum, rows, count_decomposition(ShearPoint(x, y), T).total)
        for x, y, T, enum, rows in sample_tie_free_cases(rng, cases, tmax)
    ]

    def record(name, worst, tol, detail_on_fail=""):
        checks.append(VerifyCheck(name, len(results), worst, tol, worst <= tol, detail_on_fail))

    worst, bad = 0.0, ""
    for x, y, T, enum, rows, _ in results:
        d = abs(rows - enum)
        if d > worst:
            worst, bad = d, f"x={x!r} y={y!r} T={T!r} rowslice={rows} enumerate={enum}"
    record("oracle-equivalence", worst, 0.0, bad)

    worst, bad = 0.0, ""
    for x, y, T, enum, _, total in results:
        d = max(abs(total - round(total)), abs(round(total) - enum))
        if d > worst:
            worst, bad = d, f"x={x!r} y={y!r} T={T!r} total={total!r} enumerate={enum}"
    record("decomposition-identity", worst, 1e-6, bad)

    worst, bad = 0.0, ""
    for x, y, T, _, rows, _ in results:
        mirrored = count_rowslice(ShearPoint(-x, y), T).count
        shifted = count_rowslice(ShearPoint(x + 1.0, y), T).count
        d = max(abs(mirrored - rows), abs(shifted - rows))
        if d > worst:
            worst, bad = d, f"x={x!r} y={y!r} T={T!r}"
    record("shear-symmetry", worst, 0.0, bad)

    sub = results[:: max(1, len(results) // 25)]
    worst, bad = 0.0, ""
    worst_pw, bad_pw = 0.0, ""
    for x, y, T, *_ in sub:
        bp = mean_square_breakpoints(y, T)
        want = mean_remainder_closed(y, T)
        d = abs(bp.mean_remainder - want) / (1.0 + math.pi * T * T)
        if d > worst:
            worst, bad = d, f"y={y!r} T={T!r} sweep={bp.mean_remainder!r} closed={want!r}"
        pw = mean_square_pairwise(y, T)
        allowed = pw.error_bound + bp.error_bound
        d = abs(pw.mean_square - bp.mean_square) / allowed
        if d > worst_pw:
            worst_pw, bad_pw = d, (
                f"y={y!r} T={T!r} pairwise={pw.mean_square!r} sweep={bp.mean_square!r} allowed={allowed!r}"
            )
    checks.append(VerifyCheck("mean-closed-form", len(sub), worst, 1e-9, worst <= 1e-9, bad))
    checks.append(VerifyCheck("pairwise-vs-breakpoints", len(sub), worst_pw, 1.0, worst_pw <= 1.0, bad_pw))

    # Parseval, certificate: fresh small-radius cases so spectra stay cheap
    small = [(float(rng.uniform(0.5, 4.0)), float(rng.uniform(1.2, 30.0))) for _ in range(6)]
    spectral = [(y, T, *parseval_mean_square(y, T, 4096 * 32, 4096)) for y, T in small]
    worst, bad, ok = 0.0, "", True
    for y, T, value, err in spectral:
        rep = mean_square_breakpoints(y, T)
        exact = rep.mean_square - rep.mean_remainder**2
        d = abs(value - exact)
        if d > err:
            ok = False
            bad = f"y={y!r} T={T!r} parseval={value!r} exact={exact!r} bound={err!r}"
        worst = max(worst, d - err)
    checks.append(VerifyCheck("parseval-vs-breakpoints", len(small), max(worst, 0.0), 0.0, ok, bad))

    ok, bad = True, ""
    for y, T, value, _ in spectral:
        for cutoff in (2, 16, 128, 1024):
            cert = mean_square_certificate(y, T, cutoff)
            if value > cert:
                ok = False
                bad = f"y={y!r} T={T!r} cutoff={cutoff} parseval={value!r} certificate={cert!r}"
    checks.append(VerifyCheck("certificate-domination", len(small) * 4, 0.0 if ok else 1.0, 0.0, ok, bad))

    radii = [1, 2, 17, 100, 341]
    worst, bad = 0.0, ""
    for R in radii:
        a = inscribed_polygon_area(R)
        c = chord_length_sum(float(R))
        d = abs(a - c) / c
        if d > worst:
            worst, bad = d, f"radius={R} polygon={a!r} chord_sum={c!r}"
    checks.append(VerifyCheck("polygon-identity", len(radii), worst, 1e-9, worst <= 1e-9, bad))

    worst, bad = 0.0, ""
    for T in (5.0, 10.0, 50.0, 200.0):
        res, integral, bound = chord_identity_residual(T)
        d = abs(res)
        if not (0.0 <= integral <= bound):
            d = max(d, 1.0)
        if d > worst:
            worst, bad = d, f"T={T!r} residual={res!r} integral={integral!r} bound={bound!r}"
    checks.append(VerifyCheck("chord-sum-identity", 4, worst, 1e-8, worst <= 1e-8, bad))

    return checks


def format_table(checks: list[VerifyCheck]) -> str:
    lines = [f"{'check':<26} {'cases':>6} {'worst':>12} {'tol':>10}  status"]
    for c in checks:
        lines.append(
            f"{c.name:<26} {c.cases:>6} {c.worst:>12.3e} {c.tol:>10.0e}  {'PASS' if c.passed else 'FAIL'}"
        )
        if not c.passed and c.detail:
            lines.append(f"    failing case: {c.detail}")
    return "\n".join(lines)
