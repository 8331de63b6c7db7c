"""Command-line front end.

Subcommands: count, meansquare, sweep, spectrum, verify.  Exit codes:
0 success, 1 usage error, 2 boundary ties in a count, 3 range exceeded,
4 verification failure.  All floating output uses shortest round-trip
formatting; sweep output is byte-reproducible across worker counts.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import InvalidParameter, RangeExceeded
from .formula import COUNTERS
from .fourier import cosine_spectrum, write_spectrum_csv
from .lattice import ShearPoint
from .stats import INTEGRATORS, SweepConfig, sweep, write_sweep_csv
from .verify import format_table, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TIES = 2
EXIT_RANGE = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; remap to this tool's usage code
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="shearcount", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count lattice vectors of norm < radius")
    c.add_argument("--x", type=float, default=0.0, help="shear coordinate (mod 1)")
    c.add_argument("--y", type=float, required=True, help="shear height, > 0")
    c.add_argument("--radius", type=float, required=True, help="disk radius, > 0")
    c.add_argument("--method", choices=tuple(COUNTERS), default="rowslice")
    c.add_argument("--json", action="store_true", help="emit a JSON object instead of the bare count")

    m = sub.add_parser("meansquare", help="period mean square of the remainder at one (y, radius)")
    m.add_argument("--y", type=float, required=True)
    m.add_argument("--radius", type=float, required=True)
    m.add_argument("--integrator", choices=tuple(INTEGRATORS), default="pairwise")
    m.add_argument("--out", default=None, help="CSV destination (default: stdout)")

    s = sub.add_parser("sweep", help="mean-square reports over a (y, radius) grid")
    s.add_argument("--y", type=float, action="append", default=None, help="repeatable; default 1.0")
    s.add_argument("--radius-min", type=float, required=True)
    s.add_argument("--radius-max", type=float, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--log", action="store_true", help="log-spaced radii")
    s.add_argument("--integrator", choices=tuple(INTEGRATORS), default="pairwise")
    s.add_argument("--threads", type=int, default=None, help="worker count >= 1 (default: the CPUs this process may run on)")
    s.add_argument("--timing", action="store_true", help="record wall-clock ms per row (breaks byte reproducibility)")
    s.add_argument("--out", required=True)

    f = sub.add_parser("spectrum", help="cosine coefficients of the oscillatory part")
    f.add_argument("--y", type=float, required=True)
    f.add_argument("--radius", type=float, required=True)
    f.add_argument("--kmax", type=int, required=True)
    f.add_argument("--nmax", type=int, default=1024)
    f.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run the cross-check suite on seeded random cases")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--cases", type=int, default=500)
    v.add_argument("--tmax", type=float, default=150.0)

    return p


def _positive(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(f"{flag} must be a positive finite number, got {value}")
    return value


def _cmd_count(args) -> int:
    _positive(args.y, "--y")
    _positive(args.radius, "--radius")
    result = COUNTERS[args.method](ShearPoint(args.x, args.y), args.radius)
    if args.json:
        payload = {
            "count": result.count,
            "remainder": result.count - math.pi * args.radius**2,
            "ties": result.ties,
            "method": result.method,
        }
        if result.ties:
            payload["warning"] = "boundary ties detected; count ambiguous at this tolerance"
        print(json.dumps(payload))
    else:
        print(result.count)
        if result.ties:
            print(f"warning: {result.ties} boundary ties detected", file=sys.stderr)
    return EXIT_TIES if result.ties else EXIT_OK


def _cmd_meansquare(args) -> int:
    _positive(args.y, "--y")
    _positive(args.radius, "--radius")
    report = INTEGRATORS[args.integrator](args.y, args.radius)
    if args.out:
        with open(args.out, "w") as fh:
            write_sweep_csv([report], fh)
    else:
        write_sweep_csv([report], sys.stdout)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.samples < 0:
        raise _UsageError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > 0:
        _positive(args.radius_min, "--radius-min")
        _positive(args.radius_max, "--radius-max")
        if args.radius_min > args.radius_max:
            raise _UsageError("--radius-min must not exceed --radius-max")
    y_values = tuple(_positive(y, "--y") for y in args.y) if args.y else (1.0,)
    config = SweepConfig(
        y_values=y_values,
        radius_min=args.radius_min,
        radius_max=args.radius_max,
        samples=args.samples,
        log_spaced=args.log,
        integrator=args.integrator,
    )
    reports = sweep(config, threads=args.threads)
    try:
        with open(args.out, "w") as fh:
            write_sweep_csv(reports, fh, include_timing=args.timing)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failed = [r for r in reports if r.error]
    if reports and len(failed) == len(reports):
        print("error: every sweep row failed; see the error column", file=sys.stderr)
        return EXIT_RANGE if any(r.error_class is RangeExceeded for r in failed) else EXIT_USAGE
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    _positive(args.y, "--y")
    _positive(args.radius, "--radius")
    if args.kmax < 1:
        raise _UsageError(f"--kmax must be >= 1, got {args.kmax}")
    if args.nmax < 1:
        raise _UsageError(f"--nmax must be >= 1, got {args.nmax}")
    spectrum = cosine_spectrum(args.y, args.radius, args.kmax, args.nmax)
    if args.out:
        with open(args.out, "w") as fh:
            write_spectrum_csv(spectrum, fh)
    else:
        write_spectrum_csv(spectrum, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.cases < 0:
        raise _UsageError(f"--cases must be >= 0, got {args.cases}")
    if not 1.0 < args.tmax < math.inf:
        raise _UsageError(f"--tmax must satisfy 1 < tmax < inf, got {args.tmax}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.cases == 0:
        print("warning: 0 cases requested; verification is vacuous")
        return EXIT_OK
    checks = run_verification(seed=args.seed, cases=args.cases, tmax=args.tmax)
    print(format_table(checks))
    if all(c.passed for c in checks):
        print(f"all {len(checks)} checks passed ({args.cases} cases, seed {args.seed})")
        return EXIT_OK
    return EXIT_VERIFY


_COMMANDS = {
    "count": _cmd_count,
    "meansquare": _cmd_meansquare,
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RangeExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
