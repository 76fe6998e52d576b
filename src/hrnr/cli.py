"""Command-line front end.

Commands: range, radius, shift, verify-shift, verify-nilpotent,
verify-properties.  The verify commands print the reports of the
verification core in :mod:`hrnr.checks`.  Exit codes: 0 all good, 1 a
mathematical property was violated or the LAPACK eigensolver failed to
converge, 2 input or usage error (an output file that cannot be written
included).  Angle counts resolve as ``--angles`` > ``HRNR_ANGLES`` env
var > per-command default (720 for range, radius and verify-properties;
2048 for verify-shift and verify-nilpotent); a count too large to
allocate is an input error too (exit 2).  Randomised commands draw from
numpy's PCG64 stream seeded with ``--seed``, so runs reproduce exactly.
``range --out`` writes the region as JSON, or, for a path ending in
``.npz``, the same members (``fileio.region_to_obj``) with ``np.savez``.

``range`` and ``radius`` call the library's entry points,
``ranges.rank_k_range`` and ``ranges.numerical_radius``, on the angle count
resolved here.  The library checks the rank, for ``verify-properties``
too; its ``BadRankError`` is a ValueError, as is the CLI's own
``UsageError``, and ``main`` maps every ValueError to exit 2.

The argument parser is built once per process, at the first ``main`` call,
and reused: parsing keeps no state in it, and each ``cmd_*`` function
looks up the engine, ``fileio`` and ``checks`` functions it calls at call
time, so a wrapper installed on those module attributes sees every call.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import checks, fileio, ranges, shifts
from .ranges import VERIFY_ANGLES, resolve_angles

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad input at the CLI level (maps to exit code 2, as every ValueError)."""


def _emit(text: str, out) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(str(exc)) from exc


def cmd_range(args) -> int:
    t = fileio.load_matrix(args.input)
    m = resolve_angles(args.angles)
    if args.ref_radius is not None and not np.isfinite(args.ref_radius):
        raise UsageError(f"--ref-radius must be finite, got {args.ref_radius}")
    report = ranges.rank_k_range(t, args.k, m)
    obj = fileio.region_to_obj(report)
    if args.out and args.out.endswith(".npz"):
        try:
            np.savez(args.out, **obj)
        except OSError as exc:
            raise UsageError(str(exc)) from exc
    else:
        _emit(fileio.dumps_json(obj), args.out)
    if args.svg:
        _emit(fileio.region_svg(report.region, args.ref_radius), args.svg)
    return EXIT_OK


def cmd_radius(args) -> int:
    t = fileio.load_matrix(args.input)
    m = resolve_angles(args.angles)
    print(repr(ranges.numerical_radius(t, m)))
    return EXIT_OK


def cmd_shift(args) -> int:
    if args.n < 1:
        raise UsageError(f"shift dimension must be >= 1, got {args.n}")
    _emit(fileio.dumps_json(fileio.matrix_to_obj(shifts.shift_matrix(args.n))), args.out)
    return EXIT_OK


def _line(rep: checks.PropertyReport) -> str:
    status = "pass" if rep.passed else "FAIL"
    line = (f"{rep.property_id:9s} {status}  discrepancy={rep.discrepancy:.3e}  "
            f"tolerance={rep.tolerance:.3e}  [{rep.digest}]")
    if rep.note:
        line += f"  {rep.note}"
    return line


def cmd_verify_shift(args) -> int:
    if args.max_n < 2:
        raise UsageError(f"--max-n must be >= 2, got {args.max_n}")
    m = resolve_angles(args.angles, VERIFY_ANGLES)
    reports = [checks.check_shift(n, m) for n in range(2, args.max_n + 1)]
    failures = [rep for rep in reports if not rep.passed]
    if failures:
        print(f"{len(failures)} mismatches:")
        for rep in failures:
            print(f"  {_line(rep)}")
        return EXIT_VIOLATION
    cases = sum(n for n in range(2, args.max_n + 1))
    print(f"verify-shift: {cases} (n, k) cases up to n={args.max_n} "
          f"match the closed form at {m} angles")
    return EXIT_OK


def cmd_verify_nilpotent(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if args.r_hint is not None and not 1 <= args.r_hint <= args.n:
        raise UsageError(f"--r-hint must be in 1..{args.n}")
    m = resolve_angles(args.angles, VERIFY_ANGLES)
    rng = checks.generator(args.seed)
    failures = []
    equalities = 0
    for trial in range(args.trials):
        t = checks.nilpotent_instance(args.n, args.r_hint, rng)
        for rep in checks.check_nilpotent(t, m):
            if not rep.passed:
                failures.append((trial, rep))
            elif "equality" in rep.note:
                equalities += 1
    if failures:
        print(f"{len(failures)} violations (seed {args.seed}):")
        for trial, rep in failures:
            print(f"  trial {trial}: {_line(rep)}")
        return EXIT_VIOLATION
    print(f"verify-nilpotent: {args.trials} trials at dim {args.n} pass "
          f"(seed {args.seed}, {m} angles, {equalities} radius-bound equalities)")
    return EXIT_OK


def cmd_verify_properties(args) -> int:
    t = fileio.load_matrix(args.input)
    m = resolve_angles(args.angles)
    reports = checks.property_suite(t, args.k, m, checks.generator(args.seed))
    for rep in reports:
        print(_line(rep))
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process (built at the first call).  Callers
    share it, so none may change it."""
    parser = argparse.ArgumentParser(
        prog="hrnr",
        description="Higher-rank numerical ranges via pencil eigenvalue sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("range", help="compute a rank-k range from a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--angles", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--ref-radius", type=float, default=None)
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("radius", help="numerical radius of a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--angles", type=int, default=None)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("shift", help="write the n-dimensional shift matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("verify-shift",
                       help="engine vs closed-form shift ranges for all n, k")
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--angles", type=int, default=None)
    p.set_defaults(func=cmd_verify_shift)

    p = sub.add_parser("verify-nilpotent",
                       help="dilation residuals, disc inclusion and radius bound "
                            "on random nilpotent contractions")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--r-hint", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--angles", type=int, default=None)
    p.set_defaults(func=cmd_verify_nilpotent)

    p = sub.add_parser("verify-properties",
                       help="run the applicable property checks on a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--angles", type=int, default=None)
    p.set_defaults(func=cmd_verify_properties)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first; every
    # other input error (bad rank, shape, file, a UsageError, ...) is a
    # ValueError, and numpy refuses an array too large to allocate, such as
    # the grid of an angle count of 10^15, with a MemoryError before
    # touching memory
    except np.linalg.LinAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
