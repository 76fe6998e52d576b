"""Command-line front end.

Commands: range, radius, shift, verify-shift, verify-nilpotent,
verify-properties.  Exit codes: 0 all good, 1 a mathematical property was
violated or the LAPACK eigensolver failed to converge, 2 input or usage
error.  Angle counts resolve as
``--angles`` > ``HRNR_ANGLES`` env var > per-command default (720
interactive, 2048 for the verify suites).  Randomised commands draw from
numpy's PCG64 stream seeded with ``--seed``, so runs reproduce exactly.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import checks, fileio, shifts
from .geometry import EmptyRegionError
from .linalg import DimensionError, NotHermitianError, hermitian_eig, is_hermitian
from .ranges import (
    DEFAULT_ANGLES,
    MIN_ANGLES,
    VERIFY_ANGLES,
    BadRankError,
    default_angles,
    pencil_sweep,
    range_from_sweep,
)

RADIUS_MATCH_TOL = 5e-6
INCLUSION_TOL = 5e-6
HAAGERUP_TOL = 1e-6
RESIDUAL_TOL = 1e-10

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad input at the CLI level (maps to exit code 2)."""


def _resolve_angles(cli_value, suite_default: int) -> int:
    # a malformed HRNR_ANGLES raises ValueError, which main maps to exit 2
    m = default_angles(suite_default) if cli_value is None else int(cli_value)
    if m < MIN_ANGLES:
        raise UsageError(f"angle count must be >= {MIN_ANGLES}, got {m}")
    return m


def _load(path):
    try:
        return fileio.load_matrix(path)
    except fileio.MatrixFileError as exc:
        raise UsageError(str(exc))


def cmd_range(args) -> int:
    t = _load(args.input)
    m = _resolve_angles(args.angles, DEFAULT_ANGLES)
    if not 1 <= args.k <= t.shape[0]:
        raise UsageError(f"k must be in 1..{t.shape[0]}, got {args.k}")
    report = range_from_sweep(pencil_sweep(t, m), args.k)
    text = fileio.dumps_json(fileio.region_to_obj(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        fileio.save_svg(args.svg, report.region, args.ref_radius)
    return EXIT_OK


def cmd_radius(args) -> int:
    t = _load(args.input)
    m = _resolve_angles(args.angles, DEFAULT_ANGLES)
    print(repr(pencil_sweep(t, m).numerical_radius()))
    return EXIT_OK


def cmd_shift(args) -> int:
    if args.n < 1:
        raise UsageError(f"shift dimension must be >= 1, got {args.n}")
    s = shifts.shift_matrix(args.n)
    text = fileio.dumps_json(fileio.matrix_to_obj(s))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify_shift(args) -> int:
    if args.max_n < 2:
        raise UsageError(f"--max-n must be >= 2, got {args.max_n}")
    m = _resolve_angles(args.angles, VERIFY_ANGLES)
    failures = []
    for n in range(2, args.max_n + 1):
        sweep = pencil_sweep(shifts.shift_matrix(n), m)
        for k in range(1, n + 1):
            report = range_from_sweep(sweep, k)
            closed = shifts.closed_form_shift_range(n, k)
            region = report.region
            if closed.tag == "empty":
                ok = region.is_empty
                detail = f"want empty, engine tag {region.kind}"
            elif closed.tag == "point":
                ok = region.kind == "point" and abs(region.vertices[0]) <= RADIUS_MATCH_TOL
                detail = f"want point at 0, engine tag {region.kind}"
            else:
                if region.kind != "polygon":
                    ok = False
                    detail = f"want disc, engine tag {region.kind}"
                else:
                    dmax = abs(region.max_modulus() - closed.radius)
                    dmin = abs(report.min_support() - closed.radius)
                    ok = max(dmax, dmin) <= RADIUS_MATCH_TOL
                    detail = (f"radius {closed.radius:.8f}: vertex dev {dmax:.2e}, "
                              f"support dev {dmin:.2e}")
            if not ok:
                failures.append((n, k, detail))
    if failures:
        print(f"{len(failures)} mismatches:")
        for n, k, detail in failures:
            print(f"  n={n:3d} k={k:3d}  {detail}")
        return EXIT_VIOLATION
    cases = sum(n for n in range(2, args.max_n + 1))
    print(f"verify-shift: {cases} (n, k) cases up to n={args.max_n} "
          f"match the closed form at {m} angles")
    return EXIT_OK


def _nilpotent_instance(dim, r_hint, rng):
    if r_hint is None:
        norm = 1.0 if rng.uniform() < 0.5 else None
        return checks.random_nilpotent_contraction(dim, rng, norm=norm)
    # direct sum of r_hint unit-norm shift blocks, hidden by a random unitary;
    # the defect rank of the result is exactly r_hint
    sizes = np.full(r_hint, dim // r_hint)
    sizes[: dim % r_hint] += 1
    blocks = np.zeros((dim, dim), dtype=np.complex128)
    at = 0
    for size in sizes:
        blocks[at:at + size, at:at + size] = shifts.shift_matrix(size)
        at += size
    u = checks.random_unitary(dim, rng)
    return u.conj().T @ blocks @ u


def cmd_verify_nilpotent(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if args.r_hint is not None and not 1 <= args.r_hint <= args.n:
        raise UsageError(f"--r-hint must be in 1..{args.n}")
    m = _resolve_angles(args.angles, VERIFY_ANGLES)
    rng = checks.generator(args.seed)
    failures = []
    equalities = 0
    for trial in range(args.trials):
        t = _nilpotent_instance(args.n, args.r_hint, rng)
        pack = shifts.build_dilation(t)
        d = t.shape[0]
        if max(pack.isometry_residual, pack.intertwine_residual) > RESIDUAL_TOL * d:
            failures.append((trial, "dilation residuals "
                             f"{pack.isometry_residual:.2e}/{pack.intertwine_residual:.2e}"))
            continue
        sweep = pencil_sweep(t, m)
        half = (pack.n + 1) // 2
        for k in range(1, d + 1):
            p = shifts.rho(k, pack.r)
            if p > half:
                continue
            region = range_from_sweep(sweep, k).region
            if region.is_empty:
                continue
            bound = float(np.cos(p * np.pi / (pack.n + 1)))
            excess = region.max_modulus() - bound
            if excess > INCLUSION_TOL:
                failures.append((trial, f"k={k}: vertex modulus exceeds "
                                 f"cos({p}pi/{pack.n + 1}) by {excess:.2e}"))
        radius = sweep.numerical_radius()
        bound = shifts.spectral_norm(t) * float(np.cos(np.pi / (pack.n + 1)))
        if radius > bound + HAAGERUP_TOL:
            failures.append((trial, f"radius {radius:.8f} exceeds bound {bound:.8f}"))
        elif bound - radius <= HAAGERUP_TOL:
            equalities += 1
    if failures:
        print(f"{len(failures)} violations (seed {args.seed}):")
        for trial, detail in failures:
            print(f"  trial {trial}: {detail}")
        return EXIT_VIOLATION
    print(f"verify-nilpotent: {args.trials} trials at dim {args.n} pass "
          f"(seed {args.seed}, {m} angles, {equalities} radius-bound equalities)")
    return EXIT_OK


def cmd_verify_properties(args) -> int:
    t = _load(args.input)
    d = t.shape[0]
    if not 1 <= args.k <= d:
        raise UsageError(f"k must be in 1..{d}, got {args.k}")
    m = _resolve_angles(args.angles, DEFAULT_ANGLES)
    rng = checks.generator(args.seed)
    k = args.k
    # a positive real scale keeps the affine check exact on the grid even
    # for degenerate (segment or point) ranges; rotations are exercised
    # by the randomised suites on full-dimensional ranges
    a = complex(rng.uniform(0.5, 2.5), 0.0)
    b = 0.5 * complex(rng.normal(), rng.normal())
    reports = [
        checks.check_affine(t, k, a, b, m=m),
        checks.check_adjoint(t, k, m=m),
        checks.check_direct_sum(t, t, k, m=m),
        checks.check_unitary(t, checks.random_unitary(d, rng), k, m=m),
        checks.check_compression(t, checks.random_isometry(d, max(k, d - 1), rng), k, m=m),
        checks.check_nesting(t, min(d, 3), m=m),
    ]
    if is_hermitian(t):
        oracle = checks.hermitian_oracle(hermitian_eig(t).values, k)
        engine = range_from_sweep(pencil_sweep(t, m), k).region
        disc = checks._set_distance(engine, oracle)
        reports.append(checks._report("HERMITIAN", disc, 1e-6, f"dim={d} k={k}"))
    else:
        try:
            eigs = checks.normal_eigenvalues(t)
        except ValueError:
            eigs = None
        if eigs is not None and 2 <= d <= checks.NORMAL_ORACLE_MAX_DIM:
            oracle = checks.normal_oracle(eigs, k)
            engine = range_from_sweep(pencil_sweep(t, m), k).region
            disc = checks._set_distance(engine, oracle)
            # polygonal ranges protrude linearly in the grid spacing near
            # facet normals, so the floor scales with radius * tan(pi/m)
            tol = max(1e-4, 12.0 * float(np.abs(eigs).max()) * np.tan(np.pi / m))
            reports.append(checks._report("NORMAL", disc, tol, f"dim={d} k={k} m={m}"))
    all_ok = True
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        line = (f"{rep.property_id:9s} {status}  discrepancy={rep.discrepancy:.3e}  "
                f"tolerance={rep.tolerance:.3e}  [{rep.digest}]")
        if rep.note:
            line += f"  {rep.note}"
        print(line)
        all_ok &= rep.passed
    return EXIT_OK if all_ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # LinAlgError subclasses ValueError, so it must be caught first
    except np.linalg.LinAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (BadRankError, DimensionError, NotHermitianError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
