"""Workload inputs, op schedules and per-op reference checks.

Inputs are generated by this module from the seed with numpy's PCG64
stream, never by the program under test.  Every base matrix is scaled to
spectral norm 1, so an input ``s * T0`` has norm ``s`` and every
documented tolerance is applied as ``tol * s``.  References are
evaluated on ``T0`` and scaled by ``s``, which is exact because
``Lambda_k(s T) = s Lambda_k(T)`` for ``s > 0``.

A workload is a fixed cycle of ops.  The seed chooses matrix entries and
scale jitter but not the cycle's structure, so every seed measures the
same mix of op kinds, sizes and ranks.  Set-up draws several variants of
the cycle and successive cycles take successive variants, so one run
averages several draws of every slot.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs

KINDS = ("shift", "gauss", "herm", "normal", "nilpotent")
DEFAULT_ANGLES = 720      # the CLI default, used by passing no --angles flag



# ---------------------------------------------------------------------------
# inputs

def _unit(t: np.ndarray) -> np.ndarray:
    return t / np.linalg.norm(t, 2)


def _gaussian(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _unitary(rng, n):
    q, r = np.linalg.qr(_gaussian(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def shift(n: int) -> np.ndarray:
    t = np.zeros((n, n), dtype=np.complex128)
    t[np.arange(1, n), np.arange(n - 1)] = 1.0
    return t


@dataclass
class Matrix:
    kind: str
    t0: np.ndarray            # unit spectral norm
    scale: float = 1.0
    eigs: np.ndarray | None = None   # normal kinds: eigenvalues of t0

    @property
    def t(self) -> np.ndarray:
        return self.scale * self.t0

    @property
    def n(self) -> int:
        return self.t0.shape[0]

    def unit(self) -> "Matrix":
        return Matrix(self.kind, self.t0, 1.0, self.eigs)


def make_matrix(kind: str, n: int, rng, scale: float = 1.0, hidden: bool = True) -> Matrix:
    if kind == "shift":
        return Matrix(kind, shift(n), scale)
    if kind == "gauss":
        return Matrix(kind, _unit(_gaussian(rng, n)), scale)
    if kind == "herm":
        a = _gaussian(rng, n)
        return Matrix(kind, _unit(a + a.conj().T), scale)
    if kind == "normal":
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d /= np.abs(d).max()
        if not hidden:
            return Matrix(kind, np.diag(d), scale, eigs=d)
        u = _unitary(rng, n)
        return Matrix(kind, u @ np.diag(d) @ u.conj().T, scale, eigs=d)
    if kind == "nilpotent":
        return Matrix(kind, _unit(np.tril(_gaussian(rng, n), -1)), scale)
    raise ValueError(kind)


def hermitian_diag(rng, n: int) -> Matrix:
    d = rng.normal(size=n)
    return Matrix("herm", np.diag(d / np.abs(d).max()).astype(np.complex128))


def allowed_ranks(kind: str, n: int) -> list[int]:
    """Ranks with a reference.  Closed forms cover every k, empty ranges
    included; the grid reference needs a non-empty range, which Li and
    Sze guarantee for n >= 3k - 2; the normal oracle stops at n = 8, past
    which only the k = 1 eigenvalue hull is used."""
    if kind in ("shift", "herm"):
        return list(range(1, n + 1))
    if kind == "normal":
        return list(range(1, n + 1)) if n <= 8 else [1]
    return list(range(1, (n + 2) // 3 + 1))


def write_matrix(path: str, t: np.ndarray) -> None:
    """The package's matrix file: rows of [re, im] pairs.  json.dumps runs
    the C encoder, where json.dump to a file streams through the Python
    one at several times the cost, which set-up would carry."""
    data = np.stack([t.real, t.imag], axis=-1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": int(t.shape[0]), "data": data}))


# ---------------------------------------------------------------------------
# references

def region_verdict(mat: Matrix, k: int, m: int, kind: str, verts: np.ndarray) -> refs.Verdict:
    """Check one engine region for ``mat.t`` at rank k on m angles."""
    s, n = mat.scale, mat.n
    verts = np.asarray(verts, dtype=np.complex128)
    if mat.kind == "shift":
        if k > (n + 1) // 2:
            return refs.compare(kind, verts, ref_empty=True, tol=refs.RADIUS_TOL * s)
        r = float(np.cos(k * np.pi / (n + 1)))
        if 2 * k == n + 1:
            return refs.compare(kind, verts, ref_verts=np.zeros(1), tags=("point",),
                                tol=refs.RADIUS_TOL * s)
        # circumscribed m-gon of the disc: vertices at r sec(pi/m)
        return refs.compare(kind, verts, ref_radius=s * r, tags=("polygon",),
                            tol=refs.RADIUS_TOL * s,
                            outer_slack=s * r * (1.0 / np.cos(np.pi / m) - 1.0))
    if mat.kind == "herm":
        lam = np.linalg.eigvalsh(mat.t0)
        lo, hi = lam[k - 1], lam[n - k]
        tol = refs.HERMITIAN_TOL * s
        if k - 1 > n - k:
            return refs.compare(kind, verts, ref_empty=True, tol=tol)
        if k - 1 == n - k:
            return refs.compare(kind, verts, ref_verts=np.array([s * lo]), tags=("point",), tol=tol)
        return refs.compare(kind, verts, ref_verts=s * np.array([lo, hi], dtype=complex),
                            tags=("segment",), tol=tol)
    if mat.kind == "normal":
        return _normal_verdict(mat, k, m, kind, verts)
    # gauss, nilpotent: the intersection of the grid half-planes from LAPACK
    # pencil spectra, which Li and Sze guarantee non-empty for the ranks used
    tol = refs.RADIUS_TOL * s
    grid = _grid_reference(mat, m, k)
    if grid is None:
        return refs.broken("reference planes have no interior point")
    verdict = refs.compare(kind, verts, ref_verts=s * grid, tol=tol)
    if mat.kind == "nilpotent":
        # Haagerup: w(T) <= ||T|| cos(pi/(n+1)); the circumscribed polygon
        # may exceed the radius by the factor sec(pi/m)
        bound = s * np.cos(np.pi / (n + 1)) / np.cos(np.pi / m)
        verdict = refs.worst(verdict, refs.compare_value(
            float(np.abs(verts).max()), bound, refs.RADIUS_TOL * s,
            "vertex modulus vs Haagerup disc", one_sided=True))
    return verdict


def _grid_reference(mat: Matrix, m: int, k: int):
    """Vertices of the intersection of the m grid half-planes of ``mat.t0``
    from LAPACK pencil spectra, or None when it has no interior."""
    thetas = 2.0 * np.pi * np.arange(m) / m
    offsets = refs.pencil_offsets(mat.t0, m, k)
    center = refs.interior_point(thetas, offsets, bound=2.0)
    return None if center is None else refs.grid_polygon(thetas, offsets, center)


def _normal_verdict(mat: Matrix, k: int, m: int, kind: str, verts: np.ndarray) -> refs.Verdict:
    """The exact range of a normal input is the normal oracle's (n <= 8) or
    the eigenvalue hull (k = 1).  The engine returns the intersection of the
    m grid half-planes, which contains it and exceeds it near its corners,
    by more than 1e-4 at a sharp corner even at m = 65536.  So where that
    intersection has an interior, the engine region is compared with it,
    and the exact range must lie inside the engine region; both at 1e-4."""
    s, n = mat.scale, mat.n
    if n <= 8:
        from hrnr.checks import normal_oracle
        oracle = normal_oracle(mat.eigs, k)
        exact = None if oracle.is_empty else oracle.vertices
        tags = None
    else:
        exact, tags = refs.hull(mat.eigs), ("polygon",)
    grid = _grid_reference(mat, m, k)
    if grid is not None:
        tol = refs.NORMAL_TOL * s
        verdict = refs.compare(kind, verts, ref_verts=s * grid, tags=tags, tol=tol)
        if exact is None:
            return verdict
        return refs.worst(verdict, refs.compare(kind, verts, ref_verts=s * exact, tol=tol,
                                                outer_slack=np.inf))
    # No interior on the grid: the range is empty, a point or a segment,
    # compared with the exact range under the grid allowance of
    # verify-properties, or criterion 6's 1e-4 at m = 65536.
    if m >= 65536:
        tol = refs.NORMAL_TOL * s
    else:
        tol = max(refs.NORMAL_TOL, refs.NORMAL_GRID_FACTOR * np.tan(np.pi / m)) * s
    if exact is None:
        return refs.compare(kind, verts, ref_empty=True, tol=tol)
    # an exact point or segment is a small polygon on a finite grid,
    # so only emptiness and distance are compared (as in criterion 6)
    return refs.compare(kind, verts, ref_verts=s * exact, tags=tags, tol=tol)


def radius_verdict(mat: Matrix, m: int, value: float) -> refs.Verdict:
    s, n = mat.scale, mat.n
    tol = refs.RADIUS_TOL * s
    lapack = float(refs.pencil_offsets(mat.t0, m, 1).max())
    checks = [refs.compare_value(value, s * lapack, tol, "radius vs LAPACK")]
    if mat.kind == "shift":
        checks.append(refs.compare_value(value, s * np.cos(np.pi / (n + 1)), tol,
                                         "radius vs closed form"))
    elif mat.kind == "herm":
        checks.append(refs.compare_value(value, s * np.abs(np.linalg.eigvalsh(mat.t0)).max(),
                                         tol, "radius vs spectral radius"))
    elif mat.kind == "nilpotent":
        checks.append(refs.compare_value(value, s * np.cos(np.pi / (n + 1)),
                                         refs.HAAGERUP_TOL * s, "radius vs Haagerup bound",
                                         one_sided=True))
    return refs.worst(*checks)


# ---------------------------------------------------------------------------
# ops

@dataclass
class Op:
    """One timed call.  ``call`` runs inside the timed span and returns the
    raw output; ``collect`` turns it into something hashable outside the
    span; ``check`` maps a collected output to a verdict.

    ``unit_check`` runs the same command on a file of the unit-norm input
    and checks that.  The geometry layer decides tags and prunes vertices
    with absolute thresholds (POINT_DIAM, SEGMENT_THICKNESS,
    COLLINEAR_CROSS), so the engine is not scale-equivariant: a region or
    tolerance mismatch on s * T0 whose unit-scale twin passes is that known
    defect.  It counts in `failed`, named, but does not make the run
    incorrect."""

    name: str
    call: Callable[[], object]
    collect: Callable[[object], object]
    check: Callable[[object], refs.Verdict]
    unit_check: Callable[[], refs.Verdict] | None = None


def run_cli(argv):
    """hrnr.cli.main with captured output; looked up at call time so a
    traced run sees the wrapped entry point."""
    import hrnr.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hrnr.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _range_cli(mat, k, m, path, out_path, svg_path):
    """call, collect and check of `range --out` on one matrix file."""
    argv = ["range", "--input", path, "--k", str(k), "--out", out_path]
    if m != DEFAULT_ANGLES:
        argv += ["--angles", str(m)]
    if svg_path:
        argv += ["--svg", svg_path]

    def call():
        for p in (out_path, svg_path):
            if p and os.path.exists(p):
                os.remove(p)
        return run_cli(argv)

    def collect(raw):
        """The region file reduced to what the check needs, so the outputs
        held until the check do not weigh on peak_rss_mb."""
        rc, _, err = raw
        text = _read(out_path)
        if rc != 0 or text is None:
            return rc, err.strip()[:120]
        obj = json.loads(text)
        svg = _read(svg_path) if svg_path else None
        verts = np.array(obj["vertices"], dtype=float).reshape(-1, 2)
        return (rc, obj["tag"], obj["k"], obj["angles"], verts.tobytes(),
                svg is not None and svg.startswith("<svg"))

    def check(res):
        if len(res) == 2:
            return refs.broken(f"exit {res[0]}: {res[1]}")
        _, tag, k_out, m_out, blob, svg_ok = res
        if svg_path and not svg_ok:
            return refs.broken("svg missing or malformed")
        if (k_out, m_out) != (k, m):
            return refs.broken(f"region file says k={k_out} m={m_out}")
        xy = np.frombuffer(blob).reshape(-1, 2)
        return region_verdict(mat, k, m, tag, xy[:, 0] + 1j * xy[:, 1])

    return call, collect, check


def _radius_cli(mat, m, path):
    """call, collect and check of `radius` on one matrix file."""
    argv = ["radius", "--input", path]
    if m != DEFAULT_ANGLES:
        argv += ["--angles", str(m)]

    def check(res):
        rc, out, err = res
        if rc != 0:
            return refs.broken(f"exit {rc}: {err.strip()[:120]}")
        try:
            value = float(out.strip())
        except ValueError:
            return refs.broken(f"radius printed as {out.strip()[:60]!r}")
        return radius_verdict(mat, m, value)

    return (lambda: run_cli(argv)), (lambda raw: raw), check


def _with_twin(name, scaled, unit, write_unit):
    """An op from the (call, collect, check) of the scaled input, with the
    same three for the unit-norm file as its unit_check.  Only failing ops
    need the twin, so its file is written by ``write_unit`` when it runs."""
    call, collect, check = unit

    def unit_check():
        write_unit()
        return check(collect(call()))

    return Op(name, *scaled, unit_check=unit_check)


def interactive(rng, work: str, variant: int) -> list[Op]:
    """CLI `range`/`radius` on matrix files: five kinds, n in {4, 8, 16, 32},
    720 angles (the default) and 2048 for n <= 16, every matrix scaled by
    a factor spread over 1e-8..1e8.  A slot's rank steps through its
    allowed ranks from one variant to the next, so every seed covers the
    same ranks, empty ranges included."""
    plan = []
    for n in (4, 8):
        for kind in KINDS:
            plan += [(kind, n, "range", DEFAULT_ANGLES, False),
                     (kind, n, "range", 2048, True),
                     (kind, n, "radius", DEFAULT_ANGLES, False)]
    n16 = [("range", DEFAULT_ANGLES, False), ("range", 2048, True),
           ("radius", DEFAULT_ANGLES, False), ("range", DEFAULT_ANGLES, False),
           ("radius", 2048, False)]
    plan += [(kind, 16, *spec) for kind, spec in zip(KINDS, n16)]
    plan.append((KINDS[variant % len(KINDS)], 32, "range", DEFAULT_ANGLES, False))
    # the cycle's scale strata are fixed; the seed only jitters within one
    slots = len(plan)
    ops = []
    for i, (kind, n, what, m, svg) in enumerate(plan):
        stratum = (i * 13) % slots
        scale = 10.0 ** (-8.0 + 16.0 * (stratum + rng.uniform()) / slots)
        mat = make_matrix(kind, n, rng, scale)
        if what == "range":
            ranks = allowed_ranks(kind, n)
            k = ranks[(variant + i) % len(ranks)]
            name = f"range {kind} n={n} k={k} m={m} s={scale:.1e}"
        else:
            name = f"radius {kind} n={n} m={m} s={scale:.1e}"
        paths = {tag: os.path.join(work, f"{tag}in{variant}-{i:02d}.json")
                 for tag in ("", "unit-")}
        write_matrix(paths[""], mat.t)
        twins = []     # the scaled input, then its unit-norm twin, each in its own files
        for tag, each in (("", mat), ("unit-", mat.unit())):
            if what == "range":
                out = os.path.join(work, f"{tag}out{i:02d}")
                twins.append(_range_cli(each, k, m, paths[tag], out + ".json",
                                        out + ".svg" if svg else None))
            else:
                twins.append(_radius_cli(each, m, paths[tag]))
        ops.append(_with_twin(name, *twins,
                              functools.partial(write_matrix, paths["unit-"], mat.t0)))
    return ops


def _sweep_op(name, mat, m):
    ks = [k for k in allowed_ranks(mat.kind, mat.n) if k <= 3]
    t = mat.t

    def call():
        from hrnr import ranges
        sweep = ranges.pencil_sweep(t, m)
        return [ranges.range_from_sweep(sweep, k) for k in ks]

    def collect(reports):
        return tuple((r.region.kind, r.region.vertices.tobytes()) for r in reports)

    def check(res):
        verdicts = []
        for k, (kind, blob) in zip(ks, res):
            v = region_verdict(mat, k, m, kind, np.frombuffer(blob, dtype=np.complex128))
            if not v.ok:
                v = dataclasses.replace(v, reason=f"k={k}: {v.reason}")
            verdicts.append(v)
        return refs.worst(*verdicts)

    return Op(name, call, collect, check)


# Smooth cells of fine_grid: (kind, n, m).  Every n in {4, 6, 8} runs at
# m = 8192; an op at m = 16384 costs 2-4 s with the current geometry, so
# one cell stands for it and the cycle stays short enough for three a run.
SMOOTH_CELLS = (("shift", 4, 8192), ("gauss", 6, 8192), ("shift", 8, 8192),
                ("gauss", 4, 16384))


def fine_grid(rng, work: str, variant: int) -> list[Op]:
    """Library sweeps, each followed by range_from_sweep for k = 1..min(n, 3)
    (Gaussian ranks stop at (n+2)/3, where the range is non-empty): smooth
    shift/Gaussian cases, where every plane is active, and faceted or
    degenerate diagonal cases at m = 65536."""
    ops = []
    for kind, n, m in SMOOTH_CELLS:
        ops.append(_sweep_op(f"sweep {kind} n={n} m={m}", make_matrix(kind, n, rng), m))
    for n in (5, 6):
        ops.append(_sweep_op(f"sweep normal-diag n={n} m=65536",
                             make_matrix("normal", n, rng, hidden=False), 65536))
    ops.append(_sweep_op("sweep herm-diag n=5 m=65536", hermitian_diag(rng, 5), 65536))
    return ops


VERIFY_KINDS = ("gauss", "normal", "herm", "shift")


def _verify_op(name, argv, expect):
    def check(res):
        rc, out, err = res
        if rc != 0:
            bad = [ln for ln in out.splitlines() if "FAIL" in ln or "violation" in ln]
            return refs.broken(f"exit {rc}: {(bad or [err.strip()])[0][:160]}")
        return expect(out)

    return Op(name, lambda: run_cli(argv), lambda raw: raw, check)


def _expect_properties(ids):
    """Every applicable property holds for every matrix, so each line must
    pass; the ratio is the largest discrepancy / tolerance the lines report."""
    def expect(out):
        lines = [ln.split() for ln in out.splitlines() if ln.strip()]
        seen = [ln[0] for ln in lines]
        if sorted(seen) != sorted(ids):
            return refs.broken(f"checks run {seen}, want {list(ids)}")
        ratio = 0.0
        for ln in lines:
            fields = dict(f.split("=", 1) for f in ln if "=" in f)
            disc, tol = float(fields["discrepancy"]), float(fields["tolerance"])
            if ln[1] != "pass" or not disc <= tol:
                return refs.Verdict(False, disc / tol, f"{ln[0]} {ln[1]} {disc:.3e} > {tol:.3e}")
            ratio = max(ratio, disc / tol)
        return refs.Verdict(True, ratio)
    return expect


def _expect_line(fragment):
    def expect(out):
        if fragment not in out:
            return refs.broken(f"output lacks {fragment!r}: {out.strip()[:120]}")
        return refs.Verdict(True, 0.0)
    return expect


def verify(rng, work: str, variant: int) -> list[Op]:
    """verify-properties at 2048 angles on Gaussian, normal, Hermitian and
    shift files (d = 3..6, k = 1..2), verify-nilpotent and verify-shift."""
    ops = []
    base = ["P1", "P2", "P3", "P4", "P5", "P6"]
    for a, kind in enumerate(VERIFY_KINDS):
        for b in range(2):
            d, k = 3 + (a + 2 * b) % 4, 1 + b
            mat = make_matrix(kind, d, rng)
            path = os.path.join(work, f"v{variant}-{a}{b}.json")
            write_matrix(path, mat.t)
            ids = base + {"herm": ["HERMITIAN"], "normal": ["NORMAL"]}.get(kind, [])
            seed = int(rng.integers(1 << 31))
            ops.append(_verify_op(
                f"verify-properties {kind} d={d} k={k}",
                ["verify-properties", "--input", path, "--k", str(k), "--angles", "2048",
                 "--seed", str(seed)], _expect_properties(ids)))
    trials, seed = 3, int(rng.integers(1 << 31))
    ops.append(_verify_op("verify-nilpotent n=5",
                          ["verify-nilpotent", "--n", "5", "--trials", str(trials),
                           "--seed", str(seed)],
                          _expect_line(f"{trials} trials at dim 5 pass")))
    cases = sum(range(2, 9))
    ops.append(_verify_op("verify-shift max-n=8", ["verify-shift", "--max-n", "8"],
                          _expect_line(f"{cases} (n, k) cases up to n=8 match")))
    return ops


WORKLOADS = {"interactive": interactive, "fine_grid": fine_grid, "verify": verify}


def warm_up(work: str) -> None:
    """One small call per entry point, so lazy imports and first-call costs
    land in set-up rather than in the first timed op."""
    from hrnr import ranges
    path = os.path.join(work, "warm.json")
    write_matrix(path, shift(4))
    run_cli(["range", "--input", path, "--k", "1", "--out", os.path.join(work, "warm.out"),
             "--svg", os.path.join(work, "warm.svg")])
    run_cli(["radius", "--input", path])
    ranges.range_from_sweep(ranges.pencil_sweep(shift(4), 64), 1)
    run_cli(["verify-properties", "--input", path, "--angles", "64"])
    run_cli(["verify-shift", "--max-n", "3", "--angles", "64"])
    run_cli(["verify-nilpotent", "--n", "3", "--trials", "1", "--angles", "64"])
