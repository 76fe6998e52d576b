"""Replay a fixed battery through the range engine, or compare two replays.

The battery is seeded and fixed: five kinds (shift, Gaussian, Hermitian,
hidden normal, strictly lower-triangular nilpotent), each complex and real,
at n in {2, 3, 5, 8, 12, 16}, scaled by 10^e with e drawn from [-8, 8], on
m in {720, 2048, 8192} angles in turn.  Diagonal cases, complex and real at
the same n, follow from a generator of their own, so the first 60 cases
keep their inputs; then, from a third generator, the faceted and
degenerate cells of the fine_grid benchmark at m = 65536: normal
diagonals at n = 5 and 6 and a Hermitian diagonal at n = 5, each complex
and real (a Hermitian diagonal counts as real T in either draw).  A fourth
generator appends hidden normals whose first two eigenvalues are 1e-9
apart or equal, and normal tridiagonal Toeplitz matrices a S_n + b S_n* + d I
with |a| = |b|, each complex and real, at n in {3, 5, 8, 12}.  A fifth
appends graded matrices, whose pencils all share the spectrum of T + T*,
at the same n, complex and real: weighted shifts, direct sums of a shift
and a weighted shift, and blocks [[0, A], [0, 0]].  A sixth appends hidden
normals whose spectra leave long runs of grid planes between tie angles,
each complex and real: 2 x 2 normals (runs near pi), normals with collinear
eigenvalues, and normals with eigenvalues on a circle.  A seventh appends
the swallowtails of the fine_grid benchmark's smooth cells: complex
Gaussians at n = 4 and 6 and a nilpotent at n = 6, at m = 8192 and 16384,
replayed at k = 2 and 3 only.  An eighth appends graded matrices plus a
scalar, dI + G, whose sweeps solve G + G* alone, at n in {3, 5, 8, 12},
complex and real: Jordan blocks lambda I + S_n with lambda near 0
(``jordan``) or 1e8 to 1e12 from it (``jordan-far``), and weighted shifts
plus a scalar (``graded-scalar``); rank k of each is d plus the graded
part's, a polygon for 2k <= n, the point d at 2k = n + 1 and empty
beyond.  A ninth appends the ``extreme-`` stratum: Gaussian, Hermitian,
diagonal, hidden normal, graded (a weighted shift) and Jordan T at n = 5,
each complex and real, scaled to unit spectral norm and then by 2^-1060,
2^-1040 (subnormal entries), 2^1014 and 2^1020 (pencils near overflow);
its labels carry the scale.  A tenth appends the ``direct-sum`` stratum,
whose sweeps solve one pencil per block, at n in {5, 8, 12}, each complex
and real, scaled by 10^e with e drawn from [-8, 8]: Jordan direct sums
with distinct eigenvalues (blocks of 3 and 2 at n = 5; 3, 3 and 2 at
n = 8, the complex one ROADMAP.md's J = ((1 + 0.5i) I + S_3) (+)
(-0.7i I + S_3) (+) (0.4 I + S_2); 4, 3, 3 and 2 at n = 12), then a
diagonal of n // 2 entries (+) a weighted shift plus a scalar.  A read
that raises ValueError (pencils that overflow in T's units) is dumped as
the tag ``error``, a NaN radius, bound or rows.  Every case runs ``pencil_sweep``
once and ``range_from_sweep`` for every k = 1..n, and only then reads
the sweep's rows, so that the ranks of a sweep that forms its rows on
demand run as they do in ``hrnr range``.  Before the ranks, each case
reads ``numerical_radius()`` of a second, fresh sweep, as ``hrnr radius``
does, so that a batch sweep's radius runs its refinement rather than
reading rows a rank has solved.  A dump holds each case's radius, sweep
rows and each call's tag, vertices, the number of planes
that reached the geometry's deque scan (``geometry._active_chain``) and
the number of planes its emptiness check tested (0 when it did not run),
and the call's region again in sweep units (``sweep.region(k)``, read
after the call) with the sweep's ``unit_bound``: at the extreme scales
the vertices in T's units are subnormal, with a few significant bits, so
distances are measured in sweep units.

``--compare`` reads two dumps of the same battery, typically one made
against a parent tree with ``--src`` and one against the current tree
(both by this script, which dumps the regions in sweep units), and
prints the radii and the calls that are byte-identical (for complex and
real T, per kind, among the calls whose old run did not reach the scan,
and among those that neither run scanned, leaving out graded sweeps,
whose m rows are one row and whose ranks are regular m-gons), every tag
change, the worst Hausdorff distance over the geometry's bound, both in
sweep units, the worst row or doubled radius difference over
``checks._row_tol`` (or the smallest subnormal, where that underflows),
and on each side the calls that reached the scan, their planes in all,
the most in one call and the calls whose scan got more than m/16 planes,
and the same totals and most for the emptiness check.
It exits 1 when a tag changes, a row difference exceeds its tolerance or
a Hausdorff distance exceeds 1e-11 times the bound.

Usage:
    python scripts/replay_engine.py OUT.npz [--src SRC_DIR] [--limit N]
    python scripts/replay_engine.py --compare OLD.npz NEW.npz
"""

import argparse
import pathlib
import sys

import numpy as np

KINDS = ("shift", "gauss", "herm", "normal", "nilpotent")  # then the diagonals
DIMS = (2, 3, 5, 8, 12, 16)
GRIDS = (720, 2048, 8192)
HAUSDORFF_TOL = 1e-11  # per unit bound
EXTREME_KINDS = ("gauss", "herm", "diag", "normal", "graded", "jordan")
EXTREME_EXPONENTS = (-1060, -1040, 1014, 1020)
SUM_BLOCKS = {5: (3, 2), 8: (3, 3, 2), 12: (4, 3, 3, 2)}  # n -> the Jordan blocks' sizes
J_EIGENVALUES = (1 + 0.5j, -0.7j, 0.4)  # of the n = 8 complex Jordan sum


def battery(limit=None):
    """The cases (kind, n, m, T) in a fixed order, from seed 2010."""
    from hrnr.shifts import shift_matrix

    rng = np.random.default_rng(2010)
    cases = []
    for n in DIMS:
        for kind in KINDS:
            for real in (False, True):
                g = rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
                if kind == "shift":
                    t = shift_matrix(n)
                elif kind == "herm":
                    t = g + g.conj().T
                elif kind == "normal":
                    q = np.linalg.qr(g)[0]
                    d = rng.normal(size=n) + (0 if real else 1j * rng.normal(size=n))
                    t = q @ np.diag(d) @ q.conj().T
                elif kind == "nilpotent":
                    t = np.tril(g, -1)
                else:
                    t = g
                t = 10.0 ** rng.uniform(-8, 8) * t
                m = GRIDS[len(cases) % len(GRIDS)]
                cases.append((kind, n, m, t.real if real else t))
    rng = np.random.default_rng(2011)
    for n in DIMS:
        for real in (False, True):
            d = rng.normal(size=n) + (0 if real else 1j * rng.normal(size=n))
            m = GRIDS[len(cases) % len(GRIDS)]
            cases.append(("diag", n, m, np.diag(10.0 ** rng.uniform(-8, 8) * d)))
    rng = np.random.default_rng(2012)
    for kind, n in (("normal-diag", 5), ("normal-diag", 6), ("herm-diag", 5)):
        for real in (False, True):
            d = rng.normal(size=n)
            if kind == "normal-diag":
                d = d + (0 if real else 1j * rng.normal(size=n))
            d = 10.0 ** rng.uniform(-8, 8) * np.sort(d)
            cases.append((kind, n, 65536, np.diag(d if real else d.astype(complex))))
    rng = np.random.default_rng(2013)
    for kind in ("normal-cluster", "normal-double", "normal-toeplitz"):
        for n in DIMS[1:5]:
            for real in (False, True):
                m = GRIDS[len(cases) % len(GRIDS)]
                t = toeplitz(rng, n, real) if kind == "normal-toeplitz" else \
                    hidden_normal(rng, n, real, 1e-9 if kind == "normal-cluster" else 0.0)
                cases.append((kind, n, m, 10.0 ** rng.uniform(-8, 8) * t))
    rng = np.random.default_rng(2014)
    for kind in ("graded-shift", "graded-sum", "graded-block"):
        for n in DIMS[1:5]:
            for real in (False, True):
                m = GRIDS[len(cases) % len(GRIDS)]
                cases.append((kind, n, m, 10.0 ** rng.uniform(-8, 8) * graded(rng, kind, n, real)))
    rng = np.random.default_rng(2015)
    for kind in ("normal-2x2", "normal-collinear", "normal-circle"):
        for n in (2, 2) if kind == "normal-2x2" else DIMS[1:4]:
            for real in (False, True):
                m = GRIDS[len(cases) % len(GRIDS)]
                t = placed_normal(rng, kind, n, real)
                cases.append((kind, n, m, 10.0 ** rng.uniform(-8, 8) * t))
    rng = np.random.default_rng(2016)
    for kind, n in (("gauss-swallowtail", 4), ("gauss-swallowtail", 6),
                    ("nilpotent-swallowtail", 6)):
        for m in (8192, 16384):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            t = np.tril(g, -1) if kind.startswith("nilpotent") else g
            cases.append((kind, n, m, 10.0 ** rng.uniform(-8, 8) * t))
    rng = np.random.default_rng(2017)
    for kind in ("jordan", "jordan-far", "graded-scalar"):
        for n in DIMS[1:5]:
            for real in (False, True):
                m = GRIDS[len(cases) % len(GRIDS)]
                t = translated_graded(rng, kind, n, real)
                cases.append((kind, n, m, 10.0 ** rng.uniform(-8, 8) * t))
    rng = np.random.default_rng(2018)
    for kind in EXTREME_KINDS:
        for e in EXTREME_EXPONENTS:
            for real in (False, True):
                t = extreme(rng, kind, 5, real)
                t = np.ldexp(1.0, e) * (t / np.linalg.norm(t, 2))
                cases.append((f"extreme-{kind}", 5, GRIDS[len(cases) % len(GRIDS)], t))
    rng = np.random.default_rng(2019)
    for jordan in (True, False):
        for n in SUM_BLOCKS:
            for real in (False, True):
                m = GRIDS[len(cases) % len(GRIDS)]
                t = block_sum(rng, jordan, n, real)
                cases.append(("direct-sum", n, m, 10.0 ** rng.uniform(-8, 8) * t))
    return cases[:limit]


def ranks(kind, n):
    """The ranks a case replays: 2 and 3 for the swallowtails, else 1..n."""
    return range(2, 4) if kind.endswith("swallowtail") else range(1, n + 1)


def extreme(rng, kind, n, real):
    """One input of the extreme-scale stratum, before its scaling."""
    g = rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
    if kind == "herm":
        return g + g.conj().T
    if kind == "diag":
        return np.diag(g[0])
    if kind == "normal":
        return placed_normal(rng, kind, n, real)
    if kind == "graded":
        return graded(rng, "graded-shift", n, real)
    if kind == "jordan":
        return translated_graded(rng, kind, n, real)
    return g


def attempt(read, fallback):
    """``read()``, or ``fallback`` when the engine raises ValueError: the
    pencils overflow in T's units."""
    try:
        return read()
    except ValueError:
        return fallback


class Unbuilt:
    """Stands in for a sweep whose construction raised ValueError (as an
    older tree's did for pencils that may overflow): every read raises it."""

    def __getattr__(self, name):
        raise ValueError(f"no sweep to read {name} from")


def placed_normal(rng, kind, n, real):
    """Q D Q* for a random orthogonal or unitary Q, with D's eigenvalues on
    a random line for ``normal-collinear``, on a random circle for
    ``normal-circle``, and free for ``normal-2x2``.  Real T keeps its
    spectrum closed under conjugation: on a vertical line or a circle
    centred on the real axis, in 2 x 2 rotation blocks c + r e^{+-i phi}."""
    c = rng.normal() + (0 if real else 1j * rng.normal())
    if kind == "normal-collinear":
        step = 1j if real else np.exp(1j * rng.uniform(0, 2 * np.pi))
        mu = c + step * rng.normal(size=n)
    elif kind == "normal-circle":
        phase = rng.uniform(0, 2 * np.pi, size=n)
        phase[-1] *= not real  # an unpaired real eigenvalue sits at c + r
        mu = c + abs(rng.normal()) * np.exp(1j * phase)
    else:
        mu = rng.normal(size=n) + 1j * rng.normal(size=n)
    if real:
        d = np.diag(mu.real)
        for j in range(0, n - 1, 2):
            d[j:j + 2, j:j + 2] = [[mu[j].real, mu[j].imag], [-mu[j].imag, mu[j].real]]
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    else:
        d = np.diag(mu)
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return q @ d @ q.conj().T


def graded(rng, kind, n, real):
    """A weighted shift, S_p (+) a weighted shift (p = n // 2), or
    [[0, A], [0, 0]] with A of shape p x (n - p)."""
    from hrnr.shifts import shift_matrix

    def draw(*shape):
        return rng.normal(size=shape) + (0 if real else 1j * rng.normal(size=shape))

    p = n // 2
    t = np.zeros((n, n), dtype=float if real else complex)
    if kind == "graded-shift":
        t[np.arange(1, n), np.arange(n - 1)] = draw(n - 1)
    elif kind == "graded-sum":
        t[:p, :p] = shift_matrix(p).real
        t[np.arange(p + 1, n), np.arange(p, n - 1)] = draw(n - p - 1)
    else:
        t[:p, p:] = draw(p, n - p)
    return t


def translated_graded(rng, kind, n, real):
    """dI + G: G = S_n and d near 0 (``jordan``) or 1e8..1e12 away
    (``jordan-far``), or G a weighted shift and d near 0
    (``graded-scalar``)."""
    from hrnr.shifts import shift_matrix

    d = rng.normal() + (0 if real else 1j * rng.normal())
    if kind == "jordan-far":
        d *= 10.0 ** rng.uniform(8, 12) / abs(d)
    g = graded(rng, "graded-shift", n, real) if kind == "graded-scalar" else shift_matrix(n)
    return g + d * np.eye(n)


def block_sum(rng, jordan, n, real):
    """A direct sum of Jordan blocks lambda_i I + S_p of the sizes
    ``SUM_BLOCKS[n]`` with distinct lambda_i (J's at n = 8 for complex T),
    or diag(d_1 .. d_p) (+) (lambda I + a weighted shift), p = n // 2."""
    from functools import reduce

    from hrnr.checks import direct_sum
    from hrnr.shifts import shift_matrix

    def draw(*shape):
        return rng.normal(size=shape) + (0 if real else 1j * rng.normal(size=shape))

    if jordan:
        sizes = SUM_BLOCKS[n]
        lams = J_EIGENVALUES if n == 8 and not real else draw(len(sizes))
        t = reduce(direct_sum, (lam * np.eye(p) + shift_matrix(p) for lam, p in zip(lams, sizes)))
    else:
        p = n // 2
        t = direct_sum(np.diag(draw(p)), graded(rng, "graded-shift", n - p, real)
                       + draw() * np.eye(n - p))
    return t.real if real else t  # direct_sum's sums are complex


def hidden_normal(rng, n, real, gap):
    """Q D Q* for a random orthogonal or unitary Q, with eigenvalues 0 and 1
    of D ``gap`` apart; real T pairs its other eigenvalues in 2 x 2
    rotation blocks."""
    if real:
        d = np.diag(rng.normal(size=n))
        for j in range(2, n - 1, 2):
            a, b = rng.normal(size=2)
            d[j:j + 2, j:j + 2] = [[a, b], [-b, a]]
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    else:
        d = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    d[1, 1] = d[0, 0] + gap
    return q @ d @ q.conj().T


def toeplitz(rng, n, real):
    """a S_n + b S_n* + d I with |b| = |a|: normal, and for real T skew plus
    a scalar (b = -a), so not Hermitian."""
    from hrnr.shifts import shift_matrix

    if real:
        a, d = rng.normal(size=2)
        b = -a
    else:
        a, b, d = rng.normal(size=3) + 1j * rng.normal(size=3)
        b *= abs(a) / abs(b)
    s = shift_matrix(n)
    return a * s + b * s.T + d * np.eye(n)


def dump(path, limit):
    from hrnr import geometry
    from hrnr.geometry import ConvexRegion
    from hrnr.ranges import pencil_sweep, range_from_sweep

    scanned, checked = [], []
    active_chain, support_candidates = geometry._active_chain, geometry._support_candidates

    def counted_scan(thetas, *args):
        scanned.append(len(thetas))
        return active_chain(thetas, *args)

    def counted_check(region, thetas, *args):
        # within range_from_sweep, only the emptiness check searches supports
        checked.append(len(thetas))
        return support_candidates(region, thetas, *args)

    geometry._active_chain, geometry._support_candidates = counted_scan, counted_check
    error = ConvexRegion("error", np.zeros(0, complex))
    sweeps, calls, rows, verts, unit_verts = [], [], {}, [], []
    for i, (kind, n, m, t) in enumerate(battery(limit)):
        radius = attempt(lambda: pencil_sweep(t, m).numerical_radius(), np.nan)
        sweep = attempt(lambda: pencil_sweep(t, m), Unbuilt())
        real = not np.imag(t).any()  # a shift is real in either draw
        sweeps.append((kind, real, n, m, np.linalg.norm(t, 2), radius))
        for k in ranks(kind, n):
            scanned.clear()
            checked.clear()
            region = attempt(lambda: range_from_sweep(sweep, k).region, error)
            bound = attempt(lambda: sweep.region_bound, np.nan)
            calls.append((i, k, region.kind, bound, sum(scanned), sum(checked),
                          attempt(lambda: sweep.unit_bound, np.nan)))
            verts.append(region.vertices)
            unit_verts.append(attempt(lambda: sweep.region(k)[0], error).vertices)
        # read after the ranks: reading the rows forms them all, and a sweep
        # that forms its rows on demand would then run its ranks on them
        rows[f"rows{i}"] = attempt(lambda: sweep.eigenvalues, np.full((m, n), np.nan))
    geometry._active_chain, geometry._support_candidates = active_chain, support_candidates
    arrays = dict(zip(("kind", "real", "n", "m", "norm", "radius"), map(np.array, zip(*sweeps))))
    arrays.update(zip(("call_case", "call_k", "call_tag", "call_bound", "call_scanned",
                       "call_checked", "call_unit_bound"), map(np.array, zip(*calls))))
    arrays["call_vstart"] = np.cumsum([0] + [v.size for v in verts])
    arrays["call_unit_vstart"] = np.cumsum([0] + [v.size for v in unit_verts])
    np.savez(path, vertices=np.concatenate(verts), unit_vertices=np.concatenate(unit_verts),
             **arrays, **rows)
    print(f"{len(sweeps)} sweeps, {len(calls)} calls -> {path}")


def compare(old_path, new_path):
    from hrnr.checks import _row_tol
    from hrnr.geometry import ConvexRegion, hausdorff

    old, new = dict(np.load(old_path)), dict(np.load(new_path))
    for key in ("kind", "real", "n", "m", "call_case", "call_k"):
        if not np.array_equal(old[key], new[key]):
            sys.exit(f"the dumps replay different batteries ({key} differs)")

    def label(case):
        real = " real" if new["real"][case] else ""
        # an extreme case's T has the norm 2^e, to rounding
        extreme = new["kind"][case].startswith("extreme")
        scale = f" 2^{np.log2(new['norm'][case]):.0f}" if extreme else ""
        return f"{new['kind'][case]}{real}{scale} n={new['n'][case]} m={new['m'][case]}"

    # real T, or kind -> [identical sweeps, sweeps, identical calls, calls]
    same = {False: [0, 0, 0, 0], True: [0, 0, 0, 0]}
    same.update((str(kind), [0, 0, 0, 0]) for kind in new["kind"])

    def tallies(case):
        return same[bool(new["real"][case])], same[str(new["kind"][case])]

    unscanned = [0, 0]  # identical calls, calls, among those the old run did not scan
    # the same among the calls neither run scanned on sweeps that are not
    # graded (whose m rows are not one row)
    plain = [0, 0]
    graded = [bool((new[f"rows{i}"] == new[f"rows{i}"][0]).all()) for i in range(len(new["n"]))]
    tag_changes, worst_h, worst_row = [], (-np.inf, None), (-np.inf, None)
    for i, (n, norm) in enumerate(zip(new["n"], new["norm"])):
        a, b = old[f"rows{i}"], new[f"rows{i}"]
        for tally in tallies(i):
            tally[0] += a.tobytes() == b.tobytes()
            tally[1] += 1
        radius = 2.0 * abs(old["radius"][i] - new["radius"][i])
        # at a subnormal norm the tolerance underflows: count smallest subnormals
        tol = max(_row_tol(int(n), float(norm)), np.finfo(float).smallest_subnormal)
        diff = max(np.abs(a - b).max(), radius) / tol
        worst_row = max(worst_row, (float(diff), label(i)), key=lambda w: w[0])

    def region(dumped, c, unit=""):
        start = dumped[f"call_{unit}vstart"]
        return ConvexRegion(str(dumped["call_tag"][c]),
                            dumped[f"{unit}vertices"][start[c]:start[c + 1]])

    for c, (case, k) in enumerate(zip(new["call_case"], new["call_k"])):
        a, b = region(old, c), region(new, c)
        identical = a.kind == b.kind and a.vertices.tobytes() == b.vertices.tobytes()
        for tally in tallies(case):
            tally[2] += identical
            tally[3] += 1
        if not old["call_scanned"][c]:
            unscanned[0] += identical
            unscanned[1] += 1
            if not (new["call_scanned"][c] or graded[case]):
                plain[0] += identical
                plain[1] += 1
        if a.kind != b.kind:
            tag_changes.append(f"{label(case)} k={k}: {a.kind} -> {b.kind}")
        elif a.vertices.size:  # neither empty nor an error
            h = hausdorff(region(old, c, "unit_"), region(new, c, "unit_"))
            h /= new["call_unit_bound"][c]
            worst_h = max(worst_h, (float(h), f"{label(case)} k={k}"), key=lambda w: w[0])
    radii = np.count_nonzero(old["radius"].view(np.uint64) == new["radius"].view(np.uint64))
    print(f"radii byte-identical: {radii}/{new['radius'].size}")
    for key, counts in same.items():
        name = {False: "complex T", True: "real T"}.get(key, f"  {key}")
        print(f"{name} byte-identical: {counts[0]}/{counts[1]} "
              f"sweeps, {counts[2]}/{counts[3]} calls")
    print(f"calls the old run did not scan, byte-identical: {unscanned[0]}/{unscanned[1]}")
    print(f"calls neither run scanned, graded sweeps aside, byte-identical: "
          f"{plain[0]}/{plain[1]}")
    for side, dumped in (("old", old), ("new", new)):
        planes = dumped["call_scanned"]
        over = np.count_nonzero(planes > new["m"][new["call_case"]] // 16)
        print(f"{side} scans: {np.count_nonzero(planes)} calls, {planes.sum()} planes, "
              f"{planes.max(initial=0)} at most, {over} over m/16")
        planes = dumped["call_checked"]
        print(f"{side} emptiness checks: {np.count_nonzero(planes)} calls, "
              f"{planes.sum()} planes, {planes.max(initial=0)} at most")
    print(f"tag changes: {len(tag_changes)}")
    for line in tag_changes:
        print(f"  {line}")
    print(f"worst hausdorff / bound, in sweep units: {worst_h[0]:.3e} ({worst_h[1]})")
    print(f"worst row or radius difference / row tolerance: {worst_row[0]:.3e} ({worst_row[1]})")
    return 1 if tag_changes or worst_row[0] > 1.0 or worst_h[0] > HAUSDORFF_TOL else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="dump the battery's results to this .npz")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import hrnr from (default: this repository's)")
    parser.add_argument("--limit", type=int, help="replay only the first N cases")
    args = parser.parse_args()
    if (args.out is None) == (args.compare is None):
        parser.error("give either OUT or --compare OLD NEW")
    sys.path.insert(0, args.src)
    if args.compare:
        return compare(*args.compare)
    dump(args.out, args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
