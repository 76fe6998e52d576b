import dataclasses
from itertools import combinations

import numpy as np
import pytest

from hrnr import checks, ranges
from hrnr.checks import (
    RESIDUAL_TOL,
    BadIsometryError,
    NotUnitaryError,
    check_adjoint,
    check_affine,
    check_compression,
    check_direct_sum,
    check_nesting,
    check_nilpotent,
    check_shift,
    check_unitary,
    generator,
    haagerup_bound_check,
    hermitian_oracle,
    is_normal,
    nilpotent_instance,
    normal_eigenvalues,
    normal_oracle,
    property_suite,
    random_isometry,
    random_matrix,
    random_nilpotent_contraction,
    random_unitary,
)
from hrnr.geometry import (ConvexRegion, _convex_hull, excess, hausdorff, intersect_halfplanes,
                           support)
from hrnr.linalg import eig_hermitian_stack as eig
from hrnr.ranges import pencil_sweep, range_from_sweep, rank_k_range
from hrnr.shifts import build_dilation, nilpotency_index, rho, shift_matrix, shift_radius

M = 720  # interactive grid is plenty for these module tests


def random_square(dim, seed, scale=1.0):
    rng = generator(seed)
    return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def base(t, k, m=M):
    """T's rank-k report, the input every check on T takes."""
    return rank_k_range(t, k, m)


# --- P1 affine -----------------------------------------------------------------

def test_affine_identity_transform():
    s3 = shift_matrix(3)
    rep = check_affine(s3, base(s3, 1), 1.0, 0.0)
    assert rep.passed and rep.discrepancy <= 1e-12


def test_affine_scaled_shifted_shift_disc():
    rep = check_affine(shift_matrix(4), base(shift_matrix(4), 1, 2048), 2.0, 1j)
    assert rep.passed
    # the transformed region is the radius-2cos(pi/5) disc centred at i
    report = rank_k_range(2.0 * shift_matrix(4) + 1j * np.eye(4), 1, 2048)
    radii = np.abs(report.region.vertices - 1j)
    assert abs(radii.max() - 2 * np.cos(np.pi / 5)) < 5e-6
    assert abs(radii.min() - 2 * np.cos(np.pi / 5)) < 5e-6


def test_affine_pure_rotation():
    t = random_square(4, 11)
    rep = check_affine(t, base(t, 1), np.exp(1j * np.pi / 3), 0.0)
    assert rep.passed, rep


def test_affine_rejects_zero_scale():
    with pytest.raises(ValueError):
        check_affine(shift_matrix(3), base(shift_matrix(3), 1), 0.0, 1.0)


@pytest.mark.parametrize("a", [2.0, -1.7, 1j, 0.3 + 1.1j, np.exp(0.5j)])
def test_affine_sweeps_once(a, monkeypatch):
    t = random_square(3, 12)
    report = base(t, 1)
    calls = []

    def spy(x, m):
        calls.append(m)
        return pencil_sweep(x, m)

    monkeypatch.setattr(checks, "pencil_sweep", spy)
    assert check_affine(t, report, a, 0.5 - 0.25j).passed
    assert calls == [M]


@pytest.mark.parametrize("m", [720, 2048])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_with_complex_scales(n, real, m):
    # the small dimensions, where the angle term weighs most; a quarter of
    # the scales are grid rotations
    rng = generator(100 * n + m + real)
    for trial in range(40):
        t = rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
        k = int(rng.integers(1, n + 1))
        if trial % 4 == 0:
            a = rng.uniform(0.5, 2.5) * np.exp(2j * np.pi * rng.integers(m) / m)
        else:
            a = complex(rng.normal(), rng.normal())
        rep = check_affine(t, base(t, k, m), a, complex(rng.normal(), rng.normal()))
        assert rep.passed, rep


def grid_angle_affine(t, report, a, b):
    """P1 as it was for a grid-angle a: T's rotated rows read from the
    report by index, and one sweep of aT + bI."""
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    thetas, rows = report.support_samples.T
    rows = np.roll(rows, -round(np.angle(a) * report.angles / (2 * np.pi)))
    lhs = pencil_sweep(a * t + b * np.eye(n), report.angles).eigenvalues[:, report.k - 1] / 2
    dist = np.abs(lhs - (abs(a) * rows + (np.exp(1j * thetas) * b).real)).max()
    tol = checks._row_tol(n, abs(a) * np.linalg.norm(t, 2) + abs(b))
    return checks._report("P1", dist, tol, f"dim={n} k={report.k} a={a} b={b}")


def test_affine_positive_scale_matches_the_grid_angle_formula():
    # for a > 0 the phase is exactly 1, so the one-sweep form reproduces
    # every report of the on-grid formula bit for bit
    rng = generator(41)
    for n in range(1, 7):
        for field in ("real", "complex", "hermitian"):
            for m in (720, 2048, 721):
                g = rng.normal(size=(n, n)) + (0 if field == "real"
                                               else 1j * rng.normal(size=(n, n)))
                t = g + g.conj().T if field == "hermitian" else g
                report = base(t, int(rng.integers(1, n + 1)), m)
                a = complex(rng.uniform(0.5, 2.5), 0.0)
                b = 0.5 * complex(rng.normal(), rng.normal())
                assert check_affine(t, report, a, b) == grid_angle_affine(t, report, a, b)


def test_affine_translates_at_the_scale_of_t():
    # property_suite draws P1's b at T's scale: P1's tolerance over s ||G||_2
    # is the same at every scale s, and T is not lost to rounding against b
    g = random_square(4, 46)
    ratios = []
    for s in (1e-200, 1.0, 1e200):
        p1 = property_suite(s * g, 2, M, generator(47))[0]
        assert p1.property_id == "P1" and p1.passed, (s, p1)
        ratios.append(p1.tolerance / (s * np.linalg.norm(g, 2)))
    assert max(ratios) <= 1.01 * min(ratios), ratios


# --- P2 adjoint ------------------------------------------------------------------

def test_adjoint_hermitian_fixed_by_reflection():
    t = np.diag([0.0, 1.0, 3.0])
    rep = check_adjoint(t, base(t, 1))
    assert rep.passed and rep.discrepancy <= 1e-9


def test_adjoint_shift_disc_symmetric():
    rep = check_adjoint(shift_matrix(3), base(shift_matrix(3), 1, 2048))
    assert rep.passed and rep.discrepancy <= 5e-6


def test_adjoint_random():
    t = random_square(4, 21)
    rep = check_adjoint(t, base(t, 2))
    assert rep.passed, rep


# --- P3 direct sum ----------------------------------------------------------------

def test_direct_sum_with_itself():
    t = random_square(3, 31)
    assert check_direct_sum(t, t, base(t, 1), base(t, 1)).passed


def test_direct_sum_of_shifts():
    s3, s5 = shift_matrix(3), shift_matrix(5)
    rep = check_direct_sum(s3, s5, base(s3, 1), base(s5, 1))
    assert rep.passed


def test_direct_sum_random_pair():
    t, s = random_square(3, 41), random_square(3, 42)
    rep = check_direct_sum(t, s, base(t, 1), base(s, 1))
    assert rep.passed, rep


@pytest.mark.parametrize("t", [shift_matrix(4), 0.3j * np.eye(3) + shift_matrix(3)],
                         ids=["shift", "jordan"])
def test_direct_sum_with_itself_is_one_group(t, monkeypatch):
    # T (+) T has one diagonal value, so the engine sweeps it as one group:
    # one solve of the 2n x 2n G + G*, never a merge of two blocks' rows,
    # which would compare the engine's merge with P3's own
    n = t.shape[0]
    reports = [base(t, k) for k in range(1, n + 1)]
    shapes = []
    solve = ranges.eig_hermitian_stack
    monkeypatch.setattr(ranges, "eig_hermitian_stack",
                        lambda stack: shapes.append(stack.shape) or solve(stack))
    for rep in reports:
        assert check_direct_sum(t, t, rep, rep).passed, rep.k
    assert shapes == [(1, 2 * n, 2 * n)] * n


def test_direct_sum_is_an_equality():
    # T (+) S's rank-k row is the k-th largest of T's and S's rows merged,
    # within the row tolerance both ways.  Given the report of a compression
    # of S in place of S's, whose rows lie below S's, T (+) S's rows lie
    # above the merged ones: the one-sided inclusion passes that, P3 does not
    t, s = random_square(3, 43), random_square(4, 44)
    v = random_isometry(4, 3, generator(45))
    for k in (1, 2, 3):
        bt = base(t, k)
        assert check_direct_sum(t, s, bt, base(s, k)).passed, k
        compressed = base(v.conj().T @ s @ v, k)
        rep = check_direct_sum(t, s, bt, compressed)
        whole = pencil_sweep(checks.direct_sum(t, s), M).column(k - 1) / 2.0
        one_sided = np.maximum(bt.support_samples[:, 1], compressed.support_samples[:, 1]) - whole
        assert one_sided.max() <= rep.tolerance, k
        assert not rep.passed, k


def test_direct_sum_reads_the_first_k_columns_only(monkeypatch):
    # the k-th largest of T's and S's merged rows is that of their first k
    # columns: P3 forms no whole stack of rows on a sweep formed on demand,
    # and reports what the whole merged rows give
    monkeypatch.setattr(ranges, "ON_DEMAND_ROWS", 0)
    rng = generator(46)
    t = np.diag(rng.normal(size=5) + 1j * rng.normal(size=5))
    s = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
    for k in (1, 2, 3):
        bt, bs = base(t, k), base(s, k)
        assert bt.sweep.on_demand and bs.sweep.on_demand
        rep = check_direct_sum(t, s, bt, bs)
        assert bt.sweep._rows is None and bs.sweep._rows is None, k
        merged = np.hstack([bt.sweep.eigenvalues, bs.sweep.eigenvalues])
        want = np.sort(merged, axis=1)[:, -k] / 2.0
        whole = pencil_sweep(checks.direct_sum(t, s), M).column(k - 1) / 2.0
        assert rep.discrepancy == np.abs(whole - want).max(), k


# --- P4 unitary -------------------------------------------------------------------

def test_unitary_identity_conjugation():
    t = random_square(3, 51)
    rep = check_unitary(t, base(t, 1), np.eye(3))
    assert rep.passed and rep.discrepancy <= 1e-12


def test_unitary_diagonal_phases_on_shift():
    rng = generator(52)
    u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    rep = check_unitary(shift_matrix(4), base(shift_matrix(4), 1, 2048), u)
    assert rep.passed and rep.discrepancy <= 5e-6


def test_unitary_random_conjugation():
    rng = generator(53)
    t = random_square(4, 54)
    rep = check_unitary(t, base(t, 2), random_unitary(4, rng))
    assert rep.passed, rep


def gram_schmidt(a):
    """Twice-iterated classical Gram-Schmidt on the columns of a."""
    q = np.zeros_like(a)
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for _ in range(2):
            v -= q[:, :j] @ (q[:, :j].conj().T @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_random_unitary_is_gram_schmidt_of_the_same_draws(dim):
    # same unitary to rounding, and the same draws, so later draws from the
    # generator are unchanged
    rng, ref = generator(dim), generator(dim)
    u = random_unitary(dim, rng)
    want = gram_schmidt(random_matrix(dim, ref))
    assert np.abs(u - want).max() <= 1e-13
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-13
    assert rng.uniform() == ref.uniform()


def test_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        check_unitary(shift_matrix(2), base(shift_matrix(2), 1), 2 * np.eye(2))


# --- P5 compression ------------------------------------------------------------------

def test_compression_identity_is_equality():
    t = random_square(3, 61)
    rep = check_compression(t, base(t, 1), np.eye(3))
    assert rep.passed and rep.discrepancy <= 1e-9


def test_compression_leading_corner_of_shift():
    iso = np.zeros((5, 3), dtype=complex)
    iso[:3, :3] = np.eye(3)
    rep = check_compression(shift_matrix(5), base(shift_matrix(5), 1, 2048), iso)
    assert rep.passed
    # the corner compression is S3: its disc is strictly inside the S5 disc
    inner = rank_k_range(shift_matrix(3), 1, 720).region
    outer = rank_k_range(shift_matrix(5), 1, 720).region
    assert inner.max_modulus() < outer.max_modulus()


def test_compression_random_subspace():
    rng = generator(62)
    t = random_square(5, 63)
    rep = check_compression(t, base(t, 1), random_isometry(5, 3, rng))
    assert rep.passed, rep


def test_compression_rejects_bad_columns():
    with pytest.raises(BadIsometryError):
        check_compression(shift_matrix(3), base(shift_matrix(3), 1),
                          np.ones((3, 2), dtype=complex))
    with pytest.raises(BadIsometryError):
        check_compression(shift_matrix(3), base(shift_matrix(3), 2), np.eye(3)[:, :1])


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e8])
def test_row_checks_see_a_relative_change_of_1e_6(s):
    # against the report of a matrix 1e-6 away, relative, the equalities
    # and the inclusion fail at every scale
    t = random_square(4, 24, s)
    wrong = base((1 + 1e-6) * t, 2)
    assert not check_affine(t, wrong, 1.5, s * (0.25 - 0.5j)).passed
    assert not check_adjoint(t, wrong).passed
    assert not check_unitary(t, wrong, random_unitary(4, generator(25))).passed
    assert not check_compression(t, base((1 - 1e-6) * t, 2), np.eye(4)).passed


# --- P6 nesting ---------------------------------------------------------------------

def test_nesting_shift_radii():
    rep = check_nesting(pencil_sweep(shift_matrix(6), 2048), 3)
    assert rep.passed
    radii = [rank_k_range(shift_matrix(6), k, 720).region.max_modulus()
             for k in (1, 2, 3)]
    assert radii[0] > radii[1] > radii[2]


def test_nesting_hermitian_intervals():
    rep = check_nesting(pencil_sweep(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), M), 2)
    assert rep.passed


def test_nesting_random():
    rep = check_nesting(pencil_sweep(random_square(5, 71), M), 3)
    assert rep.passed, rep


# --- oracles -------------------------------------------------------------------------

def pentagon_eigs():
    return np.exp(2j * np.pi * np.arange(5) / 5)


def test_normal_oracle_rank1_is_hull():
    region = normal_oracle(pentagon_eigs(), 1)
    assert region.kind == "polygon"
    ideal = ConvexRegion.polygon(pentagon_eigs())
    assert hausdorff(region, ideal) <= 1e-9


def test_normal_oracle_vs_engine_rank2():
    oracle = normal_oracle(pentagon_eigs(), 2)
    engine = rank_k_range(np.diag(pentagon_eigs()), 2, 65536).region
    assert hausdorff(engine, oracle) <= 1e-4


def test_normal_oracle_real_eigs_reduce_to_interval():
    eigs = np.array([0.0, 1.0, 2.0, 3.0], dtype=complex)
    region = normal_oracle(eigs, 2)
    oracle = hermitian_oracle(eigs.real, 2)
    assert region.kind == "segment"
    assert hausdorff(region, oracle) <= 1e-9


def test_normal_oracle_any_size():
    assert normal_oracle([0.3 - 2j], 1).kind == "point"
    assert abs(normal_oracle([0.3 - 2j], 1).vertices[0] - (0.3 - 2j)) <= 1e-12
    for k in (1, 2, 3):
        region = normal_oracle(np.full(3, -1.5 + 0.5j), k)
        assert region.kind == "point"
        assert abs(region.vertices[0] - (-1.5 + 0.5j)) <= 1e-9
    rng = generator(40)
    eigs = rng.normal(size=40) + 1j * rng.normal(size=40)
    oracle = normal_oracle(eigs, 7)
    engine = rank_k_range(np.diag(eigs), 7, 8192).region
    assert oracle.kind == engine.kind == "polygon"
    # the grid region circumscribes the exact range, within check_normal_oracle's
    # allowance for its corner wedges
    size = np.abs(eigs).max()
    assert excess(oracle, engine) <= 1e-9 * size
    assert hausdorff(oracle, engine) <= 12.0 * size * np.tan(np.pi / 8192)


def subset_hull_reference(eigs, k):
    """The rank-k range of a normal matrix as the intersection of the
    convex hulls of all (n - k + 1)-element eigenvalue subsets, one plane
    per hull edge, or four around a point or segment: C(n, k - 1) hulls."""
    eigs = np.asarray(eigs, dtype=np.complex128)
    thetas, offsets = [], []
    for subset in combinations(range(eigs.size), eigs.size - k + 1):
        hull = _convex_hull(eigs[list(subset)])
        if hull.size >= 3:
            t = np.pi / 2 - np.angle(np.roll(hull, -1) - hull)
        else:
            base = -np.angle(hull[1] - hull[0]) if hull.size == 2 else 0.0
            t = base + np.arange(4) * (np.pi / 2)
        thetas.append(t)
        offsets.append((np.exp(1j * t)[:, None] * hull).real.max(axis=1))
    return intersect_halfplanes(np.concatenate(thetas), np.concatenate(offsets),
                                bound=float(np.abs(eigs).max()) or 1.0)


def oracle_inputs(rng, n):
    """Eigenvalue lists of every kind the oracle must handle, dimension n."""
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    u = random_unitary(n, rng)
    half = rng.normal(size=(n + 1) // 2) + 1j * rng.normal(size=(n + 1) // 2)
    return {
        "random": rng.normal(size=n) + 1j * rng.normal(size=n),
        "hidden": normal_eigenvalues(u @ np.diag(d) @ u.conj().T),
        "polygon": np.exp(2j * np.pi * np.arange(n) / n) + 0.3,
        # half-integer points: collinear triples and repeats
        "lattice": (rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)) / 2,
        "real": rng.normal(size=n) + 0j,
        "repeated": np.repeat(half, 2)[:n],
        "scalar": np.full(n, complex(rng.normal(), rng.normal())),
    }


def test_normal_oracle_matches_subset_hulls():
    # the reference runs on the unscaled eigenvalues: after rounding s z + b,
    # three collinear eigenvalues hull to a sliver triangle whose corners,
    # relaxed outward, run off to the bounding square
    rng = generator(13)
    probe = np.linspace(-7, 7, 301)
    for n in range(2, 9):
        for kind, eigs in oracle_inputs(rng, n).items():
            refs = [subset_hull_reference(eigs, k) for k in range(1, n + 1)]
            for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
                shift = scale * complex(rng.normal(), rng.normal())
                z = scale * eigs + shift
                size = float(np.abs(z).max())
                for k in range(1, n + 1):
                    region = normal_oracle(z, k)
                    want = ConvexRegion(refs[k - 1].kind, scale * refs[k - 1].vertices + shift)
                    case = (n, kind, scale, k)
                    assert region.kind == want.kind, case
                    if region.is_empty:
                        continue
                    assert hausdorff(region, want) <= 1e-9 * size, case
                    vertex_max = (np.exp(1j * probe)[:, None] * region.vertices).real.max(axis=1)
                    assert np.abs(support(region, probe) - vertex_max).max() <= 1e-12 * size, case


def test_hermitian_oracle_tags():
    vals = [0.0, 1.0, 2.0, 3.0]
    assert hermitian_oracle(vals, 1).kind == "segment"
    assert hermitian_oracle(vals, 3).kind == "empty"
    assert hermitian_oracle([1.0, 2.0, 3.0], 2).kind == "point"


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_hermitian_oracle_point_rule_is_relative(scale):
    assert hermitian_oracle(scale * np.array([-1.0, 0.0, 1.0]), 1).kind == "segment"
    assert hermitian_oracle(scale * np.array([1.0, 2.0, 3.0]), 2).kind == "point"
    assert hermitian_oracle(np.full(3, scale), 1).kind == "point"
    assert hermitian_oracle(np.zeros(3), 2).kind == "point"


def test_normal_eigenvalues_recovers_spectrum():
    rng = generator(81)
    eigs = rng.normal(size=5) + 1j * rng.normal(size=5)
    u = random_unitary(5, rng)
    t = u.conj().T @ np.diag(eigs) @ u
    got = np.sort_complex(normal_eigenvalues(t))
    assert np.abs(got - np.sort_complex(eigs)).max() < 1e-8


def test_normal_eigenvalues_handles_tied_real_parts():
    got = np.sort_complex(normal_eigenvalues(np.diag(pentagon_eigs())))
    assert np.abs(got - np.sort_complex(pentagon_eigs())).max() < 1e-8


NEAR_TIED = np.array([1j, 1.5e-8 - 1j, 0.5 + 0.3j, -0.7 - 0.2j])


@pytest.mark.parametrize("hidden", [False, True])
def test_normal_eigenvalues_near_tied_real_parts(hidden):
    # real parts 1.5e-8 apart must not be averaged into one cluster
    t = np.diag(NEAR_TIED)
    if hidden:
        u = random_unitary(4, generator(0))
        t = u.conj().T @ t @ u
    got = normal_eigenvalues(t)
    # the imaginary parts are well apart, so they pair the eigenvalues
    got, want = got[np.argsort(got.imag)], NEAR_TIED[np.argsort(NEAR_TIED.imag)]
    assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(t)


def test_normal_eigenvalues_rejects_non_normal():
    with pytest.raises(ValueError):
        normal_eigenvalues(shift_matrix(3) + np.diag([1.0, 0, 0]))


SCALES = (1e-10, 1.0, 1e10)
SPECTRUM = np.array([1.0, 2j, -1 + 1j])


@pytest.mark.parametrize("s", SCALES)
def test_normal_eigenvalues_rejects_scaled_shift(s):
    # the normality rule is relative, so a tiny shift is as far from
    # normal as S_3 itself
    with pytest.raises(ValueError):
        normal_eigenvalues(s * shift_matrix(3))


@pytest.mark.parametrize("c", [0.0, 1e6, -1e6j, 1e12])
def test_normality_rule_is_translation_invariant(c):
    # measured on uncentred T, a large multiple of I made S_4 + c I pass
    # as normal: the suite ran the NORMAL oracle and failed it
    # (discrepancy inf) on correct input
    t = shift_matrix(4) + c * np.eye(4)
    with pytest.raises(ValueError):
        normal_eigenvalues(t)
    reports = property_suite(t, 3, 720, generator(3))
    assert [r.property_id for r in reports] == ["P1", "P2", "P3", "P4", "P5", "P6"]
    assert all(r.passed for r in reports), reports
    eigs = pentagon_eigs()
    got = np.sort_complex(normal_eigenvalues(np.diag(eigs) + c * np.eye(5)))
    assert np.abs(got - np.sort_complex(eigs + c)).max() <= 1e-12 * max(1.0, abs(c))


@pytest.mark.parametrize("e", [-700, 0, 700])
def test_normality_rule_holds_at_every_scale(e):
    # ||CC* - C*C||_F and ||C||_F^2 square C's entries twice over, so a
    # Gaussian passed as normal from about 2^+-256 on; the rule is taken at
    # unit size, so the verdicts are those at scale 1
    rng = generator(88)
    u = random_unitary(4, rng)
    for t, normal in ((random_matrix(4, rng), False), (shift_matrix(4), False),
                      (u.conj().T @ np.diag(SPECTRUM.tolist() + [0.5]) @ u, True),
                      (np.diag(SPECTRUM) + 1e9 * np.eye(3), True)):
        assert is_normal(2.0**e * t) == normal, t


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("hidden", [False, True])
def test_normal_eigenvalues_recovers_scaled_spectrum(s, hidden):
    t = np.diag(SPECTRUM)
    if hidden:
        u = random_unitary(3, generator(83))
        t = u.conj().T @ t @ u
    got = np.sort_complex(normal_eigenvalues(s * t))
    assert np.abs(got - s * np.sort_complex(SPECTRUM)).max() <= 1e-8 * s


@pytest.mark.parametrize("s", SCALES)
def test_normal_eigenvalues_hidden_skew_hermitian(s):
    # the real parts are rounding noise at every scale
    u = random_unitary(4, generator(84))
    imag = np.array([-1.5, -0.5, 0.25, 2.0])
    got = normal_eigenvalues(s * (u.conj().T @ np.diag(1j * imag) @ u))
    got = got[np.argsort(got.imag)]
    assert np.abs(got - s * 1j * imag).max() <= 1e-8 * s


# --- radius bound ------------------------------------------------------------------------

def test_haagerup_equality_for_shift():
    rep = haagerup_bound_check(shift_matrix(7), pencil_sweep(shift_matrix(7), 2048), 7)
    assert rep.passed
    assert "equality" in rep.note
    assert abs(np.linalg.norm(shift_matrix(7), 2) * shift_radius(7, 1)
               - 0.9238795325112867) < 1e-12


def test_haagerup_equality_for_scaled_shift():
    t = 0.3 * shift_matrix(4)
    rep = haagerup_bound_check(t, pencil_sweep(t, 2048), 4)
    assert rep.passed and "equality" in rep.note


def test_haagerup_random_strict_inequality():
    rng = generator(91)
    t = random_nilpotent_contraction(5, rng, norm=1.0)
    rep = haagerup_bound_check(t, pencil_sweep(t, 2048), nilpotency_index(t))
    assert rep.passed
    assert rep.discrepancy == 0.0


def test_haagerup_report_of_nilpotent_suite():
    dilation, disc, haagerup = check_nilpotent(shift_matrix(5), 2048)
    assert [r.property_id for r in (dilation, disc, haagerup)] == \
        ["DILATION", "DISC", "HAAGERUP"]
    assert dilation.passed and disc.passed
    assert haagerup.passed and "equality" in haagerup.note
    assert haagerup == haagerup_bound_check(shift_matrix(5),
                                            pencil_sweep(shift_matrix(5), 2048), 5)


def test_dilation_accepts_what_the_contraction_gate_accepts():
    # ||T|| = 1 + 1e-10 passes build_dilation's gate; the clamped defect
    # then leaves an isometry residual of hypot(c^4 - 1, c^2 - 1) ~ 4.5e-10
    dilation, disc, haagerup = check_nilpotent((1 + 1e-10) * shift_matrix(3), 2048)
    assert dilation.passed and disc.passed and haagerup.passed, dilation
    assert dilation.discrepancy > RESIDUAL_TOL * 3
    # a contraction keeps the per-dimension tolerance
    assert check_nilpotent(shift_matrix(3), 2048)[0].tolerance == RESIDUAL_TOL * 3


@pytest.mark.parametrize("n", range(2, 9))
def test_disc_tolerance_is_the_row_tolerance(n):
    # DISC compares exact column maxima with the disc radii, so a contraction
    # c S_n gets the row tolerance, 17 n eps ||T||_2, not a fixed 5e-6
    for c in (1e-3, 0.37, 1.0):
        disc = check_nilpotent(c * shift_matrix(n), 2048)[1]
        assert disc.passed, (c, disc)
        assert disc.tolerance < 100 * n * np.finfo(float).eps, (c, disc)


def test_nilpotent_suite_rejects_non_contraction():
    with pytest.raises(ValueError):
        check_nilpotent(2.0 * shift_matrix(3), 256)


@pytest.mark.parametrize("dim", [0, 1])
def test_random_nilpotent_contraction_rejects_dim_below_2(dim):
    # the strictly lower triangle of a 1 x 1 matrix is always zero, so
    # redrawing until it is nonzero never ends
    with pytest.raises(ValueError, match="dim >= 2"):
        random_nilpotent_contraction(dim, generator(0))


@pytest.mark.parametrize("r_hint", [None, 1, 2])
def test_nilpotent_instances_pass(r_hint):
    rng = generator(92)
    for _ in range(3):
        assert all(r.passed for r in check_nilpotent(nilpotent_instance(4, r_hint, rng), 2048))


def _disc_over_every_rank(t, m):
    """DISC's discrepancy and note from every admissible rank's column
    maximum of a fully solved sweep."""
    pack = build_dilation(t)
    sweep = pencil_sweep(t, m)
    sweep.eigenvalues
    worst, note = -np.inf, ""
    for k in range(1, min(t.shape[0], pack.n * pack.r) + 1):
        radius = shift_radius(pack.n, k, pack.r)
        if radius is None:
            continue
        excess = float(sweep.column(k - 1).max()) / 2.0 - radius
        if excess > worst:
            note = f"worst k={k} against cos({rho(k, pack.r)}pi/{pack.n + 1})"
            worst = excess
    return worst, note


@pytest.mark.parametrize("r_hint", [None, 2, 3])
def test_nilpotent_reports_are_those_of_a_fully_solved_sweep(r_hint, monkeypatch):
    # DISC's column maxima and HAAGERUP's radius come from one refinement
    # of a batch sweep, the bits of a sweep whose every pencil is solved,
    # and DISC reads the first rank of each radius alone, with the worst
    # excess and rank of every rank's
    def solved(t, m):
        sweep = pencil_sweep(t, m)
        sweep.eigenvalues
        return sweep

    rng = generator(71)
    for d in (3, 5, 8):
        for _ in range(3):
            t = nilpotent_instance(d, r_hint, rng)
            calls = []
            monkeypatch.setattr(ranges, "eig_hermitian_stack",
                                lambda stack: calls.append(stack) or eig(stack))
            got = check_nilpotent(t, 2048)
            monkeypatch.undo()
            # the coarse pass and at most four levels, or the coarse pass and the rest
            assert len(calls) <= 5
            assert (got[1].discrepancy, got[1].note) == _disc_over_every_rank(t, 2048)
            monkeypatch.setattr(checks, "pencil_sweep", solved)
            assert check_nilpotent(t, 2048) == got
            monkeypatch.undo()


def test_shift_suite_passes_and_counts_every_rank():
    rep = check_shift(6, 2048)
    assert rep.property_id == "SHIFT" and rep.passed and rep.note == ""
    assert rep.discrepancy <= 5e-6


@pytest.mark.parametrize("m", [64, 2048])
def test_shift_suite_passes_on_the_zero_shift(m):
    # S_1 = [0]: its one rank is the middle rank, 2k = n + 1, whose closed
    # form is exactly 0 (shift_radius's point), at a row tolerance of 0
    rep = check_shift(1, m)
    assert rep.passed and rep.note == ""
    assert rep.discrepancy == 0.0


def test_shift_suite_sees_a_disc_2e_6_too_large(monkeypatch):
    # the m-gon reaches r sec(pi/2048) = r (1 + 1.2e-6); a region 2e-6 larger
    # than the engine's leaves that bracket, though it stays within 5e-6 of r
    def grown(sweep, k):
        rep = range_from_sweep(sweep, k)
        region = ConvexRegion(rep.region.kind, (1 + 2e-6) * rep.region.vertices)
        return dataclasses.replace(rep, region=region)

    monkeypatch.setattr(checks, "range_from_sweep", grown)
    rep = check_shift(4, 2048)
    assert not rep.passed and "max modulus" in rep.note


def test_direct_sum_rejects_reports_on_different_grids():
    t = shift_matrix(3)
    with pytest.raises(ValueError):
        check_direct_sum(t, t, base(t, 1), base(t, 1, 256))


@pytest.mark.parametrize("t, oracle", [
    (random_square(4, 93), None),
    (np.diag([0.0, 1.0, 2.0, 3.0]), "HERMITIAN"),
    (np.diag(pentagon_eigs()), "NORMAL"),
    (np.zeros((3, 3)), "HERMITIAN"),
])
def test_property_suite_ids(t, oracle):
    reports = property_suite(t, 1, 1024, generator(94))
    ids = [r.property_id for r in reports]
    assert ids == ["P1", "P2", "P3", "P4", "P5", "P6"] + ([oracle] if oracle else [])
    assert all(r.passed for r in reports), reports


@pytest.mark.parametrize("d, k", [(2, 2), (3, 1), (4, 2), (5, 3), (6, 4)])
def test_property_suite_builds_each_rank_once(d, k, monkeypatch):
    # P6 reuses the base report at its rank, so range_from_sweep runs once
    # per (sweep, rank): at k and at the nesting ranks 1..min(d, 3), and P6
    # reports what a P6 building every rank afresh reports
    t = random_square(d, 101)
    calls = []

    def counted(sweep, rank):
        calls.append((id(sweep), rank))
        return range_from_sweep(sweep, rank)

    monkeypatch.setattr(checks, "range_from_sweep", counted)
    reports = property_suite(t, k, 256, generator(102))
    monkeypatch.undo()
    assert len(set(calls)) == len(calls), calls
    assert sorted(rank for _, rank in calls) == sorted({k, *range(1, min(d, 3) + 1)})
    assert reports[5] == check_nesting(pencil_sweep(t, 256), min(d, 3))


def test_property_suite_draw_order_fixed():
    t = random_square(3, 95)
    assert property_suite(t, 2, 256, generator(1)) == property_suite(t, 2, 256, generator(1))


def test_affine_reads_the_report_for_a_grid_rotation():
    # P1 compares the report's own rows at every a, on the grid (1j, -1.7)
    # or off it, so a report of 2T must fail
    t = random_matrix(4, generator(3))
    for a in (1j, 0.3 + 1.1j, np.exp(0.5j), -1.7):
        assert not check_affine(t, rank_k_range(2 * t, 1, 720), a, 0.5).passed, a
        assert check_affine(t, rank_k_range(t, 1, 720), a, 0.5).passed, a


def test_report_pass_iff_within_tolerance():
    rep = check_affine(shift_matrix(3), base(shift_matrix(3), 1), 1.0, 0.0)
    assert rep.passed == (rep.discrepancy <= rep.tolerance)


def test_hausdorff_symmetry_of_equality_checks():
    a = rank_k_range(random_square(4, 99), 1, M).region
    b = rank_k_range(random_square(4, 98), 1, M).region
    assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), abs=1e-12)


def test_checks_deterministic_for_fixed_inputs():
    t = random_square(4, 97)
    u = random_unitary(4, generator(96))
    first = check_unitary(t, base(t, 2, 64), u)
    second = check_unitary(t, base(t, 2, 64), u)
    assert first == second
