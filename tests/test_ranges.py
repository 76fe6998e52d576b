import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrnr import geometry, ranges
from hrnr.checks import (direct_sum, generator, montecarlo_range, property_suite, random_matrix,
                         random_unitary)
from hrnr.geometry import ConvexRegion, hausdorff
from hrnr.linalg import as_matrix, eig_hermitian_stack, unit_scale
from hrnr.ranges import (
    BadRankError,
    _row_tol,
    grid_angles,
    numerical_radius,
    pencil,
    pencil_sweep,
    range_from_sweep,
    rank_k_range,
    resolve_angles,
)
from hrnr.shifts import shift_matrix



# --- pencil -----------------------------------------------------------------

def test_pencil_shift_at_zero():
    got = pencil(shift_matrix(2), 0.0)
    assert np.abs(got - np.array([[0, 1], [1, 0]])).max() < 1e-15


def test_pencil_hermitian_at_zero_doubles():
    h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -0.5]])
    assert np.abs(pencil(h, 0.0) - 2 * h).max() == 0.0


def test_pencil_shift_quarter_turn():
    got = pencil(shift_matrix(2), np.pi / 2)
    assert np.abs(got - np.array([[0, -1j], [1j, 0]])).max() < 1e-15


def test_pencil_always_hermitian():
    rng = generator(5)
    t = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    for theta in rng.uniform(0, 2 * np.pi, 8):
        h = pencil(t, theta)
        assert np.array_equal(h, h.conj().T)


# --- rank_k_range -----------------------------------------------------------

def test_shift3_rank1_is_quarter_cosine_disc():
    # the certified bracket of a centred disc: every offset within the row
    # tolerance of the radius, and the polygon's moduli too, up to its outer
    # error bound and the geometry's relaxed cut above it
    rep = rank_k_range(shift_matrix(3), 1, 2048)
    assert rep.region.kind == "polygon"
    rho, tol = np.cos(np.pi / 4), _row_tol(3, 1.0)
    outer = rep.outer_error_bound + geometry.CLIP_EPS * rep.sweep.region_bound
    assert rho - tol <= rep.region.max_modulus() <= rho + outer + tol
    assert abs(rep.min_support() - rho) <= tol
    # disc: support is the same in every direction
    offsets = rep.support_samples[:, 1]
    assert offsets.max() - offsets.min() <= 2.0 * tol


def test_shift4_rank3_empty():
    assert rank_k_range(shift_matrix(4), 3, 2048).region.is_empty


def test_upper_rank_with_a_negative_strip_is_empty():
    # for 2k > n + 1 the planes at theta and theta + pi bound a strip of
    # width (lambda_k - lambda_{n+1-k}) / 2; here it is -1e-12 at theta = 0,
    # far below the rows' rounding, so the range is empty.  The geometry's
    # relaxation by 1e-12 of its bound would absorb that gap (a point).
    t = np.diag([0.0, 1e-12, 2e-12, 1.0])
    for m in (720, 721, 2048):
        assert rank_k_range(t, 3, m).region.is_empty, m
        assert rank_k_range(t, 4, m).region.is_empty, m
    # at 2k = n + 1 the geometry decides: S_3's k = 2 range is the point 0
    assert rank_k_range(shift_matrix(3), 2, 720).region.kind == "point"
    # strips of zero width, exactly or within rounding, are not empty: a
    # triple eigenvalue makes Lambda_3 a point, exposed or unitarily hidden,
    # and every rank of a scalar matrix is its scalar
    u = random_unitary(4, generator(67))
    triple = np.diag([0.0, 0.0, 0.0, 1.0])
    for t, k, at in ((triple, 3, 0.0), (u @ triple @ u.conj().T, 3, 0.0),
                     ((2.0 - 1.0j) * np.eye(4), 4, 2.0 - 1.0j)):
        for m in (720, 721, 2048):
            region = rank_k_range(t, k, m).region
            assert region.kind == "point", (k, m)
            assert abs(region.vertices[0] - at) <= 1e-12, (k, m)


def test_hermitian_diag_rank2_segment():
    rep = rank_k_range(np.diag([0.0, 1.0, 2.0, 3.0]), 2, 2048)
    assert rep.region.kind == "segment"
    ends = sorted(rep.region.vertices, key=lambda z: z.real)
    assert abs(ends[0] - 1.0) < 1e-6
    assert abs(ends[1] - 2.0) < 1e-6


def test_bad_rank_rejected():
    with pytest.raises(BadRankError):
        rank_k_range(shift_matrix(4), 0, 64)
    with pytest.raises(BadRankError):
        rank_k_range(shift_matrix(4), 5, 64)


@pytest.mark.parametrize("t, kind", [
    (shift_matrix(4), "disc"),
    (np.diag([1.0, 2j, -1.0, 0.5]), "disc"),
    (random_matrix(4, generator(11)), "batch"),
])
def test_range_from_sweep_rejects_a_bad_rank(t, kind):
    # the engine's own check, whose text ``hrnr range`` and
    # ``hrnr verify-properties`` print
    sweep = pencil_sweep(t, 64)
    assert sweep.kind == kind
    for k in (0, 5):
        with pytest.raises(BadRankError, match=rf"^k must be in 1\.\.4, got {k}$"):
            range_from_sweep(sweep, k)


def test_report_metadata():
    rep = rank_k_range(shift_matrix(3), 1, 64)
    assert rep.k == 1 and rep.angles == 64
    assert rep.support_samples.shape == (64, 2)
    assert rep.outer_error_bound == pytest.approx(
        rep.region.max_modulus() * (1 / np.cos(np.pi / 64) - 1))
    empty = rank_k_range(shift_matrix(4), 4, 64)
    assert empty.outer_error_bound == 0.0


# --- numerical_radius ---------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_radius_of_shift(n):
    got = numerical_radius(shift_matrix(n), 2048)
    assert abs(got - np.cos(np.pi / (n + 1))) <= _row_tol(n, 1.0)


def test_radius_hermitian_is_spectral():
    assert numerical_radius(np.diag([3.0, -1.0]), 64) == pytest.approx(3.0, abs=1e-12)


def test_radius_scales_linearly():
    # positive scaling scales every pencil eigenvalue by the same factor
    base = numerical_radius(shift_matrix(3), 512)
    scaled = numerical_radius(0.7 * shift_matrix(3), 512)
    assert abs(scaled - 0.7 * base) < 1e-12
    assert abs(scaled - 0.7 * np.cos(np.pi / 4)) <= _row_tol(3, 0.7)


def test_radius_nondecreasing_in_nested_grids():
    rng = generator(21)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    r16 = numerical_radius(t, 16)
    r32 = numerical_radius(t, 32)
    r64 = numerical_radius(t, 64)
    assert r16 <= r32 + 1e-15
    assert r32 <= r64 + 1e-15


def test_sweep_grid_and_region_bound():
    # the one grid of every sweep (and of the region writer's template), and
    # the one bound that range_from_sweep and the checks scale by
    sweep = pencil_sweep(shift_matrix(4), 720)
    assert sweep.thetas.tobytes() == grid_angles(720).tobytes()
    assert sweep.region_bound == 2.0 * sweep.numerical_radius() > 0
    assert pencil_sweep(np.zeros((2, 2)), 16).region_bound == 1.0


def test_angle_floor_enforced():
    with pytest.raises(ValueError):
        numerical_radius(shift_matrix(3), 8)


def test_resolve_angles_env_override(monkeypatch):
    monkeypatch.delenv("HRNR_ANGLES", raising=False)
    assert resolve_angles() == 720
    assert resolve_angles(None, 2048) == 2048
    monkeypatch.setenv("HRNR_ANGLES", "256")
    assert resolve_angles() == 256
    assert resolve_angles(None, 2048) == 256
    assert resolve_angles(64) == 64  # an explicit count wins
    for bad in ("4", "many"):
        monkeypatch.setenv("HRNR_ANGLES", bad)
        with pytest.raises(ValueError):
            resolve_angles()
    with pytest.raises(ValueError, match="angle count must be >= 16, got 8"):
        resolve_angles(8)


def test_resolve_angles_rejects_fractional_count(monkeypatch):
    monkeypatch.delenv("HRNR_ANGLES", raising=False)
    with pytest.raises(ValueError, match=r"angle count must be an integer, got 100\.9"):
        rank_k_range(shift_matrix(3), 1, 100.9)
    for bad in (100.9, 16.5, np.float64(64.25)):
        with pytest.raises(ValueError, match="angle count must be an integer"):
            resolve_angles(bad)
    monkeypatch.setenv("HRNR_ANGLES", "100.9")
    with pytest.raises(ValueError, match="angle count must be an integer"):
        resolve_angles()
    # integral values of any numeric type are counts
    for good in (100, np.int64(100), 100.0, np.float64(100.0)):
        got = resolve_angles(good)
        assert got == 100 and type(got) is int
    monkeypatch.setenv("HRNR_ANGLES", "100")
    assert resolve_angles() == 100


def test_library_defaults_honour_env_angles(monkeypatch):
    monkeypatch.setenv("HRNR_ANGLES", "64")
    assert rank_k_range(shift_matrix(3), 1).angles == 64
    # S_3's radius is cos(pi/4) on any grid, so probe the grid through
    # a matrix whose radius is reached between the grid angles
    t = np.diag([np.exp(1j * np.pi / 100), 0.0])
    assert numerical_radius(t) == pytest.approx(pencil_sweep(t, 64).numerical_radius(), abs=0)
    assert numerical_radius(t) < pencil_sweep(t, 720).numerical_radius()


# --- engine invariants ---------------------------------------------------------

def test_rank1_matches_monte_carlo_hull():
    rng = generator(100)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t *= 0.25 / np.linalg.norm(t)
    rep = rank_k_range(t, 1, 720)
    hull = montecarlo_range(t, samples=100_000, seed=100)
    assert hausdorff(rep.region, hull) <= 2 * rep.outer_error_bound + 0.02


def test_nesting_of_ranks():
    rng = generator(7)
    t = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    sweep = pencil_sweep(t, 256)
    regions = [range_from_sweep(sweep, k).region for k in range(1, 6)]
    for lo, hi in zip(regions[1:], regions[:-1]):
        if lo.is_empty:
            continue
        assert not hi.is_empty
        for theta in sweep.thetas:
            u = complex(np.cos(theta), np.sin(theta))
            assert ((u * lo.vertices).real.max()
                    <= (u * hi.vertices).real.max() + 1e-8)


def test_vertices_satisfy_fresh_constraints():
    rng = generator(13)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = 128
    rep = rank_k_range(t, 2, m)
    assert rep.region.kind == "polygon"
    fresh = rng.uniform(0, 2 * np.pi, size=10 * m)
    k = rep.k
    phases = np.exp(1j * fresh)
    stack = phases[:, None, None] * t
    stack = stack + stack.conj().swapaxes(1, 2)
    vals = eig_hermitian_stack(stack)
    # a circumscribed polygon pokes out between grid angles in proportion
    # to the boundary's curvature radius; ten outer bounds covers it here
    slack = 10 * rep.outer_error_bound + 1e-8
    for theta, lam in zip(fresh, vals[:, k - 1]):
        u = complex(np.cos(theta), np.sin(theta))
        assert (u * rep.region.vertices).real.max() <= lam / 2 + slack


KINDS = ("shift", "gauss", "herm", "normal", "nilpotent")


def _equivariance_case(seed, kind=None):
    """A unit-norm matrix of one of five kinds (drawn unless given), a rank
    with a non-empty range for the Gaussian kinds (Li and Sze:
    n >= 3k - 2), and a grid."""
    rng = generator(seed)
    kind = kind or rng.choice(KINDS)
    n = int(rng.integers(2, 9))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "shift":
        t = shift_matrix(n)
    elif kind == "gauss":
        t = z
    elif kind == "herm":
        t = z + z.conj().T
    elif kind == "normal":
        u = random_unitary(n, rng)
        t = u @ np.diag(z[0]) @ u.conj().T
    else:
        t = np.tril(z, -1)
    top = n if kind in ("shift", "herm", "normal") else (n + 2) // 3
    k = int(rng.integers(1, top + 1))
    m = int(rng.choice([64, 720, 2048]))
    return t / np.linalg.norm(t, 2), k, m, rng


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_region_is_scale_and_translation_equivariant(seed):
    # Lambda_k(sT + bI) = s Lambda_k(T) + b: the tag must not change, and
    # the regions may differ by rounding and the 1e-12 relaxation only
    t, k, m, rng = _equivariance_case(seed)
    s = 10.0 ** rng.uniform(-12, 12)
    b = s * 10.0 ** rng.uniform(-2, 4) * np.exp(2j * np.pi * rng.uniform())
    b = 0.0 if rng.uniform() < 0.3 else b
    moved_t = s * t + b * np.eye(t.shape[0])
    base = rank_k_range(t, k, m).region
    moved = rank_k_range(moved_t, k, m).region
    assert moved.kind == base.kind
    if not base.is_empty:
        want = ConvexRegion(base.kind, s * base.vertices + b)
        assert hausdorff(moved, want) <= 1e-10 * np.linalg.norm(moved_t)


@pytest.mark.xfail(strict=True, reason="the geometry's thresholds scale with the bound 2 w(T + bI) "
                   "~ 2|b|, so the collapse starts near |b| ~ 1e8 ||T||_2, where the Gaussian's "
                   "k = 2 polygon comes back a segment, and from 1e9 every polygon and segment "
                   "is a point; centring each sweep would mend it (ROADMAP item 14)")
def test_far_translations_keep_the_tag():
    # Lambda_k(T + bI) = Lambda_k(T) + b for every b: unit-norm Gaussian and
    # Hermitian T, n = 5, keep their tag at k = 1 and 2 for |b| = 10^8..10^12
    rng = generator(1400)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    lost = []
    for t in (x, x + x.conj().T):
        t = t / np.linalg.norm(t, 2)
        for k in (1, 2):
            want = rank_k_range(t, k, 720).region.kind
            for e in range(8, 13):
                got = rank_k_range(t + 10.0**e * np.exp(0.7j) * np.eye(5), k, 720).region.kind
                if got != want:
                    lost.append(f"k={k} e={e}: {want} -> {got}")
    assert not lost, lost


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("c", [1e-310, 1e-315, 1e-320, 5e-324])
def test_near_subnormal_scalar_is_its_point(c, k):
    # c I_2's rank-k range is the point c; its offsets in T's units are
    # subnormal, down to the smallest, yet the sweep at unit size keeps the
    # tag
    region = rank_k_range(c * np.eye(2), k, 720).region
    assert region.kind == "point" and abs(region.vertices[0] - c) <= 0.5 * c


def test_subnormal_diagonal_is_its_segment():
    # Lambda_1 of diag(5e-324, 1e-323) is the segment between them
    assert rank_k_range(np.diag([5e-324, 1e-323]), 1, 720).region.kind == "segment"


@pytest.mark.parametrize("e", [-1060, 0, 1014, 1016, 1020])
def test_point_ranges_hold_at_extreme_scales(e):
    # rank 2 of 2^e diag(1, 2, 3) is the point 2^(e+1), and rank 2 of the
    # Jordan block 2^e ((0.5 + 0.5i) I + S_3) the point 2^e (0.5 + 0.5i),
    # which stays on the graded path at every scale.  Swept at T's own size
    # the Fourier fit's sum over the rows overflowed at 2^1014, and the
    # Jordan block left the graded path from 2^1016: both came back empty
    region = rank_k_range(2.0**e * np.diag([1.0, 2.0, 3.0]), 2, 720).region
    assert region.kind == "point" and region.vertices[0] == 2.0 ** (e + 1)
    jordan = 2.0**e * ((0.5 + 0.5j) * np.eye(3) + shift_matrix(3))
    report = rank_k_range(jordan, 2, 720)
    assert report.sweep.centre is not None
    assert report.region.kind == "point" and report.region.vertices[0] == 2.0**e * (0.5 + 0.5j)


ROTATION_DEFECT = ("a normal T's segment comes back a polygon when the segment's normal lies off "
                   "the angle grid: the grid planes cut a thin polygon about it, wider than the "
                   "segment test allows; the exact range from the tie angles would mend it "
                   "(ROADMAP item 17)")


@pytest.mark.xfail(strict=True, reason=ROTATION_DEFECT)
@pytest.mark.parametrize("m", [720, 65536])
@pytest.mark.parametrize("phi", [0.3, 1.0])
def test_rotated_hermitian_ranges_are_segments(phi, m):
    # e^{i phi} H is normal with collinear eigenvalues, so its ranks k <= n/2
    # are segments at every phi, as at phi = 0; today each of these is a
    # 5-vertex polygon
    x = random_matrix(5, generator(5))
    t = np.exp(1j * phi) * (x + x.conj().T)
    assert [rank_k_range(t, k, m).region.kind for k in (1, 2)] == ["segment", "segment"]


@pytest.mark.xfail(strict=True, reason=ROTATION_DEFECT)
def test_two_point_spectrum_off_the_axes_is_a_segment():
    # Lambda_1 of diag(0, 1 - 2j) is the segment [0, 1 - 2j]; today a
    # 4-vertex polygon
    assert rank_k_range(np.diag([0.0, 1.0 - 2.0j]), 1, 720).region.kind == "segment"


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", KINDS)
def test_property_suite_verdicts_are_scale_invariant(kind, seed):
    # every check is relative to ||sT||, so sT gets T's checks and passes
    # them all, from 1e-12 to 1e12
    t, k, m, rng = _equivariance_case(seed, kind)
    draws = int(rng.integers(1 << 31))
    want = [r.property_id for r in property_suite(t, k, m, generator(draws))]
    for s in 10.0 ** np.arange(-12, 13, 4):
        reports = property_suite(s * t, k, m, generator(draws))
        assert [r.property_id for r in reports] == want, s
        assert all(r.passed for r in reports), (s, reports)


def test_sweep_determinism():
    t = shift_matrix(5)
    a = pencil_sweep(t, 64)
    b = pencil_sweep(t, 64)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


# --- half-grid sweep ------------------------------------------------------------

def _sweep_inputs():
    rng = generator(2024)
    gauss = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    bases = {"shift": shift_matrix(5), "gauss": gauss, "herm": x + x.conj().T}
    return [pytest.param(s * t, id=f"{name}-{s:g}")
            for name, t in bases.items() for s in (1.0, 1e-8, 1e8)]


@pytest.mark.parametrize("m", [720, 2048, 721])
@pytest.mark.parametrize("t", _sweep_inputs())
def test_sweep_matches_full_grid_lapack(t, m):
    # even m solves half the grid and mirrors it through H_{theta+pi} = -H_theta;
    # odd m solves every angle.  All must agree with a direct full-grid solve.
    sweep = pencil_sweep(t, m)
    thetas = 2.0 * np.pi * np.arange(m) / m
    stack = np.exp(1j * thetas)[:, None, None] * t
    stack = stack + stack.conj().swapaxes(1, 2)
    direct = np.linalg.eigvalsh(stack)[:, ::-1]
    assert sweep.eigenvalues.shape == (m, t.shape[0])
    assert np.array_equal(sweep.thetas, thetas)
    assert np.abs(sweep.eigenvalues - direct).max() <= 1e-12 * np.linalg.norm(t)
    assert (np.diff(sweep.eigenvalues, axis=1) <= 0).all()


# --- real sweep: the half-turn rule alone -----------------------------------

def _corner_shift(n):
    """S_n with 0.5 at (0, n - 1): real, not graded (the corner closes the
    shift's chain into a cycle) and not normal (a weighted cycle whose
    weights differ in modulus)."""
    t = shift_matrix(n)
    t[0, n - 1] = 0.5
    return t


def _real_inputs():
    rng = generator(77)
    return {"shift": shift_matrix(5), "gauss": rng.normal(size=(6, 6)),
            "diag": np.diag(rng.normal(size=5)), "corner": _corner_shift(5)}


def _batch_sizes(monkeypatch):
    """Spy on the sweep's eigensolver: the list it returns collects the
    size of every batch sent to LAPACK."""
    sizes = []

    def spy(stack):
        sizes.append(stack.shape[0])
        return eig_hermitian_stack(stack)

    monkeypatch.setattr(ranges, "eig_hermitian_stack", spy)
    return sizes


def _block(n):
    """The most pencils one LAPACK call of an n x n batch sweep takes:
    256 KB of complex pencils, 2^14 // n^2 of them, at least one."""
    return max(1, 2**14 // n**2)


def _assert_solved(sizes, total, n):
    """The batch sizes ``sizes`` solve ``total`` pencils of n x n in all,
    none in a call above one block."""
    assert sum(sizes) == total and max(sizes, default=0) <= _block(n), sizes


def _solved_pencils(t, m, monkeypatch):
    """The sweep of T on m angles and the batch sizes sent to LAPACK to form
    it and read its rows (a batch sweep solves its pencils when they are
    read)."""
    sizes = _batch_sizes(monkeypatch)
    sweep = pencil_sweep(t, m)
    sweep.eigenvalues
    monkeypatch.undo()
    return sweep, sizes


def _full_grid_rows(t, m):
    """LAPACK's spectra of all m pencils of T, descending."""
    thetas = 2.0 * np.pi * np.arange(m) / m
    stack = np.exp(1j * thetas)[:, None, None] * as_matrix(t)
    return eig_hermitian_stack(stack + stack.conj().swapaxes(1, 2))


@pytest.mark.parametrize("m", [16, 18, 17, 720, 2048])
@pytest.mark.parametrize("name", ["shift", "gauss", "diag", "corner"])
def test_real_sweep_matches_full_grid_solve(name, m, monkeypatch):
    # real T solves the pencils a complex T does, rows 0..m/2 - 1 (even m)
    # or all m (odd m), and fills the rest by the half-turn; every row stays
    # within the row tolerance of an all-m solve
    t = _real_inputs()[name]
    sweep, sizes = _solved_pencils(t, m, monkeypatch)
    # a diagonal T takes its rows from its diagonal and solves no pencil,
    # and the graded shift solves T + T* alone
    _assert_solved(sizes, {"diag": 0, "shift": 1}.get(name, _solved_count(m)), t.shape[0])
    vals = sweep.eigenvalues
    assert vals.shape == (m, t.shape[0])
    assert np.abs(vals - _full_grid_rows(t, m)).max() <= _row_tol(t.shape[0], np.linalg.norm(t, 2))
    assert (np.diff(vals, axis=1) <= 0).all()
    if m % 2 == 0:
        j = np.arange(m)
        assert np.array_equal(vals[(j + m // 2) % m], -vals[:, ::-1])


@pytest.mark.parametrize("m", [16, 17, 18, 720, 2048])
@pytest.mark.parametrize("name", ["corner", "gauss"])
def test_real_rows_are_the_folded_batch_bit_for_bit(name, m):
    # every row of a real T is LAPACK's spectrum of the pencil at its own
    # grid angle, or on an even grid the half-turn of row j - m/2
    t = _real_inputs()[name]
    rows = _batch_rows(t, m)
    if m % 2 == 0:
        rows = np.concatenate([rows, -rows[:, ::-1]])
    assert pencil_sweep(t, m).eigenvalues.tobytes() == rows.tobytes()


def test_barely_complex_input_takes_the_complex_path(monkeypatch):
    t = shift_matrix(4).astype(complex)
    t[0, 3] = 1e-300j
    _, sizes = _solved_pencils(t, 720, monkeypatch)
    assert sizes == [360]
    # t.real is S_4, graded: one solve of T + T*
    _, sizes = _solved_pencils(t.real, 720, monkeypatch)
    assert sizes == [1]
    # with a real corner, T and its real part solve the same half grid
    t[0, 3] += 0.5
    _, sizes = _solved_pencils(t, 720, monkeypatch)
    assert sizes == [360]
    _, sizes = _solved_pencils(t.real, 720, monkeypatch)
    assert sizes == [360]


# --- structured sweep: rows from T's own spectrum ---------------------------

def _solved_count(m):
    return m if m % 2 else m // 2


@pytest.mark.parametrize("m", [16, 17, 18, 720, 2048, 65536])
def test_diagonal_sweep_is_the_pencil_sweep_bit_for_bit(m, monkeypatch):
    # the pencil of a diagonal T is diagonal: its rows are the sorted
    # 2 Re(e^{i theta} t_jj), the bits LAPACK returns for the assembled
    # stack.  The half-turn that fills the other rows is shared, so the
    # solved rows and the rule pin the whole sweep.  Each row depends on its
    # angle alone, so large grids compare about 1024 solved rows, the last
    # among them.
    rng = generator(19)
    thetas = 2.0 * np.pi * np.arange(m) / m
    j = np.arange(m)
    for n in range(1, 9):
        for s in (1e-8, 1.0, 1e8):
            for real in (False, True):
                d = rng.normal(size=n) + (0 if real else 1j * rng.normal(size=n))
                t = np.diag(s * d)
                sweep, sizes = _solved_pencils(t, m, monkeypatch)
                assert sizes == []
                solved = _solved_count(m)
                rows = np.union1d(np.arange(0, solved, max(1, solved // 1024)), [solved - 1])
                stack = np.exp(1j * thetas[rows])[:, None, None] * t.astype(complex)
                want = eig_hermitian_stack(stack + stack.conj().swapaxes(1, 2))
                vals = sweep.eigenvalues
                assert vals[rows].tobytes() == want.tobytes(), (n, s, real)
                assert vals.shape == (m, n)
                if m % 2 == 0:
                    assert np.array_equal(vals[(j + m // 2) % m], -vals[:, ::-1])


@pytest.mark.parametrize("m", [720, 721, 2048])
@pytest.mark.parametrize("real", [False, True])
def test_hermitian_sweep_matches_full_grid_solve(real, m, monkeypatch):
    # the pencil of a Hermitian T is 2 cos(theta) T: rows are
    # 2 cos(theta) eigvalsh(T), within the row tolerance of a full-grid solve
    rng = generator(23)
    x = rng.normal(size=(6, 6)) + (0 if real else 1j * rng.normal(size=(6, 6)))
    t = x + x.conj().T
    sweep, sizes = _solved_pencils(t, m, monkeypatch)
    assert sizes == []
    direct = _full_grid_rows(t, m)
    assert np.abs(sweep.eigenvalues - direct).max() <= _row_tol(6, np.linalg.norm(t, 2))
    assert (np.diff(sweep.eigenvalues, axis=1) <= 0).all()
    if m % 2 == 0:
        # cos 0 = 1 and row m/2 is row 0 negated, so both ends are exact;
        # the engine solves T as the complex matrix as_matrix makes of it
        assert numerical_radius(t, m) == np.abs(np.linalg.eigvalsh(as_matrix(t))).max()


def test_near_structured_input_takes_the_pencil_path(monkeypatch):
    # a diagonal with one 1e-300 entry off it and a Hermitian matrix one ulp
    # off are normal within a pencil solve's rounding: their rows come from
    # the certified spectrum, within the row tolerance of a full-grid solve.
    # A near-diagonal with off-diagonal 1e-6 is not normal: its pencils are
    # solved.
    t = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
    t[0, 2] = 1e-300
    rng = generator(5)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = x + x.conj().T
    h[0, 1] = complex(np.nextafter(h[0, 1].real, np.inf), h[0, 1].imag)
    for near in (t, h):
        sweep, sizes = _solved_pencils(near, 720, monkeypatch)
        assert sizes == []
        tol = _row_tol(4, np.linalg.norm(near, 2))
        assert np.abs(sweep.eigenvalues - _full_grid_rows(near, 720)).max() <= tol
    off = np.diag([1.0, -2.0, 0.5, 3.0])
    off[0, 2] = 1e-6
    _, sizes = _solved_pencils(off, 720, monkeypatch)
    assert sizes == [360]


# --- numerically normal sweep: certified rows from eig + QR -------------------

def _hidden_normal(n, rng, real=False, tie=None):
    """Q D Q* for a Haar Q and a random spectrum D; ``tie`` sets the gap
    between the first two eigenvalues (0: an exact double eigenvalue).  A
    real one pairs conjugate eigenvalues in 2 x 2 rotation blocks and keeps
    a real eigenvalue for each odd n or tie."""
    if not real:
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        if tie is not None:
            d[1] = d[0] + tie
        u = random_unitary(n, rng)
        return u @ np.diag(d) @ u.conj().T
    block = np.zeros((n, n))
    pairs = (n - (2 if tie is not None else n % 2)) // 2
    for j in range(pairs):
        a, b = rng.normal(size=2)
        block[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[a, b], [-b, a]]
    reals = rng.normal(size=n - 2 * pairs)
    if tie is not None:
        reals[1] = reals[0] + tie
    block[2 * pairs:, 2 * pairs:] = np.diag(reals)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q @ block @ q.T


@pytest.mark.parametrize("m", [720, 721, 2048])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("tie", [1e-9, 0.0])
def test_normal_rows_match_full_grid_lapack(tie, real, m, monkeypatch):
    # hidden normals with a 1e-9 cluster or an exact double eigenvalue take
    # the certified path at every n here; every row is within the row
    # tolerance of a full-grid solve, and even grids keep the half-turn
    rng = generator(int(tie == 0.0) + 2 * real)
    spectral = 0
    j = np.arange(m)
    for n in (2, 3, 4, 5, 8, 12, 16):
        t = _hidden_normal(n, rng, real, tie)
        assert not np.imag(t).any() if real else np.imag(t).any()
        sweep, sizes = _solved_pencils(t, m, monkeypatch)
        spectral += sizes == []
        vals = sweep.eigenvalues
        assert np.abs(vals - _full_grid_rows(t, m)).max() <= _row_tol(n, np.linalg.norm(t, 2))
        assert (np.diff(vals, axis=1) <= 0).all()
        if m % 2 == 0:
            assert np.array_equal(vals[(j + m // 2) % m], -vals[:, ::-1])
    assert spectral == 7


def _batch_rows(t, m):
    """The rows the batch path solves: LAPACK's spectra at the solved angles."""
    thetas = 2.0 * np.pi * np.arange(_solved_count(m)) / m
    stack = np.exp(1j * thetas)[:, None, None] * as_matrix(t)
    return eig_hermitian_stack(stack + stack.conj().swapaxes(1, 2))


def _non_normal_inputs():
    rng = generator(41)
    out = {}
    for real in (False, True):
        tag = "real" if real else "complex"
        g = rng.normal(size=(5, 5)) + (0 if real else 1j * rng.normal(size=(5, 5)))
        out[f"gauss-{tag}"] = g
        out[f"nilpotent-{tag}"] = np.tril(g, -1)
        t = _hidden_normal(5, rng, real)
        for rel in (1e-8, 1e-14):  # one the commutator filter rejects, one the certificate
            p = rng.normal(size=(5, 5)) + (0 if real else 1j * rng.normal(size=(5, 5)))
            out[f"normal+{rel:g}-{tag}"] = t + rel * np.linalg.norm(t, 2) * p / np.linalg.norm(p, 2)
    out["shift"] = shift_matrix(5)
    out["corner"] = _corner_shift(5)
    return out


@pytest.mark.parametrize("m", [720, 721, 2048])
@pytest.mark.parametrize("name", sorted(_non_normal_inputs()))
def test_non_normal_inputs_keep_their_batch(name, m, monkeypatch):
    # a shift with a corner entry, nilpotent, Gaussian and perturbed normal T
    # send today's batch, and their solved rows are LAPACK's bits; the shift
    # itself is graded, and every row is its one solve of T + T*, symmetrised
    t = _non_normal_inputs()[name]
    sweep, sizes = _solved_pencils(t, m, monkeypatch)
    if name == "shift":
        assert sizes == [1]
        half = eig_hermitian_stack((t + t.T)[None]) / 2.0
        rows = np.tile(half - half[:, ::-1], (m, 1))
    else:
        _assert_solved(sizes, _solved_count(m), t.shape[0])
        rows = _batch_rows(t, m)
    assert sweep.eigenvalues[:len(rows)].tobytes() == rows.tobytes()


def test_path_decision_is_scale_free(monkeypatch):
    # every term of the certificate scales with T, so s T takes T's path
    rng = generator(43)
    inputs = [_hidden_normal(n, rng, real) for n in (2, 3, 4, 6, 8) for real in (False, True)]
    inputs += list(_non_normal_inputs().values())
    for t in inputs:
        paths = {s: _solved_pencils(s * t, 720, monkeypatch)[1] for s in (1e-8, 1.0, 1e8)}
        assert paths[1e-8] == paths[1.0] == paths[1e8], paths


@pytest.mark.parametrize("n", [4, 5, 8, 16, 32])
def test_hidden_normal_range_and_radius_send_no_batch(n, monkeypatch):
    # the interactive path: range and radius of a hidden normal matrix at
    # several scales solve no pencil
    sizes = _batch_sizes(monkeypatch)
    rng = generator(47 + n)
    for s in (1e-8, 1.0, 1e8):
        t = s * _hidden_normal(n, rng)
        rank_k_range(t, 1 + n // 4, 720)
        numerical_radius(t, 720)
    assert sizes == []


@pytest.mark.parametrize("kind, d, batches", [("normal", 4, 1), ("normal", 6, 1),
                                              ("herm", 3, 0), ("herm", 5, 0)])
def test_property_suite_batches_on_normal_input(kind, d, batches, monkeypatch):
    # on a hidden normal T, only P5's compression V*TV (not normal, d - 1 x
    # d - 1) solves its pencils, all m/2 of them; on Hermitian T, P1's
    # |a| T + b' I, P4's U*TU and P5's V*TV are numerically normal and no
    # pencil is solved
    rng = generator(53 + d)
    if kind == "normal":
        t = _hidden_normal(d, rng)
    else:
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = x + x.conj().T
    sizes = _batch_sizes(monkeypatch)
    for k in (1, 2):
        sizes.clear()
        reports = property_suite(t, k, 2048, generator(59 + k))
        assert all(r.passed for r in reports), reports
        _assert_solved(sizes, batches * 1024, d - 1)


@pytest.mark.parametrize("m", [720, 721])
@pytest.mark.parametrize("n", range(2, 10))
def test_tridiagonal_toeplitz_rows_match_the_closed_form(n, m, monkeypatch):
    # T = a S_n + b S_n* + d I has pencils c S_n + conj(c) S_n* + 2 Re(e^{i theta} d) I,
    # c = a e^{i theta} + conj(b) e^{-i theta}, so lambda_k / 2 is
    # Re(e^{i theta} d) + cos(k pi/(n+1)) |c| at every k.  Not rotation
    # invariant, so it sees an angle-sign error that a centred disc cannot.
    # |a| = |b| makes T normal (solved from its spectrum), |a| != |b| not.
    rng = generator(61 + n)
    thetas = 2.0 * np.pi * np.arange(m) / m
    cosines = np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    s = shift_matrix(n)
    for normal in (True, False):
        a, b, d = rng.normal(size=3) + 1j * rng.normal(size=3)
        if normal:
            b *= abs(a) / abs(b)
        t = a * s + b * s.T + d * np.eye(n)
        sweep, sizes = _solved_pencils(t, m, monkeypatch)
        assert (sizes == []) == normal
        c = np.abs(a * np.exp(1j * thetas) + np.conj(b) * np.exp(-1j * thetas))
        want = (np.exp(1j * thetas) * d).real[:, None] + c[:, None] * cosines
        got = sweep.eigenvalues / 2.0
        assert np.abs(got - want).max() <= _row_tol(n, np.linalg.norm(t, 2)), normal


# --- graded sweep: every pencil is similar to T + T* ---------------------------

def _weighted_shift(weights):
    n = len(weights) + 1
    t = np.zeros((n, n), dtype=np.result_type(weights, float))
    t[np.arange(1, n), np.arange(n - 1)] = weights
    return t


def _graded_inputs():
    rng = generator(71)
    block = np.zeros((5, 5), dtype=complex)
    block[:2, 2:] = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    s34 = np.zeros((7, 7))
    s34[:3, :3], s34[3:, 3:] = shift_matrix(3).real, shift_matrix(4).real
    return {"shift": shift_matrix(6), "shift-transpose": shift_matrix(6).T,
            "weighted-complex": _weighted_shift(rng.normal(size=4) + 1j * rng.normal(size=4)),
            "weighted-real": _weighted_shift(rng.normal(size=5)),
            "sum-3-4": s34, "block": block, "block-real": block.real}


def _ungraded_inputs():
    rng = generator(73)
    diag = shift_matrix(4)
    diag[2, 2] = 1e-300
    return {"corner": _corner_shift(5), "nilpotent-3": np.tril(rng.normal(size=(3, 3)), -1),
            "nilpotent-6": np.tril(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), -1),
            "diagonal-entry": diag}


def _jordan(n, lam):
    """The Jordan block J_n(lam) = lam I + S_n."""
    return lam * np.eye(n) + shift_matrix(n)


def _translated_graded_inputs():
    """dI + G for graded G: Jordan blocks, near and far from 0, and a
    weighted shift plus a scalar, complex and real."""
    rng = generator(72)
    weights = rng.normal(size=5) + 1j * rng.normal(size=5)
    return {"jordan": _jordan(5, 0.3 - 0.4j), "jordan-real": _jordan(4, -0.7),
            "jordan-far": _jordan(6, 1e6 * np.exp(0.7j)),
            "weighted-scalar": _weighted_shift(weights) + (1.5 + 0.5j) * np.eye(6),
            "weighted-scalar-real": _weighted_shift(weights.real) - 0.2 * np.eye(6)}


def test_grading_is_found_exactly():
    for name, t in _graded_inputs().items():
        assert ranges._is_graded(as_matrix(t)), name
    for name, t in _ungraded_inputs().items():
        assert not ranges._is_graded(as_matrix(t)), name
    # a nonzero diagonal is one number d plus a graded G, one group of
    # discs about d, or is not graded: an entry that joins two diagonal
    # values is not a direct sum
    for name, t in _translated_graded_inputs().items():
        rho, c = ranges._discs(as_matrix(t))
        assert (c == t[0, 0]).all() and rho.any(), name
    unequal = _jordan(4, 0.5)
    unequal[3, 3] = np.nextafter(0.5, 1.0)
    for t in (unequal, _corner_shift(5) + np.eye(5), *_ungraded_inputs().values()):
        assert ranges._discs(as_matrix(t)) is None


@pytest.mark.parametrize("m", [720, 721, 2048])
@pytest.mark.parametrize("name", sorted(_graded_inputs()) + sorted(_translated_graded_inputs()))
def test_graded_rows_match_full_grid_lapack(name, m, monkeypatch):
    # one solve of G + G*, at every scale; every row is within the row
    # tolerance of a full-grid solve and on an even grid the half-turn holds
    # bit for bit.  Without a translation every row is the same, so the
    # half-turn holds on an odd grid too, and row m - j = row j
    j = np.arange(m)
    inputs = _graded_inputs() | _translated_graded_inputs()
    for s in (1e-8, 1.0, 1e8):
        t = s * inputs[name]
        sweep, sizes = _solved_pencils(t, m, monkeypatch)
        assert sizes == [1], s
        assert _in_t_units(sweep.centre, sweep) == t[0, 0], s
        vals = sweep.eigenvalues
        assert vals.shape == (m, t.shape[0])
        assert np.abs(vals - _full_grid_rows(t, m)).max() <= _row_tol(t.shape[0],
                                                                      np.linalg.norm(t, 2))
        assert (np.diff(vals, axis=1) <= 0).all()
        if m % 2 == 0 or not t[0, 0]:
            assert np.array_equal(vals[(j + m // 2) % m], -vals[:, ::-1])
        if not t[0, 0]:
            assert np.array_equal(vals[-j % m], vals)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_shift_ranges_from_the_graded_rows(n):
    # every row is 2 cos(k pi/(n+1)), exactly 0 at k = (n+1)/2, where the
    # range is the point 0 up to the cut lines' relaxation; above that k it
    # is empty
    sweep = pencil_sweep(shift_matrix(n), 720)
    want = 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.abs(sweep.eigenvalues - want).max() <= 2.0 * _row_tol(n, 1.0)
    bound = 2.0 * sweep.numerical_radius()
    for k in range(1, n + 1):
        region = range_from_sweep(sweep, k).region
        if 2 * k == n + 1:
            assert not sweep.eigenvalues[:, k - 1].any()
            assert region.kind == "point" and abs(region.vertices[0]) <= 1e-12 * bound, k
            # read off the row with no fit, in the bits of the fit over
            # the zero rows: 0j, whose zeros are both positive
            fit = ranges._fourier_point(sweep, k, _row_tol(n, sweep.unit_bound))
            assert region.vertices.tobytes() == fit.vertices.tobytes() == bytes(16)
        else:
            assert region.kind == ("polygon" if 2 * k < n + 1 else "empty"), k


def _rank_deficient_block():
    """[[0, A], [0, 0]] with a 3 x 3 A of rank 1: T + T* has the eigenvalues
    +-|A|_2 and four zeros, so ranks 2 and 3 have the offset c_k = 0."""
    rng = generator(75)
    t = np.zeros((6, 6), dtype=complex)
    t[:3, 3:] = np.outer(rng.normal(size=3) + 1j * rng.normal(size=3), rng.normal(size=3))
    return t


@pytest.mark.parametrize("m", [16, 17, 720, 8192])
def test_graded_ranks_are_the_regular_m_gon(m, monkeypatch):
    # every row of a graded sweep is one row, so rank k's region is the
    # regular m-gon about 0 at the offset c_k; it is the intersection of the
    # m grid planes within 1e-12 * bound, with its tag, and c_k = 0 gives a
    # point.  No m-gon with c_k > 0 calls the geometry's intersection
    sent = []
    intersect = geometry.intersect_halfplanes
    monkeypatch.setattr(geometry, "intersect_halfplanes",
                        lambda *args, **kw: sent.append(1) or intersect(*args, **kw))
    cases = dict(_graded_inputs(), **{f"shift-{n}": shift_matrix(n) for n in (2, 4, 9)},
                 deficient=_rank_deficient_block())
    points = 0
    for name, t in cases.items():
        for scale in (1e-8, 1.0, 1e8):
            sweep = pencil_sweep(scale * t, m)
            assert sweep.centre is not None and sweep._rows is None, name
            every = ranges.PencilSweep(m, sweep.eigenvalues)
            bound = sweep.region_bound
            for k in range(1, t.shape[0] // 2 + 1):
                c_k = _in_t_units(sweep.rho[k - 1], sweep)[0]
                sent.clear()
                got = range_from_sweep(sweep, k).region
                want = range_from_sweep(every, k).region
                assert got.kind == want.kind, (name, scale, k)
                assert hausdorff(got, want) <= 1e-12 * bound, (name, scale, k)
                if c_k > 1e-9 * bound:
                    assert got.kind == "polygon" and got.vertices.size == m, (name, k)
                    assert sent == [], (name, k)
                else:  # zero up to the rounding of T + T*'s spectrum
                    assert got.kind == "point", (name, k)
                    points += 1
    assert points == 3 * 2
    with pytest.raises(ValueError, match="bound / 2"):  # the square would cut the m-gon
        geometry.regular_polygon(m, 0.6, 1.0)


def test_one_angle_frame_per_sweep(monkeypatch):
    # every rank of one sweep and P6 share the sweep's frame, built on the
    # sweep's planes: all of them, or a diagonal's tie planes; a graded
    # sweep's ranks are regular m-gons and build none, so the shift suite
    # builds none either
    from hrnr import checks, geometry

    built, frame = [], geometry.angle_frame

    def spy(thetas):
        built.append(len(thetas))
        return frame(thetas)

    monkeypatch.setattr(ranges, "angle_frame", spy)
    monkeypatch.setattr(geometry, "angle_frame", spy)
    rng = generator(79)
    for t in (shift_matrix(4), rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
              np.diag(rng.normal(size=6) + 1j * rng.normal(size=6))):
        sweep = pencil_sweep(t, 2048)
        built.clear()
        for k in (1, 2, 3):
            range_from_sweep(sweep, k)
        if getattr(sweep, "centre", None) is not None:
            assert built == []
        else:
            assert built == [2048 if sweep.planes is None else sweep.planes.size]
    assert sweep.planes.size < 2048
    built.clear()
    checks.check_nesting(pencil_sweep(rng.normal(size=(5, 5)), 720), 3)
    checks.check_shift(5, 720)
    assert built == [720]


# --- tie planes -----------------------------------------------------------------

SPECTRA = ("complex", "real", "collinear", "circle", "cluster", "double")


def _spectrum(family, n, rng):
    """n eigenvalues: free, real, on a line, on a circle, or with pairs
    1e-9 apart or equal."""
    mu = rng.normal(size=n) + 1j * rng.normal(size=n)
    if family == "real":
        mu = mu.real
    elif family == "collinear":
        mu = mu[0] + np.exp(2j * np.pi * rng.uniform()) * mu.real
    elif family == "circle":
        mu = mu[0] + abs(mu[-1]) * np.exp(2j * np.pi * rng.uniform(size=n))
    elif family in ("cluster", "double"):
        gap = 1e-9 * np.exp(2j * np.pi * rng.uniform()) if family == "cluster" else 0.0
        mu[1::2] = mu[:-1:2][:mu[1::2].size] + gap
    return 10.0 ** rng.uniform(-8, 8) * mu


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from(SPECTRA),
       st.sampled_from([16, 720, 721, 2048]))
@example(1200820269, 5, "cluster", 2048)  # the region leaves a kept plane by 2.6 CLIP_EPS
@example(7, 3, "collinear", 721)  # a faceted stall that a wing cut must not take
@settings(max_examples=60, deadline=None)
def test_tie_planes_give_the_all_plane_region(seed, n, family, m):
    # a spectrum sweep intersects only the planes beside tie angles and the
    # fillers; at every k the tag is the all-plane one and the region within
    # 1e-11 * bound of it, a point being the all-plane point itself.  A
    # dropped plane lies between two kept planes through its run's apex, at
    # most pi/8 apart, so the region leaves it by at most sec(pi/16) times
    # the most it leaves a kept plane by, plus the rows' rounding
    from hrnr.geometry import support

    sweep = pencil_sweep(np.diag(_spectrum(family, n, generator(seed))), m)
    every = ranges.PencilSweep(m, sweep.eigenvalues)
    dropped = np.setdiff1d(np.arange(m), sweep.planes)
    bound = 2.0 * sweep.numerical_radius() or 1.0
    for k in range(1, n + 1):
        got = range_from_sweep(sweep, k)
        want = range_from_sweep(every, k).region
        assert got.region.kind == want.kind, k
        if want.is_empty:
            continue
        assert hausdorff(got.region, want) <= 1e-11 * bound, k
        if want.kind == "point":
            assert np.array_equal(got.region.vertices, want.vertices), k
        elif dropped.size:
            out = support(got.region, sweep.thetas) - got.support_samples[:, 1]
            kept = max(out[sweep.planes].max(), 0.0)
            assert out[dropped].max() <= kept / np.cos(np.pi / 16) + 2.0 * _row_tol(n, bound), k


def test_tie_planes_reach_the_geometry_only_on_spectrum_sweeps(monkeypatch):
    # at m = 65536 a diagonal n = 6 sends at most 4 n (n - 1) + 16 planes;
    # a Gaussian sweep sends all m, a graded one none (its ranks are regular
    # m-gons), and P1's row-only sweeps never work out the index set.  A
    # sweep evaluates its ties once, for its windows and its tie planes alike
    from hrnr.checks import check_affine

    sent, ties = [], []
    intersect, find_ties = ranges.intersect_halfplanes, ranges._ties
    monkeypatch.setattr(ranges, "intersect_halfplanes",
                        lambda thetas, *args, **kw: sent.append(len(thetas))
                        or intersect(thetas, *args, **kw))
    monkeypatch.setattr(ranges, "_ties", lambda *args: ties.append(args) or find_ties(*args))
    rng = generator(26)
    m, n = 65536, 6
    sweep = pencil_sweep(np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)), m)
    for k in (1, 2):
        range_from_sweep(sweep, k)
    assert len(sent) == 2 and max(sent) <= 4 * n * (n - 1) + 16
    assert "runs" in vars(sweep) and len(ties) == 1
    sent.clear()
    for t in (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), shift_matrix(5)):
        range_from_sweep(pencil_sweep(t, m), 1)
    assert sent == [m]
    t = _hidden_normal(5, rng, False, 0.0)
    base = range_from_sweep(pencil_sweep(t, 720), 1)
    assert len(ties) == 2
    check_affine(t, base, 2.0 - 1.0j, 0.5 + 0.25j)
    assert len(ties) == 2


def _two_slack_ties(rho, c, m, slack):
    """Each ordered pair's index range [lo, hi) at the given slack, by the
    floor formulas of the tree that evaluated the ties twice: slack 8 for
    the windows, slack 0 (whose lo is floor(u) - 1) for the tie planes."""
    bits = np.ascontiguousarray(c).view(np.uint64).reshape(c.size, -1)
    d, s = np.subtract.outer(c, c).ravel(), np.subtract.outer(rho, rho).ravel() / -2.0
    size = np.add.outer(np.abs(c) + np.abs(rho), np.abs(c) + np.abs(rho)).ravel()
    tol = slack * (np.finfo(float).eps * size + np.finfo(float).smallest_subnormal)
    keep = ~(bits[:, None] == bits[None, :]).all(axis=2).ravel() & ~(np.abs(s) - tol > np.abs(d))
    d, s, tol = d[keep], s[keep], tol[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio, sigma = tol / np.abs(d), s / np.abs(d)
        u = (np.arccos(sigma) - np.angle(d)) * (m / (2.0 * np.pi))
        h = ratio / np.sqrt(1.0 - (np.abs(sigma) + ratio) ** 2) * (m / 4.0)
    return np.floor(u - h) - 1, np.floor(u + h) + 3


def _mask_tie_planes(rho, c, m):
    """The tie planes marked in an m-sized mask, from the slack-0 ranges."""
    lo = _two_slack_ties(rho, c, m, 0.0)[0]
    keep = np.zeros(m, dtype=bool)
    keep[(lo[np.isfinite(lo), None].astype(np.intp) + np.arange(4)) % m] = True
    keep[::m // 16] = True
    return np.flatnonzero(keep)


def _tie_case(name):
    """A disc sweep's matrix: a spectrum, a cluster, one eigenvalue or a
    mixed list of discs (rho != 0 beside distinct c)."""
    rng = generator(52)
    mu = rng.normal(size=5) + 1j * rng.normal(size=5)
    mu /= np.abs(mu).max()
    if name == "real":
        mu = mu.real
    elif name.startswith("cluster"):
        mu[1] = mu[0] + float(name[len("cluster"):])
    elif name == "one":
        return np.diag(mu[:1])
    elif name == "scalar":
        return mu[0] * np.eye(4)
    elif name == "jordan-sum":  # ROADMAP.md's J: three blocks about distinct eigenvalues
        t = np.diag(np.repeat([1 + 0.5j, -0.7j, 0.4], (3, 3, 2)))
        return t + np.diag([1, 1, 0, 1, 1, 0, 1], -1)
    elif name == "diag-graded":  # a diagonal (+) a weighted shift plus a scalar
        return direct_sum(np.diag(mu[:3]), 0.2j * np.eye(3) + np.diag([0.5, 1.5], -1))
    return np.diag(mu)


@pytest.mark.parametrize("m", [16, 17, 720, 721, 65536, 2**20 + 1])
@pytest.mark.parametrize("name", ["complex", "real", "cluster1e-13", "cluster1e-16", "one",
                                  "scalar", "jordan-sum", "diag-graded"])
def test_one_tie_pass_gives_the_two_slack_windows_and_planes(name, m):
    # one evaluation of the ties gives the windows of the slack-8 ranges
    # and, at rho = 0, the planes of the slack-0 ones, bit for bit: at rho = 0
    # both slacks keep the same pairs, and the slack-0 half-width is 0
    sweep = pencil_sweep(_tie_case(name), m)
    assert sweep.kind == "disc" and sweep.centre is None
    rho, c, solved = sweep.rho, sweep.c, sweep.solved
    starts, stops = ranges._tie_windows(*_two_slack_ties(rho, c, m, 8.0), m, solved)
    want = np.concatenate([[0], np.column_stack([starts, stops]).ravel(), [solved]])
    got = sweep.runs[0]
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if name.startswith("cluster") or name in ("one", "scalar"):
        assert not rho.any()
    if name == "cluster1e-16":  # a NaN half-width: the window is every solved index
        assert got.tolist() == [0, 0, solved, solved]
    if rho.any():
        assert name in ("jordan-sum", "diag-graded") and sweep.planes is None
    else:
        want = _mask_tie_planes(rho, c, m)
        assert sweep.planes.dtype == want.dtype and np.array_equal(sweep.planes, want)


def test_tie_windows_of_ranges_all_past_the_solved_half():
    # ranges that lie in an even grid's unsolved upper half leave no window
    starts, stops = ranges._tie_windows(np.array([9.0, 10.0]), np.array([12.0, 16.0]), 16, 8)
    assert starts.dtype == stops.dtype == np.intp and starts.size == stops.size == 0


def test_normal_cluster_point_is_the_all_plane_point():
    # a 1e-9 cluster outside the other eigenvalues' hull makes Lambda_2 a
    # point, the mean of a tiny loop's vertices; the tie planes alone would
    # move it by 4.6e-11 * bound, so a point is recomputed over every plane
    mu = np.array([-0.546, 1.2827 + 0.2938j, 1.2827 - 0.2938j, 0.0987, 0.0987 + 1e-9])
    sweep = pencil_sweep(np.diag(mu), 720)
    got = range_from_sweep(sweep, 2).region
    want = range_from_sweep(ranges.PencilSweep(720, sweep.eigenvalues), 2).region
    assert got.kind == want.kind == "point"
    assert np.array_equal(got.vertices, want.vertices)
    assert abs(got.vertices[0] - 0.0987) <= 1e-9


# --- rows on demand ----------------------------------------------------------------

def _dense_spectrum_rows(mu, m):
    """Every row 2 Re(e^{i theta} mu) formed and sorted, the solved half then
    the half-turn: the reference the on-demand columns must equal bit for bit."""
    thetas = grid_angles(m)
    solved = m if m % 2 else m // 2
    z = np.exp(1j * thetas[:solved])[:, None] * mu
    vals = np.sort((z + z.conj()).real, axis=1)[:, ::-1]
    return vals if m % 2 else np.concatenate([vals, -vals[:, ::-1]])


def _in_t_units(values, sweep):
    """Values in a sweep's units (those of T / 2^scale, as its ``c``,
    ``centre``, ``rho`` and engine reads) in T's: each real and imaginary part times
    2^scale, as the sweep scales its reads back."""
    values = np.atleast_1d(values)
    if values.dtype == complex:
        return np.ldexp(values.view(float), sweep.scale).view(complex)
    return np.ldexp(values, sweep.scale)


ON_DEMAND_SPECTRA = SPECTRA + ("cluster13", "cluster16", "one")


def _on_demand_spectrum(family, n, rng):
    """``_spectrum``'s families, pairs 1e-13 apart relatively (windows some
    grid steps wide) or 1e-16 (within rounding: a window over every angle),
    and a single eigenvalue."""
    if family in ("cluster13", "cluster16"):
        gap = 10.0 ** -int(family[-2:]) * np.exp(2j * np.pi * rng.uniform())
        mu = _spectrum("complex", n, rng)
        mu[1::2] = mu[:-1:2][:mu[1::2].size] * (1.0 + gap)
        return mu
    return _spectrum("complex", 1, rng) if family == "one" else _spectrum(family, n, rng)


def _spectrum_sweep(m, mu):
    """The disc sweep of a spectrum mu, as a normal T's: radius 0 (-0.0)
    about each mu_i."""
    return ranges._DiscSweep(m, np.full(mu.size, -0.0), mu)


@pytest.mark.parametrize("family", ON_DEMAND_SPECTRA)
@pytest.mark.parametrize("m", [16, 17, 720, 721, 2048, 8192])
def test_on_demand_columns_are_the_sorted_rows_bit_for_bit(family, m, monkeypatch):
    # every column, whole or at scattered indices, and the stacked
    # eigenvalues of a sweep that forms its rows on demand are the bits of
    # forming and sorting every row, ties, clusters and all
    monkeypatch.setattr(ranges, "ON_DEMAND_ROWS", 0)
    rng = generator(3200 + m)
    for _ in range(4):
        mu = _on_demand_spectrum(family, int(rng.integers(2, 9)), rng)
        want = _dense_spectrum_rows(mu, m)
        sweep = _spectrum_sweep(m, mu)
        assert sweep.on_demand
        idx = np.sort(rng.choice(m, size=min(m, 40), replace=False))
        for r in range(mu.size):
            assert sweep.column(r, idx).tobytes() == want[idx, r].tobytes(), r
            assert sweep.column(r).tobytes() == want[:, r].tobytes(), r
        assert sweep.eigenvalues.tobytes() == want.tobytes()
        assert sweep.numerical_radius() == want[:, 0].max() / 2.0


@pytest.mark.parametrize("m", [16384, 16383])
def test_pencil_sweep_picks_its_rows_by_size_with_the_same_bits(m, monkeypatch):
    # at m n >= ON_DEMAND_ROWS a spectrum sweep keeps mu alone, below it
    # forms every row; both sides give the reference's bits
    rng = generator(3300)
    solved = []
    monkeypatch.setattr(ranges, "eig_hermitian_stack",
                        lambda stack: solved.append(len(stack)) or eig_hermitian_stack(stack))
    for n in (3, 4, 8):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for t in (np.diag(_spectrum("complex", n, rng)), _hidden_normal(n, rng), x + x.conj().T):
            sweep = pencil_sweep(t, m)
            assert sweep.kind == "disc" and not sweep.rho.any()
            assert (sweep._rows is None) == (m * n >= ranges.ON_DEMAND_ROWS), (n, m)
            want = _in_t_units(_dense_spectrum_rows(sweep.c, m), sweep)
            assert sweep.eigenvalues.tobytes() == want.tobytes()
    assert solved == []


RADIUS_SPECTRA = ("complex", "real", "zero", "double", "mixed", "tiny", "huge", "one", "zeros")


def _radius_spectrum(family, rng):
    """Spectra for the windowed radius: free, real, with a zero eigenvalue,
    with a repeated one, with moduli from 1e-300 to 1e300 in one spectrum,
    all near 1e-300 or 1e300, a single one, and every one zero."""
    mu = rng.normal(size=5) + 1j * rng.normal(size=5)
    if family == "real":
        mu = mu.real.astype(complex)
    elif family == "zero":
        mu[2] = 0.0
    elif family == "double":
        mu[1] = mu[3]
    elif family == "mixed":
        mu = mu * 10.0 ** np.array([-300, -100, 0, 100, 300])
    elif family in ("tiny", "huge"):
        mu = mu * 10.0 ** ((-300 if family == "tiny" else 300) + rng.uniform(-2, 0))
    elif family == "one":
        mu = mu[:1]
    elif family == "zeros":
        mu = np.zeros(3, dtype=complex)
    return mu


@pytest.mark.parametrize("m", [16, 17, 720, 721, 65536, 65537, 2**20, 2**20 + 1])
def test_windowed_radius_is_the_whole_column_maximum(m, monkeypatch):
    # a sweep formed on demand reads column 0 beside each eigenvalue's peak
    # alone; the radius has the bits of column 0's maximum over all m
    monkeypatch.setattr(ranges, "ON_DEMAND_ROWS", 0)
    rng = generator(3800 + m)
    for family in RADIUS_SPECTRA:
        mu = _radius_spectrum(family, rng)
        sweep = _spectrum_sweep(m, mu)
        got = sweep.numerical_radius()
        if mu.any():
            assert sweep.columns == {} and "phases" not in vars(sweep), family
        want = _spectrum_sweep(m, mu).column(0).max() / 2.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), family


def test_negated_shift_keeps_a_plus_zero_translation():
    # -S_n's diagonal is -0.0, and its graded sweep's translation d is that
    # zero; its middle rank is the point +0j, as S_n's is, not -0 - 0j
    for n in (3, 5, 7):
        for sign in (1.0, -1.0):
            report = rank_k_range(sign * shift_matrix(n), (n + 1) // 2, 720)
            assert report.sweep.centre == 0 and report.region.kind == "point"
            assert not report.region.vertices.view(np.uint64).any(), (n, sign)


@pytest.mark.parametrize("m", [720, 721, 2048])
def test_toeplitz_rows_are_their_closed_form_and_not_its_mirror(m):
    # T = a S_n + b S_n* + d I has H_theta = c S_n + conj(c) S_n* +
    # 2 Re(e^{i theta} d) I, c = e^{i theta} a + e^{-i theta} conj(b), so its
    # rank-k offset is cos(k pi/(n+1)) |c| + Re(e^{i theta} d), a form that
    # is not rotation invariant; with theta -> -theta inside |c| it misses
    # every rank whose cosine is not zero
    rng = generator(4900 + m)
    for n in range(3, 9):
        a, b, d = rng.normal(size=3) + 1j * rng.normal(size=3)
        s = shift_matrix(n)
        t = a * s + b * s.conj().T + d * np.eye(n)
        sweep = pencil_sweep(t, m)
        tol = _row_tol(n, np.linalg.norm(t, 2))
        phase = np.exp(1j * sweep.thetas)
        for k in range(1, n + 1):
            got = sweep.column(k - 1) / 2.0
            cos, shift = np.cos(k * np.pi / (n + 1)), (phase * d).real
            want = cos * np.abs(phase * a + phase.conj() * np.conj(b)) + shift
            mirror = cos * np.abs(phase.conj() * a + phase * np.conj(b)) + shift
            assert np.abs(got - want).max() <= tol, (n, k)
            if 2 * k != n + 1:
                assert np.abs(got - mirror).max() > 1e6 * tol, (n, k)


@pytest.mark.parametrize("m", [720, 2048, 8192, 65536, 65537])
def test_indexed_phases_are_the_whole_arrays_bits(m, monkeypatch):
    # columns read at chosen indices form e^{i theta} there alone: np.exp
    # is elementwise, so those are the whole array's bits, whatever the
    # length, order or stride of the indices
    monkeypatch.setattr(ranges, "ON_DEMAND_ROWS", 0)
    rng = generator(3900 + m)
    thetas = grid_angles(m)
    sweep = _spectrum_sweep(m, _spectrum("complex", 6, rng))
    whole = sweep.phases
    solved = whole.size
    picks = [np.array([0]), np.array([solved - 1]), np.arange(3, 20), np.arange(solved)[::-7],
             rng.permutation(solved)[:1001], rng.integers(0, solved, size=64)]
    for idx in picks:
        assert np.exp(1j * thetas[idx]).tobytes() == whole[idx].tobytes()
    idx = rng.permutation(m)[:999]
    for r in (0, 3, 5):
        assert sweep.column(r, idx).tobytes() == sweep.column(r)[idx].tobytes(), r


def test_overflowing_spectrum_rows_still_raise():
    # a spectrum is swept at unit size, so its rows are formed on either
    # side of the size rule; the first read of a row that overflows in T's
    # units raises, whole or at chosen indices
    for m in (720, 65536):
        sweep = pencil_sweep(np.diag([1.7e308, -1.7e308j]), m)
        assert (sweep._rows is None) == (m == 65536)
        with pytest.raises(ValueError, match="overflow"):
            sweep.numerical_radius()
        with pytest.raises(ValueError, match="overflow"):
            sweep.column(0, np.array([m // 8]))
        with pytest.raises(ValueError, match="overflow"):
            range_from_sweep(sweep, 1).support_samples


def test_spectrum_ranks_form_only_their_tie_plane_offsets(monkeypatch):
    # a rank that reaches the geometry forms its offsets at the tie planes
    # alone and the bound from column 0 beside each eigenvalue's peak, so
    # no column is formed whole, nor every phase; column k - 1 is formed
    # whole only when support_samples is read
    rng = generator(3400)
    m, n = 65536, 6
    sweep = pencil_sweep(np.diag(_spectrum("complex", n, rng)), m)
    assert sweep._rows is None and "runs" not in vars(sweep)
    rep = range_from_sweep(sweep, 2)
    assert sweep.columns == {} and "phases" not in vars(sweep)
    want = _in_t_units(_dense_spectrum_rows(sweep.c, m), sweep)
    assert sweep.numerical_radius() == want[:, 0].max() / 2.0
    assert rep.support_samples[:, 1].tobytes() == (want[:, 1] / 2.0).tobytes()
    assert set(sweep.columns) == {1, n - 2}


@pytest.mark.parametrize("m", [16, 17, 720, 721, 65536, 65537])
def test_indexed_angles_are_the_whole_grids_bits(m):
    rng = generator(3450 + m)
    grid = grid_angles(m)
    for idx in (np.array([0]), np.array([m - 1]), np.arange(m)[::-7], rng.permutation(m)[:999],
                rng.integers(0, m, size=64), np.arange(m)):
        assert grid_angles(m, idx).tobytes() == grid[idx].tobytes()


def test_structured_sweeps_form_no_angle_grid():
    # a sweep that forms its rows on demand, and a graded one, reads its
    # angles at the indices it needs alone: every rank leaves ``thetas``
    # unformed, and the grid formed at the first read is grid_angles(m)
    rng = generator(3460)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    cases = [(np.diag(_spectrum("complex", 6, rng)), 65536),
             (np.diag(_spectrum("real", 5, rng)), 65536),
             (x + x.conj().T, 65536), (np.diag(_spectrum("circle", 8, rng)), 8192),
             (shift_matrix(5), 65536), (shift_matrix(8), 8192), (shift_matrix(4), 721),
             (_jordan(5, 0.3 - 0.4j), 65536), (_jordan(4, -2.0), 721)]
    for t, m in cases:
        sweep = pencil_sweep(t, m)
        assert sweep._rows is None and sweep.angle_count == m
        regions = [range_from_sweep(sweep, k).region for k in range(1, sweep.dim + 1)]
        assert "thetas" not in vars(sweep), (t.shape, m)
        assert sweep.thetas.tobytes() == grid_angles(m).tobytes()
        # the same regions as a sweep given its angle count and its rows
        every = ranges.PencilSweep(m, sweep.eigenvalues)
        for k, region in enumerate(regions, 1):
            want = range_from_sweep(every, k).region
            assert region.kind == want.kind, (t.shape, m, k)


def _read_order_sweeps():
    """(name, T, m) of each kind of sweep: a spectrum formed on demand
    (m n >= ON_DEMAND_ROWS) and one stacked below that, a batch T, a graded
    T and a translated graded T."""
    rng = generator(3470)
    mu = _spectrum("complex", 5, rng)
    return [("on-demand", np.diag(mu), 16384), ("stacked", np.diag(mu), 720),
            ("batch", random_matrix(5, rng), 720), ("graded", shift_matrix(5), 720),
            ("translated", _jordan(5, 0.3 - 0.4j), 721)]


@pytest.mark.parametrize("case", _read_order_sweeps(), ids=lambda case: case[0])
def test_read_order_leaves_every_output_bit_for_bit(case):
    # which reads a sweep makes is fixed by how it was built: a sweep whose
    # eigenvalues are read first, one read ranks first and one read radius
    # first give the same bytes for every rank's region and error bound,
    # the radius and the column maxima; the plain sweep given those rows
    # reads the same radius and column maxima
    name, t, m = case
    n = t.shape[0]
    kind = "batch" if name == "batch" else "disc"

    def outputs(sweep):
        regions = [range_from_sweep(sweep, k) for k in range(1, n + 1)]
        return ([(r.region.kind, r.region.vertices.tobytes(), _bits(r.outer_error_bound))
                 for r in regions],
                _bits(sweep.numerical_radius()), [_bits(v) for v in sweep.column_maxima(range(n))])

    rows_first = pencil_sweep(t, m)
    assert rows_first.kind == kind and (rows_first._rows is None) == (name != "stacked")
    rows_first.eigenvalues
    ranks_first = pencil_sweep(t, m)
    want = outputs(ranks_first)
    assert (ranks_first._rows is None) == (name != "stacked"), name  # no stack formed
    assert outputs(rows_first) == want
    radius_first = pencil_sweep(t, m)
    radius_first.numerical_radius()
    radius_first.column_maxima(range(n))
    assert outputs(radius_first) == want
    given = ranges.PencilSweep(m, rows_first.eigenvalues)
    assert _bits(given.numerical_radius()) == want[1], name
    assert [_bits(v) for v in given.column_maxima(range(n))] == want[2], name


# --- points at 2k = n + 1 --------------------------------------------------------

@pytest.mark.parametrize("m", [720, 721])
def test_odd_shifts_have_the_point_zero_at_the_middle_rank(m, monkeypatch):
    # at 2k = n + 1 the range is read off the row: S_n's middle row is zero
    # up to rounding, so the range is the point 0, and no geometry runs;
    # a graded sweep's (n >= 3) runs no Fourier fit either
    sent, fits = [], []
    intersect, fit = ranges.intersect_halfplanes, ranges._fourier_point
    monkeypatch.setattr(ranges, "intersect_halfplanes",
                        lambda *args, **kw: sent.append(1) or intersect(*args, **kw))
    monkeypatch.setattr(ranges, "_fourier_point", lambda *args: fits.append(1) or fit(*args))
    for n in range(1, 65, 2):
        rep = rank_k_range(shift_matrix(n), (n + 1) // 2, m)
        assert rep.region.kind == "point", n
        assert abs(rep.region.vertices[0]) <= _row_tol(n, 1.0), n
    assert len(fits) <= 1  # S_1 = [0] is diagonal
    # a graded 2k <= n rank is a regular m-gon, with no geometry either;
    # S_5 + S_5* / 2, not graded, still runs it
    assert rank_k_range(shift_matrix(5), 2, m).region.kind == "polygon"
    assert sent == []
    rank_k_range(shift_matrix(5) + shift_matrix(5).T / 2.0, 2, m)
    assert sent == [1]


@pytest.mark.parametrize("m", [720, 721, 2048])
def test_middle_rank_points_and_empties(m):
    # Hermitian T: the middle eigenvalue; normal T with collinear
    # eigenvalues: the middle one along the line; a Gaussian's middle rank
    # is empty (its residual is some 1e12 row tolerances)
    rng = generator(3500 + m)
    for n in (1, 3, 5, 7):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        herm = (x + x.conj().T) * 10.0 ** rng.uniform(-6, 6)
        line = 0.3 - 0.2j + np.exp(2j * np.pi * rng.uniform()) * np.sort(rng.normal(size=n))
        u = random_unitary(n, rng)
        cases = [(herm, np.linalg.eigvalsh(herm)[n // 2]),
                 (u @ np.diag(line) @ u.conj().T, line[n // 2])]
        for t, point in cases:
            region = rank_k_range(t, (n + 1) // 2, m).region
            assert region.kind == "point", n
            assert abs(region.vertices[0] - point) <= 4.0 * _row_tol(n, np.linalg.norm(t, 2)), n
        if n > 1:
            assert rank_k_range(x, (n + 1) // 2, m).region.is_empty, n


def _middle_rank_inputs(n, rng):
    """Seeded T for the middle rank: a shift, a Hermitian and a normal T
    with collinear eigenvalues, whose ranges there are points, and a
    normal, a Gaussian and a nilpotent T, whose ranges are mostly empty."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = random_unitary(n, rng)
    line = 0.3 - 0.2j + np.exp(2j * np.pi * rng.uniform()) * rng.normal(size=n)
    free = rng.normal(size=n) + 1j * rng.normal(size=n)
    return {"shift": shift_matrix(n), "herm": x + x.conj().T,
            "collinear": u @ np.diag(line) @ u.conj().T,
            "normal": u @ np.diag(free) @ u.conj().T, "gauss": x, "nilpotent": np.tril(x, -1)}


@pytest.mark.parametrize("m", [16, 17, 720, 721, 2048, 65536])
def test_three_row_exit_never_disagrees_with_the_fit(m):
    # at 2k = n + 1 the rows at 0, m // 6 and m // 3 give empty only when no
    # z is within the row tolerance of their three lines; the Fourier fit
    # over every row must then give empty too, at scales 1e-8..1e8 and
    # translations up to 1e4 ||T||_2
    rng = generator(4100 + m)
    fired = 0
    for n in (1, 3, 5, 7):
        k = (n + 1) // 2
        for name, t in _middle_rank_inputs(n, rng).items():
            b = 10.0 ** rng.uniform(-4, 4) * np.exp(2j * np.pi * rng.uniform())
            b = 0.0 if rng.uniform() < 0.3 else b * np.linalg.norm(t, 2)
            sweep = pencil_sweep(10.0 ** rng.uniform(-8, 8) * (t + b * np.eye(n)), m)
            norm = sweep.unit_bound / np.cos(np.pi / m)
            tol = _row_tol(n, norm)
            if ranges._rows_apart(sweep, k, tol, norm):
                fired += 1
                assert ranges._fourier_point(sweep, k, tol).is_empty, (n, name)
    assert fired >= 6


def test_middle_rank_reads_the_owner_eigenvalue():
    # a real diagonal or Hermitian n = 5 at m = 65536 has the rows
    # 2 cos(theta) mu, formed on demand, and its middle eigenvalue owns rank
    # 3 on both sides of the tie angle pi/2: the point is that eigenvalue,
    # bit for bit, read with no whole column and no phases, and within the
    # row tolerance of the Fourier fit's point
    rng = generator(4200)
    m, n = 65536, 5
    for scale in (1e-8, 1.0, 1e8):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for t in (np.diag(rng.normal(size=n)), x + x.conj().T):
            sweep = pencil_sweep(scale * t, m)
            assert sweep._rows is None and sweep.kind == "disc" and not sweep.rho.any()
            region = range_from_sweep(sweep, 3).region
            assert sweep.columns == {} and "phases" not in vars(sweep)
            middle = sweep.c[np.argsort(sweep.c.real)[2]]
            assert region.kind == "point"
            want = _in_t_units(np.array([middle], complex), sweep)
            assert region.vertices.tobytes() == want.tobytes()
            norm = sweep.unit_bound / np.cos(np.pi / m)
            fit = ranges._fourier_point(sweep, 3, _row_tol(n, norm))
            assert fit.kind == "point"
            assert abs(fit.vertices[0] - middle) <= _row_tol(n, norm)


# fine_grid's normal-diag n = 5 cell, second cycle of default_rng(2): column 2
# has two owners, and the three rows at 0, m // 6 and m // 3 share one
TWO_OWNER_DIAGONAL = np.array([
    0.27741388273709233 - 0.6760863959571746j, -0.9745175187855328 + 0.22431140314323914j,
    0.04550486929275323 + 0.03814417315291196j, -0.32455228382232576 + 0.06822510220485963j,
    -0.5491393080084326 + 0.3598163917949734j])


def test_two_owner_middle_rank_exits_before_the_fit(monkeypatch):
    # two rows of one owner's run meet at that owner, and a row of another
    # owner's run misses it: empty by the three-row bound, with no Fourier
    # fit, at every scale; the fit agrees
    fits = []
    fit = ranges._fourier_point
    monkeypatch.setattr(ranges, "_fourier_point", lambda *args: fits.append(1) or fit(*args))
    for scale in (1e-8, 1.0, 1e8):
        sweep = pencil_sweep(np.diag(scale * TWO_OWNER_DIAGONAL), 65536)
        assert range_from_sweep(sweep, 3).region.is_empty, scale
        assert fits == [], scale
        norm = sweep.unit_bound / np.cos(np.pi / 65536)
        assert fit(sweep, 3, _row_tol(5, norm)).is_empty, scale


@pytest.mark.parametrize("m", [16384, 65536, 65537])
def test_owner_exit_never_disagrees_with_the_fit(m):
    # on complex, real and collinear spectra formed on demand, the owners'
    # point and the two-owner empty are the Fourier fit's verdicts
    rng = generator(4150 + m)
    fired = 0
    for n in (5, 7, 9):
        for kind in range(6):
            mu = rng.normal(size=n) + 1j * rng.normal(size=n)
            if kind % 3 == 1:
                mu = mu.real + 0j
            elif kind % 3 == 2:
                mu = 0.3 + np.exp(2j * np.pi * rng.uniform()) * rng.normal(size=n)
            sweep = pencil_sweep(np.diag(10.0 ** rng.uniform(-8, 8) * mu), m)
            k = (n + 1) // 2
            norm = sweep.unit_bound / np.cos(np.pi / m)
            tol = _row_tol(n, norm)
            region = sweep.middle(k, tol, norm)
            assert region is not None, (n, kind)
            assert region.kind == ranges._fourier_point(sweep, k, tol).kind, (n, kind)
            fired += region.is_empty
    assert fired >= 6


def test_middle_rank_declines_when_the_tie_windows_cover_the_grid(monkeypatch):
    # diag(1, 1 + 4 eps, -0.3 + 0.8i) at m = 32768, formed on demand: the
    # two near-equal eigenvalues tie on one window, [0, 16384), the whole
    # solved half, so no gap is left to own rank 2 and the sweep's exit
    # declines; the Fourier fit decides, with the stacked rows' bits
    fits = []
    fit = ranges._fourier_point
    monkeypatch.setattr(ranges, "_fourier_point", lambda *args: fits.append(1) or fit(*args))
    m = 32768
    sweep = pencil_sweep(np.diag([1, 1 + 4 * np.finfo(float).eps, -0.3 + 0.8j]), m)
    assert sweep.kind == "disc" and sweep._rows is None
    region = range_from_sweep(sweep, 2).region
    assert fits == [1]
    assert sweep.runs[0].tolist() == [0, 0, 16384, 16384]
    norm = sweep.unit_bound / np.cos(np.pi / m)
    assert sweep.middle(2, _row_tol(3, norm), norm) is None
    want = range_from_sweep(ranges.PencilSweep(m, sweep.eigenvalues), 2).region
    assert region.kind == want.kind == "point"
    assert region.vertices.tobytes() == want.vertices.tobytes()


# --- translated graded sweeps: dI + G ----------------------------------------

@pytest.mark.parametrize("m", [16, 17, 720, 2048])
def test_translated_graded_reads_are_the_whole_columns_bits(m):
    # a column read at chosen indices, and the radius read beside the peak
    # of 2 Re(e^{i theta} d), are the bits of the whole columns
    rng = generator(4300 + m)
    for name, t in _translated_graded_inputs().items():
        for s in (1e-8, 1.0, 1e8):
            sweep = pencil_sweep(s * t, m)
            radius = sweep.numerical_radius()
            rows = sweep.eigenvalues
            assert radius == rows[:, 0].max() / 2.0, (name, s)
            fresh = pencil_sweep(s * t, m)
            idx = rng.integers(0, m, size=7)
            for r in range(t.shape[0]):
                assert fresh.column(r, idx).tobytes() == rows[idx, r].tobytes(), (name, s, r)


@pytest.mark.parametrize("m", [16, 17, 720, 2048])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_jordan_ranks_are_the_translated_m_gon(n, m, monkeypatch):
    # Lambda_k(lam I + S_n) = lam + cos(k pi/(n+1)) D: lam plus S_n's
    # regular m-gon, vertex for vertex, for 2k <= n; the point lam at
    # 2k = n + 1, and empty beyond.  One pencil is solved for every rank
    # and the radius, and no geometry runs
    sent = []
    intersect = ranges.intersect_halfplanes
    monkeypatch.setattr(ranges, "intersect_halfplanes",
                        lambda *args, **kw: sent.append(1) or intersect(*args, **kw))
    shift = pencil_sweep(shift_matrix(n), m)
    slack = 2e-12 * shift.region_bound  # the cut lines' relaxation, and rounding
    lams = (0.3 - 0.4j, -2.0, 1e4j, 1e12 * np.exp(0.7j))
    sizes = _batch_sizes(monkeypatch)
    for lam in lams:
        sweep = pencil_sweep(_jordan(n, lam), m)
        for k in range(1, n + 1):
            region = range_from_sweep(sweep, k).region
            want = range_from_sweep(shift, k).region
            assert region.kind == want.kind, (lam, k)
            assert region.vertices.tobytes() == (want.vertices + lam).tobytes(), (lam, k)
            if 2 * k <= n:
                radius = np.cos(k * np.pi / (n + 1))
                reach = np.abs(want.vertices)
                assert radius - slack <= reach.min() and reach.max() <= (
                    radius / np.cos(np.pi / m) + slack), (lam, k)
            elif 2 * k == n + 1:
                assert region.vertices.tobytes() == np.array([lam], complex).tobytes()
            else:
                assert region.is_empty, (lam, k)
        sweep.numerical_radius()
    assert sizes == [1] * len(lams) and sent == []


# --- direct sums: one list of discs ---------------------------------------------

def _direct_sum(*blocks):
    return functools.reduce(direct_sum, blocks)


def _direct_sum_inputs():
    """Direct sums of graded blocks plus scalars, whose diagonal values
    differ between blocks, with their blocks' sizes: ROADMAP.md's J,
    a real Jordan sum with a 1 x 1 block, a diagonal (+) a weighted shift
    plus a scalar, S_3 (+) a scalar, and a point inside a Jordan block's
    disc, whose pair never ties."""
    rng = generator(77)
    weighted = _weighted_shift(rng.normal(size=3) + 1j * rng.normal(size=3))
    return {
        "J": (_direct_sum(_jordan(3, 1 + 0.5j), _jordan(3, -0.7j), _jordan(2, 0.4)), [3, 3, 2]),
        "jordan-real": (_direct_sum(_jordan(3, 0.9), _jordan(2, -0.4), _jordan(1, 0.1)).real,
                        [3, 2]),
        "diagonal-weighted": (_direct_sum(np.diag([0.3 + 0.2j, -1.1j]),
                                          weighted + 0.5 * np.eye(4)), [4]),
        "shift-scalar": (_direct_sum(shift_matrix(3), 0.6 * np.eye(1)), [3]),
        "nested": (_direct_sum(_jordan(4, 0.0), 0.05j * np.eye(1)), [4]),
    }


def _pencil_sizes(monkeypatch):
    """Spy on the sweep's eigensolver: the list it returns collects the
    (count, size) of every stack of pencils sent to LAPACK."""
    shapes = []

    def spy(stack):
        shapes.append(stack.shape[:2])
        return eig_hermitian_stack(stack)

    monkeypatch.setattr(ranges, "eig_hermitian_stack", spy)
    return shapes


@pytest.mark.parametrize("m", [720, 721, 2048])
@pytest.mark.parametrize("name", sorted(_direct_sum_inputs()))
def test_direct_sum_rows_match_full_grid_lapack(name, m, monkeypatch):
    # a direct sum of graded blocks plus scalars is one list of discs: each
    # block with an off-diagonal entry solves its G + G* once, no pencil is
    # larger than a block, and every row is within the row tolerance of a
    # full-grid solve of T, at every scale
    t, blocks = _direct_sum_inputs()[name]
    for s in (1e-8, 1.0, 1e8):
        shapes = _pencil_sizes(monkeypatch)
        sweep = pencil_sweep(s * t, m)
        vals = sweep.eigenvalues
        monkeypatch.undo()
        assert sweep.kind == "disc" and sweep.centre is None, s
        assert sorted(shapes) == sorted((1, size) for size in blocks), s
        assert np.abs(vals - _full_grid_rows(s * t, m)).max() <= _row_tol(
            t.shape[0], np.linalg.norm(s * t, 2)), s
        assert (np.diff(vals, axis=1) <= 0).all()


@pytest.mark.parametrize("m", [720, 2048, 65536])
@pytest.mark.parametrize("name", sorted(_direct_sum_inputs()))
def test_direct_sum_ranks_are_the_batch_ranks(name, m):
    # every rank of the discs' sweep, which hands the geometry every grid
    # plane, has the tag of the batch sweep of the same T and lies within
    # 1e-11 * bound of its region; so does its numerical radius
    t = _direct_sum_inputs()[name][0]
    sweep = pencil_sweep(t, m)
    assert sweep.kind == "disc"
    batch = ranges._BatchSweep(m, unit_scale(t)[0])
    batch.scale = sweep.scale
    bound = batch.region_bound
    assert abs(sweep.numerical_radius() - batch.numerical_radius()) <= _row_tol(
        t.shape[0], np.linalg.norm(t, 2))
    for k in range(1, t.shape[0] + 1):
        got, want = range_from_sweep(sweep, k).region, range_from_sweep(batch, k).region
        assert got.kind == want.kind, k
        if not want.is_empty:
            assert hausdorff(got, want) <= 1e-11 * bound, k


@pytest.mark.parametrize("m", [720, 721])
@pytest.mark.parametrize("e", [-14, -16, -17])
def test_discs_about_one_centre_keep_the_order_of_rho(e, m):
    # d I + 10^e S_5 with G near or below the rounding of d: at some angles
    # two discs' values round to one float, and the owners read from the
    # first index must keep rho's order there, so that every row descends
    # and is the sorted rows' bits at every angle
    t = (0.3 + 0.4j) * np.eye(5) + 10.0**e * shift_matrix(5)
    sweep = pencil_sweep(t, m)
    assert sweep.centre is not None
    solved = m if m % 2 else m // 2
    z = np.exp(1j * grid_angles(m)[:solved])[:, None] * sweep.c
    want = np.sort((z + z.conj()).real + sweep.rho, axis=1)[:, ::-1]
    want = want if m % 2 else np.concatenate([want, -want[:, ::-1]])
    assert sweep.eigenvalues.tobytes() == _in_t_units(want, sweep).tobytes()
    assert (np.diff(sweep.eigenvalues, axis=1) <= 0).all()


@pytest.mark.parametrize("m", [720, 721, 65536])
@pytest.mark.parametrize("gap", [0.0, 1e-15, -1e-15, 1e-12, 1e-9, -1e-9])
def test_discs_near_tangency_keep_their_rows(gap, m, monkeypatch):
    # S_3's disc of radius cos(pi/4) about 0 and the point mu, |mu| that
    # radius times 1 + gap: the pair's values rho_a + 2 Re(e^{i theta} c_a)
    # touch, or nearly, at one angle, where no window can be bounded
    # simply.  Formed on demand or stacked, the rows are the same bits and
    # within the row tolerance of a full-grid solve; so are those of two
    # Jordan blocks whose discs touch
    mu = np.cos(np.pi / 4) * (1.0 + gap) * np.exp(0.3j)
    cases = (_direct_sum(shift_matrix(3), mu * np.eye(1)),
             _direct_sum(_jordan(3, 0.0), _jordan(3, 2.0 * mu)))
    for t in cases:
        stacked = pencil_sweep(t, m).eigenvalues
        monkeypatch.setattr(ranges, "ON_DEMAND_ROWS", 0)
        sweep = pencil_sweep(t, m)
        assert sweep.on_demand and sweep.rho.any()
        idx = np.arange(0, m, 7)
        for r in range(t.shape[0]):
            assert sweep.column(r, idx).tobytes() == stacked[idx, r].tobytes(), r
        assert sweep.eigenvalues.tobytes() == stacked.tobytes()
        monkeypatch.undo()
        if m < 65536:
            assert np.abs(stacked - _full_grid_rows(t, m)).max() <= _row_tol(
                t.shape[0], np.linalg.norm(t, 2))


def _graded_parts():
    """S_5 and a weighted shift of n = 6, the graded parts G of the
    translated inputs."""
    weighted = _translated_graded_inputs()["weighted-scalar"]
    return shift_matrix(5), weighted - weighted[0, 0] * np.eye(6)


def test_far_translations_of_graded_t_keep_the_tag():
    # the tags of lam I + S_5 and of a weighted shift plus d are S_5's and
    # the weighted shift's at every |lam|: the m-gon's thresholds scale
    # with G, not with |lam|.  From |lam| = 1e15 the normal certificate
    # accepts lam I + S_5, whose spectrum rows would make every rank a
    # point; the graded part is found first
    for g in _graded_parts():
        n = g.shape[0]
        want = [rank_k_range(g, k, 720).region.kind for k in range(1, n + 1)]
        assert want == ["polygon"] * (n // 2) + ["point"] * (n % 2) + ["empty"] * (n // 2)
        for e in range(8, 17):
            lam = 10.0**e * np.exp(0.7j)
            got = [rank_k_range(g + lam * np.eye(n), k, 720).region for k in range(1, n + 1)]
            assert [r.kind for r in got] == want, e
            assert got[0].vertices.size == 720, e


def test_translated_graded_error_bound_is_the_graded_parts():
    # a translated rank's outer_error_bound is that of G's m-gon before d
    # is added, the gap to G's disc, bit for bit, where the m-gon's largest
    # modulus would grow it with |d| (9.52e6 for S_5 at 1e12, against
    # 8.24e-6 at 0)
    for g in _graded_parts():
        n = g.shape[0]
        for k in range(1, n // 2 + 1):
            want = rank_k_range(g, k, 720).outer_error_bound
            assert 0 < want < 1e-4, k
            for e in (-8, 0, 8, 12, 16):
                lam = 10.0**e * np.exp(0.7j)
                got = rank_k_range(g + lam * np.eye(n), k, 720)
                assert got.region.kind == "polygon", (k, e)
                assert got.outer_error_bound == want, (k, e)


@pytest.mark.parametrize("seed", range(3))
def test_property_suite_passes_on_jordan_blocks(seed):
    rng = generator(4400 + seed)
    for n in (2, 3, 5, 6):
        lam = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2, 6)
        for s in (1e-8, 1.0, 1e8):
            t = s * _jordan(n, lam)
            k = int(rng.integers(1, n + 1))
            reports = property_suite(t, k, 720, generator(seed))
            assert [r.property_id for r in reports] == ["P1", "P2", "P3", "P4", "P5", "P6"]
            assert all(r.passed for r in reports), (n, lam, s, k, reports)


@pytest.mark.parametrize("m", [16, 17, 720, 721, 2048])
def test_middle_rank_exits_read_translated_graded_sweeps(m):
    # the three-row bound and the Fourier fit read a translated graded
    # sweep's columns: they find the point d, which the graded rank returns
    # bit for bit, and the three rows never call it empty
    rng = generator(4500 + m)
    for n in (3, 5, 7):
        k = (n + 1) // 2
        g = _weighted_shift(rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
        for t in (shift_matrix(n), g):
            for e in (-8, 0, 8):
                d = 10.0 ** rng.uniform(-4, 4) * np.exp(2j * np.pi * rng.uniform())
                sweep = pencil_sweep(10.0**e * (t + d * np.eye(n)), m)
                assert sweep.centre, (n, e)
                norm = sweep.unit_bound / np.cos(np.pi / m)
                tol = _row_tol(n, norm)
                assert not ranges._rows_apart(sweep, k, tol, norm), (n, e)
                fit = ranges._fourier_point(sweep, k, tol)
                point = sweep.region(k)[0]  # in sweep units, as the fit
                assert fit.kind == point.kind == "point", (n, e)
                assert point.vertices[0] == sweep.centre
                assert abs(fit.vertices[0] - point.vertices[0]) <= tol, (n, e)
                got = range_from_sweep(sweep, k).region.vertices
                assert got.tobytes() == _in_t_units([sweep.centre], sweep).tobytes(), (n, e)


# --- closed forms and Li-Sze ---------------------------------------------------------

def _ellipse_support(lam, minor, thetas):
    """Support of the ellipse with foci lam and minor axis ``minor`` in the
    directions of the offsets: Re(e^{i theta} c) + sqrt(minor^2 / 4 +
    Re(e^{i theta} (lam_1 - lam_2) / 2)^2), c the foci's midpoint."""
    phase = np.exp(1j * thetas)
    half = (phase * (lam[0] - lam[1]) / 2.0).real
    return (phase * (lam[0] + lam[1]) / 2.0).real + np.sqrt(minor**2 / 4.0 + half**2)


@pytest.mark.parametrize("m", [720, 32768])
def test_two_by_two_offsets_are_the_elliptical_range(m):
    # Li (Proc. AMS 124, 1996): the numerical range of a 2 x 2 T is the
    # ellipse with foci at its eigenvalues and minor axis
    # (tr T*T - |lam_1|^2 - |lam_2|^2)^(1/2); not a disc, so a sign or
    # orientation error in the offsets shows.  A normal T's ellipse is the
    # segment between its eigenvalues, and at m = 32768 its rows are formed
    # on demand
    rng = generator(3600)
    for trial in range(50):
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lam = np.linalg.eigvals(t)
        minor = np.sqrt(max(np.trace(t.conj().T @ t).real - (np.abs(lam) ** 2).sum(), 0.0))
        rep = rank_k_range(t, 1, m)
        thetas, offsets = rep.support_samples.T
        want = _ellipse_support(lam, minor, thetas)
        assert np.abs(offsets - want).max() <= _row_tol(2, np.linalg.norm(t, 2)), trial
    for trial in range(10):
        lam = rng.normal(size=2) + 1j * rng.normal(size=2)
        u = random_unitary(2, rng)
        for t in (np.diag(lam), u @ np.diag(lam) @ u.conj().T):
            sweep = pencil_sweep(t, m)
            assert sweep.kind == "disc" and not sweep.rho.any()
            assert (sweep._rows is None) == (m == 32768)
            rep = range_from_sweep(sweep, 1)
            want = _ellipse_support(lam, 0.0, rep.support_samples[:, 0])
            assert np.abs(rep.support_samples[:, 1] - want).max() <= _row_tol(2, np.abs(lam).max())


def test_li_sze_ranks_are_never_empty():
    # Li and Sze (Proc. AMS 136, 2008): Lambda_k(T) is non-empty whenever
    # n >= 3k - 2, so no such rank may come back empty
    checked = 0
    for seed in range(4):
        rng = generator(3700 + seed)
        for n in range(1, 9):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for t in (g, g.real, np.tril(g, -1)):
                sweep = pencil_sweep(t, 720)
                for k in range(1, (n + 2) // 3 + 1):
                    assert not range_from_sweep(sweep, k).region.is_empty, (seed, n, k)
                    checked += 1
    assert checked == 4 * 3 * 15


# --- batch rows on demand ---------------------------------------------------

def _batch_inputs(n=6):
    """T of every batch kind: Gaussian, nilpotent, real, zero, 1 x 1 and a
    hidden U* S_n U, whose lambda_1 is constant, so that nothing prunes."""
    rng = generator(53)
    g = random_matrix(n, rng)
    u = random_unitary(n, rng)
    return {"gauss": g, "nilpotent": np.tril(g, -1), "real": g.real,
            "zero": np.zeros((n, n), complex), "one": g[:1, :1],
            "hidden-shift": u.conj().T @ shift_matrix(n) @ u}


def _bits(x):
    return np.float64(x).view(np.uint64)


@pytest.mark.parametrize("m", [16, 17, 720, 2048])
@pytest.mark.parametrize("name", sorted(_batch_inputs()))
def test_batch_maxima_are_the_full_solve_bits(name, m):
    # the refinement's radius and column maxima are the bits of the fully
    # solved rows, whichever is read first, at every scale
    for scale in (1e-300, 1.0, 1e300):
        t = scale * _batch_inputs()[name]
        rows = _batch_rows(t, m)
        if m % 2 == 0:
            rows = np.concatenate([rows, -rows[:, ::-1]])
        n = t.shape[0]
        for radius_first in (True, False):
            sweep = ranges._BatchSweep(m, as_matrix(t))
            if radius_first:
                radius = sweep.numerical_radius()
            maxima = sweep.column_maxima(range(n))
            if not radius_first:
                radius = sweep.numerical_radius()
            assert _bits(radius) == _bits(rows[:, 0].max() / 2.0), (scale, radius_first)
            assert [_bits(v) for v in maxima] == [_bits(v) for v in rows.max(axis=0)]
            assert sweep.eigenvalues.tobytes() == rows.tobytes()


def test_pencil_sweep_keeps_batch_t_for_its_reads():
    for name in ("gauss", "nilpotent", "real", "hidden-shift"):
        sweep = pencil_sweep(_batch_inputs()[name], 720)
        assert sweep.kind == "batch" and sweep._rows is None, name


def test_batch_radius_solves_a_fraction_of_the_pencils(monkeypatch):
    # the coarse pass and the bisection levels solve under a quarter of the
    # m/2 pencils, no LAPACK call above one block
    rng = generator(59)
    for t, m, total in ((random_matrix(8, rng), 720, 85),
                        (np.tril(random_matrix(16, rng), -1), 2048, 221)):
        sizes = _batch_sizes(monkeypatch)
        pencil_sweep(t, m).numerical_radius()
        monkeypatch.undo()
        _assert_solved(sizes, total, t.shape[0])
    # nothing prunes a hidden shift: the coarse pass, 64 pencils, then the rest
    sizes = _batch_sizes(monkeypatch)
    pencil_sweep(_batch_inputs(16)["hidden-shift"], 2048).numerical_radius()
    assert sizes[0] == 64
    _assert_solved(sizes, 1024, 16)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_batch_range_sends_one_batch(k, monkeypatch):
    # a rank reads its rows before the radius: one call of m/2 pencils,
    # and the radius, the bound and the samples then read them
    sizes = _batch_sizes(monkeypatch)
    sweep = pencil_sweep(_batch_inputs()["gauss"], 720)
    report = range_from_sweep(sweep, k)
    report.support_samples
    sweep.numerical_radius()
    assert sizes == [360]
    assert k < 6 or report.region.is_empty


@pytest.mark.parametrize("m", [2048, 2049])
def test_batch_middle_rank_reads_only_its_rows(m, monkeypatch):
    # a Gaussian n = 5 at k = 3 is settled empty by the three rows and the
    # refined radius, with most pencils unsolved
    t = random_matrix(5, generator(61))
    sizes = _batch_sizes(monkeypatch)
    region = range_from_sweep(pencil_sweep(t, m), 3).region
    monkeypatch.undo()
    assert sum(sizes) < _solved_count(m) // 2, sizes
    full = pencil_sweep(t, m)
    want = range_from_sweep(ranges.PencilSweep(m, full.eigenvalues), 3).region
    assert region.is_empty and want.is_empty


def test_batch_blocks_keep_the_whole_stack_bits(monkeypatch):
    # n = 32 takes 16 pencils a block, and m = 722 solves 361, not a multiple
    # of 16: reads at chosen indices that straddle blocks and repeat, then a
    # whole column, give the bits of one LAPACK call on the whole stack
    t = random_matrix(32, generator(71))
    rows = _batch_rows(t, 722)
    rows = np.concatenate([rows, -rows[:, ::-1]])
    sizes = _batch_sizes(monkeypatch)
    sweep = pencil_sweep(t, 722)
    assert sweep.kind == "batch"
    for r, idx in ((0, [15, 16, 17, 15, 16, 360, 361, 721, 15]), (31, np.arange(10, 60, 3)),
                   (3, np.arange(0, 722, 7)), (0, [15, 16, 17, 376, 377])):
        assert sweep.column(r, np.array(idx)).tobytes() == rows[idx, r].tobytes(), idx
    assert sweep.column(7).tobytes() == rows[:, 7].tobytes()
    assert sweep.eigenvalues.tobytes() == rows.tobytes()
    _assert_solved(sizes, 361, 32)


@pytest.mark.parametrize("n, m", [(32, 720), (64, 2048)])
def test_batch_column_read_stays_within_a_few_blocks(n, m):
    # a whole column's read solves every pencil in 256 KB blocks: its peak
    # is a few blocks, not the (m/2, n, n) stack of 6.0 or 64.5 MiB
    sweep = pencil_sweep(random_matrix(n, generator(73)), m)
    assert sweep.kind == "batch"
    tracemalloc.start()
    try:
        sweep.column(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak / 2**20


def test_batch_t_that_may_overflow_raises_at_the_read():
    # a batch T is swept at unit size whatever its scale, its pencils solved
    # on demand; the first read of a row that overflows in T's units raises,
    # and a read of finite rows does not
    g = random_matrix(3, generator(67))
    for s in (1e308, 4e307, 2.0**1015 / 3):
        sweep = pencil_sweep(s * g / np.abs(g).max(), 720)
        assert sweep.kind == "batch" and sweep._rows is None and sweep.done.sum() == 0, s
    sweep = pencil_sweep(1e308 * g / np.abs(g).max(), 720)
    with pytest.raises(ValueError, match="overflow"):
        sweep.numerical_radius()
    with pytest.raises(ValueError, match="overflow"):
        sweep.column(0)
    assert np.isfinite(sweep.column(1, np.arange(3))).all()
    # 2^1015 / 3 of a T whose largest part is 1: every row finite
    t = 2.0**1015 / 3 * g / max(np.abs(g.real).max(), np.abs(g.imag).max())
    sweep = pencil_sweep(t, 720)
    assert np.isfinite(sweep.numerical_radius()) and sweep._rows is None
    assert np.isfinite(sweep.eigenvalues).all()
