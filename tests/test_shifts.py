import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrnr.checks import generator, nilpotent_instance, random_nilpotent_contraction
from hrnr.geometry import CLIP_EPS
from hrnr.linalg import eig_hermitian_stack
from hrnr.ranges import BadRankError, _row_tol, pencil, pencil_sweep, range_from_sweep
from hrnr.shifts import (
    BadIndexError,
    NotContractionError,
    NotNilpotentError,
    build_dilation,
    kth_of_replicated,
    nilpotency_index,
    rho,
    shift_matrix,
    shift_radius,
)


# --- shift_matrix ------------------------------------------------------------

def test_shift_one_dimensional():
    assert np.array_equal(shift_matrix(1), np.zeros((1, 1), dtype=complex))


def test_shift_two_dimensional():
    assert np.array_equal(shift_matrix(2), np.array([[0, 0], [1, 0]], dtype=complex))


@pytest.mark.parametrize("n", range(1, 9))
def test_shift_nilpotent_of_index_n(n):
    s = shift_matrix(n)
    if n > 1:
        assert np.abs(np.linalg.matrix_power(s, n - 1)).max() == 1.0
    assert np.abs(np.linalg.matrix_power(s, n)).max() == 0.0


# --- closed forms ------------------------------------------------------------

def test_closed_form_disc():
    assert shift_radius(4, 2) == pytest.approx(0.30901699437494745, abs=1e-15)


def test_closed_form_degenerate_point():
    # cos(pi/2) is zero: the rank-2 range of S3 is the origin alone
    assert shift_radius(3, 2) == 0.0


def test_closed_form_empty():
    assert shift_radius(4, 3) is None


def test_closed_form_bad_rank():
    for n, k, r in [(4, 0, 1), (4, 5, 1), (3, 7, 2), (3, 4, 1)]:
        with pytest.raises(BadRankError):
            shift_radius(n, k, r)


def test_shift_radius_point_rule_is_exact():
    # a point exactly when 2 rho(k, r) = n + 1, however large n is
    for n in [1, 2, 3, 9, 10, 999, 10**6 + 1]:
        for r in (1, 2, 3):
            for k in (1, 2, r * (n + 1) // 2, r * (n + 1) // 2 + 1, n * r):
                if not 1 <= k <= n * r:
                    continue
                radius = shift_radius(n, k, r)
                assert (radius == 0.0) == (2 * rho(k, r) == n + 1), (n, k, r)
                assert (radius is None) == (2 * rho(k, r) > n + 1), (n, k, r)


# --- rho and replicated sequences ---------------------------------------------

def test_rho_examples():
    assert rho(4, 2) == 2
    assert rho(3, 2) == 2


@given(st.integers(1, 500))
def test_rho_multiplicity_one(k):
    assert rho(k, 1) == k


@given(st.integers(1, 400), st.integers(1, 20))
def test_rho_is_ceiling_division(k, r):
    assert rho(k, r) == -((-k) // r)


def test_kth_of_replicated_examples():
    assert kth_of_replicated([5.0, 3.0], 2, 3) == 3.0
    assert kth_of_replicated([9.0, 4.0, 1.0], 3, 7) == 1.0


def test_kth_of_replicated_multiplicity_one():
    values = [4.0, 2.5, 0.0, -1.0]
    for k in range(1, 5):
        assert kth_of_replicated(values, 1, k) == values[k - 1]


def test_kth_of_replicated_exhaustive_vs_brute_force():
    rng = generator(2024)
    for n in range(1, 7):
        for r in range(1, 6):
            values = np.sort(rng.normal(size=n))[::-1]
            while not (np.diff(values) < 0).all():
                values = np.sort(rng.normal(size=n))[::-1]
            brute = np.sort(np.repeat(values, r))[::-1]
            for k in range(1, n * r + 1):
                assert kth_of_replicated(values, r, k) == brute[k - 1]


def test_kth_of_replicated_bad_index():
    with pytest.raises(BadIndexError):
        kth_of_replicated([2.0, 1.0], 2, 5)
    with pytest.raises(ValueError):
        kth_of_replicated([1.0, 1.0], 2, 1)


def test_replicated_closed_form():
    assert shift_radius(3, 2, 2) == pytest.approx(np.cos(np.pi / 4))
    assert shift_radius(3, 3, 2) == 0.0
    assert shift_radius(3, 5, 2) is None


def test_replicated_closed_form_matches_engine():
    # the engine on r copies of S_n, at every rank, against shift_radius
    misses = []
    for n in range(1, 8):
        for r in range(1, 4):
            t = np.kron(np.eye(r), shift_matrix(n))
            sweep = pencil_sweep(t, 2048)
            # the certified bracket of a centred disc (tests/test_ranges.py)
            tol = _row_tol(n * r, np.linalg.norm(t, 2))
            for k in range(1, n * r + 1):
                report = range_from_sweep(sweep, k)
                region = report.region
                radius = shift_radius(n, k, r)
                want = "empty" if radius is None else "polygon" if radius else "point"
                if region.kind != want:
                    misses.append((n, r, k, region.kind))
                elif want == "point":
                    # a point the geometry gives (2k <= n r, radius 0: the
                    # zero T of n = 1) is the mean of a loop cut by planes
                    # relaxed by CLIP_EPS * bound
                    assert abs(region.vertices[0]) <= tol + CLIP_EPS * sweep.region_bound, (n, r, k)
                elif want == "polygon":
                    outer = report.outer_error_bound + CLIP_EPS * sweep.region_bound
                    assert radius - tol <= region.max_modulus() <= radius + outer + tol, (n, r, k)
                    assert abs(report.min_support() - radius) <= tol, (n, r, k)
    assert not misses


# --- pencil spectra of shifts ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_shift_pencil_spectrum_is_theta_free(n):
    # the pencil spectrum of the shift: 2 cos(nu pi/(n+1)), any direction
    expected = 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    rng = generator(n)
    for theta in rng.uniform(0, 2 * np.pi, size=8):
        values = eig_hermitian_stack(pencil(shift_matrix(n), theta)[None])[0]
        assert np.abs(values - expected).max() < 1e-9


def characteristic_recurrence(lam, n):
    """Determinant of the shift pencil minus lambda, via its three-term
    recurrence d_j = -lam d_{j-1} - d_{j-2}, d_0 = 1, d_{-1} = 0."""
    prev, cur = 0.0, 1.0
    for _ in range(n):
        prev, cur = cur, -lam * cur - prev
    return cur


@pytest.mark.parametrize("n", [2, 4, 7, 12])
def test_recurrence_vanishes_at_pencil_eigenvalues(n):
    values = eig_hermitian_stack(pencil(shift_matrix(n), 0.7)[None])[0]
    for lam in values:
        assert abs(characteristic_recurrence(lam, n)) < 1e-6


# --- nilpotency ------------------------------------------------------------------

def test_nilpotency_of_shift():
    assert nilpotency_index(shift_matrix(5)) == 5


def test_nilpotency_of_zero():
    assert nilpotency_index(np.zeros((3, 3))) == 1


def test_nilpotency_of_random_lower_triangular():
    rng = generator(9)
    t = np.tril(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), -1)
    idx = nilpotency_index(t)
    assert idx <= 4
    assert np.abs(np.linalg.matrix_power(t, idx)).max() <= 1e-10
    if idx > 1:
        assert np.abs(np.linalg.matrix_power(t, idx - 1)).max() > 1e-10


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e8])
@pytest.mark.parametrize("n", [3, 5, 20, 32])
def test_nilpotency_index_of_scaled_shift(n, scale):
    # divided by its spectral norm, s S_n is S_n, whose powers below n keep
    # unit entries; a max(1, ||T||_F) divisor let S_20 and 1e-6 S_3 vanish
    # early
    assert nilpotency_index(scale * shift_matrix(n)) == n


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_nilpotency_index_of_random_lower_triangular_is_scale_free(scale):
    rng = generator(11)
    t = np.tril(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), -1)
    assert nilpotency_index(scale * t) == 6


def test_nilpotency_rejects_identity():
    with pytest.raises(NotNilpotentError):
        nilpotency_index(np.eye(3))


# --- dilation ----------------------------------------------------------------------

def test_dilation_of_shift():
    pack = build_dilation(shift_matrix(4))
    assert pack.n == 4 and pack.r == 1
    assert np.abs(pack.defect - np.diag([0, 0, 0, 1.0])).max() < 1e-10
    assert pack.isometry_residual <= 1e-12
    assert pack.intertwine_residual <= 1e-12
    # I - S_n* S_n is diagonal with entries 0 and 1, whose roots are exact
    for n in range(1, 9):
        pack = build_dilation(shift_matrix(n))
        want = np.zeros((n, n), dtype=complex)
        want[-1, -1] = 1.0
        assert np.array_equal(pack.defect, want), n
        assert pack.isometry_residual == 0.0 and pack.intertwine_residual == 0.0, n


def test_dilation_of_zero_scalar():
    pack = build_dilation(np.zeros((1, 1)))
    assert pack.n == 1 and pack.r == 1
    assert np.array_equal(pack.V, np.ones((1, 1), dtype=complex))
    assert pack.isometry_residual == 0.0


def test_dilation_of_scaled_shift():
    pack = build_dilation(0.5 * shift_matrix(2))
    assert pack.r == 2
    assert np.abs(pack.defect - np.diag([0.8660254037844386, 1.0])).max() < 1e-12
    assert pack.isometry_residual <= 1e-12
    assert pack.intertwine_residual <= 1e-12


def test_dilation_shape_and_reconstruction():
    t = 0.5 * shift_matrix(3)
    pack = build_dilation(t)
    d = 3
    assert pack.V.shape == (d * pack.n, d)
    rebuilt = pack.V.conj().T @ np.kron(np.eye(d), shift_matrix(pack.n).conj().T) @ pack.V
    assert np.linalg.norm(rebuilt - t) < 1e-10


@pytest.mark.parametrize("r_hint", [1, 2, 3])
def test_dilation_defect_rank_of_hidden_shift_blocks(r_hint):
    # rounding noise of 1e-16 in I - T*T must not count toward the rank
    for seed in range(40):
        t = nilpotent_instance(5, r_hint, generator(seed))
        assert build_dilation(t).r == r_hint, seed


@pytest.mark.parametrize("overshoot", [8e-11, 1e-10])
def test_dilation_accepts_norm_within_contraction_tol(overshoot):
    # the contraction check is the one gate: I - T*T then has eigenvalues
    # down to about -2e-10, which the square root must clamp, not refuse
    d = 3
    c = 1.0 + overshoot
    pack = build_dilation(c * shift_matrix(d))
    assert pack.n == d and pack.r == 1
    assert np.array_equal(pack.defect, np.diag([0.0, 0.0, 1.0]).astype(complex))
    # the clamp leaves D_T^2 = diag(0, 0, 1), so V*V - I is
    # diag(c^4 - 1, c^2 - 1, 0): a few 1e-10, the overshoot's own size
    expected = np.hypot(c ** 4 - 1.0, c ** 2 - 1.0)
    assert abs(pack.isometry_residual - expected) <= 1e-15 * d
    assert pack.intertwine_residual <= 1e-10 * d


def test_dilation_rejects_expansion():
    with pytest.raises(NotContractionError):
        build_dilation(2.0 * shift_matrix(2))


def test_dilation_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        build_dilation(0.5 * np.eye(2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dilation_residuals_on_random_contractions(seed):
    rng = generator(seed)
    dim = int(rng.integers(2, 7))
    t = random_nilpotent_contraction(dim, rng, norm=1.0 if seed % 2 else None)
    pack = build_dilation(t)
    assert pack.isometry_residual <= 1e-10 * dim
    assert pack.intertwine_residual <= 1e-10 * dim
    assert 1 <= pack.r <= dim
    assert pack.n <= dim


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dilation_defect_squares_back_and_commutes(seed):
    # D_T is the Hermitian square root of I - T*T, so it commutes with it
    rng = generator(seed)
    dim = int(rng.integers(2, 7))
    t = random_nilpotent_contraction(dim, rng, norm=1.0 if seed % 2 else None)
    gram = np.eye(dim) - t.conj().T @ t
    defect = build_dilation(t).defect
    assert np.linalg.norm(defect @ defect - gram) < 1e-9
    assert np.linalg.norm(defect @ gram - gram @ defect) < 1e-8
    assert np.linalg.norm(defect - defect.conj().T) < 1e-10
