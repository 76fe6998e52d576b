import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrnr.checks import direct_sum
from hrnr.linalg import (
    DimensionError,
    NotHermitianError,
    NotPSDError,
    as_matrix,
    eig_hermitian_stack,
    hermitian_eig,
    psd_sqrt,
)
from hrnr.shifts import shift_matrix


def random_hermitian(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x + x.conj().T


# --- as_matrix and shift products ----------------------------------------

def test_matmul_shift_square_is_zero():
    s2 = shift_matrix(2)
    assert np.abs(s2 @ s2).max() == 0.0


def test_matmul_shift_times_adjoint():
    # S3 @ S3* has ones exactly where a subdiagonal one meets itself
    s3 = shift_matrix(3)
    assert np.array_equal(s3 @ s3.conj().T, np.diag([0.0, 1.0, 1.0]).astype(complex))


def test_rejects_non_square_and_nonfinite():
    with pytest.raises(DimensionError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_adjoint_shift_is_superdiagonal():
    s4 = shift_matrix(4).conj().T
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.arange(3), np.arange(1, 4)] = 1.0
    assert np.array_equal(s4, expected)


def test_kron_two_shift_blocks():
    # the block layout the dilation's intertwining relation relies on
    s2 = shift_matrix(2)
    assert np.array_equal(np.kron(np.eye(2), s2), direct_sum(s2, s2))


# --- hermitian_eig on repeated spectra ------------------------------------

@pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (4, 4)])
def test_kron_spectrum_is_repeated(r, n):
    h = random_hermitian(n, 10 * r + n)
    single = hermitian_eig(h).values
    repeated = hermitian_eig(np.kron(np.eye(r), h)).values
    expected = np.sort(np.repeat(single, r))[::-1]
    assert np.abs(repeated - expected).max() < 1e-9


# --- hermitian_eig --------------------------------------------------------

def test_eig_shift_pencil_golden_ratio():
    # spectrum of S4 + S4* is 2 cos(nu pi / 5), nu = 1..4
    h = shift_matrix(4) + shift_matrix(4).conj().T
    values = hermitian_eig(h).values
    expected = np.array([1.618033988749895, 0.618033988749895,
                         -0.618033988749895, -1.618033988749895])
    assert np.abs(values - expected).max() < 1e-12


def test_eig_identity():
    assert np.abs(hermitian_eig(np.eye(3)).values - 1.0).max() == 0.0


def _char3(h, lam):
    m = h - lam * np.eye(3)
    det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
           - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
           + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    return det.real


def _bisect_roots3(h):
    r = np.linalg.norm(h) + 1.0
    grid = np.linspace(-r, r, 4001)
    vals = np.array([_char3(h, g) for g in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            flo = _char3(h, lo)
            for _ in range(200):
                mid = (lo + hi) / 2
                fm = _char3(h, mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append((lo + hi) / 2)
    return np.array(sorted(roots, reverse=True))


def test_eig_matches_bisection_on_characteristic_cubic():
    h = random_hermitian(3, 314)
    oracle = _bisect_roots3(h)
    frozen = np.array([2.146968313596938, -0.552791461220961, -3.078585271197587])
    assert np.abs(oracle - frozen).max() < 1e-9
    assert np.abs(hermitian_eig(h).values - frozen).max() < 1e-9


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-20, 1e-8, 1e8])
def test_eig_rejects_non_hermitian_at_every_scale(scale):
    # the eigensolver reads one triangle only, so a tiny non-Hermitian
    # input must be refused rather than silently replaced by its triangle
    with pytest.raises(NotHermitianError):
        hermitian_eig(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_vectors_unitary_and_reconstruct():
    h = random_hermitian(7, 5)
    eig = hermitian_eig(h)
    v = eig.vectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(7)) < 1e-10
    recon = (v * eig.values[None, :]) @ v.conj().T
    assert np.linalg.norm(h - recon) < 1e-10 * max(1.0, np.linalg.norm(h))


def test_eig_deterministic():
    h = random_hermitian(5, 77)
    a = hermitian_eig(h)
    b = hermitian_eig(h)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_eig_trace_and_frobenius_sums(seed, n):
    h = random_hermitian(n, seed)
    values = hermitian_eig(h).values
    tol = 1e-9 * max(1.0, np.linalg.norm(h))
    assert (np.diff(values) <= 0).all()
    assert abs(values.sum() - np.trace(h).real) < tol
    assert abs((values ** 2).sum() - np.linalg.norm(h) ** 2) < tol


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_eig_invariant_under_phase_conjugation(seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    h = random_hermitian(n, seed)
    u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
    conj = u.conj().T @ h @ u
    conj = (conj + conj.conj().T) / 2
    a = hermitian_eig(h).values
    b = hermitian_eig(conj).values
    assert np.abs(a - b).max() < 1e-9


def test_eig_stack_matches_single():
    hs = np.stack([random_hermitian(4, s) for s in range(6)])
    stacked, _ = eig_hermitian_stack(hs, vectors=False)
    for i in range(6):
        assert np.abs(stacked[i] - hermitian_eig(hs[i]).values).max() < 1e-11


# --- psd_sqrt -------------------------------------------------------------

def test_psd_sqrt_diagonal():
    assert np.abs(psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() < 1e-12


def test_psd_sqrt_zero():
    assert np.abs(psd_sqrt(np.zeros((3, 3)))).max() == 0.0


def test_psd_sqrt_defect_of_scaled_shift():
    # I - (0.5 S2)* (0.5 S2) = diag(0.75, 1)
    t = 0.5 * shift_matrix(2)
    gram = np.eye(2) - t.conj().T @ t
    root = psd_sqrt(gram)
    assert np.abs(root - np.diag([0.8660254037844386, 1.0])).max() < 1e-12


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1e-6]))


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_psd_sqrt_squares_back_and_commutes(seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = x.conj().T @ x
    r = psd_sqrt(a)
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(r @ r - a) < 1e-9 * scale
    assert np.linalg.norm(r @ a - a @ r) < 1e-8 * max(1.0, np.linalg.norm(a) ** 2)
    assert np.linalg.norm(r - r.conj().T) < 1e-10 * scale
