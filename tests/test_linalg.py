import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrnr.checks import check_hermitian_oracle, direct_sum
from hrnr.linalg import DimensionError, as_matrix, eig_hermitian_stack, is_hermitian, unit_scale
from hrnr.ranges import pencil_sweep, range_from_sweep
from hrnr.shifts import build_dilation, shift_matrix


def random_hermitian(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x + x.conj().T


def eigenvalues(h):
    """Descending spectrum of one Hermitian matrix, from the sweep's solver."""
    return eig_hermitian_stack(np.asarray(h)[None])[0]


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


# --- eig_hermitian_stack on repeated spectra ------------------------------

@pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (4, 4)])
def test_kron_spectrum_is_repeated(r, n):
    h = random_hermitian(n, 10 * r + n)
    single = eigenvalues(h)
    repeated = eigenvalues(np.kron(np.eye(r), h))
    expected = np.sort(np.repeat(single, r))[::-1]
    assert np.abs(repeated - expected).max() < 1e-9


# --- eig_hermitian_stack --------------------------------------------------

def test_eig_shift_pencil_golden_ratio():
    # spectrum of S4 + S4* is 2 cos(nu pi / 5), nu = 1..4
    h = shift_matrix(4) + shift_matrix(4).conj().T
    values = eigenvalues(h)
    expected = np.array([1.618033988749895, 0.618033988749895,
                         -0.618033988749895, -1.618033988749895])
    assert np.abs(values - expected).max() < 1e-12


def test_eig_identity():
    assert np.abs(eigenvalues(np.eye(3)) - 1.0).max() == 0.0


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
    assert np.abs(eigenvalues(h) - frozen).max() < 1e-9


def _oracle_on(t):
    return check_hermitian_oracle(t, range_from_sweep(pencil_sweep(t, 64), 1))


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        _oracle_on(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-20, 1e-8, 1e8])
def test_eig_rejects_non_hermitian_at_every_scale(scale):
    # the eigensolver reads one triangle only, so the Hermitian oracle must
    # refuse a tiny non-Hermitian input rather than answer for its triangle
    with pytest.raises(ValueError, match="not Hermitian"):
        _oracle_on(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("e", [-700, 0, 700])
def test_is_hermitian_holds_at_every_scale(e):
    # both Frobenius norms square the entries, which overflow or underflow
    # beyond about 2^+-512, where a Gaussian passed as Hermitian; taken at
    # unit size the verdicts are those at scale 1
    rng = np.random.Generator(np.random.PCG64(31))
    for n in (1, 3, 6):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert is_hermitian(2.0**e * (g + g.conj().T)), n
        assert is_hermitian(2.0**e * g) == (n == 1 and not g.imag.any()), n
        assert is_hermitian(2.0**e * np.triu(g, 1)) == (n == 1), n


@pytest.mark.parametrize("t, p", [
    (np.zeros((2, 2)), 0),
    (np.diag([0.75, -0.5j]), 0),
    (np.diag([1.0, -3.0]), 2),
    (1e300 * np.eye(2), 997),
    (5e-324 * np.eye(1), -1073),
    (np.array([[0.0, -0.0], [1e-320j, -2.0**-1030]]), -1029),
], ids=["zero", "unit", "two", "huge", "smallest", "subnormal"])
def test_unit_scale_is_an_exact_power_of_two(t, p):
    # X = 2^-p T with X's largest real or imaginary part in [1/2, 1), each
    # part scaled exactly, signed zeros kept; the transpose is read as given
    x, got = unit_scale(t)
    assert got == p and x.dtype == complex and x.shape == t.shape
    t = as_matrix(t)
    for part in ("real", "imag"):
        back = np.ldexp(getattr(x, part), p)
        assert back.tobytes() == getattr(t, part).tobytes(), part
    assert unit_scale(t.T)[0].tobytes() == np.ascontiguousarray(x.T).tobytes()
    if t.any():
        assert 0.5 <= max(np.abs(x.real).max(), np.abs(x.imag).max()) < 1.0


def test_eig_deterministic():
    h = random_hermitian(5, 77)
    assert np.array_equal(eigenvalues(h), eigenvalues(h))


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_eig_trace_and_frobenius_sums(seed, n):
    h = random_hermitian(n, seed)
    values = eigenvalues(h)
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
    a = eigenvalues(h)
    b = eigenvalues(conj)
    assert np.abs(a - b).max() < 1e-9


def test_eig_stack_matches_single():
    hs = np.stack([random_hermitian(4, s) for s in range(6)])
    stacked = eig_hermitian_stack(hs)
    for i in range(6):
        assert np.abs(stacked[i] - eigenvalues(hs[i])).max() < 1e-11


# --- PSD square root -------------------------------------------------------
# D_T = (I - T*T)^{1/2} is taken inside build_dilation from one eigh of the
# Gram matrix, so the square root is tested through the dilation's defect.

def weighted_shift(weights):
    """Nilpotent matrix with ``weights`` on the subdiagonal."""
    t = np.zeros((len(weights) + 1,) * 2, dtype=complex)
    t[np.arange(1, len(weights) + 1), np.arange(len(weights))] = weights
    return t


def test_psd_sqrt_diagonal():
    # I - T*T = diag(0.64, 0.36, 1) for subdiagonal weights 0.6, 0.8
    defect = build_dilation(weighted_shift([0.6, 0.8])).defect
    assert np.abs(defect - np.diag([0.8, 0.6, 1.0])).max() < 1e-12


def test_psd_sqrt_zero():
    # I - S_n* S_n vanishes off its last entry, and so does its root, exactly
    for n in range(2, 7):
        defect = build_dilation(shift_matrix(n)).defect
        assert np.abs(defect[:-1, :]).max() == 0.0, n
        assert np.abs(defect[:, :-1]).max() == 0.0, n


def test_psd_sqrt_defect_of_scaled_shift():
    # I - (0.5 S2)* (0.5 S2) = diag(0.75, 1)
    t = 0.5 * shift_matrix(2)
    gram = np.eye(2) - t.conj().T @ t
    root = build_dilation(t).defect
    assert np.abs(root - np.diag([0.8660254037844386, 1.0])).max() < 1e-12
    assert np.abs(root @ root - gram).max() < 1e-12
