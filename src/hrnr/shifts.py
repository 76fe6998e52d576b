"""Shift matrices, their closed-form ranges, and the nilpotent dilation.

One closed form, :func:`shift_radius`, covers both results.  The rank-k
numerical range of r copies of the n-dimensional shift S_n (ones on the
first subdiagonal) is the closed disc about 0 of radius
cos(rho(k, r) pi / (n+1)) when rho(k, r) <= floor((n+1)/2), and empty
otherwise; r = 1 is S_n itself.  A nilpotent contraction T embeds
isometrically into r copies of S_n*, where r is the rank of the defect
(I - T*T)^{1/2}, so that disc also bounds T's rank-k range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .ranges import BadRankError

# Spectral-norm slack for accepting a contraction (scaled inputs sit on
# the boundary after rounding).
CONTRACTION_TOL = 1e-10
# An eigenvalue of I - T*T counts toward the defect rank when it exceeds
# this.  Scale-free because T is a contraction; compared before the square
# root, so rounding noise of 1e-16 does not become 1e-8.
DEFECT_RANK_TOL = 1e-12
# Entry tolerance in the nilpotency power test, on the scale-normalised matrix.
NILPOTENT_TOL = 1e-12


class BadIndexError(ValueError):
    """Replicated-sequence index outside 1..n*r."""


class NotContractionError(ValueError):
    """Spectral norm exceeds 1 beyond tolerance."""


class NotNilpotentError(ValueError):
    """No power up to the dimension vanishes."""


def shift_matrix(n: int) -> np.ndarray:
    """The n x n shift: ones on the first subdiagonal, zeros elsewhere."""
    n = int(n)
    if n < 1:
        raise ValueError("shift dimension must be >= 1")
    s = np.zeros((n, n), dtype=np.complex128)
    s[np.arange(1, n), np.arange(n - 1)] = 1.0
    return s


def rho(k: int, r: int) -> int:
    """k/r when r divides k, floor(k/r) + 1 otherwise."""
    k, r = int(k), int(r)
    if k < 1 or r < 1:
        raise ValueError("rho arguments must be positive")
    if k % r == 0:
        return k // r
    return k // r + 1


def kth_of_replicated(values, r: int, k: int) -> float:
    """k-th largest term after repeating each of the values r times.

    ``values`` must be strictly descending; the answer is values[rho(k,r)]
    in 1-based indexing, identical to explicitly replicating and sorting.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if not (np.diff(vals) < 0).all():
        raise ValueError("values must be strictly descending")
    r, k = int(r), int(k)
    if r < 1:
        raise ValueError("multiplicity must be >= 1")
    if not 1 <= k <= vals.size * r:
        raise BadIndexError(f"k must be in 1..{vals.size * r}, got {k}")
    return float(vals[rho(k, r) - 1])


def shift_radius(n: int, k: int, r: int = 1) -> float | None:
    """Radius of the rank-k range of r copies of S_n: the disc about 0 of
    radius cos(rho(k, r) pi/(n+1)), exactly 0.0 (a point) when
    2 rho(k, r) = n + 1, and None (empty) when 2 rho(k, r) > n + 1.

    Raises BadRankError for k outside 1..n*r.
    """
    n, k, r = int(n), int(k), int(r)
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if not 1 <= k <= n * r:
        raise BadRankError(f"k must be in 1..{n * r}, got {k}")
    p = rho(k, r)
    if 2 * p > n + 1:
        return None
    return 0.0 if 2 * p == n + 1 else float(np.cos(p * np.pi / (n + 1)))


def nilpotency_index(t) -> int:
    """Smallest n <= dim with T^n = 0 (entrywise, on T / ||T||_2)."""
    t = as_matrix(t)
    d = t.shape[0]
    power = np.eye(d)
    base = t / (np.linalg.norm(t, 2) or 1.0)
    for p in range(1, d + 1):
        power = power @ base
        if np.abs(power).max() <= NILPOTENT_TOL:
            return p
    raise NotNilpotentError(f"no power up to {d} vanishes")


@dataclass(frozen=True, eq=False)
class DilationPack:
    """Isometric embedding of a nilpotent contraction into shift copies.

    V maps C^d into C^d (x) C^n; row (i*n + t-1) of V carries row i of
    D_T T^(t-1), so the shift acts on the second tensor factor and the
    intertwining relation reads V T = (I (x) S_n*) V.

    defect
        D_T = (I - T*T)^{1/2}.
    r
        Numerical rank of the defect (eigenvalues of I - T*T above 1e-12).
    n
        Nilpotency index of T.
    """

    defect: np.ndarray
    r: int
    n: int
    V: np.ndarray
    isometry_residual: float
    intertwine_residual: float


def build_dilation(t) -> DilationPack:
    """Construct the dilation isometry for a nilpotent contraction.

    Raises NotContractionError when ||T||_2 > 1 + 1e-10 and
    NotNilpotentError when no power up to dim(T) vanishes.

    One eigendecomposition of I - T*T gives both the defect and its rank.
    Its negative eigenvalues are clamped to 0 before the square root: once
    the contraction check has passed they are at least about -2e-10, the
    overshoot that check allows plus rounding, so no further floor is
    applied.
    """
    t = as_matrix(t)
    d = t.shape[0]
    if np.linalg.norm(t, 2) > 1.0 + CONTRACTION_TOL:
        raise NotContractionError("spectral norm exceeds 1 beyond tolerance")
    n = nilpotency_index(t)
    gram = np.eye(d) - t.conj().T @ t
    # descending order: the product below sums over the columns in this
    # order, and the defect's bytes depend on it
    values, vectors = np.linalg.eigh(gram)
    values, vectors = values[::-1], vectors[:, ::-1]
    r = int((values > DEFECT_RANK_TOL).sum())
    defect = (vectors * np.sqrt(np.clip(values, 0.0, None))[None, :]) @ vectors.conj().T
    v = np.zeros((d * n, d), dtype=np.complex128)
    block = defect
    rows = np.arange(d) * n
    for step in range(n):
        v[rows + step, :] = block
        block = block @ t
    iso = float(np.linalg.norm(v.conj().T @ v - np.eye(d)))
    inter = float(np.linalg.norm(v @ t - np.kron(np.eye(d), shift_matrix(n).conj().T) @ v))
    return DilationPack(
        defect=defect,
        r=r,
        n=n,
        V=v,
        isometry_residual=iso,
        intertwine_residual=inter,
    )
