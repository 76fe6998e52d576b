"""Dense complex matrix arithmetic and a batched Hermitian eigensolver.

Matrices are plain square ``numpy.ndarray`` objects with ``complex128``
entries.  Every public operation validates its inputs and returns fresh
arrays; nothing here mutates its arguments, so all functions are safe to
call concurrently.

The eigensolver is numpy's LAPACK driver (``eigvalsh``/``eigh``).  Its
batched entry point diagonalises a whole stack of Hermitian matrices at
once; the per-matrix API is the batch-of-one special case, so both paths
share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for accepting an input as Hermitian.
HERMITIAN_RTOL = 1e-12
# Eigenvalues of a nominally PSD matrix may be this negative before we
# refuse to take a square root.
PSD_FLOOR = -1e-10


class DimensionError(ValueError):
    """Operands have incompatible or non-square shapes."""


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the PSD floor."""


def as_matrix(a) -> np.ndarray:
    """Validate and coerce ``a`` to a square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionError("empty matrix")
    if not (np.isfinite(m.real).all() and np.isfinite(m.imag).all()):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Spectral decomposition of a Hermitian matrix.

    values
        Real eigenvalues sorted in non-increasing order.
    vectors
        Unitary matrix whose columns are the matching eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian_stack(stack, *, vectors: bool = True):
    """Diagonalise a stack of Hermitian matrices with LAPACK.

    Parameters
    ----------
    stack : array_like, shape (B, n, n)
        Hermitian matrices.  Hermiticity is assumed, not checked, and only
        the lower triangle is read; use :func:`hermitian_eig` for the
        validated single-matrix form.
    vectors : bool
        Also return eigenvector matrices (skipping them is faster when only
        the spectrum is needed).

    Returns
    -------
    values : ndarray, shape (B, n)
        Eigenvalues of each matrix, sorted descending.
    vectors : ndarray, shape (B, n, n) or None

    Raises ``numpy.linalg.LinAlgError`` when LAPACK fails to converge.
    """
    hs = np.asarray(stack, dtype=np.complex128)
    if hs.ndim != 3 or hs.shape[1] != hs.shape[2]:
        raise DimensionError(f"expected a (B, n, n) stack, got {hs.shape}")
    if hs.shape[0] == 0:
        raise DimensionError("empty stack")
    # LAPACK sorts ascending; reversing the last axis gives descending order
    if not vectors:
        return np.linalg.eigvalsh(hs)[:, ::-1], None
    vals, vecs = np.linalg.eigh(hs)
    return vals[:, ::-1], vecs[:, :, ::-1]


def is_hermitian(h) -> bool:
    """Whether ``||H - H*||_F <= 1e-12 ||H||_F``.

    The rule is purely relative, so it holds or fails alike for ``s H`` at
    every scale ``s > 0``.
    """
    h = as_matrix(h)
    return bool(np.linalg.norm(h - h.conj().T) <= HERMITIAN_RTOL * np.linalg.norm(h))


def hermitian_eig(h) -> HermitianEigen:
    """Eigenvalues (descending) and orthonormal eigenvectors of Hermitian H.

    Raises :class:`NotHermitianError` unless :func:`is_hermitian` accepts
    H, and ``numpy.linalg.LinAlgError`` if LAPACK fails to converge.
    Deterministic for a fixed input.
    """
    h = as_matrix(h)
    if not is_hermitian(h):
        raise NotHermitianError("matrix is not Hermitian within 1e-12 relative")
    vals, vecs = eig_hermitian_stack(h[None], vectors=True)
    return HermitianEigen(values=vals[0], vectors=vecs[0])


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower raises
    :class:`NotPSDError`.
    """
    eig = hermitian_eig(a)
    if eig.values.min() < PSD_FLOOR:
        raise NotPSDError(
            f"eigenvalue {eig.values.min():.3e} below the PSD floor {PSD_FLOOR:.0e}"
        )
    roots = np.sqrt(np.clip(eig.values, 0.0, None))
    v = eig.vectors
    return (v * roots[None, :]) @ v.conj().T
