"""Input validation for square complex matrices and the batched Hermitian
eigensolver of the pencil sweep.

Matrices are plain square ``numpy.ndarray`` objects with ``complex128``
entries.  Nothing here mutates its arguments, so all functions are safe
to call concurrently.

The eigensolver is numpy's LAPACK routine ``eigvalsh`` applied to a whole
stack of Hermitian matrices at once.  There is no per-matrix API: callers
that need one matrix's spectrum or eigenvectors call ``numpy.linalg``
directly.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for accepting an input as Hermitian.
HERMITIAN_RTOL = 1e-12


class DimensionError(ValueError):
    """Operands have incompatible or non-square shapes."""


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


def eig_hermitian_stack(stack) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, from LAPACK.

    Parameters
    ----------
    stack : array_like, shape (B, n, n)
        Hermitian matrices.  Hermiticity is assumed, not checked, and only
        the lower triangle is read.

    Returns
    -------
    values : ndarray, shape (B, n)
        Eigenvalues of each matrix, sorted descending.

    Raises ``numpy.linalg.LinAlgError`` when LAPACK fails to converge.
    """
    hs = np.asarray(stack, dtype=np.complex128)
    if hs.ndim != 3 or hs.shape[1] != hs.shape[2]:
        raise DimensionError(f"expected a (B, n, n) stack, got {hs.shape}")
    if hs.shape[0] == 0:
        raise DimensionError("empty stack")
    # LAPACK sorts ascending; reversing the last axis gives descending order
    return np.linalg.eigvalsh(hs)[:, ::-1]


def is_hermitian(h) -> bool:
    """Whether ``||H - H*||_F <= 1e-12 ||H||_F``.

    The rule is purely relative, so it holds or fails alike for ``s H`` at
    every scale ``s > 0``.
    """
    h = as_matrix(h)
    return bool(np.linalg.norm(h - h.conj().T) <= HERMITIAN_RTOL * np.linalg.norm(h))
