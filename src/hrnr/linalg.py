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


def entry_max(a) -> float:
    """The largest |real part| or |imaginary part| of the entries of A, c:
    sqrt(2) n c >= ||A||_F, and a pencil's entries and eigenvalues are at
    most 8 n c."""
    return float(max(np.abs(a.real).max(), np.abs(a.imag).max()))


def unit_scale(a) -> tuple[np.ndarray, int]:
    """``as_matrix(a)`` at unit size, X = 2^-p A, and the exponent p: the
    one scale rule of the package.

    p is the exponent of ``entry_max(A)`` (0 for A = 0), so X's largest
    real or imaginary part lies in [1/2, 1).  Scaling by a power of two is
    exact but for entries that fall below the smallest normal number,
    about 2^-1022 of X's largest, so a scale-invariant rule computed on X
    holds or fails alike for s A at every scale s > 0 that A's entries can
    represent: no norm, eigenvalue or product of X can overflow, and what
    underflows is below 2^-1022 of X's scale, lost to rounding against it
    anyway.  ``ranges.pencil_sweep`` sweeps X and scales what it reports
    back by 2^p; ``is_hermitian`` and ``checks.is_normal`` take their norms
    on X.
    """
    m = as_matrix(a)
    p = int(np.frexp(entry_max(m))[1])
    # each real and imaginary part, signed zeros kept
    return np.ldexp(np.ascontiguousarray(m).view(float), -p).view(complex), p


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

    The rule is purely relative and is taken on H at unit size
    (``unit_scale``), where neither norm can overflow and ||H - H*||_F
    underflows only far below the tolerance, so it holds or fails alike
    for ``s H`` at every scale ``s > 0``.
    """
    h = unit_scale(h)[0]
    return bool(np.linalg.norm(h - h.conj().T) <= HERMITIAN_RTOL * np.linalg.norm(h))
