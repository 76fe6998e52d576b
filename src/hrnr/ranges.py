"""Rank-k numerical ranges via rotated Hermitian pencil eigenvalue sweeps.

For a matrix T and direction theta, the pencil
``H_theta = e^{i theta} T + e^{-i theta} T*`` is Hermitian, and half of
its k-th largest eigenvalue is the offset of a supporting half-plane of
the rank-k numerical range in that direction.  Sweeping theta over a
uniform grid and intersecting the half-planes yields a circumscribed
polygon; ``outer_error_bound`` says how far it can sit outside a disc.

Two symmetries cut the eigensolves: H_{theta + pi} = -H_theta for every
T, and H_{-theta} = conj(H_theta) for real T (such as the shift S_n and
real diagonals).  An even grid of m angles solves m/2 pencils, or
floor(m/4) + 1 for real T; an odd grid solves m, or (m + 1)/2 for real T.
The other rows are copied, negated and reversed as the symmetries say.

No pencil is solved when T is exactly diagonal or exactly Hermitian.  Then
every pencil is diagonal in T's eigenbasis, with spectrum
2 Re(e^{i theta} mu_j) for T's eigenvalues mu: the diagonal itself, or one
``eigvalsh`` of T.  The solved rows are those values sorted, and the same
symmetries fill the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexRegion, intersect_halfplanes
from .linalg import as_matrix, eig_hermitian_stack

# Default angle counts: range, radius and verify-properties; verify-shift
# and verify-nilpotent.
DEFAULT_ANGLES = 720
VERIFY_ANGLES = 2048
MIN_ANGLES = 16

ANGLES_ENV_VAR = "HRNR_ANGLES"


class BadRankError(ValueError):
    """Requested rank k outside 1..dim(T)."""


def resolve_angles(m: int | None = None, default: int = DEFAULT_ANGLES) -> int:
    """The angle count: ``m`` if given, else the HRNR_ANGLES env var, else
    ``default``.  Raises ValueError unless it is an integer >= MIN_ANGLES;
    a number counts when its value is integral (64.0 does, 64.5 does not),
    a string when ``int`` parses it."""
    if m is None:
        m = os.environ.get(ANGLES_ENV_VAR, default)
    try:
        count = int(m)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"angle count must be an integer, got {m!r}") from exc
    if not isinstance(m, str) and count != m:
        raise ValueError(f"angle count must be an integer, got {m!r}")
    if count < MIN_ANGLES:
        raise ValueError(f"angle count must be >= {MIN_ANGLES}, got {count}")
    return count


def pencil(t, theta: float) -> np.ndarray:
    """Hermitian pencil e^{i theta} T + e^{-i theta} T*.

    Hermitian exactly, entry by entry, because the (j, i) entry is
    assembled from the identical floating-point products as the (i, j)
    entry conjugated.
    """
    t = as_matrix(t)
    p = np.exp(1j * float(theta)) * t
    return p + p.conj().T


@dataclass(frozen=True, eq=False)
class PencilSweep:
    """Eigenvalues of the pencil over a uniform angle grid.

    thetas
        Grid angles 2*pi*j/m.
    eigenvalues
        (m, n) array; row j holds the descending spectrum of H_{theta_j};
        twice ``numerical_radius()`` bounds and scales every rank-k region.
    """

    thetas: np.ndarray
    eigenvalues: np.ndarray

    @property
    def angle_count(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]

    def numerical_radius(self) -> float:
        """max_j lambda_1(H_{theta_j}) / 2: the numerical radius on this grid."""
        return float(self.eigenvalues[:, 0].max() / 2.0)


def pencil_sweep(t, m: int | None) -> PencilSweep:
    """Diagonalise the ``resolve_angles(m)`` pencils of T in one batched
    eigensolve.

    H_{theta + pi} = -H_theta, so lambda_i(H_{theta + pi}) =
    -lambda_{n+1-i}(H_theta).  For even m, row j + m/2 is therefore row j
    negated and reversed, and only the first m/2 pencils are solved.  For
    real T, H_{-theta} is the conjugate of H_theta and has its spectrum, so
    row m - j is row j: even m solves rows 0..m/4 and fills row m/2 - j
    with row j negated and reversed, odd m solves rows 0..(m-1)/2.  When 4
    divides m, row m/4 (the pencil i(T - T^T)) is made exactly symmetric
    about 0, as its spectrum is, so that both rules hold bit for bit.

    The solved rows skip LAPACK's batch when T has a spectrum mu that every
    pencil shares an eigenbasis with: mu is T's diagonal when every
    off-diagonal entry is zero (the rows are then the bits the batch would
    return), or ``eigvalsh(T)`` when T equals T* exactly (rows
    2 cos(theta) mu).  Row j is 2 Re(e^{i theta_j} mu) sorted.  Any other T,
    even one within rounding of either structure, has its pencils solved.
    Raises ValueError when the pencils overflow to a non-finite row.
    """
    t = as_matrix(t)
    m = resolve_angles(m)
    thetas = 2.0 * np.pi * np.arange(m) / m
    real = not t.imag.any()
    if m % 2:
        solved = m // 2 + 1 if real else m
    else:
        solved = m // 4 + 1 if real else m // 2
    if not (t - np.diag(np.diagonal(t))).any():
        spectrum = np.diagonal(t)
    elif np.array_equal(t, t.conj().T):
        spectrum = np.linalg.eigvalsh(t)
    else:
        spectrum = None
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as one ValueError
        if spectrum is None:
            stack = np.exp(1j * thetas[:solved])[:, None, None] * t
            stack += stack.conj().swapaxes(1, 2)  # in place: one stack fewer at the peak
            vals = eig_hermitian_stack(stack)
        else:
            z = np.exp(1j * thetas[:solved])[:, None] * spectrum
            vals = np.sort((z + z.conj()).real, axis=1)[:, ::-1]
    if not np.isfinite(vals).all():
        raise ValueError("the pencils overflow: matrix entries too large")
    if real and m % 2:
        vals = np.concatenate([vals, vals[:0:-1]])
    elif real:
        if m % 4 == 0:
            vals[-1] = (vals[-1] - vals[-1, ::-1]) / 2.0
        vals = np.concatenate([vals, -vals[m // 2 - solved:0:-1, ::-1]])
    if m % 2 == 0:
        vals = np.concatenate([vals, -vals[:, ::-1]])
    return PencilSweep(thetas=thetas, eigenvalues=vals)


def outer_error_bound(region: ConvexRegion, m: int) -> float:
    """R_max (sec(pi/m) - 1), R_max the region's largest modulus; zero for
    degenerate tags.

    This is the exact Hausdorff gap between a disc centred at 0 and its
    m-angle circumscribed polygon, and an overestimate for a translated
    disc.  It is not a bound for other shapes: for the ellipse-shaped
    range of S_5 + b S_5* it is 3x (b = 0.5) to 39x (b = 0.95) below the
    true gap.
    """
    if region.kind != "polygon":
        return 0.0
    return region.max_modulus() * (1.0 / np.cos(np.pi / m) - 1.0)


@dataclass(frozen=True, eq=False)
class RangeReport:
    """Result of a rank-k range computation.

    support_samples is an (m, 2) array of (theta_j, lambda_k(H_theta_j)/2)
    pairs, i.e. the supporting half-plane offsets actually used.
    """

    k: int
    angles: int
    region: ConvexRegion
    outer_error_bound: float
    support_samples: np.ndarray

    def min_support(self) -> float:
        return float(self.support_samples[:, 1].min())


def range_from_sweep(sweep: PencilSweep, k: int) -> RangeReport:
    """Build the rank-k region from an existing pencil sweep."""
    n = sweep.dim
    if not 1 <= k <= n:
        raise BadRankError(f"k must be in 1..{n}, got {k}")
    offsets = sweep.eigenvalues[:, k - 1] / 2.0
    # the grid polygon lies within w sec(pi/m) <= 1.02 w of 0, so the square
    # never cuts it; all-zero offsets fit any bound
    region = intersect_halfplanes(sweep.thetas, offsets, 2.0 * sweep.numerical_radius() or 1.0)
    m = sweep.angle_count
    return RangeReport(
        k=k,
        angles=m,
        region=region,
        outer_error_bound=outer_error_bound(region, m),
        support_samples=np.column_stack([sweep.thetas, offsets]),
    )


def rank_k_range(t, k: int, m: int | None = None) -> RangeReport:
    """Rank-k numerical range of T on a ``resolve_angles(m)``-angle grid.

    The k pencil eigenvalue (halved) at each grid angle becomes a
    supporting half-plane; the region is their intersection inside the
    square of half-width twice the grid's numerical radius, which also sets
    the geometry's scale: the region of sT + bI (s > 0) is s times that of
    T plus b.  Raises BadRankError for k outside 1..dim(T).
    """
    t = as_matrix(t)
    if not 1 <= int(k) <= t.shape[0]:
        raise BadRankError(f"k must be in 1..{t.shape[0]}, got {k}")
    return range_from_sweep(pencil_sweep(t, m), int(k))


def numerical_radius(t, m: int | None = None) -> float:
    """Largest modulus over the numerical range, via max_j lambda_1/2, on a
    ``resolve_angles(m)``-angle grid."""
    return pencil_sweep(t, m).numerical_radius()
