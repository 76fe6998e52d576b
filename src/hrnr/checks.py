"""The verification core shared by the CLI and the tests: property
suites and independent oracles cross-checking the range engine.  Each
check returns a :class:`PropertyReport`; ``passed`` is always equivalent
to ``discrepancy <= tolerance``.

The rank-k range is the intersection of the half-planes
Re(e^{i theta} z) <= lambda_k(H_theta) / 2 (Li & Sze, Proc. AMS 136,
2008), so P1-P5 compare offset rows at every grid angle: a check on T
takes T's rank-k :class:`RangeReport` and compares the offsets of the
transformed matrix on the same grid with a row read from it, in one
function (``_row_check``).  Equalities (P1-P4) report the largest
|difference|, the one inclusion (P5) the largest excess.  P3 is an
equality: H_theta(T (+) S) = H_theta(T) (+) H_theta(S), so T (+) S's
rank-k row is the k-th largest of T's and S's rows merged, that is of
their first k columns; it implies that range(T) and range(S) sit inside
range(T (+) S).  ``property_suite`` draws P1's translation at T's scale,
b = 0.5 ||T||_2 (x + iy) for two normal draws x and y, so that T is not
lost to rounding against b at any scale.

Row tolerance: ``ROW_TOL * n * eps * N``, n the largest dimension, eps
machine epsilon and N a bound on ||X||_2 over the matrices swept.
``ROW_TOL`` is the worst sum of a first-order, normwise rounding model,
in units of n eps N.  Assembling a pencil moves each entry by at most
3 eps (|x_ij| + |x_ji|), so H by 6 sqrt(n) eps N; ``eigvalsh`` is exact
for a pencil moved by n eps ||H||_2 <= 2 n eps N; by Weyl an offset (half
an eigenvalue) moves by half their sum, 4, and two rows by 8.  Forming X
adds 3: U*TU and V*TV are two products within sqrt(2) n eps N each, and
P1's |a| T + b' I (b' = e^{-i arg a} b) is entrywise like the assembly
(T* and T (+) S are exact).  P1's |a| h + Re(e^{i theta} b') adds 3, so
P1 sums to 8 + 3 + 3 = 14.  P3's k-th largest of T's and S's merged
rows is within the larger of their rows' rounding, 4, of the exact one
(sorting moves no value by more than the largest perturbation), and
T (+) S's row within 4, so P3 sums to 8 either way.  P2's mirrored
angle, within 7.4 eps of theta_{m-j} (see Angles), adds 7.4.  P4 and P5
add (2 eta + eta^2)
||T||_2 for the isometry's defect eta = ||Q*Q - I||_F, which their gates
allow up to 1e-10: Q = WP with W an isometry and ||P - I||_2 <= eta, and
the pencil of P (W*TW) P is that close to the one of W*TW.  SHIFT
compares exact rows with cos(k pi/(n+1)), and HAAGERUP a row maximum with
||T||_2 cos(pi/(n+1)), under the same tolerance.  DISC compares column
maxima, exact rows, with the replicated-shift radii at that tolerance too,
at N = ||T||_2, plus (||T||_2 - 1)+ r_max for the largest radius r_max it
checks: ``build_dilation`` accepts ||T||_2 up to 1 + 1e-10, and
T / ||T||_2 meets every radius, so T exceeds them by at most that.  Over
300 seeded contractions and hidden replicated shifts (n 2-8, m = 2048) the
worst excess was 0.074 of it (22 were T = 0, whose maxima and radii are
exactly 0).  DISC's column maxima and
HAAGERUP's radius come from one read of ``PencilSweep.column_maxima``: on
a batch sweep, a certified refinement that solves only some pencils
(``ranges._BatchSweep.maxima``), and on every sweep
the bits of the fully solved columns' maxima, so both checks read the
same bits as from a whole solve.  DISC reads the first rank of each disc
radius alone (ranks 1, r + 1, ...): a later rank of the same radius has
its column below, so its excess is no larger, and the report is the same.

Scale.  Every check reads a sweep in T's units.  ``pencil_sweep`` sweeps
X = T / 2^p at unit size (``linalg.unit_scale``) and scales its reads of
rows, maxima, bounds and regions back by 2^p, exactly away from
underflow: the model above holds for X's rows with N / 2^p for N, and so
for T's.  The tolerances here take their norms (||T||_2 and the like) in
T's units; ``linalg.is_hermitian`` and ``is_normal``, which pick the
oracle, take theirs at unit size, where no square of an entry can
overflow and one that underflows lies far below the norms' rounding.

Disc rows.  ``pencil_sweep`` solves no pencil for an exactly diagonal or
exactly Hermitian T, and one per block for a direct sum of graded blocks
plus scalars (``ranges._discs``): each row is the list
rho_i + 2 Re(e^{i theta} c_i) sorted.  A diagonal T's rows are the bits the
pencil path would give, so the model above holds unchanged.  A Hermitian
T's rows are 2 cos(theta) lambda_i(T): ``eigvalsh`` is exact for a T moved
by n eps ||T||_2, which moves an offset by |cos theta| n eps N, and
rounding cos theta and the product adds 2 eps N.  That is at most
3 n eps N, below the pencil solve's 4, so ``ROW_TOL`` stays certified
when a check compares a disc sweep with a solved one (P4's U*TU, for one,
is not bitwise Hermitian).  A block d I + G with G graded
(``ranges._is_graded``: integers g with g_i - g_j = 1 wherever g_ij != 0,
as for S_n and weighted shifts; G is the block with its diagonal zeroed,
exactly) has H_theta = D H_0(G) D* + 2 Re(e^{i theta} d) I, D unitary, so
its rows are the spectrum r of G + G*, solved once, made antisymmetric,
(r - r[::-1]) / 2, plus 2 Re(e^{i theta_j} d) at the computed angle, the
row's own (see Angles); the similarity holds at every theta, the computed
grid angles included.  With w_G = ||G + G*||_2 / 2, G's numerical radius,
in offset units: G + G* is formed exactly, as no nonzero entry of a graded
G meets a nonzero transposed one; ``eigvalsh`` moves an offset by
n eps w_G, and the symmetrisation's subtraction of halves by eps w_G;
rounding e^{i theta_j} and Re(e^{i theta_j} d) costs 2 eps |d|, as for
normal rows (the doubling is exact); and adding the two rounds once, by
eps (w_G + |d|).  So such an offset is within (n + 2) eps w_G + 3 eps |d|.
W(dI + G) = d + W(G), and W(G) is a disc about 0 (G is similar to
e^{i theta} G), so ||dI + G||_2 >= |d| + w_G, and for N at least that
norm, w_G <= N - |d|: the bound is at most max(n + 2, 3) eps N.  A direct
sum's pencils are its blocks' pencils side by side, and its norm the
largest of theirs, so for N >= ||T||_2 each block of size n_i has its
offsets within max(n_i + 2, 3) eps N, a block whose G is 0 (scalars,
rho = 0) within 2 eps N, and the sorted union, which moves no value by
more than the largest perturbation, within max(n + 2, 3) eps N <=
4 n eps N, the pencil solve's own cost, at every n >= 1.  ``ROW_TOL``
stays 17, and every sum above holds.  P1 on such a T (|a| T + b' I, the
same blocks plus b') so compares two disc sweeps, as P1 on a normal T
compares two normal-certified ones; P4 and P5 (U*TU and V*TV, solved
pencil by pencil) and the full-grid LAPACK comparisons in the tests
(``test_graded_rows_match_full_grid_lapack``,
``test_direct_sum_rows_match_full_grid_lapack``) stay the independent
checks of disc rows.  A disc sweep with m n >= ``ranges.ON_DEMAND_ROWS``
forms a column of rows only when it is read, from one order of the discs
per tie interval (``ranges._DiscSweep``); its rows are the bits of forming
and sorting every row, so this model and every check read them unchanged,
through ``PencilSweep.column``.

Normal rows.  Any other T has its rows from mu = diag(R), R = Q*TQ and Q
the QR of ``eig``'s eigenvectors, when ``ranges._normal_spectrum``
certifies them.  In offset units, with N = max|mu|, the certificate sums
||R - diag(mu)||_2 (Weyl), eta N for Q's defect eta = ||Q*Q - I||_2
(Ostrowski: with Q = WP, W unitary, the pencils of R are P H P for those
of W*TW), the model's two products at the epsilon of ``np.longdouble``, in
which R is formed (1/2048 of 2 sqrt(2) n eps N on x86-64, all of it where
longdouble is a double), and 2 eps N for evaluating 2 Re(e^{i theta} mu).
mu is used only when that sum is at most 4 n eps N, the pencil solve's own
cost above, so each row is certified within the model's 4 and every sum
above holds with ``ROW_TOL`` at 17, whether the rows are formed whole or
on demand (the same bits).  Over 200 seeded hidden normals per
cell (n 2-32; complex, real, Hermitian, a 1e-9 cluster, a double
eigenvalue) the sum had medians 0.5-2.1 and passed in 99-100% of each
cell; the worst, 4.1 (real, n = 3), fails and is solved.  Formed in double
precision, the two products alone would cost 2.8, and at most a fifth of
each cell with n <= 8 passed.  A T that fails the certificate has its
pencils solved.  The NORMAL oracle's ``eigvals`` and the engine's
``eig`` both run LAPACK's zgeev on T, so for a hidden normal T they share
the eigenvalues' rounding.  The independent checks of normal rows are the
full-grid LAPACK comparisons in the tests
(``test_normal_rows_match_full_grid_lapack``) and perfbench's grid
reference, which solve every pencil; criterion 6 still compares the
engine's grid regions with the oracle on exact eigenvalues.

Angles.  Row j of every sweep, whatever T's field, is the spectrum of a
pencil at the computed angle fl(2 pi j / m), or on an even grid follows
exactly from row j - m/2 by the half-turn (negated and reversed).  So
P1 and P3-P5, which compare two matrices' rows at one index, compare
pencils at one computed angle, and the angles' rounding cancels: P1
sums to 14, P3 to 8, and P4 and P5 to 11, at every n on every grid.  P2
compares T*'s row j with T's row m - j, whose angles mirror each other
only up to rounding.  A computed grid angle is within 1.18 eps of exact,
relatively (fl(pi) is 0.18 eps off, and the product and the quotient
round once each), and the two angles sum to at most 2 pi, so the mirror
of one is within 1.18 * 2 pi eps = 7.4 eps of the other (mpmath puts
the worst at 5.73 eps, m = 721).  An angle error d moves an offset by at
most d N, so P2 sums to at most 8 + 7.4 = 15.4.  Every sum is within 17.
Over 150 seeded unit-norm Gaussians per n, field and grid (n 1-6, m 720
and 2048; 60 at m = 721, random k), P1 with complex a, a quarter on the
grid, measured at most 3.7 (n = 1) and 3.5 (n = 2), and P2 at most 5.9
(n = 1).

Region tolerance, for P6, the Hermitian oracle and SHIFT's radii:
``REGION_SLACK`` times the bound the geometry ran at.  A region lies
inside its planes relaxed by ``CLIP_EPS`` (the region of discs of
radius 0, built on their tie planes only, leaves a dropped plane by at
most sec(pi/16) times that, plus twice the rows' rounding: see
``ranges._DiscSweep.planes``), and tagging it a point or a
segment moves it inward by less than ``POINT_DIAM`` or 4
``SEGMENT_THICKNESS`` (its area is below that thickness times its
diameter; the segment's ends lie at least half the diameter apart).

The oracles share the engine's geometry but not its pencil sweep: the
Hermitian interval is closed-form in the eigenvalues, the normal oracle
intersects exact half-planes at the eigenvalues' tie angles with
``intersect_halfplanes``, and the Monte-Carlo hull is the geometry's
``_convex_hull`` of raw Rayleigh quotients.  The Hermitian oracle and the
engine's sweep of an exactly Hermitian T do share one ``eigvalsh(T)``;
the independent check of Hermitian pencil rows is the full-grid LAPACK
comparison in the tests (``test_sweep_matches_full_grid_lapack``).  The
normal oracle shares zgeev with the engine likewise (see Normal rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (CLIP_EPS, POINT_DIAM, SEGMENT_THICKNESS, TWO_PI, ConvexRegion,
                       _convex_hull, excess, hausdorff, intersect_halfplanes)
from .linalg import as_matrix, is_hermitian, unit_scale
from .ranges import ROW_TOL, PencilSweep, RangeReport, _row_tol, pencil_sweep, range_from_sweep
from .shifts import build_dilation, rho, shift_matrix, shift_radius

UNITARY_TOL = 1e-10
REGION_SLACK = max(4.0 * SEGMENT_THICKNESS, POINT_DIAM) + 2.0 * CLIP_EPS  # per unit bound
RESIDUAL_TOL = 1e-10  # dilation residuals, per dimension
NORMAL_RTOL = 1e-10  # ||CC* - C*C||_F / ||C||_F^2, C = T - (tr T / n) I


class NotUnitaryError(ValueError):
    """Conjugating matrix is not unitary within tolerance."""


class BadIsometryError(ValueError):
    """Columns are not orthonormal, or too few of them."""


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one verifier check."""

    property_id: str
    passed: bool
    discrepancy: float
    tolerance: float
    digest: str
    note: str = ""


def _report(pid: str, discrepancy: float, tolerance: float, digest: str,
            note: str = "") -> PropertyReport:
    return PropertyReport(
        property_id=pid,
        passed=bool(discrepancy <= tolerance),
        discrepancy=float(discrepancy),
        tolerance=float(tolerance),
        digest=digest,
        note=note,
    )


def _row_check(pid: str, x, base: RangeReport, want: np.ndarray, tol: float, digest: str,
               inclusion: bool = False) -> PropertyReport:
    """X's rank-k offsets lambda_k(H_theta) / 2, swept on ``base``'s grid,
    against the row ``want``: the largest |difference|, or for an
    ``inclusion`` the largest excess over ``want``."""
    diff = pencil_sweep(x, base.angles).column(base.k - 1) / 2.0 - want
    return _report(pid, diff.max() if inclusion else np.abs(diff).max(), tol, digest)


def _defect(q: np.ndarray) -> float:
    """||Q*Q - I||_F, which bounds ||Q*Q - I||_2."""
    return float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])))


def _set_distance(a: ConvexRegion, b: ConvexRegion) -> float:
    if a.is_empty and b.is_empty:
        return 0.0
    if a.is_empty or b.is_empty:
        return np.inf
    return hausdorff(a, b)


def _inclusion_gap(inner: ConvexRegion, outer: ConvexRegion) -> float:
    """How far the inner region pokes out of the outer one (<= 0 is inside)."""
    if inner.is_empty:
        return 0.0
    if outer.is_empty:
        return np.inf
    return excess(inner, outer)


def direct_sum(t, s) -> np.ndarray:
    t = as_matrix(t)
    s = as_matrix(s)
    n, m = t.shape[0], s.shape[0]
    out = np.zeros((n + m, n + m), dtype=np.complex128)
    out[:n, :n] = t
    out[n:, n:] = s
    return out


def check_affine(t, base: RangeReport, a: complex, b: complex) -> PropertyReport:
    """P1: the range of aT + bI is a * range(T) + b.  Rotation is exact,
    range(e^{i phi} X) = e^{i phi} range(X), so with b' = e^{-i arg a} b
    this is range(|a| T + b' I) = |a| range(T) + b', row by row:
    H_theta(|a| T + b' I) = |a| H_theta(T) + 2 Re(e^{i theta} b') I.  One
    sweep of |a| T + b' I is compared with ``base``'s own rows, so a wrong
    report fails at every a.  Raises ValueError for a = 0."""
    t = as_matrix(t)
    if a == 0:
        raise ValueError("affine transform needs a != 0")
    thetas, rows = base.support_samples.T
    # for a > 0 the phase is exactly 1, so b' is b bit for bit
    shift = b * np.exp(-1j * np.angle(a))
    return _row_check("P1", abs(a) * t + shift * np.eye(t.shape[0]), base,
                      abs(a) * rows + (np.exp(1j * thetas) * shift).real,
                      _row_tol(t.shape[0], abs(a) * np.linalg.norm(t, 2) + abs(b)),
                      f"dim={t.shape[0]} k={base.k} a={a} b={b}")


def check_adjoint(t, base: RangeReport) -> PropertyReport:
    """P2: the range of T* is the conjugate of the range of T:
    H_theta(T*) = H_{-theta}(T), so T*'s row j is T's row -j mod m."""
    t = as_matrix(t)
    return _row_check("P2", t.conj().T, base, base.support_samples[-np.arange(base.angles), 1],
                      _row_tol(t.shape[0], np.linalg.norm(t, 2)), f"dim={t.shape[0]} k={base.k}")


def check_direct_sum(t, s, base_t: RangeReport, base_s: RangeReport) -> PropertyReport:
    """P3: H_theta(T (+) S) = H_theta(T) (+) H_theta(S), so T (+) S's row
    of rank k is the k-th largest of T's and S's rows merged, which is the
    k-th largest of both reports' columns 0..k-1.  Its range so holds
    range(T) and range(S), and the equality tests more: the merged ranks
    as well.
    ``base_t`` and ``base_s`` are the rank-k reports of T and S on one grid."""
    t, s = as_matrix(t), as_matrix(s)
    if (base_t.k, base_t.angles) != (base_s.k, base_s.angles):
        raise ValueError("the two reports must share k and the angle grid")
    top = np.column_stack([b.sweep.column(r) for b in (base_t, base_s) for r in range(base_t.k)])
    norm = max(np.linalg.norm(t, 2), np.linalg.norm(s, 2))
    return _row_check("P3", direct_sum(t, s), base_t, np.sort(top, axis=1)[:, -base_t.k] / 2.0,
                      _row_tol(t.shape[0] + s.shape[0], norm),
                      f"dims={t.shape[0]}+{s.shape[0]} k={base_t.k}")


def check_unitary(t, base: RangeReport, u) -> PropertyReport:
    """P4: conjugating by a unitary leaves the range, and every row of
    offsets, unchanged: H_theta(U*TU) = U* H_theta(T) U."""
    t = as_matrix(t)
    u = as_matrix(u)
    eta = _defect(u)
    if eta > UNITARY_TOL:
        raise NotUnitaryError("conjugating matrix is not unitary within 1e-10")
    return _row_check("P4", u.conj().T @ t @ u, base, base.support_samples[:, 1],
                      _row_tol(t.shape[0], np.linalg.norm(t, 2), eta),
                      f"dim={t.shape[0]} k={base.k}")


def check_compression(t, base: RangeReport, iso) -> PropertyReport:
    """P5: the range of a compression is contained in the full range:
    lambda_k(V* H_theta V) <= lambda_k(H_theta) by Cauchy interlacing."""
    t = as_matrix(t)
    iso = np.asarray(iso, dtype=np.complex128)
    if iso.ndim != 2 or iso.shape[0] < iso.shape[1]:
        raise BadIsometryError(f"expected tall column-isometry, got {iso.shape}")
    p = iso.shape[1]
    eta = _defect(iso)
    if eta > UNITARY_TOL:
        raise BadIsometryError("columns are not orthonormal within 1e-10")
    if p < base.k:
        raise BadIsometryError(f"need at least k={base.k} columns, got {p}")
    return _row_check("P5", iso.conj().T @ t @ iso, base, base.support_samples[:, 1],
                      _row_tol(t.shape[0], np.linalg.norm(t, 2), eta),
                      f"dim={t.shape[0]}->{p} k={base.k}", inclusion=True)


def check_nesting(sweep: PencilSweep, k_max: int,
                  base: RangeReport | None = None) -> PropertyReport:
    """P6: successive ranges of one sweep are nested, measured over all
    directions as each rank's support above the previous rank's.  The rows
    are sorted, so this tests the geometry; the tolerance is
    ``REGION_SLACK`` at the bound ``range_from_sweep`` passes.  ``base``,
    a report already built from ``sweep``, stands in for its rank."""
    if not 1 <= k_max <= sweep.dim:
        raise ValueError(f"k_max must be in 1..{sweep.dim}")
    reports = [base if base is not None and base.k == k else range_from_sweep(sweep, k)
               for k in range(1, k_max + 1)]
    worst = max((_inclusion_gap(lo.region, hi.region)
                 for lo, hi in zip(reports[1:], reports[:-1])), default=0.0)
    return _report("P6", max(worst, 0.0), REGION_SLACK * sweep.region_bound,
                   f"dim={sweep.dim} k_max={k_max}")


def check_hermitian_oracle(t, base: RangeReport) -> PropertyReport:
    """T's rank-k region against the eigenvalue interval of Hermitian T,
    within ``REGION_SLACK`` at the bound 2 max|lambda| (1 for T = 0) plus
    the row tolerance.  Raises ValueError unless
    :func:`~hrnr.linalg.is_hermitian` accepts T; LAPACK reads one triangle
    only and would answer for that instead."""
    t = as_matrix(t)
    if not is_hermitian(t):
        raise ValueError("matrix is not Hermitian within 1e-12 relative")
    values = np.linalg.eigvalsh(t)
    norm = float(np.abs(values).max())
    disc = _set_distance(base.region, hermitian_oracle(values, base.k))
    tol = REGION_SLACK * (2.0 * norm or 1.0) + _row_tol(t.shape[0], norm)
    return _report("HERMITIAN", disc, tol, f"dim={t.shape[0]} k={base.k}")


def check_normal_oracle(t, base: RangeReport) -> PropertyReport:
    """T's rank-k region against :func:`normal_oracle` on the eigenvalues
    of normal T, at any dimension.

    Polygonal ranges protrude linearly in the grid spacing near facet
    normals, so the tolerance is 12 R tan(pi/m), R the largest |lambda|.
    """
    t = as_matrix(t)
    eigs = normal_eigenvalues(t)
    disc = _set_distance(base.region, normal_oracle(eigs, base.k))
    m = base.angles
    tol = 12.0 * float(np.abs(eigs).max()) * np.tan(np.pi / m)
    return _report("NORMAL", disc, tol, f"dim={t.shape[0]} k={base.k} m={m}")


def normal_oracle(eigs, k: int) -> ConvexRegion:
    """Rank-k range of a normal matrix from its n >= 1 eigenvalues: the
    half-planes Re(e^{i theta} z) <= h(theta), h the k-th largest of
    Re(e^{i theta} lambda_j) (Li & Sze, Proc. AMS 136, 2008).  Between the
    tie angles, where two eigenvalues project equally, h is one sinusoid,
    and on a piece narrower than pi its end planes imply the rest.  So the
    O(n^2) tie angles, both ways, the axes and every gap's midpoint give
    the exact range, up to the cut-line relaxation."""
    eigs = np.asarray(eigs, dtype=np.complex128).ravel()
    n = eigs.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    i, j = np.triu_indices(n, 1)
    diff = eigs[i] - eigs[j]
    # the tie angles and two axes; the half-turn below adds the other two
    ties = np.append(np.pi / 2 - np.angle(diff[diff != 0]), [0.0, np.pi / 2])
    ends = np.sort(np.mod(np.concatenate([ties, ties + np.pi]), TWO_PI))
    ends = ends[np.append(True, ends[1:] != ends[:-1])]  # np.unique's, without numpy.ma
    thetas = np.concatenate([ends, ends + np.diff(ends, append=ends[0] + TWO_PI) / 2.0])
    offsets = np.sort((np.exp(1j * thetas)[:, None] * eigs).real, axis=1)[:, n - k]
    return intersect_halfplanes(thetas, offsets, bound=float(np.abs(eigs).max()) or 1.0)


def hermitian_oracle(values, k: int) -> ConvexRegion:
    """Closed-form range of a Hermitian matrix with the given eigenvalues.

    With ascending eigenvalues l_1 <= ... <= l_n the range is
    [l_k, l_{n+1-k}]: a segment, a point when the endpoints coincide, and
    empty when they cross.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    n = vals.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    lo, hi = vals[k - 1], vals[n - k]
    if lo > hi:
        return ConvexRegion.empty()
    if hi - lo <= 1e-9 * np.linalg.norm(vals):
        return ConvexRegion.point(complex((lo + hi) / 2.0, 0.0))
    return ConvexRegion.segment(complex(lo, 0.0), complex(hi, 0.0))


def haagerup_bound_check(t, sweep: PencilSweep, n: int) -> PropertyReport:
    """Numerical radius of a nilpotent T against ||T|| cos(pi/(n+1)).

    ``sweep`` is T's pencil sweep and ``n`` its nilpotency index.  The grid
    radius is an exact row maximum, so it may exceed the bound by the row
    tolerance only.  The note records the slack and flags equality, the
    expected outcome for multiples of the shift: for any convex set the grid
    radius is at least w cos(pi/m), w the true radius, so at equality the
    slack lies within bound (1 - cos(pi/m)) plus the row tolerance.
    """
    t = as_matrix(t)
    norm = np.linalg.norm(t, 2)
    radius = sweep.numerical_radius()
    bound = norm * shift_radius(n, 1)
    tol = _row_tol(t.shape[0], norm)
    slack = bound - radius
    note = f"slack={slack:.3e}"
    if abs(slack) <= bound * (1.0 - np.cos(np.pi / sweep.angle_count)) + tol:
        note += " equality"
    return _report("HAAGERUP", max(-slack, 0.0), tol,
                   f"dim={t.shape[0]} index={n} norm={norm:.6f}", note)


# ---------------------------------------------------------------------------
# the verify suites: one call per shift dimension, nilpotent matrix or
# property-checked matrix

def check_shift(n: int, m: int) -> PropertyReport:
    """Every rank k of S_n against its closed form, from one m-angle sweep.

    S_n's pencil spectrum does not depend on theta, so every offset row
    must equal cos(k pi/(n+1)), exactly 0 at the middle rank 2k = n + 1
    (as ``shift_radius`` has it: S_1 = [0] has a row tolerance of 0); the
    discrepancy is the worst row deviation, within the row tolerance.  The
    region must carry the closed form's tag, and a disc of radius r (a
    point: r = 0) must reach a largest modulus in [r, r sec(pi/m)], the
    circumscribed m-gon's, widened by ``REGION_SLACK`` times the geometry's
    bound on each side; a miss makes the discrepancy infinite."""
    t = shift_matrix(n)
    sweep = pencil_sweep(t, m)
    tol = _row_tol(n, np.linalg.norm(t, 2))
    slack = REGION_SLACK * sweep.region_bound
    worst = 0.0
    misses = []
    for k in range(1, n + 1):
        rep = range_from_sweep(sweep, k)
        closed = 0.0 if 2 * k == n + 1 else np.cos(k * np.pi / (n + 1))
        row = np.abs(rep.support_samples[:, 1] - closed).max()
        if row > tol:
            misses.append(f"k={k}: row deviation {row:.2e}")
        worst = max(worst, row)
        radius = shift_radius(n, k)
        want = "empty" if radius is None else "polygon" if radius else "point"
        region = rep.region
        if region.kind != want:
            misses.append(f"k={k}: want {want}, engine tag {region.kind}")
            worst = np.inf
        elif not region.is_empty:
            lo, hi = radius - slack, radius / np.cos(np.pi / sweep.angle_count) + slack
            if not lo <= region.max_modulus() <= hi:
                misses.append(f"k={k}: max modulus {region.max_modulus():.9f} "
                              f"outside [{lo:.9f}, {hi:.9f}]")
                worst = np.inf
    return _report("SHIFT", worst, tol, f"n={n} m={m}", "; ".join(misses))


def check_nilpotent(t, m: int) -> list[PropertyReport]:
    """Dilation residuals (DILATION), the replicated-shift disc bound on
    the rank-k support offsets at every admissible k (DISC) and the radius
    bound (HAAGERUP) of a nilpotent contraction, from one m-angle sweep.
    ``build_dilation`` clamps the defect's square to I - T*T + P with
    ||P||_2 <= (||T||_2^2 - 1)+, so V*V - I = sum_{j<n} T*^j P T^j, whose
    Frobenius bound DILATION allows on top of ``RESIDUAL_TOL`` per dimension."""
    t = as_matrix(t)
    d = t.shape[0]
    pack = build_dilation(t)
    sweep = pencil_sweep(t, m)
    digest = f"dim={d} index={pack.n} defect_rank={pack.r}"
    residual = max(pack.isometry_residual, pack.intertwine_residual)
    norm = np.linalg.norm(t, 2)
    clamped = np.sqrt(d) * pack.n * max(norm**2 - 1.0, 0.0) * max(1.0, norm) ** (2 * pack.n - 2)
    dilation = _report("DILATION", residual, RESIDUAL_TOL * d + clamped, digest,
                       f"isometry={pack.isometry_residual:.2e} "
                       f"intertwine={pack.intertwine_residual:.2e}")
    # the first rank of each radius alone, ranks 1, r + 1, ...: a later rank
    # of the same radius has its column below, so its excess is no larger,
    # and the note names the first worst rank
    radii = {k: shift_radius(pack.n, k, pack.r)
             for k in range(1, min(d, pack.n * pack.r) + 1, pack.r)}
    radii = {k: radius for k, radius in radii.items() if radius is not None}
    # one read of the column maxima, HAAGERUP's column 0 (k = 1) among them
    tops = sweep.column_maxima([k - 1 for k in radii])
    # the row tolerance, plus what a T past the contraction gate may exceed
    # its radii by: T / ||T||_2 meets them
    tol = _row_tol(d, norm) + max(norm - 1.0, 0.0) * max(radii.values())
    worst, note = -np.inf, ""
    for (k, radius), top in zip(radii.items(), tops):
        # T compresses I (x) S_n* through the dilation, so lambda_k of each
        # pencil of T is at most twice the radius by interlacing: exact at
        # every grid angle, unlike the circumscribed polygon's vertices
        excess = float(top) / 2.0 - radius
        if excess > worst:
            note = f"worst k={k} against cos({rho(k, pack.r)}pi/{pack.n + 1})"
            worst = excess
    disc = _report("DISC", worst, tol, digest, note)
    return [dilation, disc, haagerup_bound_check(t, sweep, pack.n)]


def property_suite(t, k: int, m: int, rng: np.random.Generator) -> list[PropertyReport]:
    """P1-P6 on T at rank k, plus the Hermitian or normal oracle when T
    qualifies, all from one m-angle sweep of T.  Draws a, b, then the P4
    unitary, then the P5 isometry from ``rng``."""
    t = as_matrix(t)
    d = t.shape[0]
    sweep = pencil_sweep(t, m)
    base = range_from_sweep(sweep, k)
    # P1 sweeps |a| T + e^{-i arg a} b I, and b's draw is rotation-invariant,
    # so a positive real scale covers what a complex one would; b is drawn at
    # T's scale, so that T is not lost to rounding against it
    a = complex(rng.uniform(0.5, 2.5), 0.0)
    b = 0.5 * float(np.linalg.norm(t, 2)) * complex(rng.normal(), rng.normal())
    reports = [
        check_affine(t, base, a, b),
        check_adjoint(t, base),
        check_direct_sum(t, t, base, base),
        check_unitary(t, base, random_unitary(d, rng)),
        check_compression(t, base, random_isometry(d, max(k, d - 1), rng)),
        check_nesting(sweep, min(d, 3), base),
    ]
    if is_hermitian(t):
        reports.append(check_hermitian_oracle(t, base))
    elif is_normal(t):
        reports.append(check_normal_oracle(t, base))
    return reports


def montecarlo_range(t, samples: int = 100_000, seed: int = 0) -> ConvexRegion:
    """Convex hull of sampled Rayleigh quotients <Tx, x> (inner estimate)."""
    t = as_matrix(t)
    rng = generator(seed)
    d = t.shape[0]
    x = rng.normal(size=(d, samples)) + 1j * rng.normal(size=(d, samples))
    x /= np.sqrt((np.abs(x) ** 2).sum(axis=0))
    quotients = (x.conj() * (t @ x)).sum(axis=0)
    hull = _convex_hull(quotients)
    if hull.size == 1:
        return ConvexRegion.point(hull[0])
    if hull.size == 2:
        return ConvexRegion.segment(hull[0], hull[1])
    return ConvexRegion.polygon(hull)


def is_normal(t) -> bool:
    """Whether ``||CC* - C*C||_F <= 1e-10 ||C||_F^2`` for the centred
    ``C = T - (tr T / n) I``, a rule that holds or fails alike for
    ``a T + b I`` at every ``a != 0`` and ``b``.  On uncentred T a large
    ``b`` would swamp both sides, and the commutator would be lost to
    rounding.  T is centred at unit size, where its trace cannot
    overflow, and C is brought to unit size too (``linalg.unit_scale``), so
    neither side overflows, nor underflows short of the rounding, at any
    scale of T."""
    x = unit_scale(t)[0]
    c = unit_scale(x - (np.trace(x) / x.shape[0]) * np.eye(x.shape[0]))[0]
    commutator = c @ c.conj().T - c.conj().T @ c
    return bool(np.linalg.norm(commutator) <= NORMAL_RTOL * np.linalg.norm(c) ** 2)


def normal_eigenvalues(t) -> np.ndarray:
    """Eigenvalues of a normal matrix from LAPACK's general eigensolver,
    which is exact to rounding on normal input.  Raises ValueError unless
    :func:`is_normal` accepts T."""
    t = as_matrix(t)
    if not is_normal(t):
        raise ValueError("matrix is not normal within tolerance")
    return np.linalg.eigvals(t)


# ---------------------------------------------------------------------------
# seeded sampling helpers (PCG64 so that trials reproduce exactly)

def generator(seed: int) -> np.random.Generator:
    """The package-wide seedable RNG: numpy's PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed))


def random_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: the Q of a Gaussian matrix's QR, with R's diagonal
    made positive (what Gram-Schmidt on its columns would give)."""
    q, r = np.linalg.qr(random_matrix(dim, rng))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_isometry(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    if not 1 <= cols <= dim:
        raise ValueError("column count must be in 1..dim")
    return random_unitary(dim, rng)[:, :cols]


def random_nilpotent_contraction(
    dim: int, rng: np.random.Generator, norm: float | None = None
) -> np.ndarray:
    """Strictly lower-triangular Gaussian matrix scaled to spectral norm <= 1.

    ``norm=1.0`` lands exactly on the contraction boundary, which drives
    the defect rank below full; otherwise the target norm is drawn
    uniformly from [0.3, 1).  Raises ValueError for dim < 2, where the
    strictly lower triangle is empty.
    """
    if dim < 2:
        raise ValueError(f"a nonzero nilpotent needs dim >= 2, got {dim}")
    while True:
        x = np.tril(random_matrix(dim, rng), -1)
        s = np.linalg.norm(x, 2)
        if s > 1e-8:
            break
    target = rng.uniform(0.3, 1.0) if norm is None else float(norm)
    return x * (target / s)


def nilpotent_instance(dim: int, r_hint: int | None, rng: np.random.Generator) -> np.ndarray:
    """A nilpotent-suite trial: a random contraction (of norm 1 half the
    time), or with ``r_hint`` a hidden sum of ``r_hint`` unit shift blocks."""
    if r_hint is None:
        norm = 1.0 if rng.uniform() < 0.5 else None
        return random_nilpotent_contraction(dim, rng, norm=norm)
    sizes = np.full(r_hint, dim // r_hint)
    sizes[: dim % r_hint] += 1
    blocks = np.zeros((dim, dim), dtype=np.complex128)
    at = 0
    for size in sizes:
        blocks[at:at + size, at:at + size] = shift_matrix(size)
        at += size
    u = random_unitary(dim, rng)
    return u.conj().T @ blocks @ u
