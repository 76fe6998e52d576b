"""Rank-k numerical ranges via rotated Hermitian pencil eigenvalue sweeps.

For a matrix T and direction theta, the pencil
``H_theta = e^{i theta} T + e^{-i theta} T*`` is Hermitian, and half of
its k-th largest eigenvalue is the offset of a supporting half-plane of
the rank-k numerical range in that direction.  Sweeping theta over a
uniform grid and intersecting the half-planes yields a circumscribed
polygon; ``outer_error_bound`` says how far it can sit outside a disc.

One symmetry halves the eigensolves: H_{theta + pi} = -H_theta for every
T, so an even grid of m angles solves m/2 pencils and fills the other
rows by negating and reversing them; an odd grid solves all m.

Row sources.  ``pencil_sweep`` builds each sweep as one of two
subclasses of ``PencilSweep``, picked by the symmetry T has and named for
their ``kind``; each one's docstring sets out its rows, and each overrides
every read that only it can shorten:
  ``_DiscSweep``, when T's rows are a list of discs (below): no pencil
    solved for a normal T, and one per group of a direct sum of graded
    blocks plus scalars, found by one test, ``_discs``; its rows are
    formed on demand or stacked by one rule, m n against
    ``ON_DEMAND_ROWS``, which every read of the sweep follows;
  ``_BatchSweep``, for any other T: each pencil is solved when its row is
    first read, and the radius solves only the pencils that certify it
    (Mengi and Overton, IMA J. Numer. Anal. 25, 2005).
``PencilSweep`` itself is the sweep given its (m, n) rows, and holds the
plain reads the two do not shorten: column maxima of whole columns,
every grid plane, a rank's region from the planes, and no exit of its
own.  Every sweep's columns on an even grid are folded by the one
half-turn rule in ``PencilSweep.unit_column``; only discs that all sit
at 0, whose rows are the same at every angle, need none.

Discs.  Row j of a disc sweep is the n values rho_i + 2 Re(e^{i theta_j}
c_i) sorted, twice the support function of the disc of radius rho_i / 2
about c_i, for two symmetries:
  T normal: every pencil is diagonal in T's eigenbasis, with spectrum
    2 Re(e^{i theta} mu_i) for T's eigenvalues mu, so rho = 0 and c = mu
    (Li and Sze, Proc. AMS 136, 2008, give the tie planes).  mu is one
    ``eigvalsh`` of T when T is exactly Hermitian, and otherwise the
    diagonal of Q*TQ, Q an orthonormal basis from ``eig``, when a
    certificate shows that T is normal to within the rounding of one
    pencil solve (``_normal_spectrum``);
  T = dI + G with G graded: integers g have g_i - g_j = 1 wherever
    g_ij != 0, as for the shift S_n, its transpose, weighted shifts,
    their direct sums and [[0, A], [0, 0]].  Then D = diag(e^{i g theta})
    gives D G D* = e^{i theta} G, so H_theta = D H_0(G) D* +
    2 Re(e^{i theta} d) I, and rho is the spectrum r of G + G* made
    antisymmetric, (r - r[::-1]) / 2, bit for bit, with every c_i = d.
    The similarity of S_n and e^{i theta} S_n is the symmetry behind the
    rank-k range of S_n, a disc of radius cos(k pi/(n+1)) about 0.
A direct sum's pencil spectrum is the union of its blocks', so the lists
of its blocks join into one: ``_discs`` groups T's indices by their
diagonal entry and, when no entry of T joins two groups and each group's
G is graded, solves each group's G + G* once, and none for a G of 0 (each
entry of a diagonal T), whose rho is 0.  A Jordan matrix with distinct
eigenvalues so solves one pencil per eigenvalue, of its block's size.
rho = 0 is stored as -0.0, which adds exactly (x + -0.0 is x for every x,
-0.0 included), so those rows are the bits of 2 Re(e^{i theta} c) alone,
and a whole column read of discs all of radius 0 skips the add.  Where
two discs' values meet, at a tie angle, the order of the rows changes; a
disc sweep works out its ties once (``_DiscSweep.ties``, O(n^2)), and
reads from that one pass both the rounding windows of its rows on demand
and, when every rho is 0, its tie planes.

One scale rule.  ``pencil_sweep`` sweeps X = 2^-p T, T brought to unit
size by an exact power of two (``linalg.unit_scale``), so no pencil
entry, eigenvalue, row or vertex of X can overflow, and nothing of X's
scale is subnormal, whatever T's scale.  Every sweep and
``range_from_sweep`` work in these sweep units, and what leaves the
module is scaled back by 2^p once, in ``_t_units``: the eigenvalue reads
``column``, ``eigenvalues`` and ``column_maxima`` (and so
``numerical_radius`` and ``support_samples``), ``region_bound``, and a
report's vertices and ``outer_error_bound``.  A value that is not finite
in T's units raises ValueError at that read.  2^q T has the X of T, so its
results are 2^q times T's, bit for bit, short of underflow in T's units.

A sweep owns its grid's angle frame (``PencilSweep.frame``): the geometry's
sort and merge of the angles and their cosines and sines are computed at
the first rank that reaches the geometry and reused by every other; the
ranks of discs about one centre build none.

Angles on demand.  A column read at chosen indices forms e^{i theta} at
those alone, the bits of the whole array's entries (``np.exp`` is
elementwise); only ``_fourier_point``, reads of whole columns and a
stacked disc sweep's rows form every solved angle's (``phases``).  The
angles are formed the same way: every sweep is given its angle count alone,
forms 2 pi j / m at the indices j it reads alone (``grid_angles(m, idx)``,
the whole grid's bits), and forms its ``thetas`` only when they are read.
A rank (``PencilSweep.region``) forms its offsets at ``planes`` only;
``support_samples`` and ``eigenvalues`` (every column stacked) are formed
when first read.  Which reads a sweep makes is fixed by how it was built,
never by the order of its reads: a read from the stacked ``eigenvalues``
has the bits of the sweep's own columns.

For 2k > n + 1 the rank-k range is empty as soon as one row has
lambda_k < lambda_{n+1-k} by more than its rounding, so the geometry runs
only when no row shows that.  At 2k = n + 1, lambda_k(H_{theta + pi}) =
-lambda_k(H_theta), so the planes at theta and theta + pi coincide and the
range is the one z on every line Re(e^{i theta} z) = h(theta), or empty:
the point z when every offset of the row is within ``_row_tol`` of
Re(e^{i theta_j} z), and empty otherwise, with no geometry, whatever the
sweep (that of discs about one centre is read off its row:
``_DiscSweep.region``).  Three exits settle it, the first that applies:
  the owners: on a disc sweep formed on demand, one disc (mu_o, rho 0)
    may own rank k on every run between the tie windows, as the middle
    eigenvalue of a Hermitian T does; the point is then mu_o, and two
    owners give empty (``_DiscSweep.middle``);
  three rows: no z within the tolerance of the lines at the grid indices
    0, m // 6 and m // 3, about 60 degrees apart, which a bound on the
    corner of two of them decides (``_rows_apart``); the full fit's
    residual then exceeds the tolerance too, so this is its empty;
  the Fourier fit: h is a first harmonic, and its coefficient over the grid
    is z = (2/m) sum_j h_j e^{-i theta_j}, tested against every row.
An exact point's rows are each within a solve's rounding (4 n eps N), so
its residual is at most about three times that: on shifts, Hermitian,
collinear normal and 1 x 1 T it stayed below 0.06 of the tolerance, and
on 100 Gaussian and nilpotent T (n 3-9) it was at least 1e10 times the
tolerance.  Where the fit also gives a point, both it and the owner point
fit every row within the tolerance, so by the bound in ``_rows_apart``
they lie within 5.6 tolerances of each other; on 80 Hermitian and real
diagonal T (n = 5, m = 65536) they differed by 0.003 tolerances at most.

The rounding model of the rows, in units of n eps N with N >= ||T||_2, is
set out in the ``checks`` docstring; ``ROW_TOL`` and ``_row_tol`` live here
so that the engine and the checks share it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (AngleFrame, ConvexRegion, angle_frame, grid_angles, intersect_halfplanes,
                       regular_polygon)
from .linalg import as_matrix, eig_hermitian_stack, entry_max, unit_scale

# Default angle counts: range, radius and verify-properties; verify-shift
# and verify-nilpotent.
DEFAULT_ANGLES = 720
VERIFY_ANGLES = 2048
MIN_ANGLES = 16

ANGLES_ENV_VAR = "HRNR_ANGLES"

ROW_TOL = 17.0  # offset rows, in units of n * eps * N; see the checks docstring

# A disc sweep with m * n at least this forms its rows on demand; below it,
# forming and sorting every row costs no more than the owner table.
ON_DEMAND_ROWS = 2**16

# A batch sweep's maxima first solve every COARSE_STRIDE-th pencil.
COARSE_STRIDE = 16


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


def _row_tol(n: int, norm: float, eta: float = 0.0) -> float:
    """The row tolerance, plus (2 eta + eta^2) norm for an isometry's defect."""
    return (ROW_TOL * n * np.finfo(float).eps + 2.0 * eta + eta**2) * norm


def _solve_error(n: int, norm: float) -> float:
    """4 n eps N: the rounding model's bound on one offset of a solved
    n x n pencil of a T with ||T||_2 <= N (the checks docstring's 4)."""
    return 4.0 * n * np.finfo(float).eps * norm


def pencil(t, theta: float) -> np.ndarray:
    """Hermitian pencil e^{i theta} T + e^{-i theta} T*.

    Hermitian exactly, entry by entry, because the (j, i) entry is
    assembled from the identical floating-point products as the (i, j)
    entry conjugated.
    """
    p = np.exp(1j * float(theta)) * as_matrix(t)
    return p + p.conj().T


class PencilSweep:
    """Eigenvalues of the pencil over a uniform angle grid.

    ``PencilSweep(m, eigenvalues)`` is the sweep given its rows, and the
    base of the two sweeps that ``pencil_sweep`` builds, each named for
    its ``kind`` (module docstring, "Row sources"): n rows on an m-angle
    grid, of which ``solved`` (m/2 on an even grid, all m on an odd one)
    come from the sweep's ``values`` and the rest from the half-turn in
    ``unit_column``.  The reads here are the plain ones, which a sweep
    overrides where it knows better: the column ``maxima``, of which column
    0's, twice the numerical radius, is read at the sweep's ``peaks`` when
    it has them, the ``planes``, a rank's ``region`` (from the planes, or
    for discs about one centre read off their row) and a middle rank's
    exit, ``middle``.
    All of them, and the ``unit_`` reads, are in sweep units, those of
    X = T / 2^``scale`` (module docstring, "One scale rule"); ``column``,
    ``eigenvalues``, ``column_maxima``, ``numerical_radius`` and
    ``region_bound`` are in T's.

    angle_count, dim
        m and n.
    scale
        p: the sweep's rows are those of T / 2^p (0 for given rows).
    thetas
        Grid angles 2*pi*j/m, formed at the first read; the engine reads
        the angles at the indices it needs alone (``grid_angles(m, idx)``,
        the same bits).
    eigenvalues
        (m, n) array; row j holds the descending spectrum of H_{theta_j};
        twice ``numerical_radius()``, ``region_bound``, bounds and scales
        every rank-k region.  Read in T's units; the stack itself, in sweep
        units, is given, or else formed from every ``unit_column`` at the
        first read, and once given or formed every column is read from it.
    planes
        The grid indices whose planes can bound a rank, ascending: the tie
        planes of discs of radius 0 (``_DiscSweep.planes``), else None,
        every plane.
    """

    planes = None

    def __init__(self, m: int, eigenvalues: np.ndarray | None):
        self.angle_count, self._rows, self.scale = m, eigenvalues, 0
        self.solved = m if m % 2 else m // 2
        self.dim = None if eigenvalues is None else eigenvalues.shape[1]
        self._maxima = {}  # r -> column r's maximum, once read

    @cached_property
    def thetas(self) -> np.ndarray:
        return grid_angles(self.angle_count)

    @cached_property
    def phases(self) -> np.ndarray:
        """e^{i theta_j} at every solved angle, for reads of a whole column."""
        return np.exp(1j * grid_angles(self.angle_count, np.arange(self.solved)))

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._rows is None:
            self._rows = np.column_stack([self.unit_column(r) for r in range(self.dim)])
        return _t_units(self._rows, self.scale)

    def column(self, r: int, idx: np.ndarray | None = None) -> np.ndarray:
        """``unit_column(r, idx)`` in T's units."""
        return _t_units(self.unit_column(r, idx), self.scale)

    def unit_column(self, r: int, idx: np.ndarray | None = None) -> np.ndarray:
        """Column r of the rows (lambda_{r+1} at every grid angle), or its
        entries at the grid indices ``idx``, in sweep units: read from the
        stacked rows once they are given or formed, else from the sweep's
        ``values(r, j, phases)`` at the solved indices j, whose e^{i theta}
        are ``phases`` (j None: every solved index).  On an even grid row
        j + m/2 is row j negated and reversed, so column r there is column
        n - 1 - r of the solved half, negated."""
        if self._rows is not None:
            return self._rows[:, r] if idx is None else self._rows[:, r][idx]
        m, n, solved = self.angle_count, self.dim, self.solved
        if idx is None:
            if solved == m:
                return self.values(r, None, self.phases)
            return np.concatenate([self.values(r, None, self.phases),
                                   -self.values(n - 1 - r, None, self.phases)])
        idx = np.asarray(idx)
        upper, j = idx >= solved, idx % solved
        phases = np.exp(1j * grid_angles(m, j))  # elementwise: the bits of ``phases`` at j
        # column r at every j first, so that a batch sweep solves each missing
        # pencil in one pass of its blocks
        out = self.values(r, j, phases)
        out[upper] = -self.values(n - 1 - r, j[upper], phases[upper])
        return out

    def numerical_radius(self) -> float:
        """max_j lambda_1(H_{theta_j}) / 2: the numerical radius on this grid."""
        return float(self.column_maxima([0])[0] / 2.0)

    def column_maxima(self, rs) -> list:
        """``column(r).max()`` for each r in ``rs``, the same bits."""
        return list(_t_units(np.array(self.unit_maxima(rs), dtype=float), self.scale))

    def unit_maxima(self, rs) -> list:
        """``unit_column(r).max()`` for each r in ``rs``, the same bits, kept
        for later reads; a batch sweep reads all of ``rs`` in one certified
        refinement (``_BatchSweep.maxima``)."""
        new = [r for r in dict.fromkeys(rs) if r not in self._maxima]
        if new:
            self._maxima.update(zip(new, self.maxima(new)))
        return [self._maxima[r] for r in rs]

    @cached_property
    def unit_bound(self) -> float:
        """The bound a rank's ``region`` passes the geometry, in sweep units:
        column 0's maximum, twice the numerical radius, or 1 when every row
        is zero."""
        return float(self.unit_maxima([0])[0]) or 1.0

    @property
    def region_bound(self) -> float:
        """``unit_bound`` in T's units."""
        return float(_t_units(self.unit_bound, self.scale))

    @cached_property
    def frame(self) -> AngleFrame:
        """The :class:`~hrnr.geometry.AngleFrame` of the angles at ``planes``,
        built at the first rank that reaches the geometry and shared by every
        later one."""
        planes = self.planes
        return angle_frame(self.thetas if planes is None else grid_angles(self.angle_count, planes))

    def peaks(self) -> np.ndarray | None:
        """Grid indices that hold column 0's maximum, or None: read it whole."""
        return None

    def maxima(self, rs: list[int]) -> list:
        """``unit_column(r).max()`` for each r in ``rs``; column 0's is read
        at the sweep's ``peaks`` when it has them, unless the maximum there
        is not positive (every mu zero), which reads it whole."""
        idx = self.peaks() if 0 in rs else None
        top = 0.0 if idx is None else self.unit_column(0, idx).max()
        return [top if r == 0 and top > 0 else self.unit_column(r).max() for r in rs]

    def region(self, k: int) -> tuple[ConvexRegion, float]:
        """Rank k's region and its ``outer_error_bound``, in sweep units.

        For 2k > n + 1, the planes at theta and theta + pi bound the strip
        lambda_{n+1-k} / 2 <= Re(e^{i theta} z) <= lambda_k / 2, both ends
        from one row and so from one pencil.  Each end is within one
        offset's rounding of exact (``_solve_error`` at N = 2 w / cos(pi/m),
        w the grid radius, which bounds ||T||_2), so a row whose strip is
        narrower than minus twice that proves the range empty.  At
        2k = n + 1 the strip has width zero, and the range is a point or
        empty, read off the row (``_point_or_empty``).  Otherwise, and for
        2k <= n, the geometry intersects the planes at the sweep's
        ``planes`` in its angle frame, which every rank of one sweep
        shares: every plane, or for discs of radius 0 the tie planes, whose
        offsets alone are formed, with a point recomputed over every plane
        (``_DiscSweep.planes``).
        """
        m, n = self.angle_count, self.dim
        # rows are read before the radius, so that a batch sweep solves them in
        # one pass of its blocks and its radius reads them (``_BatchSweep``)
        if 2 * k > n + 1:
            strip = ((self.unit_column(k - 1) - self.unit_column(n - k)) / 2.0).min()
        if 2 * k >= n + 1:
            norm = self.unit_bound / np.cos(np.pi / m)
        if 2 * k == n + 1:
            region = _point_or_empty(self, k, norm)
        elif 2 * k > n + 1 and strip < -2.0 * _solve_error(n, norm):
            region = ConvexRegion.empty()
        else:
            # the grid polygon lies within w sec(pi/m) <= 1.02 w of 0, so the
            # square never cuts it; all-zero offsets fit any bound
            planes = self.planes
            offsets = self.unit_column(k - 1, planes) / 2.0
            thetas = self.thetas if planes is None else grid_angles(m, planes)
            region = intersect_halfplanes(thetas, offsets, self.unit_bound, frame=self.frame)
            if region.kind == "point" and planes is not None:
                # a point is the mean of the loop's vertices, which the dropped
                # planes would have moved
                region = intersect_halfplanes(self.thetas, self.unit_column(k - 1) / 2.0,
                                              self.unit_bound)
        return region, outer_error_bound(region, m)

    def middle(self, k: int, tol: float, norm: float) -> ConvexRegion | None:
        """The middle rank (2k = n + 1) by an exit of the sweep's own, or
        None: the rows decide it."""
        return None


class _DiscSweep(PencilSweep):
    """The sweep of a list of discs (module docstring, "Discs"): row j is
    rho_i + 2 Re(e^{i theta_j} c_i) sorted, from the arrays ``rho`` and
    ``c``, rho = -0.0 for a disc of radius 0.  With m n >= ``ON_DEMAND_ROWS``
    (``on_demand``), or when every disc has the one ``centre`` c_0 and some
    disc a radius (a graded T plus a scalar: ``region``), its columns are
    formed as they are read; else the sweep forms its rows stacked from its
    ``phases`` when it is built.  Every read that depends on the rule reads
    ``on_demand``: ``peaks``, and ``middle``, which reads the discs' table.

    Rows on demand.  Between two tie angles, where two discs' values
    rho_a + 2 Re(e^{i theta} c_a) meet, each column of the sorted rows is
    one disc's, so such a sweep keeps rho and c and forms a column only
    when it is read, whole or at chosen grid indices.  Its table
    (``runs``), built at the first read, holds the tie windows and one
    descending order of the discs for each run of solved indices between
    them, and column r at index j is rho_o + 2 Re(e^{i theta_j} c_o) for
    the run's r-th owner o: the same product, doubling and sum as the
    sorted row's, so the same bits, wherever the computed values keep
    their exact order.  Each is within e_a = 6 eps |c_a| + eps |rho_a| of
    exact, c_j the computed e^{i theta_j}: 4 eps |c_a| for the two products
    and the difference, and eps |rho_a + 2 Re(c_j c_a)| for the sum.  So a
    pair keeps its order wherever |rho_a - rho_b + 2 Re(c_j (c_a - c_b))|
    exceeds e_a + e_b.  A pair's window (``_tie_windows``) is where half of
    that difference is at most tol = 8 eps (|c_a| + |c_b| + |rho_a| +
    |rho_b|), over twice (e_a + e_b) / 2 (four times at rho = 0), widened
    by a grid step either way for the rounding of the angles and of the
    tie's position: floor(u - h) - 1 .. floor(u + h) + 2 for the pair's
    tie position u and half-width h, from the sweep's one pass over its
    ties (``ties``), which its tie planes read too; a pair that comes
    within tol of tangency, or a cluster closer than tol, makes the window
    the whole grid.  Discs with
    bit-identical c never swap: their values are fl(rho + x) for one x,
    monotone in rho, so within a group the owners keep the order of rho,
    which ``_discs`` stores descending and a stable sort keeps; discs
    about one centre so have one run and no window, and read their columns
    with no table.  Inside the windows
    the rows are formed and sorted whole, as they are below
    ``ON_DEMAND_ROWS``: there the table's fixed cost of some 60-90 us
    outweighs the sort it saves (on 2 CPUs, n = 16 at m = 2048 takes
    0.09 ms whole and 0.17 ms on demand; n = 32 takes 0.35 and 0.31 ms).
    Rows are the same bits on either side of the rule.  The radius of a
    sweep formed on demand reads column 0 beside each disc's peak alone
    (``_peak_indices``), the same bits as the whole column's maximum.  A
    stacked sweep reads its column whole, which costs less than finding
    the peaks.  When the one centre is 0, column r is rho_r at every index,
    with no half-turn, whose negation would turn a +0.0 entry into -0.0.

    The runs alternate, a gap first (it may be empty), then a window: the
    tie windows, whose rows are formed and sorted whole, and the gaps
    between them, over each of which one order of the discs holds, found
    by one sort at the gap's first index.  theta and e^{i theta} are formed
    only at the indices read: both are elementwise, so those are the bits
    of the whole arrays' entries.
    """

    kind = "disc"

    def __init__(self, m: int, rho: np.ndarray, c: np.ndarray):
        super().__init__(m, None)
        self.dim, self.rho, self.c = c.size, rho, c
        self.centre = c[0] if (c == c[0]).all() and rho.any() else None
        self.on_demand = self.centre is not None or m * c.size >= ON_DEMAND_ROWS
        self.columns = {}  # r -> column r at every solved index
        if not self.on_demand:
            rows = _sorted_rows(self.phases, rho, c)
            self._rows = rows if m % 2 else np.concatenate([rows, -rows[:, ::-1]])

    def unit_column(self, r: int, idx: np.ndarray | None = None) -> np.ndarray:
        if self.centre != 0:  # None != 0: every sweep but one of discs about 0
            return super().unit_column(r, idx)
        return np.full(self.angle_count if idx is None else np.shape(idx), self.rho[r])

    @cached_property
    def ties(self) -> tuple[np.ndarray, np.ndarray]:
        """Each ordered pair's tie position u and half-width h, in grid
        steps (``_ties``): the one evaluation ``runs`` and ``planes`` read."""
        return _ties(self.rho, self.c, self.angle_count)

    @cached_property
    def runs(self) -> tuple[np.ndarray, ...]:
        """The table: the runs' edges (the windows' bounds between 0 and
        ``solved``), every index inside a window (ascending) and its sorted
        rows, and each run's descending order of the discs (a window's is
        never read)."""
        m, rho, c, solved = self.angle_count, self.rho, self.c, self.solved
        u, h = self.ties
        starts, stops = _tie_windows(np.floor(u - h) - 1, np.floor(u + h) + 3, m, solved)
        edges = np.concatenate([[0], np.column_stack([starts, stops]).ravel(), [solved]])
        width = stops - starts
        inside = np.repeat(starts - np.cumsum(width) + width, width) + np.arange(width.sum())
        # each run's order at its first index (the last run may be empty)
        z = np.exp(1j * grid_angles(m, np.minimum(edges[:-1], solved - 1)))[:, None] * c
        return (edges, inside, _sorted_rows(np.exp(1j * grid_angles(m, inside)), rho, c),
                np.argsort(-((z + z.conj()).real + rho), axis=1, kind="stable"))

    def values(self, r: int, j: np.ndarray | None, phases: np.ndarray) -> np.ndarray:
        """Column r at the solved indices j, whose e^{i theta} are ``phases``,
        or at all of them (j None, ``phases`` every solved one), kept for
        later reads."""
        if self.centre is not None:  # one run, in the order of rho: no table
            return self.rho[r] + 2.0 * (phases * self.centre).real
        edges, inside, rows, order = self.runs
        if j is None:
            if r not in self.columns:
                # complex, as the product casts them anyway, so it fits in place
                owners = np.repeat(self.c[order[:, r]].astype(complex), np.diff(edges))
                np.multiply(phases, owners, out=owners)
                self.columns[r] = out = owners.real * 2.0
                if self.rho.any():  # else every rho is -0.0, which adds nothing
                    out += np.repeat(self.rho[order[:, r]], np.diff(edges))
                out[inside] = rows[:, r]
            return self.columns[r]
        run = np.searchsorted(edges[1:-1], j, side="right")
        out = self.rho[order[run, r]] + 2.0 * (phases * self.c[order[run, r]]).real
        window = run % 2 == 1
        out[window] = rows[np.searchsorted(inside, j[window]), r]
        return out

    def peaks(self) -> np.ndarray | None:
        return _peak_indices(self.rho, self.c, self.angle_count) if self.on_demand else None

    @cached_property
    def planes(self) -> np.ndarray | None:
        """The tie planes when every rho is 0, else None: every plane.

        Rank k's offset at theta is then the k-th largest of
        Re(e^{i theta} c_j), and the order of those values changes only at
        the tie angles pi/2 - arg(c_i - c_j) (mod pi).  Between two ties the
        k-th value comes from one c_j, so every rank-k plane of that run of
        grid angles passes through c_j, the run's apex (Li and Sze: for
        normal T, Lambda_k is the intersection of these half-planes).  The
        sweep's frame is built on the grid indices floor(u) - 1 .. floor(u)
        + 2 beside each finite tie position u of ``ties`` and every
        (m // 16)-th index, ascending and each once (4 n (n - 1) + 16 at
        most at m = 65536, against 65,536), worked out at the first rank
        that reaches the geometry (P1's row-only sweeps never do).  These
        are read from the pass the windows read: at rho = 0 every pair of
        distinct c is kept and u is the tie angle itself, whatever the
        slack, so the planes either side of the tie are kept even where the
        rounding of u crosses a grid index, and a pair whose half-width is
        NaN (a cluster) still gives its planes.  Equal c project equally at
        every angle, so their order never changes, and give none.  A dropped
        plane lies between two kept planes of its run, at most pi/8 apart,
        all three through the apex, so the intersection of the kept planes
        exceeds it by at most (1 + sec(pi/16)) times the rows' rounding,
        plus O(eps N) for the angles: far below ``CLIP_EPS`` * bound, and a
        computed region leaves a dropped plane by at most sec(pi/16) times
        what it leaves the kept planes by, plus that.  A region tagged point
        is the mean of its loop's vertices, which the dropped planes would
        have moved, so ``PencilSweep.region`` recomputes a point at 2k <= n
        over all m planes.  ``support_samples`` and the strip test see all m
        rows.  A run owned by a disc with rho > 0 is an arc, whose every
        plane is a facet, so discs of positive radius keep every plane.  A
        rank's tie planes, at most ``geometry.ONE_ROUND_PLANES`` of them
        (every n <= 10 at any m), take one round of the geometry's pruning
        and go to the deque scan (the ``geometry`` docstring).
        """
        if self.rho.any():
            return None
        m, u = self.angle_count, self.ties[0]
        near = np.floor(u[np.isfinite(u), None]).astype(np.intp) - 1 + np.arange(4)
        # with an index output, np.unique does not import numpy.ma (numpy 2.4)
        return np.unique(np.r_[near.ravel() % m, 0:m:m // 16], return_index=True)[0]

    def middle(self, k: int, tol: float, norm: float) -> ConvexRegion | None:
        """The middle rank read from the owners of column k - 1 on the gaps
        between the tie windows, or None when they do not settle it.  Only
        sweeps formed on demand (``on_demand``) are tried, whether or not
        their rows have been read whole since: below ``ON_DEMAND_ROWS`` the
        table costs more than the fit.

        One owner (c_o, rho_o = 0) on every gap: there the column is
        2 Re(e^{i theta_j} c_o), and on an even grid its upper half is the
        solved half's column n - k = k - 1 negated, so halved it is
        Re(e^{i theta_j} c_o) bit for bit, with residual 0; only the window
        rows are tested, and the point is c_o when they fit within ``tol``.
        For a Hermitian T, whose rows are 2 cos(theta) mu, the middle
        eigenvalue owns the middle rank on both sides of the one tie angle
        pi/2.

        Otherwise ``_rows_apart`` tests three rows: two of the longest gap,
        up to a quarter turn apart, and the one in the middle of the longest
        gap whose owner has another c (of the first gap when none has).
        With two owners at rho = 0 the first two lines meet at one owner and
        the third passes through the other, so the test gives empty, with
        no fit, unless the third line passes near the corner; an owner with
        rho != 0 is a circle's support function, no line's, and the test
        reads it the same way.
        """
        if not self.on_demand:
            return None
        m = self.angle_count
        edges, inside, rows, order = self.runs
        keep = np.diff(edges)[::2] > 0
        starts, stops = edges[:-1:2][keep], edges[1::2][keep]
        owner = order[::2, k - 1][keep]
        if not owner.size:
            return None
        c = self.c[owner]
        if (c == c[0]).all() and not self.rho[owner].any():
            fit = (np.exp(1j * grid_angles(m, inside)) * c[0]).real
            if np.abs(rows[:, k - 1] / 2.0 - fit).max(initial=0.0) <= tol:
                return ConvexRegion.point(c[0])
            return None
        a = np.argmax(stops - starts)
        b = np.argmax(np.where(c != c[a], stops - starts, 0))
        idx = np.array([starts[a], min(starts[a] + m // 4, stops[a] - 1), (starts[b] + stops[b]) // 2])
        return ConvexRegion.empty() if _rows_apart(self, k, tol, norm, idx) else None

    def region(self, k: int) -> tuple[ConvexRegion, float]:
        """Rank k, and its error bound: for discs about one ``centre`` d,
        d plus the rank k of discs about 0, computed at their own bound,
        and that region's error bound; any other's from its rows and
        planes (``PencilSweep.region``).

        One centre.  Every rank-k plane of discs about 0 has the one offset
        h_k = rho_k / 2, so for 2k <= n its region is the intersection of
        the m grid planes Re(e^{i theta_j} z) <= h_k, the regular m-gon about
        0 circumscribed about the disc of radius h_k (for S_n,
        cos(k pi/(n+1)), up to the bound's scale).
        ``geometry.regular_polygon`` builds it in closed form, with no angle
        frame and no pruning, unless it is dense or small enough for the
        geometry's classification to change it, when the m planes go to
        ``intersect_halfplanes``; h_k = 0, to rounding, gives the point 0.  The vertices
        are those of the scan's corners up to rounding: within
        1.2e-13 * bound of the intersection of the m planes at m <= 8192,
        and 9e-13 at 65536, where the scan's corner of planes 2 pi/m apart
        loses that much.  At 2k = n + 1 the row's middle entry is h - h,
        exactly 0, so the range is the point d
        (for d = 0, 0j: the bits the Fourier fit over the zero rows gave).
        For 2k > n + 1 the strip of every row is (rho_k - rho_{n+1-k}) / 2 =
        rho_k, rho being antisymmetric bit for bit, and it proves the range
        empty below minus twice an offset's rounding at the discs' grid
        radius, as ``PencilSweep.region`` tests any row.  A translated rank
        is the m-gon plus d, the point d, or empty: its thresholds scale
        with rho, not with |d|, so its tag is G's at every |d| (ROADMAP item
        14's collapse spares it), and its error bound is the m-gon's before
        d is added, the gap to G's disc, which adding d does not widen;
        adding d rounds each vertex by eps |d|.
        """
        if self.centre is None:
            return super().region(k)
        rho, m, n, d = self.rho, self.angle_count, self.dim, self.centre
        if 2 * k == n + 1:
            # + 0.0 makes a zero d +0j, as -S_n's -0.0 diagonal would not be
            return ConvexRegion.point(d + 0.0), 0.0
        # rho[0] is twice the grid radius of the discs about 0, at every angle
        if 2 * k > n + 1 and rho[k - 1] < -2.0 * _solve_error(n, rho[0] / np.cos(np.pi / m)):
            return ConvexRegion.empty(), 0.0
        region = regular_polygon(m, rho[k - 1] / 2.0, rho[0] or 1.0)
        error = outer_error_bound(region, m)
        if d:
            region = ConvexRegion(region.kind, region.vertices + d)
        return region, error


class _BatchSweep(PencilSweep):
    """The sweep of any T whose rows are no list of discs, each pencil solved at
    the first read of its index: ``solved_rows`` holds the solved half's
    rows, ``done`` marks those solved.

    Batch rows on demand, 256 KB at a time.  A read at chosen indices
    solves the pencils missing there, and a whole column or ``eigenvalues``
    every missing one, in blocks of max(1, 2^14 // n^2) pencils: each block
    is formed from its phases, made Hermitian in place and sent to
    ``eig_hermitian_stack``, so no (m/2, n, n) stack is ever formed.
    Assembly and LAPACK work pencil by pencil, so each row is the bits of
    one whole-batch solve.  A rank (``PencilSweep.region``) reads its
    offsets before the radius, so a rank solves every pencil and its radius reads
    them.  The radius and ``column_maxima`` (DISC's columns in ``checks``)
    solve only the pencils that certify a maximum (``maxima``).
    """

    kind = "batch"

    def __init__(self, m: int, t: np.ndarray):
        super().__init__(m, None)
        self.dim, self.t = t.shape[0], t
        self.solved_rows = np.empty((self.solved, self.dim))
        self.done = np.zeros(self.solved, dtype=bool)

    def values(self, r: int, j: np.ndarray | None, phases: np.ndarray) -> np.ndarray:
        """Column r at the solved indices j, whose e^{i theta} are ``phases``,
        or at all of them (j None, ``phases`` every solved one); the pencils
        not yet solved among them are formed and solved 256 KB of pencils
        at a time, looked up at the call."""
        keep = ~(self.done if j is None else self.done[j])
        if keep.any():
            at, first = ((np.flatnonzero(keep), slice(None)) if j is None
                         else np.unique(j[keep], return_index=True))
            phases, step = phases[keep][first], max(1, 2**14 // self.t.size)
            for i in range(0, at.size, step):
                # one block at a time, made Hermitian in place: no stack of
                # every pencil, and a temporary that stays in cache
                block = phases[i:i + step, None, None] * self.t
                block += block.conj().swapaxes(1, 2)
                self.solved_rows[at[i:i + step]] = eig_hermitian_stack(block)
            self.done[at] = True
        return self.solved_rows[:, r] if j is None else self.solved_rows[j, r]

    def maxima(self, rs: list[int]) -> list:
        """``column_maxima`` from the pencils that a certified refinement
        solves, as Mengi and Overton certify the numerical radius.

        Column r is g(theta) = lambda_{r+1}(H_theta) at the full circle's
        grid angles, those past pi by the half-turn.  H_theta - H_theta' is
        |e^{i theta} - e^{i theta'}| times a pencil, whose norm is at most
        2w, w the numerical radius, so by Weyl
        |g(theta) - g(theta')| <= 4w sin(|theta - theta'| / 2), and between
        angles a and b, D radians apart, the concavity of sin gives
            g <= (g_a + g_b) / 2 + 4w sin(D/4).
        Every ``COARSE_STRIDE``-th pencil is solved first.  Every angle is
        then within 16 pi/m of a solved one, so the support function's
        bound gives 2w <= (max lambda_1 + e) / cos(16 pi/m).  A computed
        value is within e = (8n + 16) eps N + the smallest normal of g at the
        exact angle, where
          8 n eps N is the solve's rounding (twice an offset's 4 n eps N,
            the ``checks`` docstring's model), with
            N = sqrt(2) n max |Re t_ij|, |Im t_ij| >= ||T||_F;
          16 eps N is 2N times the computed angle's error of at most 8 eps
            (an upper-half angle's is its solved row's);
          the smallest normal covers underflow.
        ``seen`` marks the full-circle indices read (J >= m/2 by the
        half-turn).  An interval between two of them is dropped once the
        bound plus 2e, for its ends' rounding and an unsolved value's, plus
        8 eps N for evaluating the bound, is at most the best value found
        for every column read.  The survivors are bisected level by level,
        one read per level (four at most), and once intervals that no
        bisection can drop (their ends' mean plus the rounding reaches the
        best) span most of the grid, as when nothing prunes after the coarse
        pass, the rest is solved in one read.  No unsolved value can then
        pass the best, so it is the whole column's maximum, the same bits; a
        maximum of zero, whose sign the read order could change, reads its
        column whole.  Over 20 seeds a radius read solved a median of 78 of
        360 pencils of a Gaussian n = 8 at m = 720, and 251 of 1024 of a
        nilpotent n = 16 at m = 2048.  A hidden U* S_16 U, whose lambda_1 is
        constant, prunes nothing and solves all 1024 in two reads.
        """
        m, n, solved = self.angle_count, self.dim, self.solved
        if m < 4 * COARSE_STRIDE or self.done.all():
            return [self.unit_column(r).max() for r in rs]
        cols = rs if 0 in rs else [0, *rs]  # column 0 bounds w
        vals, seen = np.empty((len(cols), m)), np.zeros(m, dtype=bool)

        def read(idx):  # the first column's read solves the pencils at idx
            vals[:, idx] = [self.unit_column(r, idx) for r in cols]
            seen[idx] = True

        coarse = np.arange(0, solved, COARSE_STRIDE)
        read(coarse if solved == m else np.concatenate([coarse, coarse + m // 2]))
        eps, norm = np.finfo(float).eps, np.sqrt(2.0) * n * entry_max(self.t)
        err = (8 * n + 16) * eps * norm + np.finfo(float).tiny
        # 4w: every angle lies within 8 grid steps of a coarse one
        reach = 2.0 * (vals[cols.index(0), seen].max() + err) / np.cos(COARSE_STRIDE * np.pi / m)
        while True:
            a = np.flatnonzero(seen)
            b, va = np.append(a[1:], m), vals[:, a]
            best = va.max(axis=1)
            # the ends' mean plus the rounding, over the best value read
            over = (va + vals[:, b % m]) / 2.0 + (2.0 * err + 8.0 * eps * norm) - best[:, None]
            keep = (b - a > 1) & (over + reach * np.sin((np.pi / (2 * m)) * (b - a)) > 0).any(axis=0)
            if not keep.any():
                break
            if 2 * (b - a - 1)[keep & (over > 0).any(axis=0)].sum() > m:
                # intervals that no bisection can drop span most of the grid
                return [self.unit_column(r).max() for r in rs]
            read((a + b)[keep] // 2)
        # a maximum of zero reads its column whole, for the sign of the zero
        best = dict(zip(cols, best))
        return [best[r] if best[r] else self.unit_column(r).max() for r in rs]


def pencil_sweep(t, m: int | None) -> PencilSweep:
    """The eigenvalues of the ``resolve_angles(m)`` pencils of T, a batch
    of pencils solved 256 KB at a time, swept at unit size: the sweep is
    that of X = T / 2^p, p its ``scale`` (``linalg.unit_scale``), and every
    test below is made on X.

    H_{theta + pi} = -H_theta, so lambda_i(H_{theta + pi}) =
    -lambda_{n+1-i}(H_theta).  For even m, row j + m/2 is therefore row j
    negated and reversed, and only the first m/2 pencils are solved; odd m
    solves all m.  The rule is the same whatever T's field.

    The sweep (module docstring, "Row sources") is a ``_DiscSweep`` of
    ``_discs(X)`` when X's rows are a list of discs, the one structure
    test, which finds, in turn:
      a direct sum of graded blocks plus scalars: a diagonal T's entries,
        with no solve (the rows are then the bits the batch would return),
        and rho from one ``eig_hermitian_stack`` of each group's G + G*
        made antisymmetric, (r - r[::-1]) / 2, about the group's entry; a
        graded T is one group about 0;
      the spectrum ``eigvalsh(T)`` when T equals T* exactly (rows
        2 cos(theta) mu), at rho = 0;
      ``_normal_spectrum(T)``'s mu, when it certifies T normal within a
        pencil solve's rounding, at rho = 0.
    Any other T is a ``_BatchSweep``, whose pencils are solved when their
    rows are read.
    Every sweep is given the angle count alone, and forms no grid-sized
    angle array until ``thetas`` is read.  A read whose value is not finite
    in T's units raises ValueError (``_t_units``).
    """
    (x, scale), m = unit_scale(t), resolve_angles(m)
    discs = _discs(x)
    sweep = _BatchSweep(m, x) if discs is None else _DiscSweep(m, *discs)
    sweep.scale = scale
    return sweep


def _t_units(x, scale: int, out: np.ndarray | None = None):
    """``x``, in sweep units, in T's: x 2^scale, exact unless it underflows,
    written to ``out`` if given.  Raises ValueError when a value is not
    finite there."""
    with np.errstate(over="ignore"):  # reported as the one ValueError
        x = np.ldexp(x, scale, out=out)
    if not np.isfinite(x).all():
        raise ValueError("the pencils overflow: matrix entries too large")
    return x


def _discs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(rho, c), one disc per index, when T's rows are a list of discs
    (module docstring, "Discs"), else None: the one structure test.

    T's indices are grouped by their diagonal entry, c_i = t_ii.  When G, T
    with its diagonal set to +0.0, joins no two groups and is graded
    (``_is_graded``, and so on each group), T is a direct sum of graded
    blocks plus scalars: each group whose G is not 0 solves its G + G*
    once, and its rho, (r - r[::-1]) / 2, descending, goes to its indices
    in order; every other rho is -0.0.  One group (a graded T plus a
    scalar) so solves the one pencil of G as a whole, and a diagonal T
    none.  Otherwise rho = -0.0 and c is the spectrum: ``eigvalsh(T)`` when
    T equals T* exactly, or ``_normal_spectrum(T)``'s when it certifies T
    normal; else None.  No Hermitian T other than a diagonal one passes
    the first test (t_ij and t_ji are both nonzero), and no graded G other
    than 0 is normal (it is nilpotent).
    """
    c = np.diagonal(t)
    g = t - np.diag(c)
    nz = g != 0
    if (nz & (c[:, None] != c)).any() or (nz.any() and not _is_graded(g)):
        mu = np.linalg.eigvalsh(t) if np.array_equal(t, t.conj().T) else _normal_spectrum(t)
        return None if mu is None else (np.full(c.size, -0.0), mu)
    rho = np.full(c.size, -0.0)
    # the diagonal values of the groups with an entry (a set compares them by value)
    for value in set(c[nz.any(axis=0) | nz.any(axis=1)].tolist()):
        idx = np.flatnonzero(c == value)
        block = g[idx][:, idx]
        r = eig_hermitian_stack((block + block.conj().T)[None])[0]
        rho[idx] = (r - r[::-1]) / 2.0
    return rho, c


def _sorted_rows(phases: np.ndarray, rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The rows rho + 2 Re(e^{i theta} c) at the given e^{i theta}, descending."""
    z = phases[:, None] * c
    return np.sort((z + z.conj()).real + rho, axis=1)[:, ::-1]


def _ties(rho: np.ndarray, c: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The tie position u and half-width h, in grid steps of the m-angle
    grid, of each ordered pair of discs with c not bit for bit equal: the
    two values lie within tol = 8 (eps (|c_a| + |c_b| + |rho_a| + |rho_b|) +
    smallest subnormal) of each other at most h steps from u.  h is NaN
    where no such range is bounded, and u too where c_a - c_b is 0.

    The ordered pair (a, b) ties where Re(e^{i theta}(c_a - c_b)) =
    (rho_b - rho_a) / 2 = s, at u = (acos(s / |c_a - c_b|) - arg(c_a - c_b))
    m / (2 pi) grid steps, and (b, a) at the other root (for rho_a = rho_b,
    pi/2 - arg(c_a - c_b) and half a turn on).  The values are within tol of
    each other where cos lies within t = tol / |c_a - c_b| of
    sigma = s / |c_a - c_b|, within t / sqrt(1 - (|sigma| + t)^2) radians of
    the tie, which h = t (m / 4) / sqrt(1 - (|sigma| + t)^2) bounds.  A pair
    that comes within tol of tangency (|sigma| + t >= 1), as a cluster
    does, gets NaN; one whose values stay more than tol apart
    (|sigma| - t > 1), as discs of equal c and unequal rho, gets none.  At
    rho = 0, s = 0 keeps every pair, as tol = 0 would, and u is the tie
    angle itself.
    """
    bits = np.ascontiguousarray(c).view(np.uint64).reshape(c.size, -1)
    d, s = np.subtract.outer(c, c).ravel(), np.subtract.outer(rho, rho).ravel() / -2.0
    size = np.add.outer(np.abs(c) + np.abs(rho), np.abs(c) + np.abs(rho)).ravel()
    tol = 8.0 * (np.finfo(float).eps * size + np.finfo(float).smallest_subnormal)
    keep = ~(bits[:, None] == bits[None, :]).all(axis=2).ravel() & ~(np.abs(s) - tol > np.abs(d))
    d, s, tol = d[keep], s[keep], tol[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio, sigma = tol / np.abs(d), s / np.abs(d)
        u = (np.arccos(sigma) - np.angle(d)) * (m / (2.0 * np.pi))
        h = ratio / np.sqrt(1.0 - (np.abs(sigma) + ratio) ** 2) * (m / 4.0)
    return u, h


def _tie_windows(lo: np.ndarray, hi: np.ndarray, m: int,
                 solved: int) -> tuple[np.ndarray, np.ndarray]:
    """The rounding windows of the discs' ties on the m-angle grid
    (``_DiscSweep``, "Rows on demand"), as disjoint index ranges
    [starts_i, stops_i) within 0 .. solved - 1, ascending, from each pair's
    range [lo, hi) of indices, as floats: floor(u - h) - 1 .. floor(u + h)
    + 2 for ``_ties``, whose tol is over twice what can swap two computed
    values (four times at rho = 0), plus a few subnormals for their
    underflow, widened by a grid step either way.  A range that is not
    bounded, or spans the grid, makes the window every index; a pair of
    bit-identical c has identical rows or never swaps, and gives none.
    Windows are merged as ranges, so the cost is O(n^2 log n) however wide
    they are.
    """
    if not (hi - lo < m).all():
        return np.array([0]), np.array([solved])
    shift = np.floor(lo / m) * m  # each window starts in 0 .. m - 1; one past m wraps
    lo, hi = (lo - shift).astype(np.intp), (hi - shift).astype(np.intp)
    wrap = hi > m
    lo = np.concatenate([lo, np.zeros(wrap.sum(), np.intp)])
    hi = np.minimum(np.concatenate([np.minimum(hi, m), hi[wrap] - m]), solved)
    keep = lo < hi
    order = np.argsort(lo[keep])
    lo, reach = lo[keep][order], np.maximum.accumulate(hi[keep][order])
    first = np.flatnonzero(lo > np.r_[-1, reach[:-1]])  # every lo is >= 0
    return lo[first], np.r_[reach[first[1:] - 1], reach[-1:]]


def _peak_indices(rho: np.ndarray, c: np.ndarray, m: int) -> np.ndarray | None:
    """Grid indices of the whole m-angle grid beside each disc's peak,
    where column 0 takes its largest value (``_DiscSweep``, "Rows on
    demand"); None when a window would span half the grid or every c_i is
    zero.

    rho_i + 2 Re(e^{i theta} c_i) peaks at theta = -arg(c_i), u = -arg(c_i)
    m / (2 pi) grid steps, and its computed values there are within
    tol = 8 eps (|c_i| + |rho_i|) + 8 subnormals of exact, as in
    ``_tie_windows``, and so are those of an even grid's upper half, the
    solved half's negated, at their own angles.  The nearest grid angle is
    at most pi/m from the peak, and an angle delta = 4 pi/m +
    sqrt(4 tol / |c_i|) from it or more lies below that by
    |c_i| (delta^2 - (pi/m)^2), to first order, which is more than 4 tol:
    no rounding can lift it to the top.  So the indices within
    h = 2 + sqrt(4 tol / |c_i|) m / (2 pi) steps of u hold column 0's
    maximum over all m: 2h + 3 at most for each disc, seven up to m = 2^25
    at |c_i| >= 1e-300 and rho_i = 0.  A disc with c_i = 0 is the same at
    every angle: h = 0 reads it beside index 0.
    """
    if not c.any():
        return None
    size, tiny = np.abs(c), np.finfo(float).smallest_subnormal
    tol = 8.0 * np.finfo(float).eps * (size + np.abs(rho)) + 8.0 * tiny
    with np.errstate(divide="ignore"):
        h = np.where(size > 0, 2.0 + np.sqrt(4.0 * tol / size) * (m / (2.0 * np.pi)), 0.0)
    if not (h < m / 4).all():
        return None
    lo = np.floor(-np.angle(c) * (m / (2.0 * np.pi)) - h).astype(np.intp)
    steps = np.arange(int(np.ceil(2.0 * h.max())) + 2)
    return ((lo[:, None] + steps) % m).ravel()


def _is_graded(t: np.ndarray) -> bool:
    """Whether some integers g have g_i - g_j = 1 wherever t_ij != 0,
    tested exactly on T's nonzero pattern.

    Then D T D* = e^{i theta} T for D = diag(e^{i g theta}), so every pencil
    H_theta = D H_0 D* has the spectrum of H_0 = T + T*.  A nonzero t_ii,
    t_ij and t_ji both nonzero, or t_ij t_jl and t_il all nonzero
    (g_i - g_l would be 2 and 1) rule g out at once, as for a Gaussian or
    a strictly lower-triangular Gaussian T.  Otherwise g is fixed up to a
    constant on each connected component of the pattern, so a search from
    one index of each component sets g along the entries and meets an
    entry that contradicts it exactly when no g exists.
    """
    nz = t != 0
    if (nz & nz.T).any():
        return False
    paths = nz.astype(float)
    if (nz & (paths @ paths > 0)).any():
        return False
    links = [[] for _ in range(t.shape[0])]  # (j, g_j - g_i) for each entry t_ij or t_ji
    for i, j in zip(*(a.tolist() for a in np.nonzero(nz))):
        links[i].append((j, -1))
        links[j].append((i, 1))
    g = [None] * t.shape[0]
    for root in range(t.shape[0]):
        if g[root] is not None:
            continue
        g[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for j, step in links[i]:
                if g[j] is None:
                    g[j] = g[i] + step
                    stack.append(j)
                elif g[j] != g[i] + step:
                    return False
    return True


def _normal_spectrum(t: np.ndarray) -> np.ndarray | None:
    """The eigenvalues mu of T when T is normal to within the rounding of
    one pencil solve, else None.

    Q is the QR of ``eig``'s eigenvectors, R = Q*TQ and mu = diag(R); for
    normal T and unitary Q, R is diagonal.  With N = max|mu|, the rows
    2 Re(e^{i theta} mu) are within c of T's exact pencil spectra, in
    offset units (half an eigenvalue), where c sums
      ||R - diag(mu)||_2, by Weyl;
      eta N for Q's defect eta = ||Q*Q - I||_2: with Q = WP, W unitary and
        ||P^2 - I|| = eta, the pencils of R are P H P for the pencils H
        of W*TW, whose eigenvalues Ostrowski moves by at most eta |lambda|;
      2 sqrt(2) n eps_L N for the two products that form R, the model's
        product term at the epsilon eps_L of ``np.longdouble``, in which
        they run (2^-63 on x86-64; where it is a double, the model's own);
      2 eps N for rounding e^{i theta} and Re(e^{i theta} mu).
    mu is returned only when c <= 4 n eps N, a pencil solve's own cost
    (``_solve_error``).  T is at unit size (``pencil_sweep``), so no product
    below overflows.  A commutator test rejects T that cannot
    pass before ``eig`` runs: an accepted T is within 2c of a normal
    matrix, so ||TT* - T*T||_2 <= 8 c N to first order, and forming it adds
    the model's 2 sqrt(2) n eps N^2, in all at most 9 (4 n eps) N^2; the
    Frobenius norm is at most sqrt(n) times that, and N <= ||T||_F.
    """
    n = t.shape[0]
    budget = _solve_error(n, 1.0)
    commutator = t @ t.conj().T - t.conj().T @ t
    if np.linalg.norm(commutator) > 9.0 * np.sqrt(n) * budget * np.linalg.norm(t) ** 2:
        return None
    try:
        q = np.linalg.qr(np.linalg.eig(t)[1])[0].astype(np.clongdouble)
    except np.linalg.LinAlgError:
        return None
    r = q.conj().T @ (t.astype(np.clongdouble) @ q)
    mu = np.diagonal(r).astype(np.complex128)
    norm = np.abs(mu).max()
    off = np.linalg.norm((r - np.diag(mu)).astype(np.complex128), 2)
    eta = np.linalg.norm((q.conj().T @ q - np.eye(n)).astype(np.complex128), 2)
    product = 2.0 * np.sqrt(2.0) * n * np.finfo(np.longdouble).eps
    if not off + (eta + product + 2.0 * np.finfo(float).eps) * norm <= budget * norm:
        return None
    return mu


def outer_error_bound(region: ConvexRegion, m: int) -> float:
    """R_max (sec(pi/m) - 1), R_max the region's largest modulus; zero for
    degenerate tags.

    This is the exact Hausdorff gap between a disc centred at 0 and its
    m-angle circumscribed polygon, and an overestimate for a translated
    disc, which grows with the translation (discs about one centre pass
    their m-gon about 0: ``_DiscSweep.region``).  It is not a bound
    for other shapes: for the ellipse-shaped
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
    pairs: all m supporting half-plane offsets, of which a disc sweep's
    geometry uses only the sweep's ``planes``.  It is read from ``sweep``
    at its first use.
    """

    k: int
    angles: int
    region: ConvexRegion
    outer_error_bound: float
    sweep: PencilSweep

    @cached_property
    def support_samples(self) -> np.ndarray:
        return np.column_stack([self.sweep.thetas, self.sweep.column(self.k - 1) / 2.0])

    def min_support(self) -> float:
        return float(self.support_samples[:, 1].min())


def range_from_sweep(sweep: PencilSweep, k: int) -> RangeReport:
    """Build the rank-k region from an existing pencil sweep.

    The sweep's ``region(k)`` gives the region and its error bound in
    sweep units: that of discs about one centre read off their one row,
    plus the centre, with the error bound of the untranslated region
    (``_DiscSweep.region``), and any other's from its rows and planes
    (``PencilSweep.region``).  Both are scaled back to T's units here, the
    region's vertices in place, so a rank forms no new array for them.
    The report's ``support_samples`` hold all m offsets, in T's units.
    """
    if not 1 <= k <= sweep.dim:
        raise BadRankError(f"k must be in 1..{sweep.dim}, got {k}")
    region, error = sweep.region(k)
    parts = region.vertices.view(float)  # each real and imaginary part
    _t_units(parts, sweep.scale, parts)
    return RangeReport(k, sweep.angle_count, region, float(_t_units(error, sweep.scale)), sweep)


def _point_or_empty(sweep: PencilSweep, k: int, norm: float) -> ConvexRegion:
    """The rank-k range at 2k = n + 1, from row k alone.

    The planes at theta and theta + pi then coincide, so the range is the
    one z with Re(e^{i theta} z) = h(theta) = lambda_k(H_theta) / 2 at every
    angle, or empty: the point z when every offset is within
    tol = ``_row_tol`` at ``norm`` of Re(e^{i theta_j} z), and empty
    otherwise.  On an even grid e^{i theta_{j+m/2}} is -e^{i theta_j} up to
    rounding, so the solved angles' phases serve both halves.  The first
    exit that settles it returns: the sweep's own (``_DiscSweep.middle``),
    three rows that no z fits (``_rows_apart``), then the Fourier fit over
    every row (``_fourier_point``).
    """
    tol = _row_tol(sweep.dim, norm)
    region = sweep.middle(k, tol, norm)
    if region is not None:
        return region
    if _rows_apart(sweep, k, tol, norm):
        return ConvexRegion.empty()
    return _fourier_point(sweep, k, tol)


def _rows_apart(sweep: PencilSweep, k: int, tol: float, norm: float,
                idx: np.ndarray | None = None) -> bool:
    """Whether no z is within ``tol`` of the three lines Re(e^{i theta_j} z)
    = h_j at the grid indices a, b, c of ``idx``, by default 0, m // 6 and
    m // 3, about 60 degrees apart, so that the Fourier fit's residual
    exceeds ``tol`` too.

    With e = eps N, N = ``norm``: |h| <= N / 2 up to rounding, so the fit
    has |z| <= N, and its computed residual at a row is within 3 e of the
    exact one.  A z that passes at a and b is so within t = tol + 4 e of
    both lines, and then within t sqrt(2 / (1 - |cos(theta_b - theta_a)|))
    of their corner C, the farthest corner of the rhombus the two bands
    cut; it passes at c only within t of line c.  The corner, computed,
    is within 9 e / det^2 of C, and its distance from line c within
    7 e / det^2 more (det = sin(theta_a - theta_b), at least 0.67 for the
    default indices at m >= 16).  So when line c lies farther than
    t (1 + sqrt(2 / (1 - |cos|))) + 16 e / det^2 from the computed corner,
    no z passes at all three rows, and the fit returns empty as well.
    Coincident lines (m < 6, or a = b) give an infinite reach, and no exit.
    """
    m = sweep.angle_count
    if idx is None:
        idx = np.array([0, m // 6, m // 3])
    phases = np.exp(1j * grid_angles(m, idx))
    (ca, cb, cc), (sa, sb, sc) = phases.real, phases.imag
    ha, hb, hc = sweep.unit_column(k - 1, idx) / 2.0
    det = sa * cb - ca * sb
    eps_n = np.finfo(float).eps * norm
    t = tol + 4.0 * eps_n
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (-ha * sb + hb * sa) / det
        y = (-ha * cb + hb * ca) / det
        reach = t * (1.0 + np.sqrt(2.0 / (1.0 - abs(ca * cb + sa * sb)))) + 16.0 * eps_n / det**2
    return bool(abs(x * cc - y * sc - hc) > reach)


def _fourier_point(sweep: PencilSweep, k: int, tol: float) -> ConvexRegion:
    """The point or empty of ``_point_or_empty`` from every row: h is a
    first harmonic, so z is its Fourier coefficient over the grid,
    z = (2/m) sum_j h_j e^{-i theta_j}, and the range is the point z when
    every offset is within ``tol`` of Re(e^{i theta_j} z)."""
    m = sweep.angle_count
    h = sweep.unit_column(k - 1) / 2.0
    phases, solved = sweep.phases, sweep.solved
    first, second = h[:solved], h[solved:]
    z = 2.0 * np.sum((first - second if solved < m else first) * phases.conj()) / m
    fit = (phases * z).real
    residual = np.abs(first - fit).max()
    if solved < m:
        residual = max(residual, np.abs(second + fit).max())
    if residual <= tol:
        return ConvexRegion.point(z)
    return ConvexRegion.empty()


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
