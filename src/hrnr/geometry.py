"""Convex planar geometry: half-plane intersection, classification, and
exact support-function distances.

Regions live in the complex plane.  A half-plane is the set
``{z : Re(e^{i theta} z) <= offset}``; ``intersect_halfplanes`` takes
arrays of angles and offsets and intersects them on one path.  Array
rounds drop the planes that are implied: each run of implied planes
within one sector drops, in one round, every plane that holds the corner
of the run's two kept ends.  Where the rounds stall, as between the
crossing wings of a k >= 2 swallowtail, one wing round finds each
crossing by exponential and binary search along the two wings and drops
the planes between them that hold it.  When no plane is left implied (as
on a smooth range, in the first round) every kept plane is a facet, and
otherwise the deque scan runs on the planes left, which on faceted and
degenerate grid ranges are a few dozen after one round at 2^16 planes.
A set of at most ``ONE_ROUND_PLANES`` planes that is not smooth, such as
a normal sweep's tie planes, takes its first round's drops and goes to
the scan at once: there the scan costs less than more rounds.
The emptiness check tests every plane: it reuses the sorted planes'
cosines and sines, finds each plane's supporting vertex by one bisection
of its direction into the sorted edge normals and compares three
candidates.  A chain that the rounds certify skips it, since no plane
can cut its region by 1e-9.
Everything that depends on the angles alone (their reduction, sort and
merge, cosines and sines) is an ``AngleFrame``; a caller that cuts one
set of angles at several offset vectors, as a pencil sweep's ranks do,
builds it once with ``angle_frame`` and passes it to each call, which
then only gathers, merges and relaxes the offsets.
The planes are the caller's: ``ranges.range_from_sweep`` passes every
grid plane of a batch sweep, but of a sweep from a spectrum (diagonal,
Hermitian or certified normal T) only the planes beside its tie angles
and every (m // 16)-th one, whose intersection the dropped planes cannot
cut by more than the rows' rounding (``ranges._DiscSweep.planes``), and
the ranks of discs about one centre, whose m planes share one offset,
are the regular m-gons of ``regular_polygon``; the oracles in ``checks``
pass their own angles.  The pruning, the emptiness check and every bound
below concern the planes passed.
Convex regions are tagged as one of ``empty``, ``point``, ``segment`` or
``polygon`` (counter-clockwise vertex loop).

Every threshold is a length in units of the ``bound`` passed to
``intersect_halfplanes``; cut lines are relaxed outward by ``CLIP_EPS``.  The
relaxation is what keeps genuinely degenerate intersections honest in
floating point: a family of half-planes whose true intersection is a
single point carries offset noise of order 1e-15, which would otherwise
make the intersection come back empty instead of that point.  The vertex
loop is the intersection of the kept planes' relaxed cuts, and it holds
every dropped plane within 1e-9 * bound of its relaxed cut, and within
2.7e-10 * bound when no wing round ran, at up to 2^16 planes, a worst
case over chained drops (see ``_facet_planes``); replays of grid ranges
stayed within 2e-12 * bound of a scan over every plane, and wing rounds
within 1e-12 * bound of a scan of the planes they were given.  The
relaxed corner of two planes whose normals are g apart lies
CLIP_EPS * bound / cos(g / 2) outside the exact one.  ``_classify`` then
collapses regions thinner than 1e-9 * bound, and drops the vertices that
lie within CLIP_EPS * bound of their neighbours' chord in array rounds,
alternate ones of each run as the planes drop: on a convex loop a vertex
dropped in R rounds lies within R * CLIP_EPS * bound of the loop left.
Planes that bound only a line give that line's chord of the square, as
they should: the edge planes of a sliver triangle of three nearly
collinear points are two bit-identical planes and a third antiparallel
to them with the opposite offset (to 3 ulps), so their exact
intersection, unrelaxed, is a strip 4e-20 wide about the points' line,
whose chord of the square lies O(bound) from the segment the points span
(pinned by an expected-failure test that asks for the segment).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# Outward relaxation of each cut line, and the largest distance from its
# neighbours' chord at which a vertex is pruned as collinear.
CLIP_EPS = 1e-12
# Diameter below which a region collapses to a point.
POINT_DIAM = 1e-9
# A polygon thinner than this (area / diameter) collapses to a segment.
SEGMENT_THICKNESS = 1e-9
TWO_PI = 2.0 * np.pi
# A set of at most this many planes whose first round finds a plane implied
# drops that round's planes and sends the rest to the deque scan, with no
# more rounds (``_facet_planes``).  Measured on 2 CPUs, best of 9-15: on
# the tie planes of complex diagonal n = 4..14 at m = 2048 and 65536 (ranks
# 1..3, 64-744 planes) the rounds took 0.24-0.54 ms and one round and the
# scan 0.07-0.29, faster in 186 of 186 sets; on every plane of Gaussian and
# hidden normal n = 4..8, faceted ranges gain alike at 180-2048 planes,
# but a k = 2 swallowtail, whose rounds cut the wings, ties at 180-360
# planes (0.25-0.40 against 0.26-0.48 ms) and loses from 720 (0.43-1.35
# against 0.41-0.68).
ONE_ROUND_PLANES = 384
# angles of the bounding square's planes
_SQUARE = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


class EmptyRegionError(ValueError):
    """Operation undefined on an empty region."""


@dataclass(frozen=True, eq=False)
class ConvexRegion:
    """Tagged convex region: empty | point | segment | polygon.

    ``vertices`` holds 0, 1, 2 or >= 3 complex points; polygon vertices
    are CCW with no three consecutive collinear beyond tolerance.
    """

    kind: str
    vertices: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))

    @classmethod
    def empty(cls) -> "ConvexRegion":
        return cls("empty", np.zeros(0, dtype=np.complex128))

    @classmethod
    def point(cls, z) -> "ConvexRegion":
        return cls("point", np.array([z], dtype=np.complex128))

    @classmethod
    def segment(cls, z1, z2) -> "ConvexRegion":
        return cls("segment", np.array([z1, z2], dtype=np.complex128))

    @classmethod
    def polygon(cls, verts) -> "ConvexRegion":
        v = np.asarray(verts, dtype=np.complex128)
        if v.size >= 3 and _signed_area2(v) < 0:
            v = v[::-1].copy()
        return cls("polygon", v)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def max_modulus(self) -> float:
        if self.is_empty:
            raise EmptyRegionError("empty region has no modulus")
        return float(np.abs(self.vertices).max())


def _next(x: np.ndarray) -> np.ndarray:
    """Entry i is x[i + 1], cyclically: ``np.roll(x, -1)`` bit for bit (a
    permutation), at a sixth of its cost on a short loop."""
    return np.concatenate((x[1:], x[:1]))


def _prev(x: np.ndarray) -> np.ndarray:
    """Entry i is x[i - 1], cyclically: ``np.roll(x, 1)`` bit for bit."""
    return np.concatenate((x[-1:], x[:-1]))


def _signed_area2(verts: np.ndarray) -> float:
    v = verts - verts[0]  # a small loop far from 0 keeps its area's digits
    nxt = _next(v)
    return float(np.sum(v.real * nxt.imag - v.imag * nxt.real))


def _dedupe(verts: np.ndarray) -> np.ndarray:
    keep = np.abs(verts - _prev(verts)) > 1e-13
    if not keep.any():
        return verts[:1]
    return verts[keep]


def _prune_collinear(verts: np.ndarray) -> np.ndarray:
    """Drop vertices within CLIP_EPS of their neighbours' chord, in rounds.

    Each round flags every vertex b whose current neighbours a and c hold
    it within CLIP_EPS of their line, |(b - a) x (c - b)| <= CLIP_EPS
    |c - a|, and drops the flagged vertices at alternate positions within
    each run of them (``_alternate_drops``), so that both neighbours of a
    dropped vertex stay in its round.  Rounds repeat until no vertex is
    flagged or fewer than 3 are left; a loop with no flagged vertex is
    returned as it is.  On a convex loop a chord lies within d of the loop
    left when both its ends do, so a vertex dropped in R rounds lies within
    R CLIP_EPS of it: a dense arc thins out by halves rather than
    collapsing.  A vertex within CLIP_EPS of a neighbour is flagged (up to
    rounding), since (b - a) x (c - b) = (b - a) x (c - a), of modulus at
    most |b - a| |c - a|, and likewise for c: no two vertices of a
    returned loop of 3 or more lie within ``_dedupe``'s 1e-13 of each
    other.
    """
    while verts.size >= 3:
        e1 = verts - _prev(verts)
        e2 = _next(e1)
        chord = _next(verts) - _prev(verts)
        cross = np.abs(e1.real * e2.imag - e1.imag * e2.real)
        flagged = cross <= CLIP_EPS * np.hypot(chord.real, chord.imag)
        if not flagged.any():
            break
        verts = verts[~_alternate_drops(flagged)]
    return verts


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, CCW; degenerate inputs give 1 or 2 points."""
    # np.unique's values, without its import of numpy.ma: sorted by real
    # part, then imaginary part, the first of equal ones (0.0, -0.0) kept
    pts = np.sort(np.asarray(points, dtype=np.complex128), kind="stable")
    pts = pts[np.append(True, pts[1:] != pts[:-1])]
    if pts.size <= 2:
        return pts

    def half(seq):
        chain = []
        for z in seq:  # pop until z is strictly left of the last edge
            while len(chain) >= 2 and ((z - chain[-2])
                                       * (chain[-1] - chain[-2]).conjugate()).imag <= 0:
                chain.pop()
            chain.append(z)
        return chain

    lower = half(pts.tolist())
    upper = half(pts[::-1].tolist())
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.size < 3:
        return pts[np.array([0, -1])]
    return hull


def _segment(verts: np.ndarray) -> ConvexRegion:
    """The segment between the extremes of ``verts`` along the diagonal of
    their bounding box that rises or falls with the points."""
    w, h = float(np.ptp(verts.real)), float(np.ptp(verts.imag))
    x, y = verts.real - verts.real.mean(), verts.imag - verts.imag.mean()
    direction = complex(w, h if (x * y).sum() >= 0 else -h) / float(np.hypot(w, h))
    proj = (verts * np.conj(direction)).real
    return ConvexRegion.segment(verts[np.argmin(proj)], verts[np.argmax(proj)])


def _classify(verts: np.ndarray) -> ConvexRegion:
    """Turn a raw vertex loop into a tagged region.

    A point is anything of diameter < 1e-9.  A polygon whose mean
    thickness (area / diameter) is below 1e-9 is a segment: relaxed cut
    lines over noisy offsets leave slivers of width around the relaxation,
    never exactly zero, so thickness rather than raw area is the robust
    degeneracy test.  The vertices within CLIP_EPS of their neighbours'
    chord drop in rounds (``_prune_collinear``), and with them every vertex
    within CLIP_EPS of a neighbour.  A pruned loop that turns right
    anywhere, or winds more than once, is not convex: where many nearly
    parallel cut lines meet, rounding can leave a reversing micro-spike or
    a vertex cluster that winds twice.  Such a loop is replaced by its
    convex hull, so that supporting-vertex searches over the edge normals
    stay exact.  A loop that pruning leaves with fewer than 3 vertices is a
    segment, whose ends are sought on the whole loop: on a loop that
    revisits its vertices the prune's survivors need not be the extremes.
    """
    loop = _dedupe(verts)
    diam = float(np.hypot(np.ptp(loop.real), np.ptp(loop.imag)))
    if diam < POINT_DIAM:
        return ConvexRegion.point(loop.mean())
    area2 = _signed_area2(loop)
    if loop.size < 3 or abs(area2) / 2.0 < SEGMENT_THICKNESS * diam:
        return _segment(loop)
    verts = _prune_collinear(loop if area2 > 0 else loop[::-1])
    if verts.size >= 3:
        edges = _next(verts) - verts
        turns = np.angle(_next(edges) * np.conj(edges))
        if (turns <= 0).any() or turns.sum() >= 3 * np.pi:
            verts = _prune_collinear(_convex_hull(verts))
    if verts.size < 3:
        return _segment(loop)
    return ConvexRegion.polygon(verts)


def _sort_angles(thetas):
    """Angles reduced mod 2 pi and sorted, with (numerically) equal
    directions merged: the merged angles, and the merge that
    ``_merge_offsets`` applies to the planes' offsets (the input index of
    each group's first plane, the input indices of the other planes and
    their groups, and whether the last group wraps onto the first)."""
    thetas = _exact_remainder(thetas, TWO_PI)
    order = np.argsort(thetas, kind="stable")
    thetas = thetas[order]
    first = np.diff(thetas, prepend=-np.inf) > 1e-12
    thetas = thetas[first]
    # wrap-around duplicate
    seam = bool(thetas.size > 1 and (thetas[0] + TWO_PI) - thetas[-1] <= 1e-12)
    merge = (order[first], order[~first], (np.cumsum(first) - 1)[~first], seam)
    return (thetas[:-1] if seam else thetas), merge


def _merge_offsets(merge, offsets):
    """The offsets of the planes that ``_sort_angles`` merged: each group of
    equal angles keeps its minimum, so order within a group is free (up to
    the sign of a zero minimum)."""
    first, others, group, seam = merge
    merged = offsets[first]
    np.minimum.at(merged, group, offsets[others])
    if seam:
        merged[0] = min(merged[0], merged[-1])
        merged = merged[:-1]
    return merged


def _exact_remainder(x, y):
    """``np.mod(x, y)`` bit for bit, evaluated only where x is outside the
    interval (0, y), on which np.mod is exact and returns x: a sweep's
    angles need none of it."""
    x = np.array(x, dtype=float)
    out = ~((x > 0.0) & (x < y))
    x[out] = np.mod(x[out], y)
    return x


@dataclass(frozen=True, eq=False)
class AngleFrame:
    """What ``intersect_halfplanes`` computes from the angles alone, so that
    one set of angles cut at several offset vectors (a sweep's ranks) is
    sorted, merged and evaluated once.

    ``thetas`` are the input angles with the bounding square's appended,
    reduced, sorted and merged as ``_sort_angles`` does, with their
    cosines ``cos`` and sines ``sin``; ``merge`` is what ``_merge_offsets``
    needs to gather and merge each offset vector alike; ``size`` counts the
    input angles.
    """

    size: int
    thetas: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    merge: tuple


def angle_frame(thetas) -> AngleFrame:
    """The :class:`AngleFrame` of finite angles, for ``intersect_halfplanes``."""
    thetas = np.asarray(thetas, dtype=float).ravel()
    all_t, merge = _sort_angles(np.concatenate([thetas, _SQUARE]))
    return AngleFrame(thetas.size, all_t, np.cos(all_t), np.sin(all_t), merge)


def _active_chain(thetas, cos_t, sin_t, cuts):
    """Deque scan over angle-sorted half-planes; returns active indices.

    Classical O(m) half-plane intersection: a new plane pops trailing
    (then leading) planes whose pairwise corner it cuts away.  Corners
    project onto a new plane in increasing order from the front of the
    deque to its back while that plane is at most a half-turn past the
    front plane, so there it cannot cut the front corner without first
    popping every plane behind it.  The front test is skipped in that
    range: only rounding could pass it, as when several grid planes meet
    at one vertex, and it would pop a true facet.  Returns None when fewer
    than three planes survive, i.e. the region is empty.  Plain-float
    inner loop: this runs once per plane and dominates large sweeps.  The
    corners of neighbouring deque planes sit in a second deque beside it,
    each computed once when its later plane is pushed, so a pop test reads
    a cached corner and both ends pop in O(1).
    """
    m = len(cuts)
    dq: deque[int] = deque()
    # corners[j] is the corner of dq[j] and dq[j + 1]
    corners: deque = deque()
    half_turn = np.pi
    for i in range(m):
        # _cuts(z, c, s, b), inlined: this loop runs once per plane
        c, s, b = cos_t[i], sin_t[i], cuts[i]
        while corners:
            z = corners[-1]
            if z is None or not z[0] * c - z[1] * s > b:
                break
            dq.pop()
            corners.pop()
        while corners and thetas[i] - thetas[dq[0]] > half_turn:
            z = corners[0]
            if z is None or not z[0] * c - z[1] * s > b:
                break
            dq.popleft()
            corners.popleft()
        if dq:
            a = dq[-1]
            corners.append(_corner(cos_t[a], sin_t[a], cuts[a], c, s, b))
        dq.append(i)
    changed = True
    while changed and len(dq) >= 3:
        changed = False
        a, b = dq[0], dq[-1]
        if _cuts(corners[-1], cos_t[a], sin_t[a], cuts[a]):
            dq.pop()
            corners.pop()
            changed = True
            continue
        if _cuts(corners[0], cos_t[b], sin_t[b], cuts[b]):
            dq.popleft()
            corners.popleft()
            changed = True
    if len(dq) < 3:
        return None
    return np.array(dq, dtype=np.intp)


def _corner(ca, sa, ua, cb, sb, ub):
    """The corner (x, y) of the boundary lines of two planes, given by their
    cosines, sines and cuts as Python floats, with ``_corners``' expression;
    None when it is not proper ((anti)parallel planes)."""
    det = sa * cb - ca * sb
    if -1e-14 < det < 1e-14:
        return None
    return (-ua * sb + ub * sa) / det, (-ua * cb + ub * ca) / det


def _cuts(z, c, s, u):
    """Whether the plane of cosine c, sine s and cut u cuts the corner z
    (None, an improper corner, is never cut)."""
    return z is not None and z[0] * c - z[1] * s > u


def _corners(cos_t, sin_t, cuts, a, b):
    """Coordinates x, y of the corners of planes a[j] and b[j] (index
    arrays or slices), and whether each is proper: a corner whose
    determinant is below 1e-14 in modulus ((anti)parallel planes) is not
    used."""
    det = sin_t[a] * cos_t[b] - cos_t[a] * sin_t[b]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (-cuts[a] * sin_t[b] + cuts[b] * sin_t[a]) / det
        y = (-cuts[a] * cos_t[b] + cuts[b] * cos_t[a]) / det
    return x, y, np.abs(det) >= 1e-14


def _runs(mask):
    """The maximal runs of True in ``mask``: their first indices and their
    ends, one past their last."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return edges[::2], edges[1::2]


def _unit_planes(frame, offsets, radius):
    """The planes of ``frame``'s angles at ``offsets``, in units of
    ``radius``, with the square at +-1 added, merged, and their cut lines
    relaxed by CLIP_EPS: sorted angles, their cosines and sines, and the
    cuts."""
    cuts = _merge_offsets(frame.merge, np.concatenate([offsets / radius, np.ones(4)]))
    return frame.thetas, frame.cos, frame.sin, cuts + CLIP_EPS


def _facet_planes(thetas, cos_t, sin_t, cuts):
    """Indices of the planes that bound the relaxed intersection, in angle
    order, or None when the deque scan finds fewer than three, and whether
    they are a certified chain (below).

    Works in rounds over the kept planes, all of them at first.  The
    bounding square keeps every gap between neighbours within pi/2, a run
    or alternate drop leaves a gap of at most pi/16, and a wing drop (below)
    leaves a gap g <= 15 pi/16 only where the gaps beside it keep its two
    planes' neighbours within a half-turn, which later drops beside it
    (pi/16 at most) do not undo.  So a plane's two neighbours are never more
    than a half-turn apart (up to the 1e-12 merge of equal directions).
    Plane p is implied when its neighbours a and b have a corner c
    (``_corners``, a proper one) with h_p(c) <= cut_p + CLIP_EPS, where
    h_p(z) = Re(e^{i theta_p} z).  When no plane is implied, the kept
    indices are returned: each plane cuts its neighbours' corner by more
    than CLIP_EPS, so the corners form a closed left-turning chain that
    winds once, every plane a facet, and the scan would pop none of them.
    A smooth range (a disc, a k = 1 ellipse) stops there in the first round
    with the scan's own indices.  Otherwise the implied planes whose
    predecessor lies in the same pi/32 sector of angle form runs, and each
    run drops, in this one round, every plane that holds the corner of the
    run's two kept ends, if those are at most pi/16 apart (``_run_drops``).
    On a faceted grid range a vertex's whole bundle of grid planes goes at
    once: at 2^16 planes the first round leaves about 70.  When that drops
    under 1/4 of the kept planes, as on a disc of radius 4e-7 whose run
    ends' corners lie just outside it, the implied planes whose neighbours
    are at most pi/16 apart drop instead at alternate positions within
    each run of them, if that drops more.

    Small sets.  A set of at most ``ONE_ROUND_PLANES`` planes whose first
    round finds a plane implied takes that round's drops and hands the
    rest to ``_active_chain``: there the later rounds cost more than the
    scan they spare (a normal sweep's tie planes, at most 4 n (n - 1) + 20
    with the square's, took 4 rounds on a hidden normal n = 8 at m = 720).
    The round comes first because a scan of every plane keeps each bundle
    of relaxed planes through one vertex, whose cut lines wrap an arc of
    radius CLIP_EPS about it, and ``_classify``'s collinear pruning then
    keeps points of the arc: 1.2e-12 * bound from the rounds' vertex in the
    replay (with an earlier, sequential pruning), against 2.2e-13 after the
    round's drops.  The rule looks at the planes passed alone: applied to
    the planes a later round leaves, it took the wing round's place on a
    swallowtail's seam pair, which then left the full scan's region, and a
    scan of those planes whole at 2^16 planes kept a vertex 2e-12 * bound
    from its neighbour that the rounds drop.

    Wing rule.  For k >= 2 the offsets lambda_k / 2 are not a support
    function: their envelope, the k-th branch of Kippenhahn's
    boundary-generating curve, has swallowtails, whose two crossing wings
    are locally convex and cut only globally, so no plane of them is
    implied.  Once a round would drop fewer than 1/16 of the kept planes,
    and once per call, each run of implied planes left is taken as the
    junction of two wings, if there are at most 64 runs and 32 kept planes
    a run (with fewer the scan costs less), and ``_wing_drops`` finds
    where they cross: the last facet a of the left wing and the first
    facet b of the right one, whose corner C is a vertex of the kept
    planes.  The planes between a and b that hold C exactly,
    h_p(C) <= cut_p, drop, and the rounds go on.
    They leave the kept planes' intersection as it was: it lies in the
    wedge of a and b, which lies in each such plane.  When the wing round
    drops nothing, or a later round stalls, ``_active_chain`` scans the
    planes left instead, and its indices are returned.  A relaxed test
    (cut_p + CLIP_EPS, as the run rule has) would drop planes that cut C
    by up to CLIP_EPS, and a wide corner amplifies that: it moved faceted
    ranges by 1.6e-12 * bound.

    Error of the drops, to first order in rounding.  Every drop p is tested
    against two planes a and b that stay in its round, lie on either side
    of it and are g apart, g <= pi/16 for its run's ends or its neighbours,
    and g <= G for a wing drop.  Suppose the region satisfies
    h_a <= cut_a + e_a and h_b <= cut_b + e_b.  Then it lies in the wedge
    of a and b relaxed by e_a and e_b, whose support at theta_p is
    attained at the wedge's apex; that apex moves h_p(c) by
    w_a e_a + w_b e_b, where e^{i theta_p} = w_a e^{i theta_a} +
    w_b e^{i theta_b} and w_a + w_b <= sec(g / 2): the relaxation of the
    wedge's sides moves its vertex by up to sec(g / 2) times as much along
    theta_p.  So the region exceeds p's cut by at most
    e_p <= CLIP_EPS + sec(pi/32) max(e_a, e_b) for a run or alternate drop,
    and e_p <= sec(G / 2) max(e_a, e_b) for a wing drop, and a and b are
    kept to the end (e = 0) or drop in a later round.  Each round but the
    last and the wing round drops at least 1/16 of the kept planes, so a
    chain of drops passes R + 1 rounds at most, R = log(m) / log(16/15),
    and one of them a wing round: e <= sec(G / 2) CLIP_EPS
    sum_{i<R+1} sec(pi/32)^i.  Without the wing factor that is 2.7e-10 for
    m = 2^16 planes and 3.8e-10 for m = 2^20.  ``_wing_gap`` takes the
    widest G at which e stays within the 1e-9 emptiness check, capped at
    15 pi/16 (the half-turn rule above): 2.74 rad at m = 2^13, 2.70 at
    2^14, 2.60 at 2^16 and 2.37 at 2^20.  The widest swallowtail corners
    measured on seeded Gaussians are 2.19 rad (n = 4, k = 2, m = 2^14)
    and 2.50 rad (n = 6, k = 3, m = 2^13).  A cap of pi/8 on run drops
    would allow 1.4e-9 at m = 2^16 before any wing.

    Certified chains.  When no plane is implied and, in that round, every
    neighbour corner is also proper (``_corners``), the corners of the
    kept planes form a convex counter-clockwise loop that satisfies every
    kept plane, and every dropped plane holds it within e <= 1e-9 of its
    relaxed cut (above).  ``_classify`` keeps a point, segment or polygon
    inside that loop's hull, so the 1e-9 emptiness check in
    ``_unit_region`` cannot fire, and the chain is returned as certified.
    A plane whose neighbours are (anti)parallel counts as not implied only
    by exclusion: x <= -1 and x >= 1 in the square keep four planes whose
    loop is a rectangle, so such a chain, and every scanned one, is not.
    """
    keep = np.arange(thetas.size)
    kept = (thetas, cos_t, sin_t, cuts)
    wings = True
    while True:
        # the kept planes in angle order, with a cyclic neighbour at each end
        th, c, s, cu = (np.concatenate([v[-1:], v, v[:1]]) for v in kept)
        x, y, proper = _corners(c, s, cu, slice(None, -2), slice(2, None))
        implied = proper & (x * c[1:-1] - y * s[1:-1] <= cu[1:-1] + CLIP_EPS)
        if not implied.any():
            return keep, bool(proper.all())
        sector = np.floor(th * (32 / np.pi))
        drop = _run_drops(th, c, s, cu, implied & (sector[1:-1] == sector[:-2]))
        if 4 * np.count_nonzero(drop) < keep.size:
            alternate = _alternate_drops(implied & (np.mod(th[2:] - th[:-2], TWO_PI)
                                                    <= np.pi / 16))
            if np.count_nonzero(alternate) > np.count_nonzero(drop):
                drop = alternate
        small = keep.size == thetas.size <= ONE_ROUND_PLANES
        if not small and 16 * np.count_nonzero(drop) < keep.size:
            # the round stalls: cut the crossing wings once, if that costs
            # less than the scan (a junction takes about 15 us of searches
            # and an array pass of 2 ns a plane, the scan 0.6 us a plane,
            # measured at 20 to 8192 planes), else scan
            runs = _runs(implied)
            if not wings or runs[0].size > min(64, keep.size // 32):
                break
            wings = False
            drop = _wing_drops(*kept, *runs, _wing_gap(thetas.size))
            if not drop.any():
                break
        stay = np.flatnonzero(~drop)
        keep = keep[stay]
        kept = tuple(v[stay] for v in kept)
        if small:  # a small set that is not smooth: this round's drops, then the scan
            break
    dq = _active_chain(*(v.tolist() for v in kept))
    return None if dq is None else keep[dq], False


def _run_drops(th, c, s, cu, run):
    """Which planes of ``run`` drop against their run's two ends.

    The arrays hold the kept planes with a cyclic neighbour at each end, so
    plane i is entry i + 1; ``run`` marks the implied planes whose
    predecessor shares their sector.  The kept planes just before and after
    a maximal run of them are its ends A and B, and a run plane p drops
    when A and B are at most pi/16 apart and h_p(C) <= cut_p + CLIP_EPS at
    their corner C.  No run wraps: if the first and last kept planes shared
    a sector, the planes would leave a gap wider than pi/2.
    """
    # run j holds planes first[j] .. end[j] - 1; A is entry first[j], B end[j] + 1
    first, end = _runs(run)
    if not first.size:
        return run
    x, y, proper = _corners(c, s, cu, first, end + 1)
    ok = proper & (np.mod(th[end + 1] - th[first], TWO_PI) <= np.pi / 16)
    # each plane's run: the last that starts at or before it (-1 before the first)
    bounds = np.concatenate(([0], first, [run.size]))
    r = np.repeat(np.arange(-1, first.size), bounds[1:] - bounds[:-1])
    return run & ok[r] & (x[r] * c[1:-1] - y[r] * s[1:-1] <= cu[1:-1] + CLIP_EPS)


def _wing_gap(size):
    """The widest gap G that a wing round may leave between a and b at
    ``size`` planes (``_facet_planes``): the chained error bound times
    sec(G / 2) reaches 1e-9, and G is at most 15 pi / 16."""
    s = 1.0 / np.cos(np.pi / 32)
    chained = CLIP_EPS * (s ** (np.log(size) / np.log(16 / 15) + 1.0) - 1.0) / (s - 1.0)
    return min(2.0 * np.arccos(min(chained / 1e-9, 1.0)), 15 * np.pi / 16)


def _wing_drops(th, c, s, cu, first, end, cap):
    """The drops of a wing round over the kept planes (no cyclic padding).

    Each maximal run of implied planes, ``first[j]`` .. ``end[j]`` - 1
    (``_runs``; cyclic), is a junction between the kept planes before it
    (its left wing, back to the previous run) and after it (its right wing).
    Along a wing, in angle order, the corners (i, i + 1) move one way along
    every plane within a half-turn, so a plane cuts them on one side of the
    point where its line crosses the wing, and two exponential-plus-binary
    searches find that point: from b, the right wing's first plane, the last
    left corner that b does not cut gives a, the facet whose edge holds the
    crossing; from that a, the first right corner that a does not cut gives
    b.  They alternate until (a, b) is fixed, O(log m) per junction.  When b
    cuts the whole left wing, or a the whole right wing, or a kept plane
    cuts the corner C of a and b by more than CLIP_EPS, a wing beyond the
    neighbouring run on that side (the side of the plane that cuts C most)
    crosses this one instead.  If no pair has used that run yet (the next
    run, or at the first junction the last one), the two runs and the wing
    between them merge into one junction (cyclically), and the search
    restarts.  Otherwise the junction is left uncut, and its planes go on
    to the later rounds or the deque scan, which are exact on any plane
    set; so no pair is ever undone, and each pair's drops hold on their
    own, since no kept plane cuts its C.

    A junction's drops are the planes strictly between a and b that hold C
    exactly, h_p(C) <= cut_p, when C is proper (``_corners``), no kept
    plane cuts it by more than CLIP_EPS (so it is a vertex of the kept
    planes, on the edges of a and b), a and b are at most ``cap`` apart,
    the planes beside them leave a's and b's neighbours within a
    half-turn, and the junction's planes a - 1 .. b + 1 overlap no other
    junction's drops.
    """
    n = th.size
    first, end = first.tolist(), end.tolist()
    if len(first) > 1 and first[0] == 0 and end[-1] == n:  # the run across the seam
        first, end = first[1:], end[1:-1] + [end[0] + n]
    # Python floats of single planes: the searches read O(log n) of them
    T, C, S, U = (v.item for v in (th, c, s, cu))

    def corner(a, b):
        a, b = a % n, b % n
        return _corner(C(a), S(a), U(a), C(b), S(b), U(b))

    def beyond(p, i):
        # plane p cuts the corner of planes i and i + 1
        p %= n
        return _cuts(corner(i, i + 1), C(p), S(p), U(p))

    def gap(a, b):
        return (T(b % n) - T(a % n)) % TWO_PI

    pairs, j = [], 0  # (a, b) of each junction cut
    while j < len(first):
        lo = end[j - 1] - (n if j == 0 else 0)  # left wing lo .. first[j] - 1
        hi = first[j + 1] if j + 1 < len(first) else first[0] + n  # right wing .. hi - 1
        a, b = first[j] - 1, end[j]
        for _ in range(64):  # a few steps reach the fixed point; 64 bounds a cycle
            i = _first_false(lambda k: beyond(b, k), a - 1, -1, lo)
            b2 = None if i is None else _first_false(lambda k: beyond(i + 1, k), b, 1, hi - 2)
            if b2 is None or (i + 1, b2) == (a, b):
                break
            a, b = i + 1, b2
        z = None if b2 is None else corner(a, b)
        side = -1 if i is None else 1 if b2 is None else 0
        if z is not None:
            out = z[0] * c - z[1] * s - cu
            q = int(np.argmax(out))
            if out[q] > CLIP_EPS:
                q = b + (q - b) % n
                side = 1 if q - b < a + n - q else -1
        if side == 1 and j + 1 < len(first):  # take in the next run
            del first[j + 1], end[j]
            continue
        if side == -1 and j == 0 and len(first) > 1:  # take in the last run
            first[0] = first[-1] - n
            del first[-1], end[-1]
            continue
        if not (side or z is None or gap(a, b) > cap or gap(a - 1, b) >= np.pi
                or gap(a, b + 1) >= np.pi or (pairs and a <= pairs[-1][1])):
            pairs.append((a, b))
        j += 1
    if len(pairs) > 1 and pairs[-1][1] >= pairs[0][0] + n:
        pairs.pop()
    drop = np.zeros(n, dtype=bool)
    for a, b in pairs:
        x, y = corner(a, b)
        p = np.arange(a + 1, b) % n
        drop[p] = x * c[p] - y * s[p] <= cu[p]
    return drop


def _first_false(pred, start, step, limit):
    """The first i of start, start + step, ..., limit (step +-1) at which
    ``pred`` is false, for a pred that is true up to some i and false from
    there on, by exponential then binary search; None when it holds to limit."""
    if (start - limit) * step > 0:
        return None
    if not pred(start):
        return start
    true, d = start, 1
    while True:
        i = start + step * d
        if (i - limit) * step > 0:
            i = limit
        if not pred(i):
            break
        if i == limit:
            return None
        true, d = i, 2 * d
    while abs(i - true) > 1:
        mid = (i + true) // 2
        if pred(mid):
            true = mid
        else:
            i = mid
    return i


def _alternate_drops(drop):
    """Every other position of each run of ``drop``, counted from the run's
    first, and never both the last and the first position."""
    pos = np.arange(drop.size)
    first = np.maximum.accumulate(np.where(drop & ~_prev(drop), pos, 0))
    drop = drop & ((pos - first) % 2 == 0)
    drop[-1] &= not drop[0]
    return drop


def _unit_region(planes, dq, certified=False) -> ConvexRegion:
    """The classified region of the chain ``dq`` of the unit-frame
    ``planes``, or empty when some plane cuts it by more than 1e-9.  A chain
    that ``_facet_planes`` certified skips that check: no plane can cut
    its region by more than the chained bound of its docstring, which the
    wing rule's gap cap keeps within 1e-9.  Scanned chains, and chains with
    a neighbour corner that is not proper (``_corners``), are checked."""
    all_t, cos_t, sin_t, cuts = planes
    if dq is None:
        return ConvexRegion.empty()
    x, y, proper = _corners(cos_t, sin_t, cuts, dq, _next(dq))
    if not proper.all():
        return ConvexRegion.empty()
    verts = x + 1j * y
    if not np.isfinite(verts).all():
        raise ValueError("offsets / bound too large: the vertices overflow")
    # check the classified region, so corner clusters have collapsed and a
    # point or segment is checked as such
    region = _classify(verts)
    if certified:
        return region
    h = _support_candidates(region, all_t, cos_t, sin_t)[1].max(axis=0)
    if (h - cuts > 1e-9).any():
        return ConvexRegion.empty()
    return region


def intersect_halfplanes(thetas, offsets, bound: float,
                         frame: AngleFrame | None = None) -> ConvexRegion:
    """Intersection of the half-planes Re(e^{i theta_j} z) <= offset_j with
    the square [-R, R]^2, R = ``bound``, classified.  R sets the scale: all
    work runs on offsets / R and the vertices are scaled back, so a bound
    that scales with the input makes the result scale-equivariant.

    ``_facet_planes`` prunes the angle-sorted planes in array rounds and
    either certifies that the planes left are all facets, in which case
    on a smooth range they are every plane and the scan's own indices, or
    hands them to the O(m) deque scan.  Each dropped plane holds the
    region within 1e-9 * R of its relaxed cut, and within 2.7e-10 * R when
    no wing round ran (up to 2^16 planes).  On the faceted and degenerate
    grid ranges, whose vertices carry bundles of grid planes, one round
    drops each bundle against the planes either side of it, and the scan
    sees a few dozen planes; on a k >= 2 swallowtail one wing round drops
    the planes between each pair of crossing wings, and the rounds then
    certify the planes left.  In exact arithmetic the loop is the
    intersection of the kept planes whenever it is non-empty, so a plane
    that the classified loop violates by more than 1e-9 * R certifies that
    the intersection is empty; that check tests every plane and costs
    O(m log v) for a loop of v vertices.  It is skipped on a certified
    chain, which no plane can cut by that much, and runs on scanned chains
    and on chains with an improper neighbour corner.
    ``_classify`` replaces a loop that rounding left non-convex by its
    hull.  Results are independent of the input order of the planes.

    The work on the angles alone (reduction, sort, merge, cosines and
    sines) is ``angle_frame(thetas)``; a caller that cuts one set of angles
    at several offset vectors passes that ``frame`` each time, and the
    results are those of building it afresh, bit for bit.
    Raises ValueError when offsets / R, or the vertices they give, overflow
    to a non-finite value, or when ``frame`` holds another number of angles.
    """
    thetas = np.asarray(thetas, dtype=float).ravel()
    offsets = np.asarray(offsets, dtype=float).ravel()
    if thetas.size == 0:
        raise ValueError("need at least one half-plane")
    if thetas.shape != offsets.shape:
        raise ValueError("need one offset per angle")
    if not (np.isfinite(thetas).all() and np.isfinite(offsets).all()):
        raise ValueError("half-plane parameters must be finite")
    radius = float(bound)
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError("bound must be positive and finite")
    if frame is None:
        frame = angle_frame(thetas)
    elif frame.size != thetas.size:
        raise ValueError("the angle frame was built from other angles")
    with np.errstate(over="ignore"):
        planes = _unit_planes(frame, offsets, radius)
    if not np.isfinite(planes[3]).all():
        raise ValueError("offsets / bound must be finite")
    region = _unit_region(planes, *_facet_planes(*planes))
    if region.is_empty:
        return region
    verts = region.vertices * radius
    if not np.isfinite(verts).all():
        raise ValueError("offsets / bound too large: the vertices overflow")
    return ConvexRegion(region.kind, verts)


def grid_angles(m: int, idx: np.ndarray | None = None) -> np.ndarray:
    """The m angles 2 pi j / m, j = 0..m-1, of every pencil sweep and
    regular m-gon, or those at the integer grid indices ``idx`` alone: the
    expression is elementwise, so they are the bits of the whole array's
    entries."""
    return 2.0 * np.pi * (np.arange(m) if idx is None else np.asarray(idx)) / m


def regular_polygon(m: int, offset: float, bound: float) -> ConvexRegion:
    """``intersect_halfplanes`` of the m grid planes Re(e^{i theta_j} z) <=
    ``offset``, theta_j = 2 pi j / m (``grid_angles``), for ``offset`` <=
    ``bound`` / 2: the regular m-gon about 0 whose vertices are
    rho e^{i (2j + 1) pi/m} times R = ``bound``, rho = u sec(pi/m) and
    u = offset / R + CLIP_EPS (the relaxed cut).  The square, 1.02 R / 2 at
    most from 0 away, cuts none.  Two cases:
      the loop in closed form, when each vertex lies more than 2 CLIP_EPS
        from its neighbours' chord, rho (1 - cos(2 pi/m)) > 2 CLIP_EPS, and
        rho is at least twice ``POINT_DIAM`` and ``SEGMENT_THICKNESS``.
        Then every plane is a facet and no vertex is pruned as collinear,
        so the loop is the scan's up to rounding, and no pass of
        ``_classify`` changes it: for m >= 3 the diagonal of its bounding
        box, its diameter, is at least 2 rho and its area over that at
        least 0.56 rho, so neither collapse applies; its sides,
        2 rho sin(pi/m), exceed the 2 CLIP_EPS / sin(pi/m) that the chord
        distance implies, far above ``_dedupe``'s 1e-13; every turn is
        2 pi/m > 0 and they sum to 2 pi; and the loop runs
        counter-clockwise.  So it is returned as a polygon, unclassified;
      ``intersect_halfplanes`` of the m planes otherwise: a dense loop
        (zero and negative offsets among them), whose rounds would drop
        planes and whose vertices ``_prune_collinear``'s rounds would thin,
        and a loop small enough to collapse to a point or a segment."""
    if not offset <= bound / 2.0:
        raise ValueError("a regular polygon needs offset <= bound / 2")
    radius = (offset / bound + CLIP_EPS) / np.cos(np.pi / m)
    if (radius * (1.0 - np.cos(2.0 * np.pi / m)) <= 2.0 * CLIP_EPS
            or radius < 2.0 * max(POINT_DIAM, SEGMENT_THICKNESS)):
        return intersect_halfplanes(grid_angles(m), np.full(m, float(offset)), bound)
    return ConvexRegion("polygon", radius * _regular_directions(m) * bound)


@functools.lru_cache(maxsize=4)
def _regular_directions(m: int) -> np.ndarray:
    """e^{i (2j + 1) pi/m}, j = 0..m-1, read-only: a sweep's ranks share them."""
    directions = np.exp(1j * np.pi * (2.0 * np.arange(m) + 1.0) / m)
    directions.flags.writeable = False
    return directions


def _support_candidates(region: ConvexRegion, thetas, cos_t, sin_t):
    """Candidate supporting vertices of a non-empty region at each angle,
    and Re(e^{i theta} z) at each: two (c, m) arrays for m angles with
    cosines ``cos_t`` and sines ``sin_t``.

    A point or segment offers every vertex.  A polygon vertex supports
    exactly the directions between the outward normals of its two edges,
    so one bisection of each angle's direction into the v sorted edge
    normals finds its supporting vertex, O(m log v).  That vertex and its
    two neighbours are offered, which absorbs rounding in the order of
    nearly parallel edges.
    """
    v = region.vertices
    if v.size < 3:
        cand = np.broadcast_to(np.arange(v.size)[:, None], (v.size, thetas.size))
    else:
        normals = np.angle(-1j * (_next(v) - v))  # outward for CCW loops
        order = np.argsort(normals)
        # Re(e^{i theta} z) measures z along the normal angle -theta, in [-pi, pi)
        phi = np.mod(np.pi - thetas, TWO_PI) - np.pi
        first = order[np.searchsorted(normals[order], phi) % v.size]
        # the supporting vertex's predecessor, itself and successor
        cand = (first + np.array([-1, 0, 1])[:, None]) % v.size
    h = v.real[cand]
    h *= cos_t
    y = v.imag[cand]
    y *= sin_t
    h -= y
    return cand, h


def _supporting(region: ConvexRegion, thetas: np.ndarray) -> np.ndarray:
    """Index of a supporting vertex of a non-empty region at each angle."""
    cand, h = _support_candidates(region, thetas, np.cos(thetas), np.sin(thetas))
    return cand[h.argmax(axis=0), np.arange(thetas.size)]


def support(region: ConvexRegion, thetas):
    """Max of Re(e^{i theta} z) over a non-empty region, exact over its
    vertices: a float for a scalar angle, else an array of the angles'
    shape."""
    if region.is_empty:
        raise EmptyRegionError("support of an empty region")
    t = np.asarray(thetas, dtype=float)
    flat = t.ravel()
    h = _support_candidates(region, flat, np.cos(flat), np.sin(flat))[1].max(axis=0)
    return float(h[0]) if t.ndim == 0 else h.reshape(t.shape)


def _support_difference(a: ConvexRegion, b: ConvexRegion) -> tuple[float, float]:
    """Max and min over all theta of h_a(theta) - h_b(theta), exact.

    Between consecutive edge normals of either region (theta = pi/2 -
    arg(edge); a point has none) both supporting vertices p and q are
    fixed, so the difference is the sinusoid Re(e^{i theta}(p - q)).  Its
    extremes lie at the piece ends, or at theta = -arg(p - q) (value
    |p - q|) and that plus pi (value -|p - q|) where these fall inside
    the piece.  O((v_a + v_b) log(v_a + v_b)).
    """
    if a.is_empty or b.is_empty:
        raise EmptyRegionError("support difference needs non-empty regions")
    normals = [np.pi / 2 - np.angle(_next(r.vertices) - r.vertices)
               for r in (a, b) if r.vertices.size > 1]
    # theta = 0 as well, so two points still make one whole-circle piece
    ends = np.sort(np.mod(np.concatenate(normals + [np.zeros(1)]), TWO_PI))
    width = np.diff(ends, append=ends[0] + TWO_PI)
    mid = ends + width / 2
    d = a.vertices[_supporting(a, mid)] - b.vertices[_supporting(b, mid)]
    # the difference is continuous, so each piece's end is the next one's start
    at_ends = (np.exp(1j * ends) * d).real
    r = np.abs(d)
    peak = np.mod(-np.angle(d) - ends, TWO_PI) <= width
    trough = np.mod(np.pi - np.angle(d) - ends, TWO_PI) <= width
    hi = max(at_ends.max(), r[peak].max(initial=-np.inf))
    lo = min(at_ends.min(), -r[trough].max(initial=-np.inf))
    return float(hi), float(lo)


def excess(inner: ConvexRegion, outer: ConvexRegion) -> float:
    """Signed one-sided gap sup_theta (h_inner - h_outer) of two non-empty
    regions: the largest distance by which inner leaves outer when
    positive, and <= 0 exactly when inner lies inside outer."""
    return _support_difference(inner, outer)[0]


def hausdorff(a: ConvexRegion, b: ConvexRegion) -> float:
    """Hausdorff distance between two non-empty convex regions, exact:
    sup_theta |h_a(theta) - h_b(theta)|."""
    hi, lo = _support_difference(a, b)
    return max(hi, -lo, 0.0)
