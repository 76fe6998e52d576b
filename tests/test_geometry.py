import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrnr import geometry
from hrnr.checks import generator, random_matrix
from hrnr.geometry import (
    CLIP_EPS,
    TWO_PI,
    ConvexRegion,
    EmptyRegionError,
    _active_chain,
    _exact_remainder,
    _facet_planes,
    _merge_offsets,
    _prune_collinear,
    _sort_angles,
    _support_candidates,
    _unit_planes,
    _unit_region,
    angle_frame,
    excess,
    hausdorff,
    intersect_halfplanes,
    support,
)
from hrnr.ranges import pencil_sweep
from hrnr.shifts import shift_matrix

REPLAY_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "replay_engine.py"
UNIT_SQUARE = ConvexRegion.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


def random_convex_polygon(seed, nmin=3, nmax=9):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = rng.integers(nmin, nmax + 1)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    if (np.diff(angles) < 0.05).any():
        angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    radius = rng.uniform(0.5, 3.0)
    center = complex(rng.normal(), rng.normal())
    return ConvexRegion.polygon(center + radius * np.exp(1j * angles))


def grid_support(points, m):
    """The m grid angles and the support function of the points' hull there."""
    thetas = 2 * np.pi * np.arange(m) / m
    pts = np.asarray(points, dtype=complex)
    return thetas, (np.exp(1j * thetas)[:, None] * pts).real.max(axis=1)


def support_gap(region, points, samples=256):
    """Largest support-function difference between a region and the hull
    of some points, on a uniform angle grid."""
    thetas = 2 * np.pi * np.arange(samples) / samples
    u = np.exp(1j * thetas)[:, None]
    ours = (u * region.vertices).real.max(axis=1)
    theirs = (u * np.asarray(points, dtype=complex)).real.max(axis=1)
    return float(np.abs(ours - theirs).max())


def signed_distance(points, region):
    """Exact signed distance from each point to a non-empty region:
    Euclidean outside, minus the distance to the boundary inside a
    polygon, and 0 on a point or segment."""
    v = region.vertices
    z = np.asarray(points, dtype=complex).ravel()[:, None]
    if v.size == 1:
        return np.abs(z[:, 0] - v[0])
    e = np.roll(v, -1) - v
    along = np.clip(((z - v) * np.conj(e)).real / np.abs(e) ** 2, 0.0, 1.0)
    dist = np.abs(z - (v + along * e)).min(axis=1)
    if v.size == 2:
        return dist
    outside = ((z - v) * np.conj(-1j * e)).real.max(axis=1) > 0
    return np.where(outside, dist, -dist)


def brute_force_excess(inner, outer):
    return float(signed_distance(inner.vertices, outer).max())


def brute_force_hausdorff(a, b):
    return max(brute_force_excess(a, b), brute_force_excess(b, a), 0.0)


def brute_force_corners(thetas, offsets, bound):
    """Every pairwise corner of the relaxed cut lines (the bounding square
    included) that satisfies every relaxed plane within 1e-9 * bound; their
    hull is the intersection.  O(m^3), independent of the deque scan."""
    t = np.concatenate([np.asarray(thetas, float), np.arange(4) * np.pi / 2])
    b = np.concatenate([np.asarray(offsets, float), np.full(4, float(bound))])
    b = b + 1e-12 * bound
    u = np.exp(1j * t)
    corners = []
    for i in range(t.size):
        for j in range(i + 1, t.size):
            a = np.array([[u[i].real, -u[i].imag], [u[j].real, -u[j].imag]])
            if abs(np.linalg.det(a)) < 1e-9:
                continue
            x, y = np.linalg.solve(a, [b[i], b[j]])
            corners.append(complex(x, y))
    corners = np.array(corners)
    feasible = ((u[:, None] * corners[None, :]).real - b[:, None] <= 1e-9 * bound).all(axis=0)
    return corners[feasible]


# --- intersect_halfplanes ---------------------------------------------------

def test_disc_from_2048_tangents():
    m = 2048
    thetas = 2 * np.pi * np.arange(m) / m
    region = intersect_halfplanes(thetas, np.ones(m), bound=2.0)
    assert region.kind == "polygon"
    mods = np.abs(region.vertices)
    assert mods.max() <= 1 + 2e-6
    assert mods.max() >= 1.0
    assert mods.min() >= 1.0 - 1e-9


def test_opposing_negative_offsets_empty():
    assert intersect_halfplanes([0.0, np.pi], [-1.0, -1.0], bound=5.0).is_empty


def test_real_segment_construction():
    region = intersect_halfplanes([0.0, np.pi, np.pi / 2, -np.pi / 2],
                                  [2.0, -1.0, 0.0, 0.0], bound=3.0)
    assert region.kind == "segment"
    ends = sorted(region.vertices, key=lambda z: z.real)
    assert abs(ends[0] - 1.0) < 1e-9
    assert abs(ends[1] - 2.0) < 1e-9


def test_intersection_respects_every_plane():
    rng = np.random.Generator(np.random.PCG64(3))
    thetas, offsets = rng.uniform(0, 2 * np.pi, 40), rng.uniform(0.2, 2.0, 40)
    region = intersect_halfplanes(thetas, offsets, bound=4.0)
    assert not region.is_empty
    s = (np.exp(1j * thetas)[:, None] * region.vertices).real.max(axis=1)
    assert (s <= offsets + 1e-9).all()


@given(st.integers(0, 2**32 - 1), st.integers(5, 60))
@example(1, 65536)  # the pruning rounds run on the angle-sorted planes
@settings(max_examples=20, deadline=None)
def test_intersection_order_independent(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    thetas, offsets = rng.uniform(0, 2 * np.pi, count), rng.uniform(0.1, 2.0, count)
    base = intersect_halfplanes(thetas, offsets, bound=4.0)
    perm = rng.permutation(count)
    other = intersect_halfplanes(thetas[perm], offsets[perm], bound=4.0)
    assert base.kind == other.kind
    if not base.is_empty:
        assert support_gap(base, other.vertices) <= 1e-9


def test_equivalent_angles_give_same_region():
    rng = np.random.Generator(np.random.PCG64(8))
    thetas, offsets = rng.uniform(0, 2 * np.pi, 12), rng.uniform(0.5, 2.0, 12)
    base = intersect_halfplanes(thetas, offsets, bound=3.0)
    assert base.kind == "polygon"
    for shift in (2 * np.pi, -2 * np.pi):
        other = intersect_halfplanes(thetas + shift, offsets, bound=3.0)
        assert other.kind == base.kind
        assert support_gap(base, other.vertices) <= 1e-12


@pytest.mark.parametrize("radius", [1.1e-9, 2e-9])
def test_small_disc_off_the_origin_is_a_polygon(radius):
    # thickness (area / diameter) pi r / 2 exceeds 1e-9 at both radii, so the
    # tag must not depend on where the disc sits
    thetas = 2 * np.pi * np.arange(8192) / 8192
    for phi in 2 * np.pi * np.arange(24) / 24:
        centre = 0.14 * np.exp(1j * phi)
        region = intersect_halfplanes(thetas, (np.exp(1j * thetas) * centre).real + radius, 1.0)
        assert region.kind == "polygon", phi


def test_intersection_needs_planes():
    with pytest.raises(ValueError):
        intersect_halfplanes([], [], bound=1.0)


def test_intersection_validates_input():
    with pytest.raises(ValueError):
        intersect_halfplanes([0.0, 1.0], [1.0], bound=1.0)
    with pytest.raises(ValueError):
        intersect_halfplanes([0.0, np.nan], [1.0, 1.0], bound=1.0)
    with pytest.raises(ValueError):
        intersect_halfplanes([0.0, 1.0], [1.0, np.inf], bound=1.0)
    for bound in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            intersect_halfplanes([0.0], [1.0], bound=bound)



@pytest.mark.parametrize("offset, bound", [(1.0, 1e-310), (1e10, 1e-300)])
def test_intersection_rejects_overflowing_unit_offsets(offset, bound):
    # offsets / bound overflows, and the corners would come out NaN
    thetas = 2 * np.pi * np.arange(8) / 8
    with pytest.raises(ValueError, match="offsets / bound"):
        intersect_halfplanes(thetas, np.full(8, offset), bound=bound)

@pytest.mark.parametrize("m, scale", [(2048, 1.0), (65536, 1e2), (65536, 1e4)])
def test_facet_through_shared_vertex_survives(m, scale):
    # several grid planes pass through each vertex of this polygon, and its
    # theta = 0 facet is a grid plane; popping on a rounding excess there
    # used to drop that facet
    pts = scale * np.array([0.5 - 0.8j, 0.5 + 0.2j, -0.7 + 0.4j, -0.2 - 0.4j])
    thetas, offsets = grid_support(pts, m)
    region = intersect_halfplanes(thetas, offsets, bound=2.0 * scale)
    assert region.kind == "polygon"
    tol = 1e-9 * scale
    probe = 2 * np.pi * (np.arange(4096) + 0.5) / 4096
    u = np.exp(1j * probe)[:, None]
    assert ((u * pts).real.max(axis=1) - (u * region.vertices).real.max(axis=1)).max() <= tol
    s = (np.exp(1j * thetas)[:, None] * region.vertices).real.max(axis=1)
    assert (s - offsets).max() <= tol


@pytest.mark.parametrize("m, scale, gap", [
    pytest.param(2048, 1.0, 5.2639e-4, id="1.0"),
    pytest.param(2048, 1e2, 5.2639e-4, id="100.0"),
    pytest.param(2048, 1e4, 5.2639e-4, id="10000.0"),
    pytest.param(65536, 1e2, 2.8693e-5, id="65536-100.0"),
    pytest.param(65536, 1e4, 2.8693e-5, id="65536-10000.0"),
    pytest.param(65536, 1e8, 2.8693e-5, id="65536-1e8")])
def test_engine_polygon_distance_is_scale_free(m, scale, gap):
    # pruning collinear runs used to leave vertex pairs 1e-13 * scale apart
    # whose edge normals are rounding noise, and the support lookup then
    # picked a wrong vertex: hausdorff / scale read about 1.5 at scale 1e2;
    # at scale 1e8 and m = 65536 absolute thresholds kept 28,798 vertices
    pts = np.array([0.5 - 0.8j, 0.5 + 0.2j, -0.7 + 0.4j, -0.2 - 0.4j])
    unit = intersect_halfplanes(*grid_support(pts, m), bound=2.0)
    region = intersect_halfplanes(*grid_support(scale * pts, m), bound=2.0 * scale)
    assert region.vertices.size == unit.vertices.size
    true = ConvexRegion.polygon(scale * pts)
    want = brute_force_hausdorff(region, true) / scale
    assert want == pytest.approx(gap, rel=1e-4)
    assert abs(hausdorff(region, true) / scale - want) <= 1e-9


PENTAGON = np.exp(2j * np.pi * np.arange(5) / 5)


def empty_pentagon_planes(m=2048):
    """Rank-3 offsets of the regular pentagon's normal matrix: the hulls of
    its 3-point subsets share no point."""
    thetas = 2 * np.pi * np.arange(m) / m
    return thetas, np.median((np.exp(1j * thetas)[:, None] * PENTAGON).real, axis=1)


def test_empty_grid_range_is_certified():
    # the deque scan alone leaves a spurious point here, so the support
    # check must reject it
    assert intersect_halfplanes(*empty_pentagon_planes(), bound=2.0).is_empty


def sweep_halfplanes(t, k, m):
    """The angles, offsets and bound ``range_from_sweep`` passes the engine."""
    sweep = pencil_sweep(t, m)
    return sweep.thetas, sweep.eigenvalues[:, k - 1] / 2.0, 2.0 * sweep.numerical_radius() or 1.0


def unit_planes(thetas, offsets, bound):
    """The normalised, relaxed planes ``intersect_halfplanes`` hands the scan."""
    return _unit_planes(angle_frame(thetas), offsets, bound)


def sweep_planes(t, k, m):
    """The normalised, relaxed planes ``range_from_sweep`` hands the scan."""
    return unit_planes(*sweep_halfplanes(t, k, m))


def scanned_planes(planes, monkeypatch):
    """``_facet_planes`` on the planes, and the number of planes it handed
    the deque scan (0 when its certificate returned)."""
    sizes = []

    def spy(*args):
        sizes.append(len(args[0]))
        return _active_chain(*args)

    monkeypatch.setattr(geometry, "_active_chain", spy)
    kept = _facet_planes(*planes)[0]
    monkeypatch.undo()
    return kept, sum(sizes)


def full_scan(planes):
    return _active_chain(*(a.tolist() for a in planes))


def test_locally_convex_certificate_matches_scan(monkeypatch):
    faceted = np.diag(PENTAGON * (1 + 0.3 * np.arange(5)))
    gauss = random_matrix(6, generator(1))
    # (planes, how _facet_planes must end: "first" when the first round
    # certifies every plane, "later" when a later round certifies the
    # planes left, "scan" when the deque scan runs, None for any of them)
    cases = [(sweep_planes(shift_matrix(4), 1, 8192), "first"),
             (sweep_planes(shift_matrix(8), 1, 8192), "first"),
             (sweep_planes(gauss, 1, 8192), "first"),
             # a disc of radius 4e-7 * bound: its grid planes cut their
             # neighbours' corners by less than CLIP_EPS until pruned
             (sweep_planes(shift_matrix(4) + 1e6 * np.eye(4), 1, 8192), "later"),
             (sweep_planes(gauss, 2, 8192), "later"),  # swallowtail
             (sweep_planes(np.diag([-1.0, 0.2, 0.5, 1.5]), 1, 2048), None),  # segment
             (unit_planes(*empty_pentagon_planes(), 2.0), "scan")]
    cases += [(sweep_planes(faceted, k, 65536), "scan") for k in (1, 2, 3)]
    for planes, ending in cases:
        kept, scanned = scanned_planes(planes, monkeypatch)
        every = kept is not None and kept.size == planes[0].size
        if ending is not None:
            assert ending == ("scan" if scanned else "first" if every else "later")
        if every:
            assert np.array_equal(kept, full_scan(planes))
        elif not scanned:
            # the scan keeps every plane that a later round certified
            chain = full_scan(tuple(a[kept] for a in planes))
            assert np.array_equal(chain, np.arange(kept.size))


def test_small_faceted_sets_scan_once_and_smooth_ones_stay_certified(monkeypatch):
    # a set of at most ONE_ROUND_PLANES planes whose first round finds a
    # plane implied takes that round's drops and one scan of the rest; a
    # smooth one keeps its first-round certificate, and a larger faceted
    # set goes through more rounds before it scans
    scans, rounds = [], []

    def spy(*args):
        scans.append(len(args[0]))
        return _active_chain(*args)

    def round_spy(*args):
        rounds.append(1)
        return run_drops(*args)

    run_drops = geometry._run_drops
    monkeypatch.setattr(geometry, "_active_chain", spy)
    monkeypatch.setattr(geometry, "_run_drops", round_spy)
    for planes in (sweep_planes(shift_matrix(4), 1, 128),
                   unit_planes(TWO_PI * np.arange(64) / 64, np.ones(64), 2.0),
                   sweep_planes(random_matrix(5, generator(2)), 1, 256)):
        scans.clear()
        kept, certified = _facet_planes(*planes)
        assert certified and scans == [] and kept.size == planes[0].size
    sweep = pencil_sweep(NORMAL_DIAG, 65536)
    for k in (1, 2):
        planes = _unit_planes(sweep.frame, sweep.column(k - 1, sweep.planes) / 2.0,
                              sweep.region_bound)
        assert planes[0].size <= geometry.ONE_ROUND_PLANES
        scans.clear()
        rounds.clear()
        _, certified = _facet_planes(*planes)
        assert len(scans) == 1 and rounds == [1] and not certified, k
    # a pentagon's support at count angles clear of the square's, which
    # add four planes
    pentagon = ConvexRegion.polygon(PENTAGON)
    for count in (geometry.ONE_ROUND_PLANES - 4, geometry.ONE_ROUND_PLANES - 3):
        thetas = TWO_PI * (np.arange(count) + 0.3) / count
        planes = unit_planes(thetas, support(pentagon, thetas), 2.0)
        scans.clear()
        rounds.clear()
        _facet_planes(*planes)
        assert len(scans) == 1
        assert (len(rounds) == 1) == (planes[0].size <= geometry.ONE_ROUND_PLANES), count


FILTER_RNG = generator(7)
NORMAL_DIAG = np.diag(FILTER_RNG.normal(size=6) + 1j * FILTER_RNG.normal(size=6))
HERM_DIAG = np.diag(np.sort(FILTER_RNG.normal(size=5)).astype(complex))


@pytest.mark.parametrize("t, k, m, kind", [
    pytest.param(NORMAL_DIAG, 1, 65536, "polygon", id="normal-k1"),
    pytest.param(NORMAL_DIAG, 2, 65536, "polygon", id="normal-k2"),
    pytest.param(NORMAL_DIAG, 3, 65536, "empty", id="normal-k3"),
    pytest.param(HERM_DIAG, 1, 65536, "segment", id="herm-segment"),
    pytest.param(HERM_DIAG, 3, 65536, "point", id="herm-point"),
    pytest.param(random_matrix(6, generator(1)), 2, 8192, "polygon", id="swallowtail")])
def test_plane_filter_keeps_the_full_scan_region(t, k, m, kind, monkeypatch):
    thetas, offsets, bound = sweep_halfplanes(t, k, m)
    planes = unit_planes(thetas, offsets, bound)
    kept, scanned = scanned_planes(planes, monkeypatch)
    # the bundles of grid planes through each vertex are pruned first, and
    # a swallowtail's crossing wings are cut
    assert scanned <= planes[0].size // 16
    region = intersect_halfplanes(thetas, offsets, bound)
    full = _unit_region(planes, full_scan(planes))
    assert region.kind == full.kind == kind
    if region.is_empty:
        return
    all_t, _, _, cuts = planes
    dropped = np.setdiff1d(np.arange(all_t.size), kept)
    unit = ConvexRegion(region.kind, region.vertices / bound)
    assert (support(unit, all_t[dropped]) - (cuts[dropped] - CLIP_EPS)).max() <= 1e-9
    assert hausdorff(unit, full) <= 1e-11


def lexsort_normalize(thetas, offsets):
    """The plane merge as it was, sorting on (angle, offset)."""
    thetas = np.mod(thetas, TWO_PI)
    order = np.lexsort((offsets, thetas))
    thetas, offsets = thetas[order], offsets[order]
    starts = np.flatnonzero(np.diff(thetas, prepend=-np.inf) > 1e-12)
    thetas, offsets = thetas[starts], np.minimum.reduceat(offsets, starts)
    if thetas.size > 1 and (thetas[0] + TWO_PI) - thetas[-1] <= 1e-12:
        offsets[0] = min(offsets[0], offsets[-1])
        thetas, offsets = thetas[:-1], offsets[:-1]
    return thetas, offsets


@st.composite
def plane_sets(draw):
    """Shuffled planes with exact angle ties at other offsets, near-ties
    within 1e-12, and duplicates across the 0 / 2 pi seam."""
    angles = draw(st.lists(st.floats(-TWO_PI, 2 * TWO_PI), min_size=1, max_size=10))
    nudges = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 4e-13, -7e-13, 3e-12])
    ties = draw(st.lists(st.tuples(st.integers(0, len(angles) - 1), nudges), max_size=10))
    angles += [angles[i] + d for i, d in ties]
    angles += draw(st.lists(st.sampled_from([0.0, TWO_PI, TWO_PI - 1e-12, TWO_PI - 3e-13,
                                             -2e-13, 1e-13]), max_size=4))
    offsets = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(angles), max_size=len(angles)))
    order = draw(st.permutations(range(len(angles))))
    return np.array(angles)[order], np.array(offsets)[order]


@given(plane_sets())
@settings(max_examples=300, deadline=None)
def test_normalize_planes_matches_the_lexsort_order(planes):
    # an equal-angle group keeps only its minimum, so sorting on the angle
    # alone gives the same planes; a zero minimum may differ in sign only
    want_t, want_b = lexsort_normalize(*planes)
    got_t, merge = _sort_angles(planes[0])
    got_b = _merge_offsets(merge, planes[1])
    assert got_t.tobytes() == want_t.tobytes()
    assert np.array_equal(got_b, want_b)


@given(plane_sets(), st.data())
@settings(max_examples=150, deadline=None)
def test_shared_frame_gives_the_fresh_frame_region(planes, data):
    # one frame cut at several offset vectors gives, bit for bit, what each
    # call building its own frame gives, and its planes are the angles with
    # the square appended, merged as they were; the frame stays as built
    thetas = planes[0]
    frame = angle_frame(thetas)
    built = [a.copy() for a in (frame.thetas, frame.cos, frame.sin)]
    for _ in range(3):
        offsets = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=thetas.size,
                                              max_size=thetas.size)))
        fresh = intersect_halfplanes(thetas, offsets, 2.0)
        shared = intersect_halfplanes(thetas, offsets, 2.0, frame=frame)
        assert shared.kind == fresh.kind
        assert shared.vertices.tobytes() == fresh.vertices.tobytes()
        want_t, want_b = lexsort_normalize(np.concatenate([thetas, np.arange(4) * (np.pi / 2)]),
                                           np.concatenate([offsets / 2.0, np.ones(4)]))
        all_t, cos_t, sin_t, cuts = _unit_planes(frame, offsets, 2.0)
        assert all_t.tobytes() == want_t.tobytes()
        assert np.array_equal(cuts, want_b + CLIP_EPS)
        assert cos_t.tobytes() == np.cos(want_t).tobytes()
    after = (frame.thetas, frame.cos, frame.sin)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(built, after))


def test_exact_remainder_is_numpy_bit_for_bit():
    # the frame skips the remainder inside the interval where it is the
    # identity; the edges, signed zeros and far angles take numpy's
    edges = [0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0), np.nextafter(-TWO_PI, 0),
             1e-300, -1e-300, 4 * TWO_PI, np.pi, -np.pi, 1e17, -1e17]
    x = np.concatenate([edges, np.random.default_rng(3).uniform(-30, 30, 1000)])
    assert _exact_remainder(x, TWO_PI).tobytes() == np.mod(x, TWO_PI).tobytes()


def test_frame_of_other_angles_is_rejected():
    thetas = np.arange(8) * (np.pi / 4)
    with pytest.raises(ValueError, match="other angles"):
        intersect_halfplanes(thetas, np.ones(8), 2.0, frame=angle_frame(thetas[:7]))


@pytest.mark.parametrize("t, k", [
    pytest.param(NORMAL_DIAG, 1, id="normal-k1"),
    pytest.param(NORMAL_DIAG, 2, id="normal-k2"),
    pytest.param(NORMAL_DIAG, 3, id="normal-k3"),
    pytest.param(HERM_DIAG, 1, id="herm-segment"),
    pytest.param(HERM_DIAG, 3, id="herm-point")])
def test_faceted_bundles_drop_in_one_round(t, k, monkeypatch):
    # a run of implied planes drops against its two kept ends at once, so
    # the bundles of grid planes through the vertices go in one round;
    # dropping every other implied plane per round halves each bundle and
    # takes twelve rounds over m/16 planes here
    m = 65536
    planes = sweep_planes(t, k, m)
    corners, sizes = geometry._corners, []

    def spy(*args):
        x, y, det = corners(*args)
        sizes.append(det.size)
        return x, y, det

    monkeypatch.setattr(geometry, "_corners", spy)
    _facet_planes(*planes)
    assert sizes[0] == planes[0].size
    assert sum(size > m // 16 for size in sizes) <= 2


def bisection_support(region, thetas, cos_t, sin_t):
    """``_support_candidates`` as it was: each angle's supporting vertex by
    bisection of the sorted edge normals."""
    v = region.vertices
    if v.size < 3:
        cand = np.broadcast_to(np.arange(v.size)[:, None], (v.size, thetas.size))
    else:
        normals = np.angle(-1j * (np.roll(v, -1) - v))
        order = np.argsort(normals)
        phi = np.mod(np.pi - thetas, TWO_PI) - np.pi
        first = order[np.searchsorted(normals[order], phi) % v.size]
        cand = (first + np.array([-1, 0, 1])[:, None]) % v.size
    return cand, cos_t * v.real[cand] - sin_t * v.imag[cand]


@pytest.mark.parametrize("t, k, m, kind", [
    pytest.param(HERM_DIAG, 3, 4096, "point", id="point"),
    pytest.param(HERM_DIAG, 1, 4096, "segment", id="segment"),
    pytest.param(NORMAL_DIAG, 2, 65536, "polygon", id="faceted"),
    pytest.param(random_matrix(5, generator(3)), 1, 8192, "polygon", id="smooth"),
    pytest.param(NORMAL_DIAG, 1, 65536, "polygon", id="faceted-k1"),
    pytest.param(HERM_DIAG, 3, 65536, "point", id="point-65536"),
    pytest.param(HERM_DIAG, 1, 65536, "segment", id="segment-65536")])
def test_emptiness_support_is_the_support_function(t, k, m, kind):
    # the emptiness check reuses the unit frame's cosines and sines, and
    # finds the supporting vertices by run length, bit for bit as bisection;
    # "smooth" is a polygon with a vertex on each of its 8192 planes
    planes = unit_planes(*sweep_halfplanes(t, k, m))
    region = _unit_region(planes, *_facet_planes(*planes))
    assert region.kind == kind
    all_t, cos_t, sin_t, _ = planes
    cand, h = _support_candidates(region, all_t, cos_t, sin_t)
    want_cand, want_h = bisection_support(region, all_t, cos_t, sin_t)
    assert np.array_equal(cand, want_cand)
    assert h.tobytes() == want_h.tobytes()
    got = h.max(axis=0)
    assert got.tobytes() == support(region, all_t).tobytes()
    v = region.vertices
    every = np.cos(all_t)[:, None] * v.real - np.sin(all_t)[:, None] * v.imag
    assert np.array_equal(got, every.max(axis=1))
    # unsorted, negative and past 2 pi
    rng = np.random.default_rng(m)
    query = rng.permutation(all_t)[:1024] + TWO_PI * rng.integers(-3, 4, size=1024)
    every = np.cos(query)[:, None] * v.real - np.sin(query)[:, None] * v.imag
    assert np.array_equal(support(region, query), every.max(axis=1))


def test_swallowtail_scan_sees_few_planes(monkeypatch):
    # fine_grid's seed-1 Gaussian n = 4 (drawn after its n = 6), k = 2, m = 16384
    rng = np.random.default_rng(1)
    rng.normal(size=(2, 6, 6))
    t = random_matrix(4, rng)
    planes = sweep_planes(t / np.linalg.norm(t, 2), 2, 16384)
    _, scanned = scanned_planes(planes, monkeypatch)
    assert scanned <= 16384 // 16


REPLAY_KINDS = ("shift", "gauss", "herm", "normal", "nilpotent")


def replay_matrix(kind, n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "shift":
        return shift_matrix(n)
    if kind == "herm":
        return g + g.conj().T
    if kind == "normal":
        q = np.linalg.qr(g)[0]
        return q @ np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)) @ q.conj().T
    if kind == "nilpotent":
        return np.tril(g, -1)
    return g


def test_facet_planes_replay_the_full_scan():
    # every rank of seeded inputs of each kind: the pruned planes give the
    # full scan's tag and region within 1e-11 * bound
    rng = generator(17)
    for kind in REPLAY_KINDS:
        for n in (3, 5, 8):
            t = 10.0 ** rng.integers(-8, 9) * replay_matrix(kind, n, rng)
            for m in (720, 2048):
                sweep = pencil_sweep(t, m)
                bound = 2.0 * sweep.numerical_radius() or 1.0
                for k in range(1, n + 1):
                    planes = unit_planes(sweep.thetas, sweep.eigenvalues[:, k - 1] / 2.0, bound)
                    ours = _unit_region(planes, *_facet_planes(*planes))
                    full = _unit_region(planes, full_scan(planes))
                    assert ours.kind == full.kind, (kind, n, m, k)
                    if not ours.is_empty:
                        assert hausdorff(ours, full) <= 1e-11, (kind, n, m, k)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["gauss", "nilpotent"]), st.integers(3, 8),
       st.integers(2, 3), st.sampled_from([720, 2048, 8192]), st.floats(-8, 8))
@example(1, "gauss", 6, 2, 8192, 0.0)
@settings(max_examples=30, deadline=None)
def test_swallowtail_wing_cut_keeps_the_full_scan_region(seed, kind, n, k, m, log_scale):
    # a k >= 2 swallowtail's crossing wings are cut: the full scan's tag,
    # its region within 1e-12 * bound, and every dropped plane holds the
    # region within the chained bound of _facet_planes' docstring, 1e-9
    t = 10.0 ** log_scale * replay_matrix(kind, n, generator(seed))
    planes = sweep_planes(t, k, m)
    kept, certified = _facet_planes(*planes)
    ours = _unit_region(planes, kept, certified)
    full = _unit_region(planes, full_scan(planes))
    assert ours.kind == full.kind
    if full.is_empty:
        return
    assert hausdorff(ours, full) <= 1e-12
    all_t, _, _, cuts = planes
    dropped = np.setdiff1d(np.arange(all_t.size), kept)
    if dropped.size:
        assert (support(ours, all_t[dropped]) - cuts[dropped]).max() <= 1e-9


def test_wing_gap_keeps_the_chained_bound_within_the_check():
    # sec(G / 2) times CLIP_EPS * sum_{i < R + 1} sec(pi/32)^i is 1e-9, and
    # G admits the corners of fine_grid's swallowtails (up to 2.5 rad)
    s = 1 / np.cos(np.pi / 32)
    for m in (8192, 16384, 2**16, 2**20):
        rounds = np.log(m) / np.log(16 / 15) + 1
        chained = CLIP_EPS * (s ** rounds - 1) / (s - 1)
        assert chained / np.cos(geometry._wing_gap(m) / 2) == pytest.approx(1e-9)
    assert geometry._wing_gap(16384) > 2.5
    assert geometry._wing_gap(64) == 15 * np.pi / 16


def certified_chains_pass_the_check(planes):
    """On a certified chain, the emptiness check that ``_unit_region``
    skips would not fire: every plane holds the classified region within
    1e-9, so checking gives the same region.  Returns whether it was one."""
    dq, certified = _facet_planes(*planes)
    if not certified:
        return False
    region = _unit_region(planes, dq, True)
    assert not region.is_empty
    all_t, cos_t, sin_t, cuts = planes
    assert (_support_candidates(region, all_t, cos_t, sin_t)[1].max(axis=0) - cuts).max() <= 1e-9
    checked = _unit_region(planes, dq)
    assert checked.kind == region.kind
    assert checked.vertices.tobytes() == region.vertices.tobytes()
    return True


@given(plane_sets())
@settings(max_examples=300, deadline=None)
def test_certified_chains_pass_the_emptiness_check_on_plane_sets(planes):
    certified_chains_pass_the_check(unit_planes(*planes, 2.0))


def test_certified_chains_pass_the_emptiness_check_on_sweeps():
    rng, certified = generator(23), 0
    for kind in REPLAY_KINDS:
        for n in (3, 5, 8):
            t = 10.0 ** rng.integers(-8, 9) * replay_matrix(kind, n, rng)
            for m in (720, 2048, 8192):
                sweep = pencil_sweep(t, m)
                bound = 2.0 * sweep.numerical_radius() or 1.0
                for k in range(1, n + 1):
                    planes = unit_planes(sweep.thetas, sweep.eigenvalues[:, k - 1] / 2.0, bound)
                    certified += certified_chains_pass_the_check(planes)
    assert certified >= 50


def replay_battery():
    """The cases (kind, n, m, T) of ``scripts/replay_engine.py``'s battery."""
    spec = importlib.util.spec_from_file_location("replay_engine", REPLAY_SCRIPT)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return replay.battery()


def test_wing_cut_leaves_the_normal_toeplitz_replay_case():
    # the replay's normal tridiagonal Toeplitz n = 12 cases (tie planes of a
    # spectrum sweep, k = 1..n): a wing cut with a relaxed drop test moved
    # one of these regions by 6.5e-10 * bound; here each rank is the scan's
    cases = [(m, t) for kind, n, m, t in replay_battery() if (kind, n) == ("normal-toeplitz", 12)]
    assert [m for m, _ in cases] == [2048, 8192]
    for m, t in cases:
        sweep = pencil_sweep(t, m)
        bound = 2.0 * sweep.numerical_radius() or 1.0
        for k in range(1, 13):
            planes = _unit_planes(sweep.frame, sweep.eigenvalues[sweep.planes, k - 1] / 2.0, bound)
            ours = _unit_region(planes, *_facet_planes(*planes))
            full = _unit_region(planes, full_scan(planes))
            assert ours.kind == full.kind, (m, k)
            if not ours.is_empty:
                assert hausdorff(ours, full) <= 1e-12, (m, k)


def test_plane_filter_keeps_planes_that_cut_a_relaxed_corner():
    # nine planes through one point: two tight planes nearly a half-turn
    # apart have a relaxed corner 1.1e-10 out, and a filter that tested the
    # planes against unrelaxed corners dropped tight planes and moved the
    # point by 3.7e-11 * bound
    thetas = np.array([0.679, -1.371, 3.222, 2.341, 0.080, -1.353, 1.789, 1.771, -1.358])
    p = 0.0778 - 0.3105j
    region = intersect_halfplanes(thetas, (np.exp(1j * thetas) * p).real, bound=2.4)
    assert region.kind == "point"
    assert abs(region.vertices[0] - p) <= 1e-12 * 2.4


def block_runs(func, condition, call):
    """Whether the first line of the block under ``condition`` (a line of
    ``func``'s source, stripped) runs during ``call()``.  Every event also
    goes on to the trace function installed before, so that an outer line
    trace (a coverage run) sees the lines run inside the call."""
    lines, first = inspect.getsourcelines(func)
    target = first + [line.strip() for line in lines].index(condition) + 1
    code, hit = func.__code__, []
    previous = sys.gettrace()

    def chained(outer, ours):
        # the frame's local trace: ours (in func's frames) and the outer one's
        def local(frame, event, arg):
            nonlocal outer
            if ours and event == "line" and frame.f_lineno == target:
                hit.append(target)
            if outer is not None:
                outer = outer(frame, event, arg)
            return local if ours or outer is not None else None
        return local

    def start(frame, event, arg):
        outer = None if previous is None else previous(frame, event, arg)
        ours = frame.f_code is code
        return chained(outer, ours) if ours or outer is not None else None

    sys.settrace(start)
    try:
        call()
    finally:
        sys.settrace(previous)
    return bool(hit)


def test_block_runs_passes_every_event_to_the_outer_trace():
    # one block_runs inside another: the outer one sees the line that the
    # inner one pins, as a whole-suite line trace must
    loop = np.array([0, 1, 1 + 1j, 0.5 + 0.2j, 1j])
    condition = "if (turns <= 0).any() or turns.sum() >= 3 * np.pi:"
    inner = []
    assert block_runs(geometry._classify, condition, lambda: inner.append(
        block_runs(geometry._classify, condition, lambda: geometry._classify(loop))))
    assert inner == [True]


def test_classify_replaces_a_reversing_spike_by_the_hull():
    # a square whose fourth edge dents in to a vertex that turns right
    loop = np.array([0, 1, 1 + 1j, 0.5 + 0.2j, 1j])
    out = []
    assert block_runs(geometry._classify, "if (turns <= 0).any() or turns.sum() >= 3 * np.pi:",
                      lambda: out.append(geometry._classify(loop)))
    assert out[0].kind == "polygon"
    assert np.array_equal(out[0].vertices, [0, 1, 1 + 1j, 1j])


@pytest.mark.parametrize("loop, square", [
    (np.tile(np.array([0, 1, 1 + 1j, 1j]), 2), [0, 1, 1 + 1j, 1j]),
    (np.array([0, 2, 2 + 2j, 1 + 1j, 2j]), [0, 2, 2 + 2j, 2j]),
], ids=["wound-twice", "dented"])
def test_classify_falls_back_to_the_hull(loop, square):
    # a unit square wound twice turns by 4 pi, and a pentagon dented in to
    # the centre of its square turns right there: each is its hull
    out = []
    assert block_runs(geometry._classify, "if (turns <= 0).any() or turns.sum() >= 3 * np.pi:",
                      lambda: out.append(geometry._classify(loop)))
    assert out[0].kind == "polygon"
    assert np.array_equal(out[0].vertices, square)


def test_classify_sends_a_loop_pruned_below_three_vertices_back():
    # a sliver triangle 2e-13 high, wound 30000 times: thick enough by area
    # (3e-9 over a diameter of 1), but each vertex lies within CLIP_EPS of
    # its neighbours' chord, so the pruned loop keeps the two ends
    loop = np.tile(np.array([0, 0.5 - 2e-13j, 1]), 30000)
    out = []
    assert block_runs(geometry._classify, "if verts.size < 3:",
                      lambda: out.append(geometry._classify(loop)))
    assert out[0].kind == "segment"
    assert np.array_equal(out[0].vertices, [0, 1])


def test_classify_finds_a_wound_sliver_segment_from_the_whole_loop():
    # the same sliver walked 0, 1, apex: on a loop that revisits its
    # vertices the prune's rounds keep 0 and the apex, and a segment
    # taken from those survivors lost the end at 1
    loop = np.tile(np.array([0, 1, 0.5 + 2e-13j]), 30000)
    region = geometry._classify(loop)
    assert region.kind == "segment"
    assert np.array_equal(region.vertices, [0, 1])


def test_scanned_antiparallel_neighbours_give_empty():
    # x <= 0.3 and x >= 0.3 + 2e-12: the relaxed cuts leave a strip -5.6e-17
    # wide, so the scan pops the square's plane between the two, and their
    # corner is improper
    planes = unit_planes(np.array([0.0, np.pi]), np.array([0.6, -0.6 - 4e-12]), 2.0)
    dq = full_scan(planes)
    assert planes[0][dq].tolist() == [0.0, np.pi, 1.5 * np.pi]
    out = []
    assert block_runs(_unit_region, "if not proper.all():",
                      lambda: out.append(_unit_region(planes, dq)))
    assert out[0].is_empty


def test_closing_front_pop_runs_on_a_tie_plane_set():
    # rank 3 of a diagonal n = 6 (the 40th draw of generator(20243), one of
    # acceptance criterion 6's normals) at m = 65536: its tie planes, after
    # the first round's drops, leave the scan's main loop with a front
    # plane that the corner at the back cuts away, which the closing loop
    # alone pops; the range is empty, as over every plane and by the oracle
    from hrnr.checks import normal_oracle
    from hrnr.ranges import PencilSweep, range_from_sweep

    rng = generator(20243)
    for i in range(40):
        eigs = rng.normal(size=5 + i % 2) + 1j * rng.normal(size=5 + i % 2)
    eigs /= np.abs(eigs).max()
    sweep = pencil_sweep(np.diag(eigs), 65536)
    out = []
    assert block_runs(_active_chain, "if _cuts(corners[0], cos_t[b], sin_t[b], cuts[b]):",
                      lambda: out.append(range_from_sweep(sweep, 3).region))
    assert out[0].is_empty and normal_oracle(eigs, 3).is_empty
    assert range_from_sweep(PencilSweep(65536, sweep.eigenvalues), 3).region.is_empty


def rippled_planes(p, eps, phase, second=(0.0, 0, 0.0), m=720):
    """The unit planes of the offsets of an ellipse with semi-axes 1 and
    0.004 plus eps cos(p theta + phase) and a second ripple (amplitude,
    frequency, phase), at bound 4: swallowtails wider than the ellipse."""
    thetas = 2 * np.pi * np.arange(m) / m
    offsets = (np.hypot(np.cos(thetas), 0.004 * np.sin(thetas)) + eps * np.cos(p * thetas + phase)
               + second[0] * np.cos(second[1] * thetas + second[2]))
    return unit_planes(thetas, offsets, 4.0)


def swallowtail_planes(m, k):
    """The planes of rank k of the replay battery's Gaussian swallowtail
    n = 6 at m angles."""
    t = next(t for kind, n, mm, t in replay_battery()
             if (kind, n, mm) == ("gauss-swallowtail", 6, m))
    return sweep_planes(t, k, m)


@pytest.mark.parametrize("planes, condition", [
    pytest.param(lambda: sweep_planes(np.random.default_rng(127).normal(size=(8, 8)), 4, 720),
                 "if len(pairs) > 1 and pairs[-1][1] >= pairs[0][0] + n:", id="seam-pair"),
    pytest.param(lambda: rippled_planes(10, 0.002, np.pi / 2), None, id="previous-run"),
    pytest.param(lambda: rippled_planes(11, 0.2, 2.9, (0.15, 7, 4.0)), None, id="run-across-ends"),
    pytest.param(lambda: swallowtail_planes(16384, 3),
                 "if side == 1 and j + 1 < len(first):  # take in the next run", id="next-run"),
    pytest.param(lambda: swallowtail_planes(8192, 3),
                 "if side == -1 and j == 0 and len(first) > 1:  # take in the last run",
                 id="last-run"),
])
def test_wing_round_merges_keep_the_full_scan_region(planes, condition):
    # the last junction's pair reaching past the first one's; two ripples
    # whose crossings lie beyond a run that a pair may hold (the previous
    # run, and the first run across the ends of the list), so those
    # junctions are left uncut and the scan takes their planes; and the
    # replay's swallowtails, where a junction takes in the next run and the
    # first junction the last run: each keeps the scan's region
    planes = planes()
    out = []

    def call():
        out.append(_facet_planes(*planes))

    if condition is None:
        call()
    else:
        assert block_runs(geometry._wing_drops, condition, call)
    ours = _unit_region(planes, *out[0])
    full = _unit_region(planes, full_scan(planes))
    assert ours.kind == full.kind
    if not full.is_empty:
        assert hausdorff(ours, full) <= 1e-12


@pytest.mark.xfail(strict=True, reason="the planes bound a line, not the segment: two are "
                   "bit-identical and the third antiparallel with the opposite offset, so "
                   "their exact intersection is the line's chord")
def test_sliver_triangle_edges_give_their_segment():
    # three collinear lattice points, scaled and translated: rounding makes
    # their hull a sliver triangle, but two of its edge planes are
    # bit-identical and the third is antiparallel to them with the opposite
    # offset (to 3 ulps).  Nothing caps the segment's ends, so the exact
    # intersection of the unrelaxed planes is the chord of the points' line,
    # 1.54 * bound from the segment that this asks for
    pts = np.array([-1.75e-5 - 2.2269e-4j, 3.25e-5 - 3.2269e-4j, -6.75e-5 - 1.2269e-4j])
    thetas = np.pi / 2 - np.angle(np.roll(pts, -1) - pts)
    offsets = (np.exp(1j * thetas)[:, None] * pts).real.max(axis=1)
    bound = 3.24e-4
    region = intersect_halfplanes(thetas, offsets, bound)
    assert not region.is_empty
    assert hausdorff(region, ConvexRegion.segment(pts[1], pts[2])) <= 1e-9 * bound


def test_classify_keeps_a_dense_regular_loop():
    # the regular 65,536-gon of circumradius 1.09e-8: vertices 1e-12 apart,
    # each some 5e-17 from its neighbours' chord.  Classified, it should stay
    # a polygon near the loop, as the intersection of its 65,536 planes
    # does (256 vertices, 8.2e-13 away)
    m, rho = 65536, 1.09e-8
    loop = ConvexRegion.polygon(rho * geometry._regular_directions(m))
    thetas = 2.0 * np.pi * np.arange(m) / m
    scan = intersect_halfplanes(thetas, np.full(m, rho * np.cos(np.pi / m) - CLIP_EPS), 1.0)
    assert scan.kind == "polygon" and hausdorff(scan, loop) <= 1e-12
    region = geometry._classify(loop.vertices)
    assert region.kind == "polygon"
    assert hausdorff(region, loop) <= 1e-11


@pytest.mark.parametrize("m", [16, 17, 720, 8192, 65536])
def test_regular_polygon_skips_classify_with_its_bytes(m, monkeypatch):
    # a regular m-gon well clear of the point and segment collapses, and
    # whose vertices lie more than 2 CLIP_EPS from their neighbours' chords,
    # is returned without _classify: the bytes _classify would return.  A
    # dense or a small one is the intersection of its m planes, bit for bit.
    # A small one that is not dense (only m = 16 and 17 here) is also
    # _classify's collapse of the closed-form loop, of the same kind: a point
    # or a polygon to rounding, a segment within the loop's diameter, as a
    # round loop's segment may lie along any of its diameters
    classify, calls = geometry._classify, []
    monkeypatch.setattr(geometry, "_classify", lambda v: calls.append(1) or classify(v))
    skipped = small = 0
    for bound in (1.0, 3.7e-8, 2.5e7):
        for offset in 10.0 ** np.linspace(-12, np.log10(0.5), 60) * bound:
            radius = (offset / bound + CLIP_EPS) / np.cos(np.pi / m)
            calls.clear()
            got = geometry.regular_polygon(m, offset, bound)
            dense = radius * (1.0 - np.cos(2.0 * np.pi / m)) <= 2.0 * CLIP_EPS
            if dense or radius < 2.0 * max(geometry.POINT_DIAM, geometry.SEGMENT_THICKNESS):
                want = intersect_halfplanes(geometry.grid_angles(m), np.full(m, offset), bound)
                assert got.kind == want.kind, (bound, offset)
                assert got.vertices.tobytes() == want.vertices.tobytes(), (bound, offset)
                if not dense:
                    old = classify(radius * geometry._regular_directions(m))
                    assert got.kind == old.kind, (bound, offset)
                    tol = 2.0 * radius if old.kind == "segment" else 1e-12
                    assert hausdorff(got, ConvexRegion(old.kind, old.vertices * bound)) \
                        <= tol * bound, (bound, offset)
                    small += 1
                continue
            want = classify(radius * geometry._regular_directions(m))
            assert got.kind == want.kind, (bound, offset)
            assert got.vertices.tobytes() == (want.vertices * bound).tobytes(), (bound, offset)
            assert calls == [], (bound, offset)
            assert got.vertices.size == m
            skipped += 1
    assert skipped >= 3 * 15
    assert (small > 0) == (m in (16, 17))


def pruned_in_rounds(loop):
    """``_prune_collinear(loop)`` and the number of rounds it ran (one
    ``_alternate_drops`` call a round)."""
    rounds, alternate = [], geometry._alternate_drops
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_alternate_drops", lambda flagged: rounds.append(1)
                   or alternate(flagged))
        pruned = _prune_collinear(loop)
    return pruned, len(rounds)


def collinear_flags(verts):
    """Whether each vertex lies within CLIP_EPS of its neighbours' chord."""
    a, c = np.roll(verts, 1), np.roll(verts, -1)
    e1, e2 = verts - a, c - verts
    return np.abs(e1.real * e2.imag - e1.imag * e2.real) <= CLIP_EPS * np.abs(c - a)


def check_pruned_in_rounds(loop):
    """The pruned loop, after checking that it is a subsequence of ``loop``
    in which no vertex is flagged, and that every dropped vertex lies
    within R CLIP_EPS of its boundary after R rounds."""
    pruned, rounds = pruned_in_rounds(loop)
    assert pruned.size < 3 or not collinear_flags(pruned).any()
    kept, j = [], 0
    for z in pruned.tolist():
        while loop[j] != z:
            j += 1
        kept.append(j)
        j += 1
    dropped = np.delete(loop, kept)
    assert (rounds == 0) == (dropped.size == 0)
    if dropped.size and pruned.size >= 3:
        gap = np.abs(signed_distance(dropped, ConvexRegion.polygon(pruned))).max()
        assert gap <= rounds * CLIP_EPS, (gap, rounds)
    return pruned


def test_prune_collinear_fast_path_and_runs():
    polygon = np.exp(2j * np.pi * np.arange(8192) / 8192)
    kept = _prune_collinear(polygon)
    assert kept is polygon and np.array_equal(kept, np.exp(2j * np.pi * np.arange(8192) / 8192))
    square = np.array([1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j])
    run = 1 + 1j * np.linspace(-1, 1, 52)[1:-1]
    with_run = np.concatenate([square[:1], run, square[1:]])
    assert np.array_equal(_prune_collinear(with_run), square)
    # a dense run collapses to its extremes, and a cluster at a corner to one vertex
    cluster = (1 + 1j) + np.array([-1e-13j, -5e-14, 3e-14 + 2e-14j, 7e-14j])
    with_cluster = np.concatenate([square[:1], cluster, square[2:]])
    pruned = _prune_collinear(with_cluster)
    assert pruned.size == 4
    assert np.array_equal(pruned[[0, 2, 3]], square[[0, 2, 3]])
    assert abs(pruned[1] - (1 + 1j)) <= 1e-13
    # its second vertex lies exactly CLIP_EPS from its neighbours' chord
    at_threshold = np.array([-1, -1e-12j, 1, 2j])
    assert _prune_collinear(at_threshold).size == 3
    # the rounds' contract, also on loops whose triples sit near the
    # threshold: small 1024-gons (a vertex lies 5.3e-8 * 1.9e-5 = 1e-12 from
    # its neighbours' chord at the middle radius) and runs with
    # perpendicular noise
    rng = np.random.Generator(np.random.PCG64(3))
    loops = [polygon, with_run, with_cluster, at_threshold]
    for radius, noise in [(3e-8, 3e-13), (5.3e-8, 1e-12), (1e-7, 3e-12)]:
        loops.append(radius * np.exp(2j * np.pi * np.arange(1024) / 1024))
        loops.append(np.concatenate([square[:1], run + noise * rng.normal(size=run.size),
                                     square[1:]]))
    for loop in loops:
        check_pruned_in_rounds(loop)


def convex_loop_with_runs(seed):
    """A convex counter-clockwise loop at a unit-frame scale 1e-8..1: a
    polygon inscribed in a circle, with some of its edges replaced by runs
    that bulge out by at most 2 CLIP_EPS, some of its corners by clusters
    on an arc of radius at most 3e-13 tangent to both edges, and some of
    its edges by dense arcs of a circle through their ends."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 10.0 ** rng.uniform(-8, 0)
    n = int(rng.integers(3, 10))
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    if (np.diff(angles, append=angles[0] + 2 * np.pi) < 0.05).any():
        angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    corners = scale * np.exp(1j * angles)
    loop = []
    for z, w, u in zip(np.roll(corners, 1), corners, np.roll(corners, -1)):
        edge = (w - z) / abs(w - z)
        kind = rng.integers(4)
        if kind == 1:  # a run from z to w, bulging out by a parabola
            t = np.sort(rng.uniform(0, 1, rng.integers(1, 60)))
            loop.extend(z + t * (w - z) - 4j * edge * rng.uniform(0, 2e-12) * t * (1 - t))
        elif kind == 2:  # dense arc from z to w, its circle's centre inside
            k = int(rng.integers(10, 2000))
            half = abs(w - z) / 2
            radius = half / np.sin(rng.uniform(1e-6, 0.5))
            centre = (z + w) / 2 + 1j * edge * np.sqrt(radius**2 - half**2)
            start, end = np.angle(z - centre), np.angle(w - centre)
            turn = np.mod(end - start + np.pi, 2 * np.pi) - np.pi
            loop.extend(centre + radius * np.exp(1j * (start + turn * np.arange(1, k) / k)))
        elif kind == 3:  # the corner w cut by an arc tangent to both edges
            a0 = np.angle(-1j * edge)
            turn = np.mod(np.angle(-1j * (u - w)) - a0, 2 * np.pi)
            radius = rng.uniform(0, 3e-13)
            centre = w - radius / np.cos(turn / 2) * np.exp(1j * (a0 + turn / 2))
            loop.extend(centre + radius * np.exp(1j * np.linspace(a0, a0 + turn,
                                                                   rng.integers(2, 7))))
            continue
        loop.append(w)
    return np.array(loop)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_prune_collinear_rounds_on_convex_loops(seed):
    check_pruned_in_rounds(convex_loop_with_runs(seed))


@given(st.integers(0, 2**32 - 1))
@example(11547)  # a sliver triangle against the bounding square
@settings(max_examples=60, deadline=None)
def test_random_plane_sets_match_brute_force(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    count = int(rng.integers(1, 9))
    thetas = rng.uniform(0, 2 * np.pi, count)
    unit = rng.uniform(-0.5, 1.5, count)
    for scale in (1e-8, 1.0, 1e8):
        offsets = scale * unit
        region = intersect_halfplanes(thetas, offsets, bound=3.0 * scale)
        corners = brute_force_corners(thetas, offsets, 3.0 * scale)
        assert region.is_empty == (corners.size == 0)
        if not region.is_empty:
            assert support_gap(region, corners) <= 1e-9 * scale


def tie_angles(points):
    """The angles at which two of the points project equally, both ways,
    the axis angles and the midpoint of every gap between them."""
    i, j = np.triu_indices(points.size, 1)
    diff = points[i] - points[j]
    ties = np.pi / 2 - np.angle(diff[diff != 0])
    ends = np.unique(np.mod(np.concatenate([ties, ties + np.pi, np.arange(4) * np.pi / 2]),
                            2 * np.pi))
    return np.concatenate([ends, ends + np.diff(ends, append=ends[0] + 2 * np.pi) / 2])


def test_degenerate_plane_sets_match_brute_force():
    rng = np.random.Generator(np.random.PCG64(21))
    p, a, b = 0.3 - 0.2j, -0.4 + 0.1j, 0.6 + 0.5j
    t_point = rng.uniform(0, 2 * np.pi, 7)
    # planes through one point
    point = (t_point, (np.exp(1j * t_point) * p).real)
    # tangents of a segment, including both of its normals
    t_seg = np.concatenate([rng.uniform(0, 2 * np.pi, 6),
                            np.pi / 2 - np.angle(b - a) + np.array([0.0, np.pi])])
    segment = (t_seg, (np.exp(1j * t_seg)[:, None] * np.array([a, b])).real.max(axis=1))
    # the four planes around a falling segment: at bound |1.5 - 1.5j| its
    # ends were sought along the bounding box's rising diagonal, which is
    # perpendicular to it, and came back as a segment of length zero
    t_fall = np.pi / 4 + np.arange(4) * np.pi / 2
    fall_ends = np.array([1 - 1j, 1.5 - 1.5j])
    falling = (t_fall, (np.exp(1j * t_fall)[:, None] * fall_ends).real.max(axis=1))
    # a polygon's support at its edge normals plus more planes per vertex
    pts = np.array([0.5 - 0.8j, 0.5 + 0.2j, -0.7 + 0.4j, -0.2 - 0.4j])
    t_shared = np.concatenate([np.pi / 2 - np.angle(np.roll(pts, -1) - pts),
                               rng.uniform(0, 2 * np.pi, 8)])
    shared = (t_shared, (np.exp(1j * t_shared)[:, None] * pts).real.max(axis=1))
    # one direction three times (0 and 2 pi among them): the tightest wins
    t_dup = np.array([0.0, 0.0, 2 * np.pi, 2.0, 4.0])
    duplicate = (t_dup, np.array([1.5, 0.5, 1.0, 0.7, 0.9]))
    # a point cut off by one opposing plane
    cut_off = (np.append(t_point, 0.0), np.append(point[1], p.real - 1e-6))
    # the three edges of a triangle, which meet nowhere
    tri = np.array([-1.3 + 0.6j, 2.6 - 0.2j, 0.5 + 0.1j])
    t_edges = np.repeat(-np.angle(np.roll(tri, -1) - tri), 4) + np.tile(np.arange(4), 3) * np.pi / 2
    ends = np.stack([np.repeat(tri, 4), np.repeat(np.roll(tri, -1), 4)], axis=1)
    edges = (t_edges, (np.exp(1j * t_edges)[:, None] * ends).real.max(axis=1))
    # the hull of ten points from the tie-angle planes of the normal oracle:
    # the scan's loop had a reversing spike of two 1.1e-11 edges there, so
    # the supporting vertex of the region was off by 1.08
    eigs_rng = generator(5)
    eigs_rng.normal(size=9)
    eigs_rng.normal(size=9)
    eigs = eigs_rng.normal(size=10) + 1j * eigs_rng.normal(size=10)
    t_ties = tie_angles(eigs)
    ties = (t_ties, (np.exp(1j * t_ties)[:, None] * eigs).real.max(axis=1))
    cases = [("point", point, 3.0), ("segment", segment, 3.0), ("polygon", shared, 3.0),
             ("empty", cut_off, 3.0), ("empty", edges, 3.0),
             ("segment", falling, abs(fall_ends[1])), ("polygon", ties, np.abs(eigs).max())]
    probe = np.linspace(-7, 7, 1001)
    for want, (thetas, offsets), bound in cases:
        region = intersect_halfplanes(thetas, offsets, bound=bound)
        assert region.kind == want
        corners = brute_force_corners(thetas, offsets, bound)
        assert corners.size > 0 or want == "empty"
        if corners.size:
            assert support_gap(region, corners) <= 1e-9
            vertex_max = (np.exp(1j * probe)[:, None] * region.vertices).real.max(axis=1)
            assert np.abs(support(region, probe) - vertex_max).max() <= 1e-12
    merged = intersect_halfplanes(*duplicate, bound=2.0)
    tight = intersect_halfplanes([0.0, 2.0, 4.0], [0.5, 0.7, 0.9], bound=2.0)
    assert merged.kind == tight.kind == "polygon"
    assert support_gap(merged, tight.vertices) <= 1e-12
    assert support_gap(merged, brute_force_corners(*duplicate, 2.0)) <= 1e-9


# --- support ----------------------------------------------------------------

def test_support_point():
    assert support(ConvexRegion.point(1 + 1j), 0.0) == pytest.approx(1.0)


def test_support_square_diagonal():
    assert support(UNIT_SQUARE, np.pi / 4) == pytest.approx(np.sqrt(2.0))


def test_support_segment_backwards():
    seg = ConvexRegion.segment(1.0, 2.0)
    assert support(seg, np.pi) == pytest.approx(-1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_support_curve_matches_vertex_maximum(seed):
    # the bisection over edge normals against the plain maximum over vertices
    region = random_convex_polygon(seed, nmax=40)
    thetas = np.random.Generator(np.random.PCG64(seed)).uniform(-7, 7, 500)
    want = (np.exp(1j * thetas)[:, None] * region.vertices).real.max(axis=1)
    assert np.abs(support(region, thetas) - want).max() <= 1e-12
    for small in (ConvexRegion.point(0.3 - 1j), ConvexRegion.segment(1.0, 2j)):
        want = (np.exp(1j * thetas)[:, None] * small.vertices).real.max(axis=1)
        assert np.abs(support(small, thetas) - want).max() <= 1e-12


def test_support_array_keeps_shape():
    thetas = np.array([[0.0, np.pi / 4], [np.pi, 3 * np.pi / 2]])
    got = support(UNIT_SQUARE, thetas)
    assert got.shape == (2, 2)
    assert np.allclose(got, [[1.0, np.sqrt(2.0)], [1.0, 1.0]], rtol=0, atol=1e-15)
    assert isinstance(support(UNIT_SQUARE, 0.0), float)


def test_support_empty_raises():
    with pytest.raises(EmptyRegionError):
        support(ConvexRegion.empty(), 0.0)


# --- hausdorff ---------------------------------------------------------------

def test_hausdorff_identical_zero():
    assert hausdorff(UNIT_SQUARE, UNIT_SQUARE) <= 1e-12


def test_hausdorff_translation():
    moved = ConvexRegion.polygon(UNIT_SQUARE.vertices + 0.1)
    assert abs(hausdorff(UNIT_SQUARE, moved) - 0.1) <= 1e-9


def test_hausdorff_circumscribed_vs_inscribed():
    m = 2048
    thetas = 2 * np.pi * np.arange(m) / m
    outer = intersect_halfplanes(thetas, np.ones(m), bound=2.0)
    inner = ConvexRegion.polygon(np.exp(-1j * thetas))
    gap = 1.0 / np.cos(np.pi / m) - 1.0
    assert hausdorff(outer, inner) <= 2 * gap + 1e-9


def test_hausdorff_symmetric_and_empty_raises():
    a = random_convex_polygon(11)
    b = random_convex_polygon(12)
    assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), abs=1e-12)
    with pytest.raises(EmptyRegionError):
        hausdorff(a, ConvexRegion.empty())


def test_excess_sign():
    inside = ConvexRegion.segment(0.0, 0.5 + 0.5j)
    outside = ConvexRegion.point(2.0)
    assert excess(inside, UNIT_SQUARE) <= 0.0
    assert excess(outside, UNIT_SQUARE) == pytest.approx(1.0)
    with pytest.raises(EmptyRegionError):
        excess(ConvexRegion.empty(), UNIT_SQUARE)


def random_region(rng, kind):
    """A point, a segment or a polygon (an affine image of points on a
    circle) of size about 1 to 10, somewhere within 10 of the origin."""
    center = 5 * complex(rng.normal(), rng.normal())
    if kind == "point":
        return ConvexRegion.point(center)
    size = rng.uniform(0.5, 5.0)
    if kind == "segment":
        return ConvexRegion.segment(center, center + size * np.exp(2j * np.pi * rng.uniform()))
    angles = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(3, 30)))
    if (np.diff(angles) < 0.02).any():
        angles = np.linspace(0, 2 * np.pi, angles.size, endpoint=False)
    circle = np.exp(1j * angles)
    stretch = rng.uniform(0.2, 1.0)
    turn = np.exp(2j * np.pi * rng.uniform())
    return ConvexRegion.polygon(center + size * turn * (circle.real + 1j * stretch * circle.imag))


def moved(region, shift, factor=1.0):
    return ConvexRegion(region.kind, factor * region.vertices + shift)


def random_pair(seed):
    """Seeded pairs of every shape: two independent regions of random kinds,
    a region against a slightly moved and scaled copy of itself, a region
    inside another, and two disjoint regions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    kinds = ("point", "segment", "polygon", "polygon")
    a = random_region(rng, kinds[rng.integers(4)])
    case = seed % 4
    if case == 0:
        return a, random_region(rng, kinds[rng.integers(4)])
    if case == 1:
        jitter = 10.0 ** rng.uniform(-9, -3)
        return a, moved(a, jitter * complex(rng.normal(), rng.normal()), 1 + jitter * rng.normal())
    outer = random_region(rng, "polygon")
    if case == 2:
        factor = rng.uniform(0.05, 0.95)
        inner = moved(outer, (1 - factor) * outer.vertices.mean(), factor)
        return (inner, outer) if rng.uniform() < 0.5 else (outer, inner)
    return a, moved(outer, 40 * np.exp(2j * np.pi * rng.uniform()))


def test_distances_match_brute_force():
    for seed in range(1200):
        a, b = random_pair(seed)
        verts = np.concatenate([a.vertices, b.vertices])
        tol = 1e-12 * max(1.0, float(np.abs(verts[:, None] - verts).max()))
        assert abs(hausdorff(a, b) - brute_force_hausdorff(a, b)) <= tol, seed
        assert abs(excess(a, b) - brute_force_excess(a, b)) <= tol, seed
        assert abs(excess(b, a) - brute_force_excess(b, a)) <= tol, seed


seeds = st.integers(0, 2**32 - 1)


@given(seeds, st.complex_numbers(max_magnitude=1e3))
@settings(max_examples=60, deadline=None)
def test_hausdorff_of_translate_is_the_shift(seed, shift):
    a = random_region(np.random.Generator(np.random.PCG64(seed)), "polygon")
    tol = 1e-12 * max(1.0, abs(shift), float(np.abs(a.vertices).max()))
    assert abs(hausdorff(moved(a, shift), a) - abs(shift)) <= tol


@given(seeds, st.floats(-6, 6))
@settings(max_examples=60, deadline=None)
def test_hausdorff_scales_with_the_regions(seed, log_scale):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = random_region(rng, "polygon")
    b = moved(random_region(rng, "polygon"), 30.0)  # well separated from a
    s = 10.0 ** log_scale
    got = hausdorff(moved(a, 0, s), moved(b, 0, s))
    assert got == pytest.approx(s * hausdorff(a, b), rel=1e-12)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_hausdorff_symmetric(seed):
    a, b = random_pair(seed)
    assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), rel=1e-14, abs=1e-14)


@given(seeds, st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_excess_of_subset_is_not_positive(seed, factor):
    outer = random_region(np.random.Generator(np.random.PCG64(seed)), "polygon")
    centroid = outer.vertices.mean()
    for inner in (moved(outer, (1 - factor) * centroid, factor),
                  ConvexRegion.segment(centroid, outer.vertices[0] + factor * (centroid - outer.vertices[0])),
                  ConvexRegion.point(centroid)):
        assert excess(inner, outer) <= 0.0
