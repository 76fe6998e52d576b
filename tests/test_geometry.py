import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrnr import geometry
from hrnr.geometry import (
    ConvexRegion,
    EmptyRegionError,
    hausdorff,
    intersect_halfplanes,
    max_violation,
    support,
)

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


def brute_force_corners(thetas, offsets, bound):
    """Every pairwise corner of the relaxed cut lines (the bounding square
    included) that satisfies every relaxed plane within 1e-9; their hull
    is the intersection.  O(m^3), independent of the deque scan."""
    t = np.concatenate([np.asarray(thetas, float), np.arange(4) * np.pi / 2])
    b = np.concatenate([np.asarray(offsets, float), np.full(4, float(bound))])
    b = b + 1e-12 * np.maximum(1.0, np.abs(b))
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
    tol = 1e-9 * max(1.0, float(np.abs(corners).max()))
    feasible = ((u[:, None] * corners[None, :]).real - b[:, None] <= tol).all(axis=0)
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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_intersection_order_independent(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    count = int(rng.integers(5, 60))
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


def test_empty_grid_range_is_certified():
    # rank-3 offsets of the regular pentagon's normal matrix: the hulls of
    # its 3-point subsets share no point, but the deque scan alone leaves
    # a spurious point here, so the support check must reject it
    m = 2048
    thetas = 2 * np.pi * np.arange(m) / m
    pentagon = np.exp(2j * np.pi * np.arange(5) / 5)
    offsets = np.median((np.exp(1j * thetas)[:, None] * pentagon).real, axis=1)
    assert intersect_halfplanes(thetas, offsets, bound=2.0).is_empty


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_plane_sets_match_brute_force(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    count = int(rng.integers(1, 9))
    thetas = rng.uniform(0, 2 * np.pi, count)
    offsets = rng.uniform(-0.5, 1.5, count)
    region = intersect_halfplanes(thetas, offsets, bound=3.0)
    corners = brute_force_corners(thetas, offsets, 3.0)
    assert region.is_empty == (corners.size == 0)
    if not region.is_empty:
        assert support_gap(region, corners) <= 1e-9


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
    cases = [("point", point), ("segment", segment), ("polygon", shared),
             ("empty", cut_off), ("empty", edges)]
    for want, (thetas, offsets) in cases:
        region = intersect_halfplanes(thetas, offsets, bound=3.0)
        assert region.kind == want
        corners = brute_force_corners(thetas, offsets, 3.0)
        assert corners.size > 0 or want == "empty"
        if corners.size:
            assert support_gap(region, corners) <= 1e-9
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
    assert np.abs(geometry._support_curve(region, thetas) - want).max() <= 1e-12
    for small in (ConvexRegion.point(0.3 - 1j), ConvexRegion.segment(1.0, 2j)):
        want = (np.exp(1j * thetas)[:, None] * small.vertices).real.max(axis=1)
        assert np.abs(geometry._support_curve(small, thetas) - want).max() <= 1e-12


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


def test_max_violation_sign():
    inside = np.array([0.0 + 0j, 0.5 + 0.5j])
    outside = np.array([2.0 + 0j])
    assert max_violation(UNIT_SQUARE, inside) <= 0.0
    assert max_violation(UNIT_SQUARE, outside) == pytest.approx(1.0)
