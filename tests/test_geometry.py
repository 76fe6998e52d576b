import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrnr.geometry import (
    ConvexRegion,
    EmptyRegionError,
    HalfPlane,
    clip,
    hausdorff,
    intersect_halfplanes,
    max_violation,
    support,
)

UNIT_SQUARE = ConvexRegion.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


def region_area(region):
    v = region.vertices
    nxt = np.roll(v, -1)
    return abs(np.sum(v.real * nxt.imag - v.imag * nxt.real)) / 2


def random_convex_polygon(seed, nmin=3, nmax=9):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = rng.integers(nmin, nmax + 1)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    if (np.diff(angles) < 0.05).any():
        angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    radius = rng.uniform(0.5, 3.0)
    center = complex(rng.normal(), rng.normal())
    return ConvexRegion.polygon(center + radius * np.exp(1j * angles))


# --- HalfPlane ------------------------------------------------------------

def test_halfplane_normalizes_theta():
    assert HalfPlane(-np.pi / 2, 1.0).theta == pytest.approx(3 * np.pi / 2)
    assert HalfPlane(5 * np.pi, 1.0).theta == pytest.approx(np.pi)


# --- clip -----------------------------------------------------------------

def test_clip_square_to_rectangle():
    got = clip(UNIT_SQUARE, HalfPlane(0.0, 0.0))
    assert got.kind == "polygon"
    expected = {-1 - 1j, -1j, 1j, -1 + 1j}
    assert len(got.vertices) == 4
    for z in got.vertices:
        assert min(abs(z - e) for e in expected) < 1e-10


def test_clip_separating_halfplane_empties():
    scale = UNIT_SQUARE.max_modulus()
    for theta in (0.0, 1.0, 4.0):
        got = clip(UNIT_SQUARE, HalfPlane(theta, -10 * scale))
        assert got.is_empty


def test_clip_redundant_halfplane_is_identity():
    got = clip(UNIT_SQUARE, HalfPlane(0.0, 1.0))
    assert got is UNIT_SQUARE


def test_clip_point_and_segment():
    pt = ConvexRegion.point(0.5 + 0.5j)
    assert clip(pt, HalfPlane(0.0, 1.0)) is pt
    assert clip(pt, HalfPlane(0.0, 0.0)).is_empty
    seg = ConvexRegion.segment(0.0, 2.0)
    cut = clip(seg, HalfPlane(0.0, 1.0))
    assert cut.kind == "segment"
    assert abs(cut.vertices[1] - 1.0) < 1e-9
    assert clip(seg, HalfPlane(np.pi, -3.0)).is_empty


@given(st.integers(0, 2**32 - 1), st.floats(0, 2 * np.pi), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_clip_idempotent_exactly(seed, theta, offset):
    region = random_convex_polygon(seed)
    hp = HalfPlane(theta, offset)
    once = clip(region, hp)
    twice = clip(once, hp)
    assert twice.kind == once.kind and np.array_equal(twice.vertices, once.vertices)


@given(st.integers(0, 2**32 - 1), st.floats(0, 2 * np.pi), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_clip_never_grows_area(seed, theta, offset):
    region = random_convex_polygon(seed)
    out = clip(region, HalfPlane(theta, offset))
    if out.kind == "polygon":
        assert region_area(out) <= region_area(region) + 1e-9


# --- intersect_halfplanes ---------------------------------------------------

def test_disc_from_2048_tangents():
    m = 2048
    thetas = 2 * np.pi * np.arange(m) / m
    planes = [HalfPlane(t, 1.0) for t in thetas]
    region = intersect_halfplanes(planes, bound=2.0)
    assert region.kind == "polygon"
    mods = np.abs(region.vertices)
    assert mods.max() <= 1 + 2e-6
    assert mods.max() >= 1.0
    assert mods.min() >= 1.0 - 1e-9


def test_opposing_negative_offsets_empty():
    planes = [HalfPlane(0.0, -1.0), HalfPlane(np.pi, -1.0)]
    assert intersect_halfplanes(planes, bound=5.0).is_empty


def test_real_segment_construction():
    planes = [
        HalfPlane(0.0, 2.0),
        HalfPlane(np.pi, -1.0),
        HalfPlane(np.pi / 2, 0.0),
        HalfPlane(-np.pi / 2, 0.0),
    ]
    region = intersect_halfplanes(planes, bound=3.0)
    assert region.kind == "segment"
    ends = sorted(region.vertices, key=lambda z: z.real)
    assert abs(ends[0] - 1.0) < 1e-9
    assert abs(ends[1] - 2.0) < 1e-9


def test_intersection_respects_every_plane():
    rng = np.random.Generator(np.random.PCG64(3))
    planes = [HalfPlane(t, b) for t, b in
              zip(rng.uniform(0, 2 * np.pi, 40), rng.uniform(0.2, 2.0, 40))]
    region = intersect_halfplanes(planes, bound=4.0)
    assert not region.is_empty
    for hp in planes:
        s = (np.exp(1j * hp.theta) * region.vertices).real
        assert s.max() <= hp.offset + 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_intersection_order_independent(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    count = int(rng.integers(5, 60))
    planes = [HalfPlane(t, b) for t, b in
              zip(rng.uniform(0, 2 * np.pi, count), rng.uniform(0.1, 2.0, count))]
    base = intersect_halfplanes(planes, bound=4.0)
    perm = [planes[i] for i in rng.permutation(count)]
    other = intersect_halfplanes(perm, bound=4.0)
    assert base.kind == other.kind
    if not base.is_empty:
        assert hausdorff(base, other) <= 1e-9


def test_intersection_needs_planes():
    with pytest.raises(ValueError):
        intersect_halfplanes([], bound=1.0)


# --- support ----------------------------------------------------------------

def test_support_point():
    assert support(ConvexRegion.point(1 + 1j), 0.0) == pytest.approx(1.0)


def test_support_square_diagonal():
    assert support(UNIT_SQUARE, np.pi / 4) == pytest.approx(np.sqrt(2.0))


def test_support_segment_backwards():
    seg = ConvexRegion.segment(1.0, 2.0)
    assert support(seg, np.pi) == pytest.approx(-1.0)


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
    outer = intersect_halfplanes([HalfPlane(t, 1.0) for t in thetas], bound=2.0)
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
