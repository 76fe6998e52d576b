"""Convex planar geometry: half-planes, clipping, classification, Hausdorff.

Regions live in the complex plane.  A half-plane is the set
``{z : Re(e^{i theta} z) <= offset}``; convex regions are tagged as one of
``empty``, ``point``, ``segment`` or ``polygon`` (counter-clockwise vertex
loop).

Cut lines are relaxed outward by ``CLIP_EPS * max(1, |offset|)``.  The
relaxation is what keeps genuinely degenerate intersections honest in
floating point: a family of half-planes whose true intersection is a
single point carries offset noise of order 1e-15, which would otherwise
make the cascade return an empty region instead of that point.  Every
result therefore sits between the exact intersection and its 1e-12-scale
outward relaxation, far inside all stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Outward relaxation of each cut line, relative to max(1, |offset|).
CLIP_EPS = 1e-12
# Extra slack when testing vertices against a cut so that re-clipping an
# already clipped region is an exact no-op.
RETAIN_EPS = 1e-13
# Diameter below which a region collapses to a point.
POINT_DIAM = 1e-9
# A polygon thinner than this (area / diameter) collapses to a segment.
SEGMENT_THICKNESS = 1e-9
# Collinear-vertex pruning threshold on the absolute cross product.
COLLINEAR_CROSS = 1e-12
TWO_PI = 2.0 * np.pi


class EmptyRegionError(ValueError):
    """Operation undefined on an empty region."""


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {z : Re(e^{i theta} z) <= offset}."""

    theta: float
    offset: float

    def __post_init__(self):
        t = float(self.theta) % TWO_PI
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "offset", float(self.offset))
        if not (np.isfinite(t) and np.isfinite(self.offset)):
            raise ValueError("half-plane parameters must be finite")


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


def _signed_area2(verts: np.ndarray) -> float:
    nxt = np.roll(verts, -1)
    return float(np.sum(verts.real * nxt.imag - verts.imag * nxt.real))


def _dedupe(verts: np.ndarray) -> np.ndarray:
    if verts.size < 2:
        return verts
    scale = max(1.0, float(np.abs(verts).max()))
    keep = np.abs(verts - np.roll(verts, 1)) > 1e-13 * scale
    if not keep.any():
        return verts[:1]
    return verts[keep]


def _cross3(a, b, c) -> float:
    e1 = b - a
    e2 = c - b
    return e1.real * e2.imag - e1.imag * e2.real


def _prune_collinear(verts: np.ndarray) -> np.ndarray:
    """Drop vertices whose turn contributes less than the cross tolerance.

    Sequential stack walk: removing one vertex re-evaluates its
    neighbours, so a dense run of nearly coincident vertices collapses to
    its extremes instead of vanishing outright.
    """
    if verts.size < 3:
        return verts
    out: list[complex] = []
    for z in verts:
        out.append(z)
        while len(out) >= 3 and abs(_cross3(out[-3], out[-2], out[-1])) <= COLLINEAR_CROSS:
            del out[-2]
    # seam: the loop wraps, so the first/last vertices need the same test
    changed = True
    while changed and len(out) >= 3:
        changed = False
        if abs(_cross3(out[-2], out[-1], out[0])) <= COLLINEAR_CROSS:
            del out[-1]
            changed = True
        if len(out) >= 3 and abs(_cross3(out[-1], out[0], out[1])) <= COLLINEAR_CROSS:
            del out[0]
            changed = True
    return np.array(out, dtype=np.complex128)


def _classify(verts: np.ndarray) -> ConvexRegion:
    """Turn a raw vertex loop into a tagged region.

    A point is anything of diameter < 1e-9.  A polygon whose mean
    thickness (area / diameter) is below 1e-9 is a segment: clip cascades
    over noisy offsets leave slivers of width around the clip relaxation,
    never exactly zero, so thickness rather than raw area is the robust
    degeneracy test.
    """
    verts = _dedupe(verts)
    if verts.size == 0:
        return ConvexRegion.empty()
    w = float(verts.real.max() - verts.real.min())
    h = float(verts.imag.max() - verts.imag.min())
    diam = float(np.hypot(w, h))
    if diam < POINT_DIAM:
        return ConvexRegion.point(verts.mean())
    area2 = _signed_area2(verts)
    if verts.size < 3 or abs(area2) / 2.0 < SEGMENT_THICKNESS * diam:
        direction = complex(w, h) / diam
        proj = (verts * np.conj(direction)).real
        return ConvexRegion.segment(verts[np.argmin(proj)], verts[np.argmax(proj)])
    if area2 < 0:
        verts = verts[::-1]
    verts = _prune_collinear(verts)
    if verts.size < 3:
        return _classify(verts)
    return ConvexRegion.polygon(verts)


def _cut_offset(b: float) -> float:
    return b + CLIP_EPS * max(1.0, abs(b))


def _retain_slack(b: float) -> float:
    return RETAIN_EPS * max(1.0, abs(b))


def _clip_loop(verts: np.ndarray, theta: float, b: float) -> np.ndarray:
    """Clip a CCW vertex loop against one half-plane.

    Returns the input array unchanged (same object) when every vertex is
    already inside, which makes repeated clipping by the same plane an
    exact no-op.
    """
    if verts.size == 0:
        return verts
    cut = _cut_offset(b)
    u = complex(np.cos(theta), np.sin(theta))
    s = (u * verts).real - cut
    inside = s <= _retain_slack(b)
    if inside.all():
        return verts
    if not inside.any():
        return verts[:0]
    n = verts.size

    def crossing(e):
        j = (e + 1) % n
        t = s[e] / (s[e] - s[j])
        return verts[e] + t * (verts[j] - verts[e])

    flips = np.flatnonzero(inside != np.roll(inside, -1))
    if flips.size == 2:
        e1, e2 = int(flips[0]), int(flips[1])
        if inside[(e1 + 1) % n]:
            return np.concatenate(
                [[crossing(e1)], verts[e1 + 1 : e2 + 1], [crossing(e2)]]
            )
        return np.concatenate(
            [[crossing(e2)], verts[e2 + 1 :], verts[: e1 + 1], [crossing(e1)]]
        )
    # ragged inside/outside pattern (numerically non-convex loop): generic pass
    out = []
    for i in range(n):
        if inside[i]:
            out.append(verts[i])
        if inside[i] != inside[(i + 1) % n]:
            out.append(crossing(i))
    return np.array(out, dtype=np.complex128)


def clip(region: ConvexRegion, hp: HalfPlane) -> ConvexRegion:
    """Intersect a region with one half-plane and reclassify."""
    if region.is_empty:
        return region
    theta, b = hp.theta, hp.offset
    u = complex(np.cos(theta), np.sin(theta))
    slack = _cut_offset(b) + _retain_slack(b)
    if region.kind == "point":
        z = region.vertices[0]
        return region if (u * z).real <= slack else ConvexRegion.empty()
    if region.kind == "segment":
        z1, z2 = region.vertices
        s1 = (u * z1).real - _cut_offset(b)
        s2 = (u * z2).real - _cut_offset(b)
        r = _retain_slack(b)
        if s1 <= r and s2 <= r:
            return region
        if s1 > r and s2 > r:
            return ConvexRegion.empty()
        t = s1 / (s1 - s2)
        zc = z1 + t * (z2 - z1)
        kept = (z1, zc) if s1 <= r else (zc, z2)
        return _classify(np.array(kept, dtype=np.complex128))
    clipped = _clip_loop(region.vertices, theta, b)
    if clipped is region.vertices:
        return region
    return _classify(clipped)


def _bounding_square(radius: float) -> np.ndarray:
    r = float(radius)
    return np.array([r + 1j * r, -r + 1j * r, -r - 1j * r, r - 1j * r])


def _normalize_planes(thetas, offsets):
    thetas = np.asarray(thetas, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    order = np.lexsort((offsets, thetas))
    thetas, offsets = thetas[order], offsets[order]
    # merge planes with (numerically) equal direction, keeping the tightest
    keep_t, keep_b = [thetas[0]], [offsets[0]]
    for t, b in zip(thetas[1:], offsets[1:]):
        if t - keep_t[-1] <= 1e-12:
            keep_b[-1] = min(keep_b[-1], b)
        else:
            keep_t.append(t)
            keep_b.append(b)
    # wrap-around duplicate
    if len(keep_t) > 1 and (keep_t[0] + TWO_PI) - keep_t[-1] <= 1e-12:
        keep_b[0] = min(keep_b[0], keep_b[-1])
        keep_t.pop()
        keep_b.pop()
    return np.array(keep_t), np.array(keep_b)


def _active_chain(cos_t, sin_t, cuts):
    """Deque scan over angle-sorted half-planes; returns active indices.

    Classical O(m) half-plane intersection: a new plane pops trailing
    (then leading) planes whose pairwise corner it cuts away.  Returns
    None when fewer than three planes survive, i.e. the region is empty
    or too degenerate for this pass to certify.  Plain-float inner loop:
    this runs once per plane and dominates large sweeps.
    """
    m = len(cuts)
    dq: list[int] = []

    def corner(a, b):
        # intersection of boundary lines a and b; None if (anti)parallel
        det = sin_t[a] * cos_t[b] - cos_t[a] * sin_t[b]
        if det < 1e-14 and det > -1e-14:
            return None
        return (
            (-cuts[a] * sin_t[b] + cuts[b] * sin_t[a]) / det,
            (-cuts[a] * cos_t[b] + cuts[b] * cos_t[a]) / det,
        )

    for i in range(m):
        ct, st, c = cos_t[i], sin_t[i], cuts[i]
        while len(dq) >= 2:
            z = corner(dq[-2], dq[-1])
            if z is not None and z[0] * ct - z[1] * st > c:
                dq.pop()
            else:
                break
        while len(dq) >= 2:
            z = corner(dq[0], dq[1])
            if z is not None and z[0] * ct - z[1] * st > c:
                dq.pop(0)
            else:
                break
        dq.append(i)
    changed = True
    while changed and len(dq) >= 3:
        changed = False
        z = corner(dq[-2], dq[-1])
        if z is not None and z[0] * cos_t[dq[0]] - z[1] * sin_t[dq[0]] > cuts[dq[0]]:
            dq.pop()
            changed = True
            continue
        z = corner(dq[0], dq[1])
        if z is not None and z[0] * cos_t[dq[-1]] - z[1] * sin_t[dq[-1]] > cuts[dq[-1]]:
            dq.pop(0)
            changed = True
    if len(dq) < 3:
        return None
    return np.array(dq, dtype=np.intp)


def _chain_vertices(cos_t, sin_t, cuts, dq):
    a = dq
    b = np.roll(dq, -1)
    det = sin_t[a] * cos_t[b] - cos_t[a] * sin_t[b]
    if (np.abs(det) < 1e-14).any():
        return None
    x = (-cuts[a] * sin_t[b] + cuts[b] * sin_t[a]) / det
    y = (-cuts[a] * cos_t[b] + cuts[b] * cos_t[a]) / det
    return x + 1j * y


def _chain_feasible(cos_t, sin_t, cuts, verts) -> bool:
    """Do all vertices satisfy all planes within 1e-9?  Blocked matmul
    keeps the planes-by-vertices product inside a fixed memory budget."""
    tol = 1e-9 * max(1.0, float(np.abs(verts).max()))
    normals = np.stack([cos_t, sin_t], axis=1)
    block = max(1, (1 << 22) // max(len(cuts), 1))
    for lo in range(0, verts.size, block):
        v = verts[lo:lo + block]
        s = normals @ np.stack([v.real, -v.imag])
        if (s - cuts[:, None] > tol).any():
            return False
    return True


def _cascade(thetas, offsets, radius) -> np.ndarray:
    verts = _bounding_square(radius)
    for t, b in zip(thetas, offsets):
        verts = _clip_loop(verts, t, b)
        if verts.size == 0:
            break
    return verts


def intersect_halfplanes(planes, bound: float) -> ConvexRegion:
    """Intersection of half-planes with the square [-R, R]^2, classified.

    The angle-sorted deque scan produces the candidate vertex loop in
    O(m); its output is accepted only if every candidate satisfies every
    plane within 1e-9 slack, otherwise the sequential clip cascade from
    the bounding square re-derives the region.  Results are independent
    of the input order of ``planes``.
    """
    planes = list(planes)
    if not planes:
        raise ValueError("need at least one half-plane")
    radius = float(bound)
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError("bound must be positive and finite")
    sq_t = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    all_t, all_b = _normalize_planes(
        np.concatenate([[p.theta for p in planes], sq_t]),
        np.concatenate([[p.offset for p in planes], np.full(4, radius)]),
    )
    cuts = all_b + CLIP_EPS * np.maximum(1.0, np.abs(all_b))
    cos_t, sin_t = np.cos(all_t), np.sin(all_t)

    dq = _active_chain(cos_t.tolist(), sin_t.tolist(), cuts.tolist())
    if dq is not None:
        verts = _chain_vertices(cos_t, sin_t, cuts, dq)
        if verts is not None and verts.size:
            # classify first so corner clusters collapse before the
            # all-planes verification, which is O(planes x vertices)
            region = _classify(verts)
            if not region.is_empty and _chain_feasible(cos_t, sin_t, cuts, region.vertices):
                return region
    # empty or degenerate: the chain cannot represent these.  A cascade
    # over every stride-th plane that comes up empty certifies the full
    # set empty (a subset of constraints is already infeasible), which
    # keeps the full-resolution cascade for the rare degenerate survivors.
    for stride in (64, 8, 1):
        if stride > 1 and all_t.size < 4 * stride:
            continue
        verts = _cascade(all_t[::stride], all_b[::stride], radius)
        if verts.size == 0:
            return ConvexRegion.empty()
        if stride == 1:
            return _classify(verts)
    raise AssertionError("unreachable")


def support(region: ConvexRegion, theta: float) -> float:
    """Max of Re(e^{i theta} z) over the region (exact over vertices)."""
    if region.is_empty:
        raise EmptyRegionError("support of an empty region")
    u = complex(np.cos(theta), np.sin(theta))
    return float((u * region.vertices).real.max())


def _support_curve(region: ConvexRegion, thetas: np.ndarray) -> np.ndarray:
    v = region.vertices
    return (np.stack([np.cos(thetas), -np.sin(thetas)], axis=1)
            @ np.stack([v.real, v.imag])).max(axis=1)


def max_violation(region: ConvexRegion, points) -> float:
    """Largest amount by which any point leaves the region.

    Non-positive means every point lies inside.  Measured against the
    supporting half-plane of each polygon edge (exact distance for a
    point region), which is the natural gap notion for containment
    checks on convex sets.
    """
    if region.is_empty:
        raise EmptyRegionError("containment in an empty region")
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size == 0:
        return -np.inf
    v = region.vertices
    if region.kind == "point":
        return float(np.abs(pts - v[0]).max())
    if region.kind == "segment":
        d = v[1] - v[0]
        u = d / abs(d)
        w = (pts - v[0]) * np.conj(u)
        along = np.clip(w.real, 0.0, abs(d))
        nearest = v[0] + along * u
        return float(np.abs(pts - nearest).max())
    edges = np.roll(v, -1) - v
    normals = -1j * edges / np.abs(edges)  # outward for CCW loops
    # gap[i, j] = signed distance of point j outside edge i
    gap = (np.stack([normals.real, normals.imag], axis=1)
           @ np.stack([pts.real, pts.imag])) - (
        normals.real * v.real + normals.imag * v.imag
    )[:, None]
    return float(gap.max(axis=0).max())


def hausdorff(a: ConvexRegion, b: ConvexRegion, samples: int = 4096) -> float:
    """Symmetric Hausdorff distance between two non-empty convex regions.

    Combines support-function gaps on a uniform angle grid with
    vertex-to-region gaps in both directions; each term is a lower bound
    on the true distance and their maximum is exact up to the angular
    sampling resolution.
    """
    if a.is_empty or b.is_empty:
        raise EmptyRegionError("Hausdorff distance needs non-empty regions")
    thetas = TWO_PI * np.arange(samples) / samples
    d = float(np.abs(_support_curve(a, thetas) - _support_curve(b, thetas)).max())
    d = max(d, max_violation(b, a.vertices), max_violation(a, b.vertices))
    return max(d, 0.0)
