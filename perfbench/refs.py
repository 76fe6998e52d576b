"""Independent references for the outputs of hrnr.

Nothing here calls the engine under test.  Pencil spectra come from
LAPACK (``numpy.linalg.eigvalsh``), regions are compared through their
support functions, and the grid reference polygon is built by polar
duality with its own convex hull.  The one exception is
``hrnr.checks.normal_oracle`` for normal inputs, which intersects
eigenvalue-subset hulls; it is always evaluated at unit scale and the
result scaled, so that its own absolute thresholds cannot hide a scale
defect of the engine.

Conventions follow the package: a half-plane is
``{z : Re(e^{i theta} z) <= h}`` and the support function of a set is
``h(theta) = max Re(e^{i theta} z)`` over the set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances documented by the package, relative to a unit-scale input.
RADIUS_TOL = 5e-6        # shift closed form, vertex/support match (cli, criterion 1)
HERMITIAN_TOL = 1e-6     # eigenvalue interval (checks, criterion 6)
HAAGERUP_TOL = 1e-6      # radius bound for nilpotent contractions (cli)
NORMAL_TOL = 1e-4        # normal-hull oracle floor (cli, criterion 6)
NORMAL_GRID_FACTOR = 12.0  # cli: normal oracle tolerance max(1e-4, 12 R tan(pi/m))

SUPPORT_DIRECTIONS = 4096


@dataclass(frozen=True)
class Verdict:
    ok: bool
    ratio: float        # largest gap / tolerance found for this output
    reason: str = ""
    # False when the op broke before its output could be compared (an exit
    # code, an exception, a malformed or mislabelled file): no scale defect
    # of the geometry explains such a failure
    mismatch: bool = True


def broken(reason: str) -> Verdict:
    """A failure with no output to compare against a reference."""
    return Verdict(False, np.inf, reason, mismatch=False)


def pencil_offsets(t: np.ndarray, m: int, k: int) -> np.ndarray:
    """lambda_k(e^{i theta} T + e^{-i theta} T*) / 2 on the m-angle grid, by LAPACK."""
    n = t.shape[0]
    thetas = 2.0 * np.pi * np.arange(m) / m
    stack = np.exp(1j * thetas)[:, None, None] * t
    stack = stack + stack.conj().swapaxes(1, 2)
    vals = np.linalg.eigvalsh(stack)          # ascending
    return vals[:, n - k] / 2.0


def hull(points) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, collinear points dropped;
    1 or 2 points for degenerate sets."""
    pts = np.unique(np.asarray(points, dtype=np.complex128))
    if pts.size <= 2:
        return pts
    pts = pts[np.lexsort((pts.imag, pts.real))]
    xs, ys = pts.real.tolist(), pts.imag.tolist()

    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
                if cross <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    idx = range(pts.size)
    lower = chain(idx)
    upper = chain(reversed(idx))
    return pts[np.array(lower[:-1] + upper[:-1])]


def clip_polygon(thetas: np.ndarray, offsets: np.ndarray, bound: float) -> np.ndarray:
    """Sutherland-Hodgman: the square [-bound, bound]^2 cut by each half-plane."""
    verts = bound * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    for theta, h in zip(thetas, offsets):
        if verts.size == 0:
            break
        side = (np.exp(1j * theta) * verts).real - h
        inside = side <= 0
        if inside.all():
            continue
        nxt = np.roll(np.arange(verts.size), -1)
        cross = inside != inside[nxt]
        t = side / np.where(cross, side - side[nxt], 1.0)
        points = verts + t * (verts[nxt] - verts)
        keep = np.stack([inside, cross], axis=1)
        verts = np.stack([verts, points], axis=1)[keep]
    return verts


def interior_point(thetas: np.ndarray, offsets: np.ndarray, bound: float):
    """A point strictly inside every half-plane, or None.

    The centroid of the polygon cut by a subsample of at most 256 planes
    is tried first; when the region is too thin for that, the centroid of
    the polygon cut by every plane.
    """
    stride = max(1, thetas.size // 256)
    for step in (stride, 1):
        poly = clip_polygon(thetas[::step], offsets[::step], bound)
        if poly.size == 0:
            return None
        center = poly.mean()
        if ((np.exp(1j * thetas) * center).real < offsets).all():
            return center
    return None


def grid_polygon(thetas: np.ndarray, offsets: np.ndarray, center: complex):
    """Intersection of the half-planes Re(e^{i theta_j} z) <= offsets_j.

    Built by polar duality about ``center``, which must lie strictly
    inside every half-plane: the active planes are the vertices of the
    hull of the dual points, and each hull edge gives one vertex.
    Returns None when ``center`` is not strictly inside.
    """
    slack = offsets - (np.exp(1j * thetas) * center).real
    if not (slack > 0).all():
        return None
    dual = np.exp(-1j * thetas) / slack        # <dual_j, w> <= 1 for w = z - center
    active = hull(dual)
    if active.size < 3:
        return None
    a, b = active, np.roll(active, -1)
    det = a.real * b.imag - a.imag * b.real
    x = (b.imag - a.imag) / det
    y = (a.real - b.real) / det
    verts = x + 1j * y
    return center + verts[np.argsort(np.angle(verts))]


def support(verts: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Support function of the convex hull of ``verts`` at each angle."""
    v = np.asarray(verts, dtype=np.complex128)
    if v.size > 32:
        fast = _polygon_support(v, thetas)
        if fast is not None:
            return fast
    out = np.empty(thetas.size)
    block = max(1, (1 << 21) // v.size)
    for lo in range(0, thetas.size, block):
        u = np.exp(1j * thetas[lo:lo + block])
        out[lo:lo + block] = (u[:, None] * v[None, :]).real.max(axis=1)
    return out


def _polygon_support(v: np.ndarray, thetas: np.ndarray):
    """O((n + d) log n) support of a convex CCW polygon; None if not convex CCW.

    Vertex i+1 is extreme for the directions between the outward normals
    of edges i and i+1, which increase around a convex CCW loop.
    """
    n = v.size
    edges = np.roll(v, -1) - v
    normals = np.mod(np.angle(edges) - np.pi / 2.0, 2.0 * np.pi)
    start = int(np.argmin(normals))
    order = (start + np.arange(n)) % n
    alphas = normals[order]
    if (np.diff(alphas) < -1e-9).any():
        return None
    phi = np.mod(-thetas, 2.0 * np.pi)      # h(theta) maximises <z, e^{-i theta}>
    j = np.searchsorted(alphas, phi, side="right") - 1
    best = (order[j % n] + 1) % n
    u = np.exp(1j * thetas)
    return np.max([(u * v[(best + d) % n]).real for d in (-1, 0, 1)], axis=0)


def _directions(*vertex_sets) -> np.ndarray:
    """Uniform angles plus every facet normal of the given regions."""
    dirs = [2.0 * np.pi * np.arange(SUPPORT_DIRECTIONS) / SUPPORT_DIRECTIONS]
    for v in vertex_sets:
        if v is not None and v.size >= 2:
            edges = np.roll(v, -1) - v
            dirs.append(np.mod(np.pi / 2.0 - np.angle(edges), 2.0 * np.pi))
            dirs.append(np.mod(-np.angle(v - v.mean()), 2.0 * np.pi))
    return np.concatenate(dirs)


def compare(engine_kind: str, engine_verts: np.ndarray, *, ref_verts=None,
            ref_radius=None, ref_empty=False, tags=None, tol: float,
            outer_slack: float = 0.0) -> Verdict:
    """Compare an engine region with a reference convex set.

    The reference is either empty, a vertex set (point, segment or
    polygon) or a centred disc.  ``outer_slack`` is the documented
    circumscription allowance by which the engine region may exceed the
    reference outward (zero unless stated; ``inf`` checks only that the
    reference lies inside the engine region).  The gap is the larger of
    the two one-sided support gaps, each compared with ``tol``.
    """
    if tags is not None and engine_kind not in tags:
        return Verdict(False, np.inf, f"tag {engine_kind}, want {'/'.join(tags)}")
    if ref_empty or engine_kind == "empty":
        if ref_empty and engine_kind == "empty":
            return Verdict(True, 0.0)
        return Verdict(False, np.inf,
                       f"tag {engine_kind}, reference {'empty' if ref_empty else 'non-empty'}")
    ev = np.asarray(engine_verts, dtype=np.complex128)
    rv = None if ref_verts is None else np.asarray(ref_verts, dtype=np.complex128)
    dirs = _directions(ev, rv)
    h_e = support(ev, dirs)
    h_r = np.full(dirs.size, float(ref_radius)) if rv is None else support(rv, dirs)
    inner = float((h_r - h_e).max())                 # reference pokes out of the engine region
    outer = float((h_e - h_r).max()) - outer_slack   # engine region beyond its allowance
    gap = max(inner, outer, 0.0)
    ratio = gap / tol
    if ratio <= 1.0:
        return Verdict(True, ratio)
    side = "reference outside engine" if inner >= outer else "engine outside reference"
    return Verdict(False, ratio, f"{side} by {gap:.3e} (tol {tol:.1e})")


def compare_value(value: float, want: float, tol: float, what: str,
                  one_sided: bool = False) -> Verdict:
    """Scalar check; one-sided means only value > want is an error."""
    gap = value - want if one_sided else abs(value - want)
    gap = max(gap, 0.0)
    ratio = gap / tol
    if ratio <= 1.0:
        return Verdict(True, ratio)
    return Verdict(False, ratio, f"{what} {value:.9e} vs {want:.9e} (tol {tol:.1e})")


def worst(*verdicts: Verdict) -> Verdict:
    bad = [v for v in verdicts if not v.ok]
    ratio = max(v.ratio for v in verdicts)
    if bad:
        return Verdict(False, ratio, "; ".join(v.reason for v in bad),
                       mismatch=all(v.mismatch for v in bad))
    return Verdict(True, ratio)
