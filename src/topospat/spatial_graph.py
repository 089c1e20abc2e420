"""Spatial neighborhood graphs over 2-D coordinates.

Four constructors cover the usual acquisition geometries: epsilon balls for
generic point clouds, Delaunay triangulation for continuous single-cell
coordinates, hexagonal grids (Visium-style spots), and rectangular grids.
All graphs are undirected and unweighted; edges are stored once as (i, j)
with i < j.

Every graph is built with numpy and plain Python, so building one loads no
scipy module.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionError,
    GeometryError,
    GeometryWarning,
    ParameterError,
    ValidationError,
)

HEX_PITCH_TOLERANCE = 0.05
RECT_SNAP_TOLERANCE = 0.10


class GraphKind(str, Enum):
    EPSILON = "epsilon"
    DELAUNAY = "delaunay"
    HEX_GRID = "hex"
    RECT_GRID = "rect"


@dataclass(frozen=True)
class SpatialGraph:
    """Immutable undirected graph over 2-D points.

    The constructor takes any (m, 2) integer pairs of vertex indices and keeps
    them as `edges`: an int64 array with i < j per row, lexicographically
    sorted and duplicate-free, which every kernel relies on. An end outside
    range(n), a self-loop or non-integer pairs raise ValidationError. params
    records constructor inputs (epsilon, pitch, ...) for provenance and export.
    The edge index and the component count are cached on first use; a copy
    built from the four fields holds neither.
    """

    coords: np.ndarray
    edges: np.ndarray
    kind: GraphKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "edges", _finalize_edges(len(self.coords), self.edges))

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices)

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """`(ends, row_ptr)`: the (2, m) contiguous ends of the edges, lower
        end first, and the n + 1 row pointer at which each vertex's edges to
        higher-numbered vertices start in them."""
        ends = np.ascontiguousarray(self.edges.T)
        return ends, np.searchsorted(ends[0], np.arange(self.n_vertices + 1))

    @cached_property
    def n_components(self) -> int:
        """Number of connected components, isolated vertices included: the
        vertices less the edges of a spanning forest."""
        from .persistence import _forest_edges  # persistence imports this module

        ends, _ = self.edge_index
        forest, _, _ = _forest_edges(*ends, np.zeros_like(ends[0]), self.n_vertices)
        return self.n_vertices - len(forest)


def _as_coords(coords) -> np.ndarray:
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError(f"coordinates must be an (n, 2) array, got shape {pts.shape}")
    if len(pts) < 1:
        raise ValidationError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("coordinates contain NaN or infinite values")
    return pts


def _finalize_edges(n: int, pairs) -> np.ndarray:
    """Canonicalize edge pairs of n vertices: i < j, sorted, unique."""
    e = np.asarray(pairs)
    if e.shape in ((0,), (0, 2)):
        return np.zeros((0, 2), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
        raise ValidationError(
            f"edges must be an (m, 2) integer array, got shape {e.shape} of {e.dtype}")
    if e.min() < 0 or e.max() >= n:
        bad = e[np.any((e < 0) | (e >= n), axis=1)][0]
        raise ValidationError(f"edge ({bad[0]}, {bad[1]}) has an end outside range({n})")
    e = e.astype(np.int64, copy=False)
    loops = np.flatnonzero(e[:, 0] == e[:, 1])
    if len(loops):
        raise ValidationError(f"edge ({e[loops[0], 0]}, {e[loops[0], 0]}) is a self-loop")
    # one integer key per pair sorts like the (i, j) rows; sorting it is much
    # faster than np.unique on rows, which also imports numpy.ma on first use
    key = np.sort(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
    key = key[np.diff(key, prepend=-1) != 0]
    return np.column_stack(np.divmod(key, n))


def epsilon_graph(coords, epsilon: float) -> SpatialGraph:
    """Connect every pair of points at Euclidean distance <= epsilon."""
    pts = _as_coords(coords)
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ParameterError(f"epsilon must be a positive real, got {epsilon}")
    # search slightly wide, then apply the <= epsilon contract with one exact norm
    pairs, _ = _cell_pairs(pts, float(epsilon) * (1 + 1e-9))
    d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    return SpatialGraph(pts, pairs[d <= epsilon], GraphKind.EPSILON, {"epsilon": float(epsilon)})


def delaunay_graph(coords) -> SpatialGraph:
    """Edges of the Delaunay triangulation of the points.

    Every orientation and in-circle sign is decided exactly, so points in
    general position get their one Delaunay triangulation. Four or more
    cocircular points have several; one of them is returned, the same one
    for the same input. Of points that coincide, the lowest index is the
    vertex and the others get no edges.
    """
    pts = _as_coords(coords)
    if len(pts) < 3:
        raise GeometryError(
            "Delaunay triangulation needs at least 3 points; use epsilon_graph for smaller sets"
        )
    tri = _delaunay_triangles(pts)
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    return SpatialGraph(pts, pairs, GraphKind.DELAUNAY, {})


# Shewchuk's error bounds for the float orientation and in-circle
# determinants ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
# Geometric Predicates", 1997), (3 + 16e)e and (10 + 96e)e with e = 2**-53:
# a determinant larger than the bound times its permanent has the exact
# sign, and a smaller one is decided in integers. The absolute term covers
# products that underflow, which the relative bounds do not; coordinates are
# scaled below 1 first, so nothing overflows.
_ORIENT_BOUND = 3.3306690738754716e-16
_INCIRCLE_BOUND = 1.1102230246251577e-15
_UNDERFLOW = 1e-300
_GHOST = -1  # the vertex at infinity shared by every triangle outside the hull


def _orient(ax, ay, bx, by, cx, cy) -> int:
    """1 if a, b, c turn counter-clockwise, -1 if clockwise, 0 if collinear."""
    left = (ax - cx) * (by - cy)
    right = (ay - cy) * (bx - cx)
    det = left - right
    bound = _ORIENT_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if det > bound:
        return 1
    if -det > bound:
        return -1
    ax, ay, bx, by, cx, cy = _common_integers(ax, ay, bx, by, cx, cy)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """Whether d lies strictly inside the circle through the counter-clockwise
    a, b, c, decided in integers."""
    ax, ay, bx, by, cx, cy, dx, dy = _common_integers(ax, ay, bx, by, cx, cy, dx, dy)
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)) > 0


def _common_integers(*vals: float) -> list[int]:
    """The floats as integer multiples of one power of two, so that integer
    arithmetic on them is exact."""
    ratios = [v.as_integer_ratio() for v in vals]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _delaunay_triangles(pts: np.ndarray) -> np.ndarray:
    """(t, 3) vertex indices of the Delaunay triangles, counter-clockwise.

    Bowyer-Watson insertion in Hilbert-curve order: each point is located by
    a visibility walk from the last triangle made, the triangles whose
    circumcircle holds it are removed, and their cavity is refilled with a
    fan to it. The hull is closed with ghost triangles (a, b, _GHOST), one
    per hull edge a -> b; a ghost's circumcircle is the open half-plane left
    of a -> b plus the open segment ab, so points outside the hull need no
    separate case. V[t] holds the vertices of triangle t, and N[t][k] the
    triangle across the edge opposite V[t][k]. The float filters of the
    walk and the in-circle test are written out in the loop, which is most
    of the build time.
    """
    # a power of two keeps the coordinates exact and bounds every determinant
    pts = pts * 2.0 ** -float(np.frexp(np.abs(pts).max())[1])
    # coincident points: a stable sort puts the lowest index first in each group
    srt = np.lexsort((pts[:, 1], pts[:, 0]))
    first = np.ones(len(pts), dtype=bool)
    first[1:] = np.any(pts[srt[1:]] != pts[srt[:-1]], axis=1)
    keep = srt[first]
    order = keep[_hilbert_order(pts[keep])].tolist()
    P = pts.tolist()
    # the first triangle: the curve's two ends and the first point off their line
    a, b = order[0], order[-1]
    for pos in range(1, len(order) - 1):
        c = order[pos]
        turn = _orient(*P[a], *P[b], *P[c])
        if turn:
            break
    else:
        raise GeometryError(
            "degenerate point set (collinear or coincident points); consider epsilon_graph"
        )
    if turn < 0:
        a, b = b, a
    V = [(a, b, c), (b, a, _GHOST), (c, b, _GHOST), (a, c, _GHOST)]
    N = [[2, 3, 1], [3, 2, 0], [1, 3, 0], [2, 1, 0]]
    mark = [0] * 4  # the insertion whose cavity last took each triangle
    t = 0
    for stamp, p in enumerate(order[1:pos] + order[pos + 1:-1], start=1):
        px, py = P[p]
        came_from = -1
        while True:  # terminates on a Delaunay triangulation; stops at a ghost
            va, vb, vc = V[t]
            if va < 0 or vb < 0 or vc < 0:
                break
            nt = N[t]
            for k, u, w in ((0, vb, vc), (1, vc, va), (2, va, vb)):
                if nt[k] == came_from:
                    continue
                ux, uy = P[u]
                wx, wy = P[w]
                left = (ux - px) * (wy - py)
                right = (uy - py) * (wx - px)
                det = left - right
                bound = _ORIENT_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
                if det < -bound or det <= bound and _orient(ux, uy, wx, wy, px, py) < 0:
                    came_from, t = t, nt[k]
                    break
            else:
                break
        mark[t] = stamp
        cavity, stack, boundary = [t], [t], []
        while stack:
            s = stack.pop()
            vs = V[s]
            for k, o in enumerate(N[s]):
                if mark[o] == stamp:
                    continue
                oa, ob, oc = V[o]
                if oa >= 0 and ob >= 0 and oc >= 0:
                    ax, ay = P[oa]
                    bx, by = P[ob]
                    cx, cy = P[oc]
                    adx, ady, bdx, bdy = ax - px, ay - py, bx - px, by - py
                    cdx, cdy = cx - px, cy - py
                    alift = adx * adx + ady * ady
                    blift = bdx * bdx + bdy * bdy
                    clift = cdx * cdx + cdy * cdy
                    det = (alift * (bdx * cdy - cdx * bdy) + blift * (cdx * ady - adx * cdy)
                           + clift * (adx * bdy - bdx * ady))
                    # the permanent is at most (alift + blift + clift)**2 / 3
                    bound = alift + blift + clift
                    bound = _INCIRCLE_BOUND * bound * bound + _UNDERFLOW
                    inside = det > bound or det >= -bound and _incircle_exact(
                        ax, ay, bx, by, cx, cy, px, py)
                else:
                    u, w = (ob, oc) if oa < 0 else (oc, oa) if ob < 0 else (oa, ob)
                    (ux, uy), (wx, wy) = P[u], P[w]
                    turn = _orient(ux, uy, wx, wy, px, py)
                    inside = turn > 0 or turn == 0 and (
                        min(ux, wx) < px < max(ux, wx) or min(uy, wy) < py < max(uy, wy))
                if inside:
                    mark[o] = stamp
                    cavity.append(o)
                    stack.append(o)
                else:
                    boundary.append((vs[k - 2], vs[k - 1], o, N[o].index(s)))
        # the cavity is star-shaped from p: one new triangle (u, w, p) per
        # boundary edge u -> w, two more than the triangles removed
        slots = cavity + [len(V), len(V) + 1]
        V += [None, None]
        N += [None, None]
        mark += [0, 0]
        starting_at = {}
        for s, (u, w, o, back) in zip(slots, boundary):
            V[s] = (u, w, p)
            N[s] = [0, 0, o]
            N[o][back] = s
            starting_at[u] = s
        for s, (u, w, _, _) in zip(slots, boundary):
            nxt = starting_at[w]
            N[s][0] = nxt
            N[nxt][1] = s
            if u >= 0 and w >= 0:
                t = s
    tri = np.asarray(V, dtype=np.int64)
    return tri[tri.min(axis=1) >= 0]


def _hilbert_order(pts: np.ndarray, bits: int = 16) -> np.ndarray:
    """Indices of the points in the order a Hilbert curve over their bounding
    square visits them, so that consecutive points lie close together."""
    side = 1 << bits
    lo = pts.min(axis=0)
    span = float(np.max(pts.max(axis=0) - lo)) or 1.0
    x, y = np.minimum((pts - lo) / span * side, side - 1).astype(np.int64).T
    d = np.zeros(len(pts), dtype=np.int64)
    s = side >> 1
    while s:
        rx, ry = (x & s) > 0, (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        flip = rx & ~ry
        x, y = np.where(flip, side - 1 - x, x), np.where(flip, side - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return np.argsort(d, kind="stable")


def hex_grid_graph(coords, pitch: float | None = None, strict: bool = False) -> SpatialGraph:
    """Connect hexagonal-lattice spots to their six direct neighbours.

    The lattice pitch is estimated as the minimum nonzero pairwise distance
    when not given. Neighbours are pairs at distance within 5% of the pitch,
    so interior spots get degree 6 and boundary spots keep their reduced
    degree. A poor geometry fit (many interior spots away from degree 6)
    warns, or raises under strict.
    """
    pts = _as_coords(coords)
    if pitch is not None and (not np.isfinite(pitch) or pitch <= 0):
        raise ParameterError(f"pitch must be a positive real, got {pitch}")
    if len(pts) == 1:
        return SpatialGraph(pts, np.zeros((0, 2), dtype=np.int64), GraphKind.HEX_GRID,
                            {"pitch": float(pitch) if pitch else None})
    radius = 0.0
    if pitch is None:
        pitch, radius, pairs, sq = _estimate_pitch(pts)
    lo, hi = pitch * (1 - HEX_PITCH_TOLERANCE), pitch * (1 + HEX_PITCH_TOLERANCE)
    if radius < hi:
        pairs, sq = _cell_pairs(pts, hi)
    # the upper bound on the squared distance, as a k-d tree pair query applies it
    pairs = pairs[(sq <= hi * hi) & (np.sqrt(sq) >= lo)]
    graph = SpatialGraph(pts, pairs, GraphKind.HEX_GRID, {"pitch": pitch})

    # Interior spots (more than one pitch from the bounding box) must have degree 6.
    mins, maxs = pts.min(axis=0), pts.max(axis=0)
    interior = np.all((pts > mins + pitch) & (pts < maxs - pitch), axis=1)
    if interior.any():
        bad = np.count_nonzero(graph.degrees()[interior] != 6)
        if bad / interior.sum() > 0.10:
            msg = (f"{bad} of {int(interior.sum())} interior spots do not have 6 neighbours; "
                   "coordinates may not lie on a hexagonal lattice")
            if strict:
                raise GeometryError(msg)
            warnings.warn(msg, GeometryWarning, stacklevel=2)
    return graph


def _estimate_pitch(pts: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Minimum nonzero pairwise distance of at least two points, with the
    radius, pairs and squared distances of the cell pass that found it."""
    width, height = (float(v) for v in pts.max(axis=0) - pts.min(axis=0))
    span = max(width, height)
    if span == 0:
        raise GeometryError("all points coincide; cannot estimate hex pitch")
    # About 1.4 pitch on a full lattice (1.5 on a single row), so one pass
    # usually finds the pitch and every neighbour pair at once.
    radius = 1.5 * max(math.sqrt(width * height / len(pts)), span / len(pts))
    while True:
        pairs, sq = _cell_pairs(pts, radius)
        positive = sq[sq > 0]
        nearest = float(np.sqrt(positive.min())) if positive.size else math.inf
        if nearest <= radius:
            return nearest, radius, pairs, sq
        if nearest == math.inf and radius >= span:
            raise GeometryError("all points coincide; cannot estimate hex pitch")
        # Every nonzero distance exceeds the radius; growing it at most
        # twofold keeps the cells from crowding with points.
        radius = min(nearest, 2 * radius)


def _cell_pairs(pts: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs, each once, of the points in the same or adjacent cells of
    a square grid a little wider than `radius`, and their squared distances.

    Every pair whose squared distance is at most radius**2 is among them. The
    cells are wider than `radius` by far more than the rounding of the cell
    coordinates, so no such pair lands two cells apart, and there are at most
    about 2**20 cells per axis, so the cell keys stay small.
    """
    origin = pts.min(axis=0)
    span = float(np.max(pts.max(axis=0) - origin))
    if not math.isfinite(2 * span * span):
        raise GeometryError("coordinates lie too far apart to square their distances")
    width = max(radius, span * 2.0**-20) * (1 + 2.0**-20)
    cell = np.floor((pts - origin) / width).astype(np.int64)
    stride = int(cell[:, 1].max()) + 2  # a spare row keeps (x + 1, y - 1) keys apart
    key = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # each cell, joined with itself and with the cells at (0, 1), (1, -1), (1, 0), (1, 1)
    target = (key[:, None] + np.array([0, 1, stride - 1, stride, stride + 1])).ravel()
    first = np.searchsorted(sorted_key, target, side="left")
    count = np.searchsorted(sorted_key, target, side="right") - first
    a = np.repeat(np.arange(len(pts)).repeat(5), count)
    b = order[np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)]
    once = (a < b) | (key[a] != key[b])
    a, b = a[once], b[once]
    d = pts[a] - pts[b]
    return np.column_stack([a, b]), d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]


def rect_grid_graph(coords) -> SpatialGraph:
    """4-connectivity between lattice-adjacent occupied cells of a rectangular grid.

    Coordinates are snapped to integer row/column indices; missing cells just
    produce missing edges.
    """
    pts = _as_coords(coords)
    ix, sx = _snap_axis(pts[:, 0], "x")
    iy, sy = _snap_axis(pts[:, 1], "y")
    # integer indices make the squared index distances exact
    pairs, sq = _cell_pairs(np.column_stack([ix, iy]).astype(np.float64), 1.0)
    if np.any(sq == 0):
        v = int(pairs[np.argmax(sq == 0), 0])
        raise GeometryError(f"two spots snap to the same grid cell ({ix[v]}, {iy[v]})")
    pairs = pairs[sq == 1]
    # neighbours farther than 1.1x the axis spacing are treated like missing
    # cells; an axis with a single level (spacing None) has no pairs along it
    spacing = np.where(ix[pairs[:, 0]] != ix[pairs[:, 1]], sx or 0.0, sy or 0.0)
    d = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    near = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= 1.1 * spacing
    return SpatialGraph(pts, pairs[near], GraphKind.RECT_GRID,
                        {"spacing_x": sx, "spacing_y": sy})


def _snap_axis(vals: np.ndarray, name: str) -> tuple[np.ndarray, float | None]:
    """Map one coordinate axis to integer lattice indices within 10% of the
    spacing; returns (indices, estimated spacing).

    Within 10% of their lattice lines, the sorted distinct values of one level
    lie at most 20% of the spacing apart and those of adjacent levels at least
    80%, so the within-level gaps end at a more than fourfold jump in the
    sorted gaps. Jitter and empty bands can make other such jumps too; each
    is tried, the sharpest first, then no grouping at all (an exact lattice),
    and the first whose levels sit on an evenly spaced lattice is kept.
    """
    uniq = np.unique(vals)
    gaps = np.diff(uniq)
    ordered = np.sort(gaps)
    ratios = ordered[1:] / ordered[:-1]
    jumps = np.flatnonzero(ratios > 4.0)
    cuts = ordered[jumps[np.argsort(-ratios[jumps], kind="stable")]]  # sharpest first
    first_error = None
    for cut in [*cuts, 0.0]:
        try:
            return _snap_levels(vals, uniq, np.flatnonzero(gaps > cut) + 1, name)
        except GeometryError as exc:
            first_error = first_error or exc
    raise first_error


def _snap_levels(vals, uniq, starts, name) -> tuple[np.ndarray, float | None]:
    """Lattice indices and spacing of `vals` when the sorted distinct values
    `uniq` form one level per run beginning at `starts`."""
    bounds = np.concatenate([[0], starts, [len(uniq)]])
    if len(bounds) == 2:
        return np.zeros(len(vals), dtype=np.int64), None
    sizes = np.diff(bounds)
    centers = uniq[bounds[:-1]]  # a level of one value is centered on it
    for lvl in np.flatnonzero(sizes > 1):
        centers[lvl] = uniq[bounds[lvl]:bounds[lvl + 1]].mean()
    level_of_uniq = np.repeat(np.arange(len(centers)), sizes)
    # Consecutive level gaps are integer multiples of the spacing (missing
    # columns give multiples > 1); refine the estimate over all gaps so level
    # jitter cannot accumulate into drift.
    diffs = np.diff(centers)
    mult = np.maximum(np.rint(diffs / diffs.min()), 1.0)
    spacing = float(diffs.sum() / mult.sum())
    lattice_idx = np.concatenate([[0.0], np.cumsum(mult)])
    anchor = float(np.mean(centers - lattice_idx * spacing))
    center_resid = np.abs(centers - (anchor + lattice_idx * spacing))
    if np.any(center_resid > RECT_SNAP_TOLERANCE * spacing):
        raise GeometryError(
            f"{name}-coordinate levels are not evenly spaced "
            f"(spacing {spacing:.4g}); not a rectangular grid"
        )

    pos = np.searchsorted(uniq, vals)
    level = level_of_uniq[pos]
    resid = np.abs(vals - centers[level])
    if np.any(resid > RECT_SNAP_TOLERANCE * spacing):
        worst = int(np.argmax(resid))
        raise GeometryError(
            f"{name}-coordinate of spot {worst} is {resid[worst]:.4g} away from the nearest "
            f"lattice line (spacing {spacing:.4g}); not a rectangular grid"
        )
    return lattice_idx[level].astype(np.int64), spacing

