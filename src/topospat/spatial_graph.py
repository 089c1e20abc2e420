"""Spatial neighborhood graphs over 2-D coordinates.

Four constructors cover the usual acquisition geometries: epsilon balls for
generic point clouds, Delaunay triangulation for continuous single-cell
coordinates, hexagonal grids (Visium-style spots), and rectangular grids.
All graphs are undirected and unweighted; edges are stored once as (i, j)
with i < j.

Hexagonal and rectangular grids are built with numpy alone; scipy.spatial is
imported only when an epsilon or Delaunay graph is built, so a lattice run
never pays for loading it.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

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

    edges is an (m, 2) int array with i < j per row, lexicographically sorted
    and duplicate-free. params records constructor inputs (epsilon, pitch, ...)
    for provenance and export.
    """

    coords: np.ndarray
    edges: np.ndarray
    kind: GraphKind
    params: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        if self.n_edges:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, indices) adjacency over both edge directions."""
        n = self.n_vertices
        if not self.n_edges:
            return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, dst


def _as_coords(coords) -> np.ndarray:
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError(f"coordinates must be an (n, 2) array, got shape {pts.shape}")
    if len(pts) < 1:
        raise ValidationError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("coordinates contain NaN or infinite values")
    return pts


def _finalize_edges(n: int, pairs: np.ndarray) -> np.ndarray:
    """Canonicalize edge pairs: i < j, sorted, unique, no self-loops."""
    if len(pairs) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    e = np.asarray(pairs, dtype=np.int64)
    if e.min() < 0 or e.max() >= n:
        raise ValidationError("edge endpoint out of range")
    e = e[e[:, 0] != e[:, 1]]
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
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    # query slightly wide, then apply the <= epsilon contract with one exact norm
    pairs = tree.query_pairs(r=float(epsilon) * (1 + 1e-9), output_type="ndarray")
    if len(pairs):
        d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        pairs = pairs[d <= epsilon]
    edges = _finalize_edges(len(pts), pairs)
    return SpatialGraph(pts, edges, GraphKind.EPSILON, {"epsilon": float(epsilon)})


def delaunay_graph(coords) -> SpatialGraph:
    """Edges of the Delaunay triangulation of the points.

    Cocircular point sets are triangulated deterministically for a fixed input
    ordering; either choice of diagonal is geometrically valid and downstream
    results do not depend on it.
    """
    pts = _as_coords(coords)
    if len(pts) < 3:
        raise GeometryError(
            "Delaunay triangulation needs at least 3 points; use epsilon_graph for smaller sets"
        )
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise GeometryError(
            "degenerate point set (collinear or coincident points); consider epsilon_graph"
        ) from exc
    if tri.simplices.size == 0:
        raise GeometryError("triangulation is empty; consider epsilon_graph")
    simp = tri.simplices
    pairs = np.concatenate([simp[:, [0, 1]], simp[:, [1, 2]], simp[:, [0, 2]]])
    edges = _finalize_edges(len(pts), pairs)
    return SpatialGraph(pts, edges, GraphKind.DELAUNAY, {})


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
    edges = _finalize_edges(len(pts), pairs)
    graph = SpatialGraph(pts, edges, GraphKind.HEX_GRID, {"pitch": pitch})

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
    cells: dict[tuple[int, int], int] = {}
    for v, cell in enumerate(zip(ix, iy)):
        if cell in cells:
            raise GeometryError(f"two spots snap to the same grid cell {cell}")
        cells[cell] = v
    pairs = []
    # neighbours farther than 1.1x the axis spacing are treated like missing cells
    for (cx, cy), v in cells.items():
        for other, spacing in (((cx + 1, cy), sx), ((cx, cy + 1), sy)):
            u = cells.get(other)
            if u is None:
                continue
            if spacing and np.linalg.norm(pts[v] - pts[u]) > 1.1 * spacing:
                continue
            pairs.append((v, u))
    edges = _finalize_edges(len(pts), np.asarray(pairs) if pairs else np.zeros((0, 2)))
    return SpatialGraph(pts, edges, GraphKind.RECT_GRID,
                        {"spacing_x": sx, "spacing_y": sy})


def _snap_axis(vals: np.ndarray, name: str) -> tuple[np.ndarray, float | None]:
    """Map one coordinate axis to integer lattice indices within 10% of the
    spacing; returns (indices, estimated spacing).

    Values are first grouped into lattice levels (a clear scale separation in
    the sorted gaps marks jitter vs. structure), then the level centers must
    themselves sit on an evenly spaced lattice.
    """
    uniq = np.unique(vals)
    if len(uniq) == 1:
        return np.zeros(len(vals), dtype=np.int64), None
    gaps = np.diff(uniq)
    gaps_sorted = np.sort(gaps)
    ratios = gaps_sorted[1:] / gaps_sorted[:-1]
    if len(ratios) and ratios.max() > 4.0:
        # jittered lattice: split levels at the gap-scale jump
        jump = int(np.argmax(ratios))
        threshold = float(np.sqrt(gaps_sorted[jump] * gaps_sorted[jump + 1]))
        boundaries = np.flatnonzero(gaps > threshold)
        starts = np.concatenate([[0], boundaries + 1])
        ends = np.concatenate([boundaries, [len(uniq) - 1]])
        centers = np.asarray([uniq[s:e + 1].mean() for s, e in zip(starts, ends)])
        level_of_uniq = np.zeros(len(uniq), dtype=np.int64)
        for lvl, (s, e) in enumerate(zip(starts, ends)):
            level_of_uniq[s:e + 1] = lvl
    else:
        centers = uniq
        level_of_uniq = np.arange(len(uniq), dtype=np.int64)

    if len(centers) == 1:
        return np.zeros(len(vals), dtype=np.int64), None
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


def write_graph(graph: SpatialGraph, path) -> None:
    """Write the edge list as TSV `i<TAB>j` plus a JSON sidecar `<path>.json`."""
    path = Path(path)
    lines = ["i\tj"]
    lines.extend(f"{int(i)}\t{int(j)}" for i, j in graph.edges)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {"kind": graph.kind.value, "n_vertices": graph.n_vertices,
               "n_edges": graph.n_edges, "params": graph.params}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
