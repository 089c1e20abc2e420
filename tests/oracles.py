"""Brute-force reference implementations used to check the fast paths.

Everything here is deliberately naive (flood fills, a vertex-by-vertex
union-find sweep, per-pair loops, double loops, exhaustive triple
enumeration) and shares no code with the package internals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from topospat import (
    DomainMismatchError,
    GeometryError,
    GraphKind,
    LandscapeSet,
    PersistenceDiagram,
    SpatialGraph,
)


def make_graph(coords, edges) -> SpatialGraph:
    """Build a SpatialGraph from an arbitrary edge list (canonicalized here)."""
    coords = np.asarray(coords, dtype=np.float64)
    if len(edges):
        e = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
        e = np.unique(e[e[:, 0] != e[:, 1]], axis=0)
    else:
        e = np.zeros((0, 2), dtype=np.int64)
    return SpatialGraph(coords, e, GraphKind.EPSILON, {})


def random_graph(rng: np.random.Generator, n: int, edge_prob: float) -> SpatialGraph:
    coords = rng.random((n, 2))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    return make_graph(coords, edges)


def neighbor_lists(graph: SpatialGraph) -> list[list[int]]:
    """Plain-int adjacency lists, one per vertex, in edge order."""
    nbrs: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for i, j in graph.edges.tolist():
        nbrs[i].append(j)
        nbrs[j].append(i)
    return nbrs


def hex_lattice(rows: int, cols: int, pitch: float = 1.0) -> np.ndarray:
    """Rows of a hexagonal lattice; odd rows shifted by half a pitch."""
    pts = []
    for r in range(rows):
        for c in range(cols):
            pts.append((c * pitch + (r % 2) * pitch / 2.0, r * pitch * math.sqrt(3) / 2.0))
    return np.asarray(pts)


def hex_neighbors_kdtree(coords, pitch: float | None = None) -> tuple[float, np.ndarray]:
    """Pitch and canonical edges of a hexagonal grid by k-d tree queries.

    The pitch, when not given, is the smallest nonzero distance from a point
    to its nearest other point; points with a coincident twin have nearest
    distance 0 and are skipped. Edges join pairs whose squared distance is
    at most (1.05 pitch)**2 (the tree's own bound) and whose distance is at
    least 0.95 pitch.
    """
    from scipy.spatial import cKDTree

    pts = np.asarray(coords, dtype=np.float64)
    tree = cKDTree(pts)
    if pitch is None:
        dist, _ = tree.query(pts, k=2)
        nearest = dist[:, 1]
        nearest = nearest[nearest > 0]
        if nearest.size == 0:
            raise GeometryError("all points coincide; cannot estimate hex pitch")
        pitch = float(nearest.min())
    lo, hi = pitch * 0.95, pitch * 1.05
    pairs = tree.query_pairs(r=hi, output_type="ndarray")
    if len(pairs):
        d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        pairs = pairs[d >= lo]
    if not len(pairs):
        return pitch, np.zeros((0, 2), dtype=np.int64)
    return pitch, np.unique(np.sort(pairs.astype(np.int64), axis=1), axis=0)


def superlevel_components(graph: SpatialGraph, values, delta: float) -> int:
    """Connected components of the subgraph on {v : values[v] >= delta}, by BFS."""
    values = np.asarray(values, dtype=np.float64)
    active = set(np.flatnonzero(values >= delta).tolist())
    adj = {v: [] for v in active}
    for i, j in graph.edges:
        i, j = int(i), int(j)
        if i in active and j in active:
            adj[i].append(j)
            adj[j].append(i)
    seen: set[int] = set()
    comps = 0
    for v in active:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps


def h0_sweep_diagram(graph: SpatialGraph, values) -> PersistenceDiagram:
    """H0 superlevel diagram by the union-find sweep: vertices in decreasing
    value order (ties by index), each merging its neighbours' components
    under the elder rule; pairs in canonical order (birth descending, then
    death descending, then birth vertex)."""
    vals = np.asarray(values, dtype=np.float64)
    n = len(vals)
    if n == 0:
        empty = np.zeros(0)
        return PersistenceDiagram(empty, empty.copy(), np.zeros(0, dtype=np.int64),
                                  np.zeros(0, dtype=bool), 0.0, 0.0)
    f_min = float(vals.min())
    f_max = float(vals.max())
    neighbors = neighbor_lists(graph)
    order = np.lexsort((np.arange(n), -vals)).tolist()
    values = vals.tolist()

    parent = list(range(n))
    birth_val = [0.0] * n   # valid at roots only
    birth_vtx = list(range(n))
    active = bytearray(n)
    births: list[float] = []
    deaths: list[float] = []
    bvs: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in order:
        val = values[v]
        roots = []
        for u in neighbors[v]:
            if active[u]:
                r = find(u)
                if r not in roots:
                    roots.append(r)
        active[v] = 1
        if not roots:
            birth_val[v] = val
            birth_vtx[v] = v
            continue
        # distinct neighbouring components merge at v; the younger ones die
        elder = roots[0]
        for r in roots[1:]:
            if (birth_val[r], -birth_vtx[r]) > (birth_val[elder], -birth_vtx[elder]):
                elder = r
        for r in roots:
            if r == elder:
                continue
            births.append(birth_val[r])
            deaths.append(val)
            bvs.append(birth_vtx[r])
            parent[r] = elder
        parent[v] = elder

    ess = [False] * len(births)
    for v in range(n):
        if parent[v] == v:
            births.append(birth_val[v])
            deaths.append(f_min)
            bvs.append(birth_vtx[v])
            ess.append(True)
    b = np.asarray(births, dtype=np.float64)
    d = np.asarray(deaths, dtype=np.float64)
    bv = np.asarray(bvs, dtype=np.int64)
    e = np.asarray(ess, dtype=bool)
    o = np.lexsort((bv, -d, -b))
    return PersistenceDiagram(b[o], d[o], bv[o], e[o], f_min, f_max)


def pairs_alive_at(d: PersistenceDiagram, delta: float) -> int:
    """Alive-pair count at delta under the component-count convention."""
    alive = int(np.count_nonzero((d.deaths < delta) & (delta <= d.births)))
    if delta == d.f_min:
        alive += int(np.count_nonzero(d.essential))
    return alive


def exact_distance_count(curves, p) -> int:
    """Curves after the first whose L^p distance from the pointwise mean is at
    least the first curve's, compared in exact rational arithmetic.

    Segment values are read at interval midpoints of the union of all knots,
    so no float rounding enters any comparison (distances are compared raised
    to the power p, which preserves their order).
    """
    grid = sorted({float(x) for c in curves for x in c.knots})
    mids = [(a + b) / 2.0 for a, b in zip(grid, grid[1:])]
    widths = [Fraction(b) - Fraction(a) for a, b in zip(grid, grid[1:])]
    rows = [[Fraction(c.value_at(m)) for m in mids] for c in curves]
    mean = [sum(col) / len(rows) for col in zip(*rows)]
    if math.isinf(p):
        dist = [max((abs(v - m) for v, m in zip(row, mean)), default=Fraction(0)) for row in rows]
    else:
        dist = [sum(abs(v - m) ** int(p) * w for v, m, w in zip(row, mean, widths))
                for row in rows]
    return sum(1 for d in dist[1:] if d >= dist[0])


def dense_grid_landscape(d: PersistenceDiagram, grid, n_levels: int) -> np.ndarray:
    """Landscape levels 1..n_levels at the grid points: the k-th largest tent
    value by a full sort of every tent at every point; rows past the pair
    count are zero."""
    grid = np.asarray(grid, dtype=np.float64)
    tents = np.maximum(
        0.0, np.minimum(d.births[:, None] - grid[None, :],
                        grid[None, :] - d.deaths[:, None]))
    ordered = -np.sort(-tents, axis=0)
    out = np.zeros((n_levels, len(grid)))
    k = min(n_levels, len(d))
    out[:k] = ordered[:k]
    return out


def _pl_abs_pow_integral(xs: np.ndarray, ys: np.ndarray, p: float) -> float:
    """Exact integral of |f|^p (max |f| for p=inf) for piecewise-linear f
    given by knots (xs, ys); 0 on a single knot."""
    if len(xs) < 2:
        return 0.0
    dx = np.diff(xs)
    y1, y2 = ys[:-1], ys[1:]
    if math.isinf(p):
        return float(np.max(np.abs(ys)))
    if p == 1.0:
        same = y1 * y2 >= 0
        area = np.empty_like(dx)
        area[same] = 0.5 * dx[same] * (np.abs(y1[same]) + np.abs(y2[same]))
        cross = ~same
        if cross.any():
            t = y1[cross] / (y1[cross] - y2[cross])
            area[cross] = 0.5 * dx[cross] * (
                t * np.abs(y1[cross]) + (1.0 - t) * np.abs(y2[cross])
            )
        return float(area.sum())
    return float(np.sum(dx * (y1 * y1 + y1 * y2 + y2 * y2) / 3.0))


def pairwise_landscape_distance(L1: LandscapeSet, L2: LandscapeSet, p) -> float:
    """Sum over levels of the L^p distance of one pair of landscapes, each
    level compared on the union of the two knot lists with np.interp."""
    if L1.domain != L2.domain or L1.max_levels != L2.max_levels:
        raise DomainMismatchError("landscapes differ in domain or level count")
    total = 0.0
    for (x1, y1), (x2, y2) in zip(L1.levels, L2.levels):
        xs = np.unique(np.concatenate([x1, x2]))
        diff = np.interp(xs, x1, y1) - np.interp(xs, x2, y2)
        val = _pl_abs_pow_integral(xs, diff, p)
        total += val if math.isinf(p) else val ** (1.0 / p) if val > 0 else 0.0
    return total


def random_diagram(rng: np.random.Generator, max_pairs: int = 12,
                   allow_degenerate: bool = True) -> PersistenceDiagram:
    """Synthetic diagram with duplicates and zero-lifetime pairs mixed in."""
    m = int(rng.integers(1, max_pairs + 1))
    births = np.round(rng.uniform(-2, 5, m), 3)
    deaths = births - np.round(rng.uniform(0, 3, m), 3)
    if allow_degenerate and m > 1:
        deaths[0] = births[0]                       # a zero-lifetime pair
        if m > 2 and rng.random() < 0.5:
            births[1], deaths[1] = births[2], deaths[2]  # a duplicate pair
    f_min = float(deaths.min())
    f_max = float(births.max())
    if rng.random() < 0.3:
        f_min -= float(np.round(rng.uniform(0, 1), 3))
        f_max += float(np.round(rng.uniform(0, 1), 3))
    essential = deaths == f_min
    return PersistenceDiagram(
        births=births, deaths=deaths,
        birth_vertices=np.arange(m, dtype=np.int64),
        essential=essential, f_min=f_min, f_max=f_max,
    )


def moran_direct(graph: SpatialGraph, values) -> float:
    """Moran's I from the dense weight matrix with explicit double loops."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    w = np.zeros((n, n))
    for i, j in graph.edges:
        w[int(i), int(j)] = 1.0
        w[int(j), int(i)] = 1.0
    dev = values - values.mean()
    num = 0.0
    for i in range(n):
        for j in range(n):
            num += w[i, j] * dev[i] * dev[j]
    return (n / w.sum()) * (num / float(np.sum(dev ** 2)))


def auprc_enumeration(scores, labels) -> float:
    """Average precision by re-counting TP/PP at every distinct threshold.

    Term-for-term the same arithmetic expression as the step estimator, so
    agreement must be exact, but tp/pp come from independent brute-force
    counts rather than cumulative sums.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    total_pos = float(labels.sum())
    terms = []
    tp_prev = 0.0
    for s in sorted(set(scores.tolist()), reverse=True):
        tp = float(sum(1 for sc, lb in zip(scores, labels) if sc >= s and lb))
        pp = float(sum(1 for sc in scores if sc >= s))
        terms.append((tp - tp_prev) * tp / pp)
        tp_prev = tp
    return math.fsum(terms) / total_pos


def spearman_direct(x, y) -> float:
    """Average-rank Spearman via explicit tie groups and a scalar Pearson."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = r
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


# ---------------------------------------------------------------------------
# Delaunay geometry oracle
# ---------------------------------------------------------------------------

def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _incircle(a, b, c, d) -> float:
    """Positive iff d lies strictly inside the circumcircle of ccw triangle abc."""
    m = np.array([
        [a[0] - d[0], a[1] - d[1], (a[0] - d[0]) ** 2 + (a[1] - d[1]) ** 2],
        [b[0] - d[0], b[1] - d[1], (b[0] - d[0]) ** 2 + (b[1] - d[1]) ** 2],
        [c[0] - d[0], c[1] - d[1], (c[0] - d[0]) ** 2 + (c[1] - d[1]) ** 2],
    ])
    return float(np.linalg.det(m))


def empty_circumcircle_triangles(pts, tol: float = 1e-9):
    """All triples whose circumcircle contains no other point (within tol)."""
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    triangles = []
    for i, j, k in combinations(range(n), 3):
        orientation = _orient(pts[i], pts[j], pts[k])
        if abs(orientation) <= tol:
            continue
        a, b, c = (i, j, k) if orientation > 0 else (i, k, j)
        empty = True
        for l in range(n):
            if l in (i, j, k):
                continue
            if _incircle(pts[a], pts[b], pts[c], pts[l]) > tol:
                empty = False
                break
        if empty:
            triangles.append((i, j, k))
    return triangles


def delaunay_edges_bruteforce(pts, tol: float = 1e-9) -> set[tuple[int, int]]:
    """Edge set of the empty-circumcircle triangles."""
    edges: set[tuple[int, int]] = set()
    for i, j, k in empty_circumcircle_triangles(pts, tol):
        edges.update({tuple(sorted((i, j))), tuple(sorted((i, k))), tuple(sorted((j, k)))})
    return edges
