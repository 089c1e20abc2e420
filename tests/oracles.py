"""Brute-force reference implementations used to check the fast paths.

Everything here is deliberately naive (flood fills, a vertex-by-vertex
union-find sweep, per-pair loops, double loops, exhaustive triple
enumeration) and shares no code with the package internals.
"""
from __future__ import annotations

import bisect
import csv
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from topospat import (
    Dataset,
    DomainMismatchError,
    GeometryError,
    GraphKind,
    LandscapeSet,
    LoadError,
    ParseError,
    PersistenceDiagram,
    SpatialGraph,
    delaunay_graph,
    hex_grid_graph,
)


# a tab and every line boundary of str.splitlines, in code-point order: the
# characters that would split a row of a TSV that is read by lines and tabs
ROW_BREAKS = "\t" + "".join(
    line[-1] for line in "".join(map(chr, range(0x110000))).splitlines(keepends=True)[:-1])


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


def degrees_add_at(graph: SpatialGraph) -> np.ndarray:
    """Vertex degrees by scattered increments, as SpatialGraph.degrees once was."""
    deg = np.zeros(graph.n_vertices, dtype=np.int64)
    if graph.n_edges:
        np.add.at(deg, graph.edges[:, 0], 1)
        np.add.at(deg, graph.edges[:, 1], 1)
    return deg


def edge_index_loop(graph: SpatialGraph) -> tuple[np.ndarray, np.ndarray]:
    """The (2, m) edge ends, lower end first, and the row pointer at which
    each vertex's edges to higher-numbered vertices start, by a plain loop
    over `graph.edges`: the reference for `SpatialGraph.edge_index`."""
    lower, higher = [], []
    row_ptr = [0] * (graph.n_vertices + 1)
    for i, j in graph.edges.tolist():
        lower.append(i)
        higher.append(j)
        row_ptr[i + 1] += 1
    for v in range(graph.n_vertices):
        row_ptr[v + 1] += row_ptr[v]
    return np.asarray([lower, higher], dtype=np.int64).reshape(2, -1), np.asarray(row_ptr)


def component_count_scipy(graph: SpatialGraph) -> int:
    """Connected components of the graph, isolated vertices included, by
    scipy's `connected_components`: the reference for the cached
    `SpatialGraph.n_components`."""
    return component_count(graph.n_vertices, graph.edges[:, 0], graph.edges[:, 1])


def component_count(n_nodes: int, a, b) -> int:
    """Connected components of the multigraph on n_nodes nodes with edges
    (a[e], b[e]), loops and isolated nodes included, by scipy's
    `connected_components`."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if n_nodes == 0:
        return 0
    adjacency = csr_matrix((np.ones(len(a)), (a, b)), shape=(n_nodes, n_nodes))
    return int(connected_components(adjacency, directed=False, return_labels=False))


def kruskal_forest_keys(a, b, keys, n_nodes: int) -> list:
    """Keys of the edges Kruskal's algorithm keeps, walking the edges (a[e],
    b[e]) in increasing key order with a plain union-find; sorted. Every
    minimum spanning forest has this multiset of keys."""
    parent = list(range(n_nodes))

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    kept = []
    for e in sorted(range(len(keys)), key=lambda e: keys[e]):
        u, w = find(int(a[e])), find(int(b[e]))
        if u != w:
            parent[max(u, w)] = min(u, w)
            kept.append(int(keys[e]))
    return sorted(kept)


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


def rect_neighbors_dict(coords) -> tuple[dict, np.ndarray]:
    """Params and canonical edges of a rectangular grid by a dict of cells.

    Coordinates are snapped with the package's own `_snap_axis`; each
    occupied cell then looks up its (+1, 0) and (0, +1) neighbours one at a
    time, and a pair longer than 1.1x the axis spacing is dropped.
    """
    from topospat.spatial_graph import _snap_axis

    pts = np.asarray(coords, dtype=np.float64)
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
    params = {"spacing_x": sx, "spacing_y": sy}
    if not pairs:
        return params, np.zeros((0, 2), dtype=np.int64)
    return params, np.unique(np.sort(np.asarray(pairs, dtype=np.int64), axis=1), axis=0)


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


def betti_counts_full_graph(graph: SpatialGraph, values, perms) -> tuple[np.ndarray, np.ndarray]:
    """`(levels, counts)` as superlevel_betti_counts returns them, from one
    spanning forest of the whole graph per assignment, floor edges and all:
    each edge keyed 1 + the larger dense rank (0 at the maximum) of its
    ends, and counts[i, k] = #{v : f_v >= levels[k]} - #{forest edges keyed
    <= K - k}. The reference for the kernel, which skips the floor."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    vals = np.asarray(values, dtype=np.float64)
    n = len(vals)
    levels, inverse = np.unique(vals, return_inverse=True)
    k = len(levels)
    rank = k - 1 - inverse
    above = np.cumsum(np.bincount(rank, minlength=k))[::-1]
    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    rows = []
    for perm in [np.arange(n)] + [np.asarray(p) for p in perms]:
        key = rank[perm] + 1.0
        forest = minimum_spanning_tree(
            csr_matrix((np.maximum(key[e0], key[e1]), (e0, e1)), shape=(n, n)))
        merged = np.cumsum(np.bincount(forest.data.astype(np.int64), minlength=k + 1))
        rows.append(above - merged[k:0:-1])
    return levels, np.asarray(rows, dtype=np.int64).reshape(len(rows), k)


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


def step_value_loop(curve, x: float) -> float:
    """Value of a step curve at x, found by walking its knots in order."""
    knots = curve.knots.tolist()
    for i, k in enumerate(knots):
        if x == k:
            return float(curve.point_values[i])
        if i + 1 < len(knots) and k < x < knots[i + 1]:
            return float(curve.segment_values[i])
    return 0.0


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


def abs_pow_integrals_where(dx: np.ndarray, ys: np.ndarray, p: float) -> np.ndarray:
    """Integral of |f|^p (max |f| for p=inf) for each row of `ys`, knots
    `dx` apart, as one `np.where` over fresh arrays: the formula the in-place
    `summaries._abs_pow_integrals` must reproduce bit for bit."""
    if len(dx) == 0:
        return np.zeros(len(ys))
    if math.isinf(p):
        return np.max(np.abs(ys), axis=1)
    y1, y2 = ys[:, :-1], ys[:, 1:]
    if p == 1.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            t = y1 / (y1 - y2)
            crossing = 0.5 * dx * (t * np.abs(y1) + (1.0 - t) * np.abs(y2))
        area = np.where(y1 * y2 >= 0, 0.5 * dx * (np.abs(y1) + np.abs(y2)), crossing)
        return area.sum(axis=1)
    return np.sum(dx * (y1 * y1 + y1 * y2 + y2 * y2) / 3.0, axis=1)


def landscape_lp_distances_union(lands, center: LandscapeSet, p) -> np.ndarray:
    """Distances of every landscape from `center`, each level compared on
    the union of all their knots, every landscape interpolated onto it at
    once and integrated by `abs_pow_integrals_where`."""
    total = np.zeros(len(lands))
    for k, (cx, cy) in enumerate(center.levels):
        grid = np.unique(np.concatenate([cx] + [L.levels[k][0] for L in lands]))
        rows = np.asarray([np.interp(grid, *L.levels[k]) for L in lands]).reshape(len(lands), -1)
        integral = abs_pow_integrals_where(np.diff(grid), rows - np.interp(grid, cx, cy), p)
        if math.isinf(p):
            total += integral
        else:
            total += [v ** (1.0 / p) if v > 0 else 0.0 for v in integral.tolist()]
    return total


def mean_landscape_rows(lands, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Level k of the mean landscape by interpolation: every landscape's
    level on the union of their knots (np.interp, constant past a level's
    ends), each column summed correctly rounded by math.fsum."""
    grid = np.unique(np.concatenate([L.levels[k][0] for L in lands]))
    rows = [np.interp(grid, *L.levels[k]) for L in lands]
    return grid, np.asarray([math.fsum(column) for column in zip(*rows)]) / len(lands)


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


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance between two diagrams, by brute force.

    Every pair is an ordinary point (birth, death), essential pairs too:
    they die at the minimum. A point is matched to a point of the other
    diagram at their L-inf distance, or to the diagonal at half its
    lifetime. The bipartite graph holds each diagram's points plus one
    diagonal copy of each of the other's, and two diagonal copies match at
    zero cost; the distance is the least candidate cost at which it has a
    perfect matching, found by binary search over the sorted candidates
    with Kuhn's augmenting paths. Points on the diagonal match it at zero
    cost, so they are dropped first."""
    p = np.column_stack([d1.births, d1.deaths])[d1.births > d1.deaths]
    q = np.column_stack([d2.births, d2.deaths])[d2.births > d2.deaths]
    m, n = len(p), len(q)
    # rows: p, then the diagonal copies of q; columns: q, then those of p
    cost = np.full((m + n, n + m), np.inf)
    cost[:m, :n] = np.abs(p[:, None, :] - q[None, :, :]).max(axis=2)
    cost[np.arange(m), n + np.arange(m)] = (p[:, 0] - p[:, 1]) / 2
    cost[m + np.arange(n), np.arange(n)] = (q[:, 0] - q[:, 1]) / 2
    cost[m:, n:] = 0.0
    candidates = np.unique(cost[np.isfinite(cost)])
    if not len(candidates):
        return 0.0
    lo, hi = 0, len(candidates) - 1  # all to the diagonal costs at most the largest
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Whether the square boolean adjacency matrix admits a perfect matching."""
    adjacent = [np.flatnonzero(row).tolist() for row in allowed]
    match = [-1] * allowed.shape[1]  # the row matched to each column

    def augment(r, seen):
        for c in adjacent[r]:
            if not seen[c]:
                seen[c] = True
                if match[c] < 0 or augment(match[c], seen):
                    match[c] = r
                    return True
        return False

    return all(augment(r, [False] * len(match)) for r in range(len(adjacent)))


def planted(d: PersistenceDiagram, shift: float) -> PersistenceDiagram:
    """`d` with the birth of its longest-lived pair raised by `shift`: a
    violation of stability to plant, as no other point lies beyond d.f_max."""
    births = d.births.copy()
    births[np.argmax(d.births - d.deaths)] += shift
    return PersistenceDiagram(births, d.deaths, d.birth_vertices, d.essential,
                              d.f_min, d.f_max + shift)


def stability_cases() -> list:
    """`(name, graph, f, g)`: values f on random Delaunay graphs and on a hex
    lattice, continuous or tie-heavy counts with a floor plateau, and g = f
    + e with ||e||_inf at most 3 % of f's range; e is uniform noise, or
    +-||e||_inf and 0 at random, which keeps many of the counts' ties."""
    rng = np.random.default_rng(83)
    graphs = [("delaunay", delaunay_graph(rng.random((50, 2)))),
              ("delaunay", delaunay_graph(rng.random((70, 2)))),
              ("hex", hex_grid_graph(hex_lattice(8, 9)))]
    cases = []
    for gname, graph in graphs:
        n = graph.n_vertices
        counts = rng.integers(1, 6, n).astype(float)
        counts[rng.permutation(n)[:3 * n // 5]] = 0.0  # the floor plateau
        for vname, f in (("continuous", rng.lognormal(0.0, 0.7, n)), ("counts", counts)):
            for scale in (0.005, 0.03):
                size = scale * (f.max() - f.min())
                for ename, e in (("uniform", rng.uniform(-size, size, n)),
                                 ("ternary", size * rng.integers(-1, 2, n))):
                    cases.append((f"{gname}{n}-{vname}-{ename}-{scale}", graph, f, f + e))
    return cases


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


def moran_exact_measures(graph: SpatialGraph, values, assignments) -> list[Fraction]:
    """|I - mean I| of each assignment (an index array into `values`), in
    rational arithmetic on the float centred values, from integer edge
    counts per unordered (level, level) pair: assignments with equal counts
    have equal Moran's I."""
    values = np.asarray(values, dtype=np.float64)
    dev = values - values.mean()
    levels = sorted({Fraction(float(d)) for d in dev})
    code = {lvl: k for k, lvl in enumerate(levels)}
    codes = [code[Fraction(float(d))] for d in dev]
    ss = sum(Fraction(float(d)) ** 2 for d in dev)
    stats = []
    for perm in assignments:
        counts = {}
        for i, j in graph.edges:
            pair = tuple(sorted((codes[int(perm[int(i)])], codes[int(perm[int(j)])])))
            counts[pair] = counts.get(pair, 0) + 1
        num = sum(c * levels[a] * levels[b] for (a, b), c in counts.items())
        stats.append(Fraction(len(values), graph.n_edges) * num / ss)
    mean = sum(stats) / len(stats)
    return [abs(s - mean) for s in stats]


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


def exact_points(pts) -> list[tuple[int, int]]:
    """Float points as integers: every coordinate times one power of two. The
    scale is positive, so every orientation and in-circle sign is kept."""
    ratios = [v.as_integer_ratio() for v in np.asarray(pts, dtype=np.float64).ravel().tolist()]
    den = max(d for _, d in ratios)
    vals = [n * (den // d) for n, d in ratios]
    return list(zip(vals[0::2], vals[1::2]))


def exact_orient(a, b, c):
    """The orientation determinant of three points given in ints or Fractions."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def exact_incircle(a, b, c, d):
    """The in-circle determinant of four points given in ints or Fractions:
    positive iff d lies strictly inside the circle through ccw a, b, c."""
    adx, ady, bdx, bdy = a[0] - d[0], a[1] - d[1], b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))


def empty_circumcircle_triangles(pts, tol: float | None = 1e-9):
    """All triples whose circumcircle contains no other point (within tol).

    With tol None every sign is exact: a triple counts when it is not
    collinear and no other point lies strictly inside its circumcircle.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    if tol is None:
        pts = exact_points(pts)
        orient, incircle, tol = exact_orient, exact_incircle, 0
    else:
        orient, incircle = _orient, _incircle
    triangles = []
    for i, j, k in combinations(range(n), 3):
        orientation = orient(pts[i], pts[j], pts[k])
        if abs(orientation) <= tol:
            continue
        a, b, c = (i, j, k) if orientation > 0 else (i, k, j)
        empty = True
        for l in range(n):
            if l in (i, j, k):
                continue
            if incircle(pts[a], pts[b], pts[c], pts[l]) > tol:
                empty = False
                break
        if empty:
            triangles.append((i, j, k))
    return triangles


def delaunay_edges_bruteforce(pts, tol: float | None = 1e-9) -> set[tuple[int, int]]:
    """Edge set of the empty-circumcircle triangles (exact when tol is None)."""
    edges: set[tuple[int, int]] = set()
    for i, j, k in empty_circumcircle_triangles(pts, tol):
        edges.update({tuple(sorted((i, j))), tuple(sorted((i, k))), tuple(sorted((j, k)))})
    return edges


def hull_boundary_count(pts) -> int:
    """Distinct points on the boundary of the convex hull, collinear ones
    included, by an exact monotone chain."""
    P = sorted(set(exact_points(pts)))
    chains = []
    for seq in (P, P[::-1]):
        chain: list = []
        for p in seq:
            while len(chain) >= 2 and exact_orient(chain[-2], chain[-1], p) < 0:
                chain.pop()
            chain.append(p)
        chains.append(chain)
    return len(chains[0]) + len(chains[1]) - 2


def delaunay_edges_qhull(pts) -> np.ndarray:
    """Canonical Delaunay edges from scipy's Qhull, as delaunay_graph built
    them before it triangulated the points itself."""
    from scipy.spatial import Delaunay, QhullError

    pts = np.asarray(pts, dtype=np.float64)
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
    return np.unique(np.sort(pairs.astype(np.int64), axis=1), axis=0)


def epsilon_edges_kdtree(pts, epsilon: float) -> np.ndarray:
    """Canonical epsilon-graph edges from scipy's cKDTree pair query, as
    epsilon_graph built them before it used the numpy cell search."""
    from scipy.spatial import cKDTree

    pts = np.asarray(pts, dtype=np.float64)
    tree = cKDTree(pts)
    # query slightly wide, then apply the <= epsilon contract with one exact norm
    pairs = tree.query_pairs(r=float(epsilon) * (1 + 1e-9), output_type="ndarray")
    if len(pairs):
        d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        pairs = pairs[d <= epsilon]
    if not len(pairs):
        return np.zeros((0, 2), dtype=np.int64)
    return np.unique(np.sort(pairs.astype(np.int64), axis=1), axis=0)


# ---------------------------------------------------------------------------
# Reader oracle: csv.reader over every line, every cell a str
# ---------------------------------------------------------------------------

def _csv_rows(path: Path) -> list[tuple[int, list[str]]]:
    """(line number, cells) of every non-blank line of a delimited text file."""
    text = path.read_text(encoding="utf-8")
    lines = [(r, ln) for r, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise LoadError(f"{path}: file is empty")
    # the first delimiter that splits the header and the first data row into
    # the same number of fields, more than one; else tab if the header has one
    delimiter = "\t" if "\t" in lines[0][1] else ","
    for d in ("\t", ",") if len(lines) > 1 else ():
        header, row = (list(csv.reader([ln], delimiter=d))[0] for _, ln in lines[:2])
        if len(header) == len(row) and len(header) > 1:
            delimiter = d
            break
    reader = csv.reader((ln for _, ln in lines), delimiter=delimiter)
    return [(lines[reader.line_num - 1][0], row) for row in reader]


def _csv_cell(raw: str, path: Path, row: int, col: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(
            f"{path}: row {row}, column {col!r}: cannot parse {raw.strip()!r} as a number"
        ) from None
    if math.isnan(val) or math.isinf(val):
        raise ParseError(f"{path}: row {row}, column {col!r}: non-finite value {raw.strip()!r}")
    return val


def load_dataset_csv(counts_path, coords_path) -> Dataset:
    """load_dataset as a row-by-row csv reader that holds every cell as a str
    and converts each row with float() semantics. The package reader must
    return the same Dataset, and raise the same error, on every input."""
    counts_path, coords_path = Path(counts_path), Path(coords_path)

    (_, header), *coord_rows = _csv_rows(coords_path)
    if [h.strip().lower() for h in header[:3]] != ["id", "x", "y"]:
        raise LoadError(f"{coords_path}: expected header 'id<TAB>x<TAB>y', got {header!r}")
    ids, xy = [], []
    for r, row in coord_rows:
        if len(row) < 3:
            raise ParseError(f"{coords_path}: row {r}: expected 3 columns, got {len(row)}")
        ids.append(row[0].strip())
        xy.append((_csv_cell(row[1], coords_path, r, "x"), _csv_cell(row[2], coords_path, r, "y")))
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})[0]
        raise LoadError(f"{coords_path}: duplicate location ID {dup!r}")

    (_, header), *count_rows = _csv_rows(counts_path)
    count_ids = [c.strip() for c in header[1:]]
    known, in_counts = set(ids), set(count_ids)
    for cid in count_ids:
        if cid not in known:
            raise LoadError(
                f"location ID {cid!r} appears in {counts_path} but not in {coords_path}")
    for cid in ids:
        if cid not in in_counts:
            raise LoadError(
                f"location ID {cid!r} appears in {coords_path} but not in {counts_path}")
    if len(in_counts) != len(count_ids):
        dup = sorted({i for i in count_ids if count_ids.count(i) > 1})[0]
        raise LoadError(f"{counts_path}: duplicate location ID {dup!r}")

    position = {cid: c for c, cid in enumerate(count_ids)}
    reorder = np.asarray([position[cid] for cid in ids], dtype=np.int64)
    names = []
    mat = np.empty((len(count_rows), len(count_ids)))
    for i, (r, row) in enumerate(count_rows):
        if len(row) != len(count_ids) + 1:
            raise ParseError(
                f"{counts_path}: row {r}: expected {len(count_ids) + 1} columns, got {len(row)}")
        names.append(row[0].strip())
        try:
            mat[i] = row[1:]
        except ValueError:
            mat[i] = np.nan
        if not np.isfinite(mat[i]).all():
            mat[i] = [_csv_cell(cell, counts_path, r, count_ids[c])
                      for c, cell in enumerate(row[1:])]
    if np.any(reorder != np.arange(len(reorder))):
        mat = mat[:, reorder]

    meta = {"counts_path": str(counts_path), "coords_path": str(coords_path)}
    return Dataset(locations=np.asarray(xy), values=mat, feature_names=names,
                   location_ids=ids, metadata=meta)


def swept_landscapes(owner, births, deaths, lows, highs, max_levels: int) -> list[LandscapeSet]:
    """Landscapes of a block of diagrams held as flat pair arrays, pair j
    belonging to diagram owner[j], diagram i spanning [lows[i], highs[i]],
    each level by the sweep of Bubenik & Dłotko, "A persistence landscapes
    toolbox for topological statistics", J. Symb. Comput. 78 (2017). The
    tents, the pairs with birth > death, are sorted by owner, death
    ascending, then birth descending, ties keeping their order; each
    diagram's sweep queue is its slice of that order, as (death, -birth)
    tuples."""
    keep = births > deaths
    owner, births, deaths = owner[keep], births[keep], deaths[keep]
    order = np.lexsort((-births, deaths, owner))
    tents = list(zip(deaths[order].tolist(), (-births[order]).tolist()))
    stops = np.cumsum(np.bincount(owner, minlength=len(lows))).tolist()
    lands = []
    for lo, hi, start, stop in zip(lows, highs, [0] + stops, stops):
        queue = tents[start:stop]
        levels = []
        while queue and len(levels) < max_levels:
            levels.append(sweep_level(queue, lo, hi))
        if len(levels) < max_levels:  # levels past the pairs are the zero function
            ends = np.unique([lo, hi])
            levels += [(ends.copy(), np.zeros(len(ends))) for _ in range(max_levels - len(levels))]
        lands.append(LandscapeSet(tuple(levels), (lo, hi)))
    return lands


def sweep_level(queue: list, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper envelope of the tents over the sorted (death, -birth) tuples in
    `queue`, padded to [lo, hi]. Its tents leave the queue; where the next
    tent [a2, b2] crosses the current one [a, b], their overlap [a2, b] goes
    back in order, for a lower level.

    Knots are appended in order; where one rounds onto or below the last
    abscissa, the two are one knot, and the lower value stays."""
    a, nb = queue.pop(0)
    b = -nb
    xs, ys = [lo], [0.0]
    if a > lo:
        xs.append(a)
        ys.append(0.0)
    size, j = len(queue), 0
    while True:
        x, y = 0.5 * (a + b), 0.5 * (b - a)  # the apex of the current tent [a, b]
        if x > xs[-1]:  # else the last knot, a zero or a crossing, stays: it is no higher
            xs.append(x)
            ys.append(y)
        while j < size and queue[j][1] >= nb:  # nested under the current tent
            j += 1
        a2, nb2 = queue.pop(j) if j < size else (hi, None)
        if nb2 is not None and a2 < b:
            x, y = 0.5 * (a2 + b), 0.5 * (b - a2)
            if x > xs[-1]:
                xs.append(x)
                ys.append(y)
            elif y < ys[-1]:
                ys[-1] = y
            bisect.insort(queue, (a2, nb), lo=j)
        else:
            # zero from b to a2, or to hi after the last tent; no knot so far
            # lies right of b, the largest birth yet
            if b > xs[-1]:
                xs.append(b)
                ys.append(0.0)
            else:
                ys[-1] = 0.0
            if a2 > b:
                xs.append(a2)
                ys.append(0.0)
            if nb2 is None:
                return np.asarray(xs), np.asarray(ys)
            size -= 1
        a, b, nb = a2, -nb2, nb2
