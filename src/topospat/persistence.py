"""0-dimensional persistent homology of superlevel-set vertex filtrations.

The filtration threshold sweeps from the maximum to the minimum vertex value;
a vertex enters when its value is reached, an edge as soon as both endpoints
are present. For connected components, higher simplices and cubical cells
never matter, so one computation on the graph serves the simplicial
(epsilon/Delaunay/hex) and cubical (rectangular grid) constructions alike.

Conventions, fixed for determinism:
  * births and deaths are filtration (= vertex) values with birth >= death;
  * components that never merge die at the global minimum value instead of
    at -infinity;
  * equal values are processed in increasing vertex-index order, and on a
    merge between equally old components the one with the smaller birth
    vertex survives. Plateau merges therefore yield explicit zero-lifetime
    pairs; they contribute nothing to any downstream summary. Both kernels
    read this order from one dense rank per value (0 at the maximum); the
    diagram kernel keys vertex v by the int64 rank * n + v, n vertices.

Component counts without diagrams. By the Kruskal view of 0-dim persistence,
the maximum spanning forest of the graph under edge weight min(f_u, f_v)
determines the superlevel Betti number at every threshold u:

    beta0(u) = #{v : f_v >= u} - #{forest edges with min(f_u, f_v) >= u}

`superlevel_betti_counts` evaluates this identity for a feature and a whole
block of permutations of it, with one compiled spanning-forest call per block
of assignments, and returns integer counts only. The permutation tests for
Betti curves and total lifetime need nothing else.

Diagrams come from Kruskal's algorithm over the steepest-ascent basins of
the vertices instead of the vertices themselves, with no spanning-forest
call: `superlevel_diagrams` builds them for a feature and a block of
permutations at once, and `superlevel_diagram` is its one-assignment case.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ValidationError
from .spatial_graph import SpatialGraph


# Vertices plus edges of one block of assignments, or knots plus segments of
# one block of landscape levels on a shared grid; bounds the memory of a
# block while amortising per-call overhead over assignments.
_FOREST_BLOCK_SIZE = 1 << 15


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs of one H0 superlevel filtration.

    Stored as parallel arrays; `essential` flags components of the full graph
    (those that never merged). f_min/f_max give the filtered value range, which
    is also the domain of every functional summary.
    """

    births: np.ndarray
    deaths: np.ndarray
    birth_vertices: np.ndarray
    essential: np.ndarray
    f_min: float
    f_max: float

    def __post_init__(self):
        m = len(self.births)
        if not (len(self.deaths) == len(self.birth_vertices) == len(self.essential) == m):
            raise ValidationError("diagram arrays must have equal lengths")
        if m and np.any(self.births < self.deaths):
            raise ValidationError("every pair needs birth >= death")
        if m and (self.deaths.min() < self.f_min or self.births.max() > self.f_max):
            raise ValidationError("births and deaths must lie within [f_min, f_max]")

    def __len__(self) -> int:
        return len(self.births)


def _check_values(graph: SpatialGraph, values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or len(vals) != graph.n_vertices:
        raise DimensionError(
            f"got {vals.shape} values for a graph with {graph.n_vertices} vertices"
        )
    if not np.all(np.isfinite(vals)):
        raise ValidationError("feature values contain NaN or infinite entries")
    return vals


def _check_perms(rows: list, n: int) -> np.ndarray:
    """One block of permutations as a (len(rows), n) array."""
    bad = next((np.shape(r) for r in rows if np.shape(r) != (n,)), None)
    if bad is not None:
        raise DimensionError(f"got a permutation of shape {bad} for {n} vertices")
    return np.asarray(rows, dtype=np.intp).reshape(len(rows), n)


def _dense_ranks(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(levels, rank)`: the distinct values, increasing, and each vertex's dense
    rank among them, 0 at the maximum; -0.0 and 0.0 share a rank."""
    levels, inverse = np.unique(vals, return_inverse=True)
    return levels, len(levels) - 1 - inverse


def _assignment_blocks(n: int, perms, n_edges: int):
    """Index rows of the assignments, the identity and then every perm, in
    consecutive blocks; a block holds at most _FOREST_BLOCK_SIZE vertices plus
    edges. `perms` is read and checked one block at a time, so an iterator of
    permutations is never held in full."""
    block = max(1, _FOREST_BLOCK_SIZE // max(1, n + n_edges))
    rows = iter(perms)
    yield np.vstack([np.arange(n), _check_perms(list(itertools.islice(rows, block - 1)), n)])
    while len(chunk := _check_perms(list(itertools.islice(rows, block)), n)):
        yield chunk


def superlevel_diagram(graph: SpatialGraph, values) -> PersistenceDiagram:
    """H0 persistence diagram of the superlevel-set filtration of `values` on `graph`."""
    return superlevel_diagrams(graph, values, ())[0]


def superlevel_diagrams(graph: SpatialGraph, values, perms) -> list[PersistenceDiagram]:
    """H0 superlevel diagrams of a feature and of permuted assignments of it.

    Assignment 0 is `values` itself and assignment i >= 1 is
    `values[perms[i - 1]]`. `perms` may be any iterable of permutations of
    range(n), a 2-D array or a generator alike; it is read one block of
    assignments at a time, so a generator's draws are never all held. Each
    diagram is the one the elder-rule union-find sweep gives, pairs in
    canonical order: birth descending, then death descending, then birth
    vertex.

    The sweep is not run. Vertex v is keyed rank * n + v, with rank the
    dense rank of its value (0 at the maximum), so keys order the vertices as
    the sweep enters them, and each one steps to the smallest key in its closed
    neighbourhood; following the steps to their fixed point names its basin
    by the basin's maximum, which is where a component of the sweep is born.
    Every vertex has a key-descending path to its basin's maximum, so at
    each key threshold the superlevel components are the basins joined by
    the crossing edges whose ends are both present (the merge tree of Carr,
    Snoeyink & Axen, Comput. Geom. 24, 2003). Each pair of adjacent basins
    is keyed by its smallest max(key_u, key_w) over the edges between them,
    and Kruskal's algorithm walks the pairs of a block of assignments in key
    order: a pair whose basins are already joined is skipped, and otherwise
    the elder rule pairs the merge, so the maximum with the larger key dies
    at the value of the pair key's vertex. No spanning-forest call is made.
    """
    vals = _check_values(graph, values)
    n = graph.n_vertices
    if n == 0:
        empty = np.zeros(0)
        return [PersistenceDiagram(empty, empty, np.zeros(0, dtype=np.int64),
                                   np.zeros(0, dtype=bool), 0.0, 0.0)
                for idx in _assignment_blocks(0, perms, 0) for _ in idx]
    _, rank = _dense_ranks(vals)
    indptr, indices = graph.adjacency
    # closed neighbourhoods: each vertex, then its neighbours
    closed = np.insert(indices, indptr[:-1], np.arange(n))
    starts = indptr[:-1] + np.arange(n)
    diagrams: list[PersistenceDiagram] = []
    for idx in _assignment_blocks(n, perms, graph.n_edges):
        diagrams += _block_diagrams(graph, vals[idx], rank[idx], closed, starts)
    return diagrams


def _block_diagrams(graph: SpatialGraph, assigned: np.ndarray, ranks: np.ndarray,
                    closed: np.ndarray, starts: np.ndarray) -> list[PersistenceDiagram]:
    """Diagrams of the rows of the (S, n) matrix `assigned`, whose value ranks are `ranks`."""
    size, n = assigned.shape
    key = ranks * n + np.arange(n)
    # step[i, v]: i * n + the vertex of smallest key at or next to v; after
    # pointer jumping, basin[i, v]: i * n + the maximum of v's basin
    step = np.minimum.reduceat(key[:, closed], starts, axis=1) % n + (np.arange(size) * n)[:, None]
    while not np.array_equal(basin := step.ravel()[step], step):
        step = basin
    is_max = basin.ravel() == np.arange(size * n)
    node = np.cumsum(is_max) - 1  # maxima numbered by assignment, then vertex
    flat = np.flatnonzero(is_max)  # i * n + v of each maximum
    top = key.ravel()[flat].tolist()  # each maximum's key, for the elder rule

    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    edge_key = np.maximum(key[:, e0], key[:, e1]).ravel()
    a, b = node[basin[:, e0]].ravel(), node[basin[:, e1]].ravel()
    cross = a != b
    edge_key, a, b = edge_key[cross], a[cross], b[cross]
    # one edge per basin pair, with the pair's smallest key
    pair = np.minimum(a, b) * len(flat) + np.maximum(a, b)
    by_pair = np.argsort(pair)
    pair = pair[by_pair]
    firsts = np.flatnonzero(np.diff(pair, prepend=-1))
    weight = np.minimum.reduceat(edge_key[by_pair], firsts)
    by_key = np.argsort(weight, kind="stable")
    lo, hi = np.divmod(pair[firsts][by_key], len(flat))

    # Kruskal with the elder rule: each pair, in key order, whose basins are
    # not yet joined merges two components; the one whose maximum has the
    # larger key dies at the value of the pair key's vertex. Every pair of
    # one key holds that vertex's basin, so all the components it touches
    # merge at that key whatever the order among them.
    parent = list(range(len(flat)))
    dead, died_at = [], []
    for u, w, k in zip(lo.tolist(), hi.tolist(), weight[by_key].tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        if u == w:
            continue
        if top[u] > top[w]:
            u, w = w, u
        parent[w] = u
        dead.append(w)
        died_at.append(k % n)

    owner, birth_vertices = np.divmod(flat, n)
    births = assigned.ravel()[flat]
    f_min = np.asarray([row.min() for row in assigned])
    deaths = f_min[owner]
    deaths[dead] = assigned[owner[dead], died_at]
    essential = np.ones(len(flat), dtype=bool)
    essential[dead] = False
    canonical = np.lexsort((birth_vertices, -deaths, -births, owner))
    births, deaths = births[canonical], deaths[canonical]
    birth_vertices, essential = birth_vertices[canonical], essential[canonical]
    counts = np.bincount(owner, minlength=size)
    ends = np.cumsum(counts)
    return [
        PersistenceDiagram(births[e - c:e], deaths[e - c:e], birth_vertices[e - c:e],
                           essential[e - c:e], float(low), float(row.max()))
        for row, low, c, e in zip(assigned, f_min, counts, ends)
    ]


def superlevel_betti_counts(graph: SpatialGraph, values, perms) -> tuple[np.ndarray, np.ndarray]:
    """Superlevel Betti-0 numbers of a feature and of permuted assignments of it.

    Assignment 0 is `values` itself and assignment i >= 1 is
    `values[perms[i - 1]]`. `perms` may be any iterable of permutations of
    range(n), read one block at a time as in `superlevel_diagrams`. Returns
    `(levels, counts)`: the K distinct values in increasing order and a
    (1 + number of permutations, K) int64 matrix whose entry [i, k] is the
    number of connected components of the subgraph on {v : f_v >= levels[k]}
    under assignment i. All assignments share the multiset of values, hence
    the levels and the vertex count at or above each level; only their
    spanning forests differ.

    Each edge is keyed 1 + max(rank_u, rank_v), with rank the dense rank of
    the values (0 at the maximum), so a minimum spanning forest under the
    keys is a maximum spanning forest under min(f_u, f_v), and the forest
    edges keyed <= 1 + rank(u) span the superlevel subgraph at u. Keys start
    at 1 because the sparse graph format reads a zero weight as a missing
    edge. Blocks of assignments are stacked into one block-diagonal graph per
    spanning-forest call.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    vals = _check_values(graph, values)
    n, m = graph.n_vertices, graph.n_edges
    levels, rank = _dense_ranks(vals)
    k = len(levels)
    above = np.cumsum(np.bincount(rank, minlength=k))[::-1]
    vertex_key = rank + 1.0  # a zero weight would read as a missing edge
    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    row_ptr = np.append(0, np.cumsum(np.bincount(e0, minlength=n)))
    counts = []
    for idx in _assignment_blocks(n, perms, m):
        size = len(idx)
        block_key = vertex_key[idx]
        keys = np.maximum(block_key[:, e0], block_key[:, e1])
        offsets = np.arange(size)
        indptr = np.append((row_ptr[:-1] + (offsets * m)[:, None]).ravel(), size * m)
        indices = (e1 + (offsets * n)[:, None]).ravel()
        forest = minimum_spanning_tree(
            csr_matrix((keys.ravel(), indices, indptr), shape=(size * n, size * n)),
            overwrite=True,
        )
        # the vertices of assignment j are j*n .. (j+1)*n - 1
        bins = forest.indices // n * (k + 1) + forest.data.astype(np.int64)
        merged = np.bincount(bins, minlength=size * (k + 1)).reshape(size, k + 1).cumsum(axis=1)
        counts.append(above - merged[:, k:0:-1])  # merged[:, r]: forest edges keyed <= r
    return levels, np.vstack(counts)
