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
    pairs; they contribute nothing to any downstream summary.

Component counts without diagrams. By the Kruskal view of 0-dim persistence,
the maximum spanning forest of the graph under edge weight min(f_u, f_v)
determines the superlevel Betti number at every threshold u:

    beta0(u) = #{v : f_v >= u} - #{forest edges with min(f_u, f_v) >= u}

`superlevel_betti_counts` evaluates this identity for a feature and a whole
block of permutations of it, with one compiled spanning-forest call per block
of assignments, and returns integer counts only. The permutation tests for
Betti curves and total lifetime need nothing else.

Diagrams come from the same kind of forest, taken over the steepest-ascent
basins of the vertices instead of the vertices themselves:
`superlevel_diagrams` builds them for a feature and a block of permutations
at once, and `superlevel_diagram` is its one-assignment case.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DimensionError, ValidationError
from .spatial_graph import SpatialGraph


# Vertices plus edges of one block-diagonal spanning-forest call, or knots
# plus segments of one block of landscape levels on a shared grid; bounds
# the memory of a block while amortising per-call overhead over assignments.
_FOREST_BLOCK_SIZE = 1 << 15


@dataclass(frozen=True)
class DiagramStats:
    n_pairs: int
    max_lifetime: float
    n_essential: int


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

    homology_dim = 0

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

    @property
    def n_pairs(self) -> int:
        return len(self.births)

    def lifetimes(self) -> np.ndarray:
        return self.births - self.deaths


def _check_values(graph: SpatialGraph, values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or len(vals) != graph.n_vertices:
        raise DimensionError(
            f"got {vals.shape} values for a graph with {graph.n_vertices} vertices"
        )
    if not np.all(np.isfinite(vals)):
        raise ValidationError("feature values contain NaN or infinite entries")
    return vals


def _check_perms(perms, n: int) -> np.ndarray:
    perms = np.asarray(perms, dtype=np.intp)
    if perms.ndim != 2 or perms.shape[1] != n:
        raise DimensionError(f"got permutations of shape {perms.shape} for {n} vertices")
    return perms


def _assignments(x: np.ndarray, perms: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the stack of x and x[perm] for every perm."""
    rows = x[perms[max(start - 1, 0):stop - 1]]
    return np.vstack([x, rows]) if start == 0 else rows


def superlevel_diagram(graph: SpatialGraph, values) -> PersistenceDiagram:
    """H0 persistence diagram of the superlevel-set filtration of `values` on `graph`."""
    return superlevel_diagrams(graph, values, np.zeros((0, graph.n_vertices), dtype=np.intp))[0]


def superlevel_diagrams(graph: SpatialGraph, values, perms) -> list[PersistenceDiagram]:
    """H0 superlevel diagrams of a feature and of permuted assignments of it.

    Assignment 0 is `values` itself and assignment i >= 1 is
    `values[perms[i - 1]]`; every row of `perms` must be a permutation of
    range(n). Each diagram is the one the elder-rule union-find sweep gives,
    pairs in canonical order: birth descending, then death descending, then
    birth vertex.

    The sweep is not run. Vertices are ranked by value descending, ties by
    index, and each one steps to the smallest rank in its closed
    neighbourhood; following the steps to their fixed point names its basin
    by the basin's maximum, which is where a component of the sweep is born.
    Every vertex has a rank-ascending path to its basin's maximum, so at each
    rank threshold the superlevel components are the basins joined by the
    crossing edges whose ends are both present (the merge tree of Carr,
    Snoeyink & Axen, Comput. Geom. 24, 2003). A spanning forest of the basin
    graph under edge key max(rank_u, rank_w), one call per block of
    assignments, keeps the merges; the elder rule then pairs them in key
    order, so the younger maximum dies at the value of the key's vertex.
    """
    vals = _check_values(graph, values)
    n = graph.n_vertices
    perms = _check_perms(perms, n)
    n_assign = len(perms) + 1
    if n == 0:
        empty = np.zeros(0)
        return [PersistenceDiagram(empty, empty, np.zeros(0, dtype=np.int64),
                                   np.zeros(0, dtype=bool), 0.0, 0.0)
                for _ in range(n_assign)]
    indptr, indices = graph.adjacency
    # closed neighbourhoods: each vertex, then its neighbours
    closed = np.insert(indices, indptr[:-1], np.arange(n))
    starts = indptr[:-1] + np.arange(n)
    block = max(1, _FOREST_BLOCK_SIZE // (n + graph.n_edges))
    diagrams: list[PersistenceDiagram] = []
    for start in range(0, n_assign, block):
        assigned = _assignments(vals, perms, start, min(start + block, n_assign))
        diagrams += _block_diagrams(graph, assigned, closed, starts)
    return diagrams


def _block_diagrams(graph: SpatialGraph, assigned: np.ndarray, closed: np.ndarray,
                    starts: np.ndarray) -> list[PersistenceDiagram]:
    """Diagrams of the rows of the (S, n) matrix `assigned`."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    size, n = assigned.shape
    order = np.argsort(-assigned, axis=1, kind="stable")  # [i, r]: vertex of rank r
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n), axis=1)
    # step[i, r]: the smallest rank at or next to the vertex of rank r; after
    # pointer jumping, the rank of its basin's maximum
    step = np.take_along_axis(np.minimum.reduceat(rank[:, closed], starts, axis=1), order, axis=1)
    while True:
        jumped = np.take_along_axis(step, step, axis=1)
        if np.array_equal(jumped, step):
            break
        step = jumped
    is_max = step == np.arange(n)
    node = np.cumsum(is_max.ravel()) - 1  # maxima numbered by assignment, then rank
    n_nodes = int(node[-1]) + 1
    basin = np.take_along_axis(step, rank, axis=1) + (np.arange(size) * n)[:, None]

    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    key = np.maximum(rank[:, e0], rank[:, e1]).ravel()
    a, b = node[basin[:, e0].ravel()], node[basin[:, e1].ravel()]
    cross = a != b
    key, a, b = key[cross], a[cross], b[cross]
    # one edge per basin pair, with the pair's smallest key; keys start at 1
    # because the sparse graph format reads a zero weight as a missing edge
    pair = np.minimum(a, b) * n_nodes + np.maximum(a, b)
    by_pair = np.argsort(pair)
    pair = pair[by_pair]
    firsts = np.flatnonzero(np.diff(pair, prepend=-1))
    weight = np.minimum.reduceat(key[by_pair], firsts) + 1.0
    lo, hi = np.divmod(pair[firsts], n_nodes)
    indptr = np.append(0, np.cumsum(np.bincount(lo, minlength=n_nodes)))
    forest = minimum_spanning_tree(
        csr_matrix((weight, hi, indptr), shape=(n_nodes, n_nodes)), overwrite=True)
    tails = np.repeat(np.arange(n_nodes), np.diff(forest.indptr))

    # Elder rule: each forest edge, in key order, merges two components; the
    # one whose maximum has the larger rank, i.e. the larger node, dies at
    # the value of the key's vertex.
    merge_order = np.argsort(forest.data, kind="stable")
    parent = list(range(n_nodes))
    dead = []
    for u, w in zip(tails[merge_order].tolist(), forest.indices[merge_order].tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        if u > w:
            u, w = w, u
        parent[w] = u
        dead.append(w)
    dead = np.asarray(dead, dtype=np.intp)
    died_at = forest.data[merge_order].astype(np.intp) - 1

    flat = np.flatnonzero(is_max)  # i * n + rank of each maximum
    owner = flat // n
    birth_vertices = order.ravel()[flat]
    births = assigned.ravel()[owner * n + birth_vertices]
    f_min = np.asarray([row.min() for row in assigned])
    deaths = f_min[owner]
    deaths[dead] = assigned[owner[dead], order[owner[dead], died_at]]
    essential = np.ones(n_nodes, dtype=bool)
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
    `values[perms[i - 1]]`; every row of `perms` must be a permutation of
    range(n). Returns `(levels, counts)`: the K distinct values in increasing
    order and an (len(perms) + 1, K) int64 matrix whose entry [i, k] is the
    number of connected components of the subgraph on {v : f_v >= levels[k]}
    under assignment i. All assignments share the multiset of values, hence
    the levels and the vertex count at or above each level; only their
    spanning forests differ.

    Each edge is keyed max(rank_u, rank_v), with rank the dense descending
    rank of the values (1 for the maximum), so a minimum spanning forest under
    the keys is a maximum spanning forest under min(f_u, f_v), and the forest
    edges keyed <= rank(u) span the superlevel subgraph at u. Keys start at 1
    because the sparse graph format reads a zero weight as a missing edge.
    Blocks of assignments are stacked into one block-diagonal graph per
    spanning-forest call.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    vals = _check_values(graph, values)
    n = graph.n_vertices
    perms = _check_perms(perms, n)
    levels, inverse = np.unique(vals, return_inverse=True)
    k = len(levels)
    rank = (k - inverse).astype(np.float64)
    above = np.cumsum(np.bincount(inverse, minlength=k)[::-1])[::-1]
    n_assign = len(perms) + 1
    m = graph.n_edges
    if m == 0:
        return levels, np.tile(above, (n_assign, 1))

    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(e0, minlength=n))])
    block = max(1, _FOREST_BLOCK_SIZE // (n + m))
    merges = np.empty((n_assign, k + 1), dtype=np.int64)  # forest edges per key
    for start in range(0, n_assign, block):
        stop = min(start + block, n_assign)
        size = stop - start
        ranks = _assignments(rank, perms, start, stop)
        keys = np.maximum(ranks[:, e0], ranks[:, e1])
        offsets = np.arange(size)
        indptr = np.append((row_ptr[:-1] + (offsets * m)[:, None]).ravel(), size * m)
        indices = (e1 + (offsets * n)[:, None]).ravel()
        forest = minimum_spanning_tree(
            csr_matrix((keys.ravel(), indices, indptr), shape=(size * n, size * n)),
            overwrite=True,
        )
        # vertex rows of assignment j are j*n .. (j+1)*n - 1
        owner = np.repeat(offsets * (k + 1), np.diff(forest.indptr[::n]))
        bins = owner + forest.data.astype(np.int64)
        merges[start:stop] = np.bincount(bins, minlength=size * (k + 1)).reshape(size, k + 1)
    merged = np.cumsum(merges, axis=1)  # [:, r]: forest edges keyed <= r
    return levels, above - merged[:, k:0:-1]


def sublevel_diagram(graph: SpatialGraph, values) -> PersistenceDiagram:
    """Sublevel-set variant via negation; provided for completeness.

    Births/deaths come back in negated coordinates (birth = -entry value), so
    downstream summaries treat the result exactly like a superlevel diagram.
    """
    return superlevel_diagram(graph, -np.asarray(values, dtype=np.float64))


def diagram_stats(d: PersistenceDiagram) -> DiagramStats:
    """Pair count, maximum lifetime and the number of pairs dying at f_min."""
    if len(d) == 0:
        return DiagramStats(0, 0.0, 0)
    life = d.lifetimes()
    return DiagramStats(len(d), float(life.max()), int(np.count_nonzero(d.deaths == d.f_min)))


def write_diagram(d: PersistenceDiagram, path) -> None:
    """TSV export: birth, death, birth_vertex rows under f_min/f_max comments."""
    lines = [f"# f_min={d.f_min!r}", f"# f_max={d.f_max!r}", "birth\tdeath\tbirth_vertex"]
    for b, dd, v in zip(d.births, d.deaths, d.birth_vertices):
        lines.append(f"{float(b)!r}\t{float(dd)!r}\t{int(v)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
