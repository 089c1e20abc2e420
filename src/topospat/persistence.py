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
The kernel yields each block's pairs as flat arrays; the public functions
wrap them into `PersistenceDiagram`s, and the landscape test reads them as
they come.

Zero-inflated features sit mostly at their minimum value, the floor. No
count above the floor and no landscape reads it, so when enough vertices sit
there both kernels work on each assignment's vertices above it alone (see
`superlevel_betti_counts`); the public diagrams still hold the floor pairs.
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

# Both kernels work only on the vertices above a feature's floor, its minimum
# value, when at least this share of the vertices sits on it. With fewer,
# gathering the rest costs more than skipping the floor saves: both kernels
# broke even between 20 % and 30 % on Delaunay and hex graphs.
_FLOOR_SHARE = 0.25


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


def _dense_ranks(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | None]:
    """`(levels, rank, top)`: the distinct values, increasing; each vertex's
    dense rank among them, 0 at the maximum, -0.0 and 0.0 sharing one; and
    the rank bound of the vertices the kernels keep. `top` is the floor's
    rank, which drops the floor, when at least _FLOOR_SHARE of the vertices
    sit on it, and None, which keeps every vertex, otherwise."""
    levels, inverse = np.unique(vals, return_inverse=True)
    on_floor = np.count_nonzero(inverse == 0)
    top = len(levels) - 1 if len(vals) and on_floor >= _FLOOR_SHARE * len(vals) else None
    return levels, len(levels) - 1 - inverse, top


def _edges_read(graph: SpatialGraph, rank: np.ndarray, top: int | None) -> int:
    """Edges `_support` reads per assignment: those of its kept vertices to
    higher-numbered neighbours, in expectation over the permutations."""
    if top is None:
        return graph.n_edges
    return graph.n_edges * int(np.count_nonzero(rank < top)) // graph.n_vertices


def _support(ends: np.ndarray, row_ptr: np.ndarray, ranks: np.ndarray, top: int):
    """The vertices of each row of the (S, n) rank block ranked below `top`,
    and the edges whose two ends are both kept.

    `ends` holds the (2, m) ends of the graph's edges, lower-numbered first,
    and `row_ptr` points each vertex at its edges in them. Returns
    `(flat, indptr, dst)`: flat[j] = i * n + v for the j-th kept vertex, v of
    row i, increasing, and the kept edges as a sparse row structure over
    positions into `flat`: vertex j's edges go to the higher positions
    dst[indptr[j]:indptr[j + 1]]. Only the kept vertices' edges are read."""
    size, n = ranks.shape
    live = (ranks < top).ravel()
    flat = np.flatnonzero(live)
    verts = flat % n
    starts = row_ptr[verts]
    lengths = row_ptr[verts + 1] - starts
    src = np.repeat(np.arange(len(flat)), lengths)
    # edge starts[j] + t is the t-th edge of kept vertex j
    at = (starts - np.cumsum(lengths) + lengths)[src] + np.arange(len(src))
    dst = (flat - verts)[src] + ends[1, at]
    keep = np.flatnonzero(live[dst])
    position = np.empty(size * n, dtype=np.int64)
    position[flat] = np.arange(len(flat))
    indptr = np.append(0, np.cumsum(np.bincount(src[keep], minlength=len(flat))))
    return flat, indptr, position[dst[keep]]


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
    return _diagrams(graph, values, perms, keep_floor=True)


def _diagrams(graph: SpatialGraph, values, perms, keep_floor: bool) -> list[PersistenceDiagram]:
    """`superlevel_diagrams`, or with `keep_floor` false the diagrams of the
    subgraphs above the floor where `_dense_ranks` drops it: floor vertices
    are absent, so they step nowhere and join no basin, and every component
    left dies at the minimum. Those differ only at the floor: its
    zero-lifetime pairs are gone, a death there reads the assignment's
    minimum, and `essential` marks the components left above it. No
    landscape reads that, so each is bitwise the same."""
    diagrams: list[PersistenceDiagram] = []
    for owner, births, deaths, birth_vertices, essential, f_min, f_max in _diagram_blocks(
            graph, values, perms, keep_floor):
        # stable, so pairs that tie on both keep the order of their birth vertices
        canonical = np.lexsort((-deaths, -births, owner))
        births, deaths = births[canonical], deaths[canonical]
        birth_vertices, essential = birth_vertices[canonical], essential[canonical]
        ends = np.cumsum(np.bincount(owner, minlength=len(f_min))).tolist()
        diagrams += [PersistenceDiagram(births[s:e], deaths[s:e], birth_vertices[s:e],
                                        essential[s:e], low, high)
                     for low, high, s, e in zip(f_min.tolist(), f_max.tolist(), [0] + ends, ends)]
    return diagrams


def _diagram_blocks(graph: SpatialGraph, values, perms, keep_floor: bool):
    """The pairs of `_diagrams`, one block of assignments at a time, as the
    flat arrays `_block_diagrams` returns."""
    vals = _check_values(graph, values)
    n = graph.n_vertices
    if n == 0:
        for idx in _assignment_blocks(0, perms, 0):
            nothing = np.zeros(0, dtype=np.int64)
            yield (nothing, np.zeros(0), np.zeros(0), nothing, np.zeros(0, dtype=bool),
                   np.zeros(len(idx)), np.zeros(len(idx)))
        return
    _, rank, top = _dense_ranks(vals)
    if keep_floor:
        top = None
    indptr, indices = graph.adjacency
    # closed neighbourhoods: each vertex, then its neighbours
    closed = np.insert(indices, indptr[:-1], np.arange(n))
    closed_ptr = indptr + np.arange(n + 1)
    edge_ends = np.ascontiguousarray(graph.edges.T)
    row_ptr = np.searchsorted(edge_ends[0], np.arange(n + 1))
    for idx in _assignment_blocks(n, perms, _edges_read(graph, rank, top)):
        yield _block_diagrams(vals[idx], rank[idx], top, closed, closed_ptr, edge_ends, row_ptr)


def _block_diagrams(assigned: np.ndarray, ranks: np.ndarray, top: int | None,
                    closed: np.ndarray, closed_ptr: np.ndarray, edge_ends: np.ndarray,
                    row_ptr: np.ndarray):
    """The pairs of the diagrams of the rows of the (S, n) matrix `assigned`,
    whose value ranks are `ranks`: on every vertex if `top` is None, else on
    the vertices `_support` keeps under it.

    Returns flat arrays, one entry per pair: `(owner, births, deaths,
    birth_vertices, essential, f_min, f_max)`, `owner` the row of each pair,
    and `f_min` and `f_max` the value range of each of the S rows. Pairs come
    by row, then by birth vertex; no diagram object is built."""
    size, n = assigned.shape
    key = ranks * n + np.arange(n)
    if top is None:  # every vertex, in (assignment, vertex) space
        e0, e1 = edge_ends
        # step[i, v]: i * n + the vertex of smallest key at or next to v;
        # after pointer jumping, basin[i, v]: i * n + the maximum of v's basin
        step = np.minimum.reduceat(key[:, closed], closed_ptr[:-1], axis=1) % n
        step += (np.arange(size) * n)[:, None]
        while not np.array_equal(basin := step.ravel()[step], step):
            step = basin
        is_max = basin.ravel() == np.arange(size * n)
        node = np.cumsum(is_max) - 1  # maxima numbered by assignment, then vertex
        maxima = np.flatnonzero(is_max)
        edge_key = np.maximum(key[:, e0], key[:, e1]).ravel()
        node = node[basin]
        a, b = node[:, e0].ravel(), node[:, e1].ravel()
    else:  # the kept vertices j, at flat[j] = i * n + v, and their edges
        flat, indptr, dst = _support(edge_ends, row_ptr, ranks, top)
        src = np.repeat(np.arange(len(flat)), np.diff(indptr))
        verts = flat % n
        # step[j]: i * n + the vertex of smallest key at or next to j, which
        # is kept too, since every dropped vertex has a larger key
        starts = closed_ptr[verts]
        lengths = closed_ptr[verts + 1] - starts
        firsts = np.cumsum(lengths) - lengths
        near = np.repeat(flat - verts, lengths) + closed[
            np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())]
        step = np.minimum.reduceat(key.ravel()[near], firsts) % n + flat - verts
        jump = np.empty(size * n, dtype=np.int64)
        jump[flat] = step
        while not np.array_equal(basin := jump[step], step):
            jump[flat] = step = basin
        maxima = flat[basin == flat]  # by assignment, then vertex
        jump[maxima] = np.arange(len(maxima))
        node = jump[basin]  # each kept vertex's maximum, numbered
        kept_key = key.ravel()[flat]
        edge_key = np.maximum(kept_key[src], kept_key[dst])
        a, b = node[src], node[dst]
    top_key = key.ravel()[maxima].tolist()  # each maximum's key, for the elder rule
    cross = np.flatnonzero(a != b)
    edge_key, a, b = edge_key[cross], a[cross], b[cross]
    # one edge per basin pair, with the pair's smallest key
    pair = np.minimum(a, b) * len(maxima) + np.maximum(a, b)
    by_pair = np.argsort(pair)
    pair = pair[by_pair]
    firsts = np.flatnonzero(pair != np.append(-1, pair[:-1]))  # pair ids are >= 0
    weight = np.minimum.reduceat(edge_key[by_pair], firsts)
    by_key = np.argsort(weight)
    lo, hi = np.divmod(pair[firsts][by_key], len(maxima))

    # Kruskal with the elder rule: each pair, in key order, whose basins are
    # not yet joined merges two components; the one whose maximum has the
    # larger key dies at the value of the pair key's vertex. Every pair of
    # one key holds that vertex's basin, so all the components it touches
    # merge at that key whatever the order among them.
    parent = list(range(len(maxima)))
    dead, died_at = [], []
    for u, w, k in zip(lo.tolist(), hi.tolist(), weight[by_key].tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        if u == w:
            continue
        if top_key[u] > top_key[w]:
            u, w = w, u
        parent[w] = u
        dead.append(w)
        died_at.append(k % n)

    owner, birth_vertices = np.divmod(maxima, n)
    births = assigned.ravel()[maxima]
    f_min = assigned.min(axis=1)
    deaths = f_min[owner]
    dead = np.asarray(dead, dtype=np.intp)
    deaths[dead] = assigned[owner[dead], died_at]
    essential = np.ones(len(maxima), dtype=bool)
    essential[dead] = False
    return owner, births, deaths, birth_vertices, essential, f_min, assigned.max(axis=1)


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

    The floor is the feature's minimum value, where most vertices of
    zero-inflated counts sit. Column 0, at the floor, is the component count
    of the whole graph, the same for every assignment, so it is counted once.
    Every other column reads only the subgraph on the vertices above the
    floor: the edges keyed below the floor's key are its edges, so for every
    such key r a spanning forest of it has as many edges keyed <= r as a
    forest of the whole graph. So skipping the floor changes no count. When at
    least _FLOOR_SHARE of the vertices sit on the floor, each assignment's
    vertices above it and the edges between them are gathered through the
    adjacency, numbered compactly and handed to the spanning forest alone,
    and the cost scales with them; with fewer, the whole graph goes in,
    which is cheaper than gathering. The landscape test skips the floor the
    same way, but `superlevel_diagrams` keeps its zero-lifetime floor pairs.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

    vals = _check_values(graph, values)
    n, m = graph.n_vertices, graph.n_edges
    levels, rank, top = _dense_ranks(vals)
    k = len(levels)
    above = np.cumsum(np.bincount(rank, minlength=k))[::-1]
    ends = np.ascontiguousarray(graph.edges.T)
    row_ptr = np.searchsorted(ends[0], np.arange(n + 1))
    # forests above the floor leave out column 0, the component count of the
    # whole graph, which is the same for every assignment
    whole = None if top is None else connected_components(
        csr_matrix((np.ones(m), ends[1], row_ptr), shape=(n, n)),
        directed=False, return_labels=False)
    vertex_key = rank + 1.0  # a zero weight would read as a missing edge
    counts = []
    for idx in _assignment_blocks(n, perms, _edges_read(graph, rank, top)):
        size = len(idx)
        block_key = vertex_key[idx]
        if top is None:  # the whole graph once per assignment, block-diagonally
            kept, offsets = size * n, np.arange(size)
            keys = np.maximum(block_key[:, ends[0]], block_key[:, ends[1]]).ravel()
            indptr = np.append((row_ptr[:-1] + (offsets * m)[:, None]).ravel(), size * m)
            dst = (ends[1] + (offsets * n)[:, None]).ravel()
        else:
            flat, indptr, dst = _support(ends, row_ptr, rank[idx], top)
            kept = len(flat)  # the same number of vertices, kept // size, in every row
            kept_key = block_key.ravel()[flat]
            keys = np.maximum(np.repeat(kept_key, np.diff(indptr)), kept_key[dst])
        forest = minimum_spanning_tree(csr_matrix((keys, dst, indptr), shape=(kept, kept)),
                                       overwrite=True)
        bins = forest.indices // max(1, kept // size) * (k + 1) + forest.data.astype(np.int64)
        merged = np.bincount(bins, minlength=size * (k + 1)).reshape(size, k + 1).cumsum(axis=1)
        block = above - merged[:, k:0:-1]  # merged[:, r]: forest edges keyed <= r
        if whole is not None:
            block[:, 0] = whole
        counts.append(block)
    return levels, np.vstack(counts)
