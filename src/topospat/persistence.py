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
    pairs; they contribute nothing to any downstream summary. Both read-outs
    take this order from one dense rank per value (0 at the maximum).

Both read-outs start from the steepest-ascent basins of the vertices (see
`_basins`): each vertex steps to its neighbour entered first, and following
the steps names its basin by the basin's maximum, where a component of the
sweep is born. Borůvka's algorithm, in numpy, finds a minimum spanning forest
of the basins of a whole block of assignments (`_forest_edges`, which also
counts `SpatialGraph.n_components`), each edge keyed by its later end in the
sweep; by the Kruskal view of 0-dim persistence, its edges keyed up to any
threshold join the basins into the superlevel components there.
`_block_forests` builds one forest per block for two read-outs, which may
share it: `_block_counts`, for `superlevel_betti_counts`, counts the components,

    beta0(u) = #{basin maxima with f >= u} - #{forest edges with min(f_u, f_v) >= u},

which is all the permutation tests for Betti curves and total lifetime
need. `_block_diagrams`, for `superlevel_diagrams`, walks the forest edges
in key order, each one merging two components, and pairs each merge by the
elder rule; `superlevel_diagram` is its one-assignment case. It yields
each block's pairs as flat arrays: the public functions wrap them into
`PersistenceDiagram`s, and the landscape test reads them as they come. No
scipy module is loaded.

Zero-inflated features sit mostly at their minimum value, the floor. No
count above the floor and no landscape reads it, so when enough vertices sit
there each forest spans each assignment's vertices above it alone (see
`superlevel_betti_counts`); the public diagrams still hold the floor pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, ValidationError
from .spatial_graph import SpatialGraph


# Vertices plus edges of one block of assignments, knots plus segments of one
# block of landscape levels on a shared grid, the cells of the padded birth
# and death matrices of one group of diagram blocks in the landscape read-out
# (`staircase._tent_groups`, run by `summaries._landscapes`), or the counts of
# a block of rows in `spatial_stats`' total-lifetime measure; bounds the memory
# of a block while amortising per-call overhead over assignments.
_FOREST_BLOCK_SIZE = 1 << 15

# The counts and the landscape test build each forest on the vertices above a
# feature's floor (its minimum value) alone, when at least this share of the
# vertices sits on it. With fewer, gathering the rest costs more than skipping
# the floor saves: the counts and diagram kernels broke even between 15 % and
# 20 % on the Visium hex lattice (between 20 % and 30 % on Delaunay and hex
# graphs with earlier kernels).
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


def _check_perms(rows: list, n: int, start: int) -> np.ndarray:
    """The block perms[start:start + len(rows)] as a (len(rows), n) index
    array. Each index must be an integer in range(n); repeated indices are
    not checked, so a row that repeats one is read as the assignment it
    gives, not as a permutation."""
    bad = next((np.shape(r) for r in rows if np.shape(r) != (n,)), None)
    if bad is not None:
        raise DimensionError(f"got a permutation of shape {bad} for {n} vertices")
    block = np.asarray(rows).reshape(len(rows), n)
    if block.size and block.dtype.kind not in "iu":
        row = next((i for i, r in enumerate(rows) if np.asarray(r).dtype.kind not in "iu"), None)
        if row is not None:
            raise ValidationError(f"perms[{start + row}] holds indices that are not integers")
        # integer rows whose types promote to float together, int64 and uint64
        block = np.asarray(rows, dtype=np.intp).reshape(len(rows), n)
    if block.size and (block.min() < 0 or block.max() >= n):
        row = np.flatnonzero(np.any((block < 0) | (block >= n), axis=1))[0]
        raise ValidationError(f"perms[{start + row}] holds an index outside range({n})")
    return block.astype(np.intp, copy=False)


def _dense_ranks(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | None]:
    """`(levels, rank, top)`: the distinct values, increasing; each vertex's
    dense rank among them, 0 at the maximum, -0.0 and 0.0 sharing one; and
    the rank bound of the vertices the forests keep. `top` is the floor's
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


def _support(ends: np.ndarray, row_ptr: np.ndarray, ranks: np.ndarray, top: int | None):
    """The vertices of each row of the (S, n) rank block ranked below `top`,
    every vertex if it is None, and the edges whose two ends are both kept.

    `ends` and `row_ptr` are the graph's `SpatialGraph.edge_index`. Returns
    `(flat, src, dst)`: flat[j] = i * n + v for the j-th kept vertex, v of
    row i, increasing, and the kept edges as positions into `flat`, from
    src[e] to the higher dst[e], grouped by `src`. Only the kept vertices'
    edges are read."""
    size, n = ranks.shape
    if top is None:  # every vertex, so every edge of every row
        offsets = (np.arange(size) * n)[:, None]
        return np.arange(size * n), (ends[0] + offsets).ravel(), (ends[1] + offsets).ravel()
    live = (ranks < top).ravel()
    flat = np.flatnonzero(live)
    verts = flat % n
    starts = row_ptr[verts]
    lengths = row_ptr[verts + 1] - starts
    src = np.repeat(np.arange(len(flat)), lengths)
    # edge starts[j] + t is the t-th edge of kept vertex j
    at = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(len(src))
    dst = np.repeat(flat - verts, lengths) + ends[1, at]
    keep = np.flatnonzero(live[dst])
    position = np.empty(size * n, dtype=np.int64)
    position[flat] = np.arange(len(flat))
    return flat, src[keep], position[dst[keep]]


def _assignment_blocks(n: int, perms, n_edges: int):
    """Index rows of the assignments, the identity and then every perm, in
    consecutive blocks; a block holds at most _FOREST_BLOCK_SIZE vertices plus
    edges. `perms` is read and checked one block at a time, so an iterator of
    permutations is never held in full."""
    block = max(1, _FOREST_BLOCK_SIZE // max(1, n + n_edges))
    rows = iter(perms)
    yield np.vstack([np.arange(n), _check_perms(list(itertools.islice(rows, block - 1)), n, 0)])
    start = block - 1
    while len(chunk := _check_perms(list(itertools.islice(rows, block)), n, start)):
        yield chunk
        start += block


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

    The sweep is not run. Vertex v is keyed by its rank, the dense rank of
    its value (0 at the maximum), and then by v, so keys order the vertices
    as the sweep enters them, and each one steps to the smallest key in its closed
    neighbourhood; following the steps to their fixed point names its basin
    by the basin's maximum, which is where a component of the sweep is born.
    Every vertex has a key-descending path to its basin's maximum, so at
    each key threshold the superlevel components are the basins joined by
    the crossing edges whose ends are both present (the merge tree of Carr,
    Snoeyink & Axen, Comput. Geom. 24, 2003). Each edge between two basins
    is keyed by max(key_u, key_w), and the minimum spanning forest of the
    basins of a block of assignments under those keys (`_forest_edges`)
    joins them at every key as all those edges do. Kruskal's algorithm
    walks the forest edges in key order, each joining two components, and
    the elder rule pairs each merge: the maximum with the larger key dies at
    the value of the edge key's vertex.
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
    for block in _block_forests(graph, values, perms, keep_floor):
        owner, births, deaths, birth_vertices, essential, f_min, f_max = _block_diagrams(*block)
        # stable, so pairs that tie on both keep the order of their birth vertices
        canonical = np.lexsort((-deaths, -births, owner))
        births, deaths = births[canonical], deaths[canonical]
        birth_vertices, essential = birth_vertices[canonical], essential[canonical]
        ends = np.cumsum(np.bincount(owner, minlength=len(f_min))).tolist()
        diagrams += [PersistenceDiagram(births[s:e], deaths[s:e], birth_vertices[s:e],
                                        essential[s:e], low, high)
                     for low, high, s, e in zip(f_min.tolist(), f_max.tolist(), [0] + ends, ends)]
    return diagrams


def _block_forests(graph: SpatialGraph, values, perms, keep_floor: bool):
    """`(vals, levels, idx, flat, key, bits, maxima, forest)` for each block of
    assignments, the identity and then every perm: the checked values, their
    distinct values increasing, the block's index rows (row i has values
    vals[idx[i]]), and its basins and their forest as `_basins` builds them.
    `keep_floor` keeps every vertex; otherwise the floor is dropped where
    `_dense_ranks` says so."""
    vals = _check_values(graph, values)
    levels, rank, top = _dense_ranks(vals)
    if keep_floor:
        top = None
    for idx in _assignment_blocks(graph.n_vertices, perms, _edges_read(graph, rank, top)):
        yield vals, levels, idx, *_basins(rank[idx], top, *graph.edge_index)


def _block_diagrams(vals, _, idx, flat, key, bits, maxima, forest):
    """The pairs of the diagrams of the rows of the (S, n) matrix `vals[idx]`,
    read off one block of `_block_forests`: its basins and the forest edges
    `(a, b, forest_key)` between them, in key order.

    Returns flat arrays, one entry per pair: `(owner, births, deaths,
    birth_vertices, essential, f_min, f_max)`, `owner` the row of each pair,
    and `f_min` and `f_max` the value range of each of the S rows. Pairs come
    by row, then by birth vertex; no diagram object is built."""
    assigned, (a, b, forest_key) = vals[idx], forest
    n = assigned.shape[1]
    # Kruskal with the elder rule: each forest edge, in key order, merges two
    # components, and the one whose maximum has the larger key dies at the
    # value of the edge key's vertex. Every edge of one key holds that
    # vertex's basin, so all the components it touches merge at that key
    # whatever the order among them.
    top_key = key[maxima].tolist()
    parent = list(range(len(maxima)))
    dead = []
    for u, w in zip(a.tolist(), b.tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        if top_key[u] > top_key[w]:
            u, w = w, u
        parent[w] = u
        dead.append(w)

    maxima = flat[maxima]
    owner, birth_vertices = np.divmod(maxima, n)
    births = assigned.ravel()[maxima]
    if n:
        f_min, f_max = assigned.min(axis=1), assigned.max(axis=1)
    else:  # no vertex, no pair
        f_min = f_max = np.zeros(len(assigned))
    deaths = f_min[owner]
    dead = np.asarray(dead, dtype=np.intp)
    deaths[dead] = assigned.ravel()[flat[forest_key & (1 << bits) - 1]]
    essential = np.ones(len(maxima), dtype=bool)
    essential[dead] = False
    return owner, births, deaths, birth_vertices, essential, f_min, f_max


def _basins(ranks: np.ndarray, top: int | None, ends: np.ndarray, row_ptr: np.ndarray):
    """The basins of the vertices of each row of the (S, n) rank block ranked
    below `top`, every vertex if it is None, and their spanning forest:
    `(flat, key, bits, maxima, forest)`.

    `flat` is the support as `_support` gathers it, and kept vertex j, at
    position j, is keyed key[j] = rank << bits | j, with 2 ** bits > j for
    every position. Positions increase with the vertex within a row and no
    edge leaves its row, so on every edge these keys order the ends as
    rank * n + v does. Each kept vertex steps to the smallest key in its
    closed neighbourhood, read off the support's own edges in both
    directions: a dropped neighbour has a larger rank than any kept vertex,
    so it is never the step. Pointer jumping names each basin by its
    maximum; `maxima` are their positions, increasing. Each support edge
    joins two basins, numbered as `maxima`, at the larger key of its ends,
    and `forest` is `_forest_edges` over those edges."""
    flat, src, dst = _support(ends, row_ptr, ranks, top)
    kept = len(flat)
    bits = max(1, kept - 1).bit_length()
    key = ranks.ravel()[flat]
    key <<= bits
    key |= np.arange(kept)
    src_key, dst_key = key[src], key[dst]
    step = key.copy()
    np.minimum.at(step, src, dst_key)
    np.minimum.at(step, dst, src_key)
    step &= (1 << bits) - 1
    # each edge's key is its later end's; in place, and freed before the
    # node gathers, as the edge arrays are a block's largest
    edge_key = np.maximum(src_key, dst_key, out=src_key)
    del dst_key
    step = _roots(step)
    maxima = np.flatnonzero(step == np.arange(kept))
    node = np.empty(kept, dtype=np.int64)
    node[maxima] = np.arange(len(maxima))
    node = node[step]  # each kept vertex's maximum, numbered
    return flat, key, bits, maxima, _forest_edges(node[src], node[dst], edge_key, len(maxima))


def _forest_edges(a: np.ndarray, b: np.ndarray, edge_key: np.ndarray, n_basins: int):
    """`(a, b, keys)`: the two end basins and the key of each edge of a
    minimum spanning forest of the basins under the edges `(a, b,
    edge_key)`, in key order.

    Borůvka's algorithm, in numpy: ranked by key, ties by position, the
    edges are strictly ordered, so the forest is the one Kruskal's
    algorithm takes in that order, and its edges keyed at most any k span
    the basins' graph of the edges keyed at most k. In each round every
    tree picks its first edge to another tree, each pick points one tree
    at another (both ends of an edge two trees pick point at the lower),
    pointer jumping joins them, and edges left inside a tree drop out; every
    round at least halves the trees that still have an edge out."""
    cross = np.flatnonzero(a != b)
    by_key = cross[np.argsort(edge_key[cross])]
    a, b, edge_key = a[by_key], b[by_key], edge_key[by_key]
    n_edges = len(a)
    label = np.arange(n_basins)  # each basin's tree, by its root basin
    picked = np.zeros(n_edges, dtype=bool)
    live, la, lb = np.arange(n_edges), a, b  # the edges between trees, and their trees
    while n_edges and len(live):
        first = np.full(n_basins, n_edges)
        np.minimum.at(first, la, live)
        np.minimum.at(first, lb, live)
        tree = np.flatnonzero(first < n_edges)
        chosen = first[tree]
        picked[chosen] = True
        other = label[a[chosen]] + label[b[chosen]] - tree
        label[tree] = other
        mutual = tree[(label[other] == tree) & (tree < other)]
        label[mutual] = mutual
        label = _roots(label)
        la, lb = label[a[live]], label[b[live]]
        apart = np.flatnonzero(la != lb)
        live, la, lb = live[apart], la[apart], lb[apart]
    picked = np.flatnonzero(picked)
    return a[picked], b[picked], edge_key[picked]


def _roots(parent: np.ndarray) -> np.ndarray:
    """Pointer jumping to the fixed point: each entry's root in the forest
    whose parent pointers `parent` holds, roots pointing at themselves."""
    while not np.array_equal(root := parent[parent], parent):
        parent = root
    return parent


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

    The counts come from the basin forest of each block (`_block_forests`),
    the one `superlevel_diagrams` reads too, by `_block_counts`: a basin is
    born at its maximum, and each edge between two basins is keyed by the
    larger key of its ends, the later of them in the sweep. The forest's
    edges keyed at ranks <= r join the basins whose maxima rank <= r into the
    components of the superlevel subgraph at rank r, so the count there is
    those maxima minus those edges, a numpy pass over the block.

    Column 0, at the floor (the minimum value), is the component count of
    the whole graph in every assignment, read from `SpatialGraph.n_components`.
    Every other column reads only the vertices above the floor and the edges
    between them, all the edges keyed below it, so the forests may leave the
    floor out (`_dense_ranks`), as the landscape test does; `superlevel_diagrams`
    keeps its zero-lifetime floor pairs.
    """
    parts = [_block_counts(graph, *block)
             for block in _block_forests(graph, values, perms, keep_floor=False)]
    return parts[0][0], np.vstack([counts for _, counts in parts])


def _block_counts(graph: SpatialGraph, _, levels, idx, flat, key, bits, maxima, forest):
    """The levels and `superlevel_betti_counts` rows of a `_block_forests` block."""
    (size, n), k = idx.shape, len(levels)
    merged, _, merge_key = forest
    # components: basins born minus forest edges, by row and rank
    row = flat[maxima] // n * k
    net = np.bincount(row + (key[maxima] >> bits), minlength=size * k)
    net -= np.bincount(row[merged] + (merge_key >> bits), minlength=size * k)
    counts = net.reshape(size, k).cumsum(axis=1)[:, ::-1]
    if k:
        counts[:, 0] = graph.n_components  # the floor: the whole graph, in every row
    return levels, counts
