"""0-dimensional persistent homology of superlevel-set vertex filtrations.

The filtration threshold sweeps from the maximum to the minimum vertex value;
a vertex enters when its value is reached, an edge as soon as both endpoints
are present. For connected components, higher simplices and cubical cells
never matter, so one union-find sweep over the graph serves the simplicial
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
Betti curves and total lifetime need nothing else; the diagram sweep stays
for landscapes and as the reference the counts are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .exceptions import DimensionError, ValidationError
from .spatial_graph import SpatialGraph


# Vertices plus edges of one block-diagonal spanning-forest call; bounds the
# memory of a block while amortising the per-call overhead over assignments.
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


def superlevel_diagram(graph: SpatialGraph, values) -> PersistenceDiagram:
    """H0 persistence diagram of the superlevel-set filtration of `values` on `graph`."""
    vals = _check_values(graph, values)
    if len(vals) == 0:
        empty = np.zeros(0)
        return PersistenceDiagram(empty, empty.copy(), np.zeros(0, dtype=np.int64),
                                  np.zeros(0, dtype=bool), 0.0, 0.0)

    f_min = float(vals.min())
    f_max = float(vals.max())
    births, deaths, bvs, ess = _h0_sweep(graph.neighbor_lists, vals, f_min)

    births = np.asarray(births, dtype=np.float64)
    deaths = np.asarray(deaths, dtype=np.float64)
    bvs = np.asarray(bvs, dtype=np.int64)
    ess = np.asarray(ess, dtype=bool)
    # Canonical order: birth descending, then death descending, then birth vertex.
    order = np.lexsort((bvs, -deaths, -births))
    return PersistenceDiagram(births[order], deaths[order], bvs[order], ess[order], f_min, f_max)


def _h0_sweep(neighbors: list[list[int]], vals: np.ndarray, f_min: float):
    """Union-find sweep in decreasing value order with the elder rule."""
    n = len(vals)
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
        # v joins an existing component; distinct neighbouring components merge
        # here and the younger one dies at the current value.
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

    ess_flags = [False] * len(births)
    for v in range(n):
        if parent[v] == v:
            births.append(birth_val[v])
            deaths.append(f_min)
            bvs.append(birth_vtx[v])
            ess_flags.append(True)
    return births, deaths, bvs, ess_flags


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
    vals = _check_values(graph, values)
    n = graph.n_vertices
    perms = np.asarray(perms, dtype=np.intp)
    if perms.ndim != 2 or perms.shape[1] != n:
        raise DimensionError(f"got permutations of shape {perms.shape} for {n} vertices")
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
        ranks = rank[perms[max(start - 1, 0):stop - 1]]
        if start == 0:
            ranks = np.vstack([rank, ranks])
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
