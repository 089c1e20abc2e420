import math
import re
import sys

import numpy as np
import pytest

from topospat import (
    DimensionError,
    GraphKind,
    PersistenceDiagram,
    SpatialGraph,
    TestConfig,
    ValidationError,
    betti_curve,
    curve_lp_distance,
    curve_lp_norm,
    hex_grid_graph,
    landscape,
    mean_step_curve,
    permutation_test,
    rect_grid_graph,
    superlevel_betti_counts,
    superlevel_diagram,
    superlevel_diagrams,
    total_lifetime,
)
from topospat import persistence, staircase, summaries
from topospat.spatial_stats import _feature_rng

from oracles import (
    betti_counts_full_graph,
    bottleneck_distance,
    component_count,
    exact_distance_count,
    h0_sweep_diagram,
    hex_lattice,
    kruskal_forest_keys,
    make_graph,
    neighbor_lists,
    pairs_alive_at,
    planted,
    random_graph,
    stability_cases,
    superlevel_components,
)


def path_graph(n):
    return make_graph([(float(i), 0.0) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def pair_set(d):
    return {(float(b), float(dd)) for b, dd in zip(d.births, d.deaths)}


class TestSuperlevelDiagram:
    def test_path_with_one_valley(self):
        # peaks at 3 and 2 joined through a valley at 1
        d = superlevel_diagram(path_graph(3), [3, 1, 2])
        assert pair_set(d) == {(3.0, 1.0), (2.0, 1.0)}
        by_birth = {float(b): (int(v), bool(e))
                    for b, v, e in zip(d.births, d.birth_vertices, d.essential)}
        assert by_birth[3.0] == (0, True)   # survives to the bound
        assert by_birth[2.0] == (2, False)  # merges at the valley

    def test_constant_values_single_plateau_pair(self):
        d = superlevel_diagram(path_graph(4), [2.5] * 4)
        assert pair_set(d) == {(2.5, 2.5)}
        assert d.essential.all() and len(d) == 1

    def test_edgeless_graph_two_essential_pairs(self):
        g = make_graph([(0, 0), (1, 0)], [])
        d = superlevel_diagram(g, [5, 2])
        assert sorted(zip(d.births, d.deaths)) == [(2.0, 2.0), (5.0, 2.0)]
        assert d.essential.all()

    def test_plateau_merge_keeps_zero_lifetime_pair(self):
        # two endpoints at value 3 meet through the centre vertex, also at 3
        g = make_graph([(0, 0), (2, 0), (1, 0)], [(0, 2), (1, 2)])
        d = superlevel_diagram(g, [3, 3, 3])
        assert sorted(zip(d.births, d.deaths, d.essential.tolist())) == [
            (3.0, 3.0, False),  # plateau merge pair
            (3.0, 3.0, True),   # the surviving component
        ]
        # elder-rule tie-break: the smaller birth vertex survives
        assert int(d.birth_vertices[d.essential][0]) == 0
        assert int(d.birth_vertices[~d.essential][0]) == 1

    def test_empty_graph(self):
        g = SpatialGraph(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64),
                         GraphKind.EPSILON, {})
        d = superlevel_diagram(g, [])
        assert len(d) == 0

    def test_single_vertex(self):
        g = make_graph([(0.0, 0.0)], [])
        d = superlevel_diagram(g, [7.0])
        assert pair_set(d) == {(7.0, 7.0)} and d.essential.all()

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            superlevel_diagram(path_graph(3), [1.0, 2.0])

    def test_nan_values(self):
        with pytest.raises(ValidationError):
            superlevel_diagram(path_graph(3), [1.0, np.nan, 2.0])

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 20, 0.2)
        vals = rng.random(20)
        d1 = superlevel_diagram(g, vals)
        d2 = superlevel_diagram(g, vals)
        assert np.array_equal(d1.births, d2.births)
        assert np.array_equal(d1.birth_vertices, d2.birth_vertices)


class TestThresholdOracle:
    """Alive-pair counts must match brute-force component counts exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_continuous_values(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            n = int(rng.integers(1, 31))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
            vals = rng.random(n)
            d = superlevel_diagram(g, vals)
            for delta in np.unique(vals):
                assert pairs_alive_at(d, delta) == superlevel_components(g, vals, delta)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_tied_values(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(12):
            n = int(rng.integers(2, 31))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
            vals = rng.integers(0, 4, n).astype(float)  # heavy plateaus
            d = superlevel_diagram(g, vals)
            for delta in np.unique(vals):
                assert pairs_alive_at(d, delta) == superlevel_components(g, vals, delta)


class TestDiagramInvariants:
    def test_pair_count_equals_component_births(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 25))
            g = random_graph(rng, n, 0.2)
            vals = rng.integers(0, 5, n).astype(float)
            d = superlevel_diagram(g, vals)
            order = {v: r for r, v in enumerate(np.lexsort((np.arange(n), -vals)))}
            nbrs = neighbor_lists(g)
            births = sum(
                1 for v in range(n) if all(order[u] > order[v] for u in nbrs[v])
            )
            assert len(d) == births

    def test_essential_count_equals_graph_components(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 25))
            g = random_graph(rng, n, 0.15)
            vals = rng.random(n)
            d = superlevel_diagram(g, vals)
            assert int(d.essential.sum()) == superlevel_components(g, vals, float(vals.min()))

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 20, 0.2)
        vals = rng.random(20)
        base = superlevel_diagram(g, vals)
        shifted = superlevel_diagram(g, vals + 10.0)
        assert np.allclose(shifted.births, base.births + 10.0, atol=1e-12)
        assert np.allclose(shifted.deaths, base.deaths + 10.0, atol=1e-12)
        assert np.array_equal(shifted.birth_vertices, base.birth_vertices)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 20, 0.2)
        vals = rng.random(20)
        base = superlevel_diagram(g, vals)
        scaled = superlevel_diagram(g, 3.0 * vals)
        assert np.allclose(scaled.births, 3.0 * base.births, atol=1e-12)
        assert np.allclose(scaled.deaths, 3.0 * base.deaths, atol=1e-12)
        assert np.array_equal(scaled.birth_vertices, base.birth_vertices)

    def test_lifetimes_sum_matches_betti_integral(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(rng, 25, 0.2)
            vals = rng.integers(0, 6, 25).astype(float)
            d = superlevel_diagram(g, vals)
            assert curve_lp_norm(betti_curve(d), 1) == pytest.approx(
                total_lifetime(d), abs=1e-12)

    def test_births_and_deaths_within_range(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 30, 0.15)
        vals = rng.random(30)
        d = superlevel_diagram(g, vals)
        assert np.all(d.births >= d.deaths)
        assert np.all((d.births <= d.f_max) & (d.deaths >= d.f_min))


def test_diagram_invariants_enforced_at_construction():
    from topospat import PersistenceDiagram

    with pytest.raises(ValidationError, match="birth >= death"):
        PersistenceDiagram(np.asarray([1.0]), np.asarray([2.0]),
                           np.asarray([0]), np.asarray([True]), 1.0, 2.0)
    with pytest.raises(ValidationError, match="f_min"):
        PersistenceDiagram(np.asarray([3.0]), np.asarray([1.0]),
                           np.asarray([0]), np.asarray([True]), 1.0, 2.0)
    with pytest.raises(ValidationError, match="equal lengths"):
        PersistenceDiagram(np.asarray([3.0]), np.asarray([1.0, 0.5]),
                           np.asarray([0]), np.asarray([True]), 0.0, 3.0)


def kernel_cases():
    """Random graphs with continuous and with plateau values, plus edge cases."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(24):
        n = int(rng.integers(2, 26))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        vals = rng.random(n) if i % 2 else rng.integers(0, 4, n).astype(float)
        cases.append((f"random{i}", g, vals))
    cases.append(("edgeless", make_graph(rng.random((6, 2)), []), rng.random(6)))
    two_paths = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    cases.append(("disconnected", make_graph(rng.random((8, 2)), two_paths),
                  rng.integers(0, 4, 8).astype(float)))
    cases.append(("single vertex", make_graph([(0.0, 0.0)], []), np.asarray([3.5])))
    cases.append(("constant", path_graph(7), np.full(7, 2.25)))
    return cases


KERNEL_CASES = kernel_cases()
# Distances agree up to summation order: a few hundred ulps of float64.
STAT_RTOL = 256 * np.finfo(np.float64).eps


class TestBettiCounts:
    """The spanning-forest kernel against brute force and the diagram path."""

    @pytest.mark.parametrize("name,graph,vals", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_columns_match_component_oracle(self, name, graph, vals):
        rng = np.random.default_rng(7)
        n = graph.n_vertices
        perms = np.asarray([rng.permutation(n) for _ in range(9)])
        levels, counts = superlevel_betti_counts(graph, vals, perms)
        assert np.array_equal(levels, np.unique(vals))
        assert counts.shape == (10, len(levels)) and counts.dtype == np.int64
        for i, assigned in enumerate([vals] + [vals[p] for p in perms]):
            for k, level in enumerate(levels):
                assert counts[i, k] == superlevel_components(graph, assigned, level)

    @pytest.mark.parametrize("name,graph,vals", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_statistics_match_diagram_path(self, name, graph, vals):
        n_perm = 30
        stream = _feature_rng(11, vals)
        perms = [stream.permutation(graph.n_vertices) for _ in range(n_perm)]
        diagrams = [superlevel_diagram(graph, v) for v in [vals] + [vals[p] for p in perms]]
        curves = [betti_curve(d) for d in diagrams]
        center = mean_step_curve(curves)
        for p in (1, 2, np.inf):
            report = permutation_test(graph, vals, TestConfig("betti", n_perm=n_perm, p=p, seed=11))
            dists = np.asarray([curve_lp_distance(c, center, p) for c in curves])
            assert report.statistic == pytest.approx(dists[0], rel=STAT_RTOL, abs=STAT_RTOL)
            # floats can split exact ties of the diagram path, so its p-value
            # is counted in exact arithmetic
            assert report.p_value == (exact_distance_count(curves, p) + 1) / (n_perm + 1), p
        totals = np.asarray([total_lifetime(d) for d in diagrams])
        report = permutation_test(graph, vals, TestConfig("total", n_perm=n_perm, seed=11))
        # the diagram path subtracts the mean from lifetimes of the size of `scale`
        scale = max(1.0, float(np.abs(totals).max()))
        assert report.statistic == pytest.approx(abs(totals[0] - totals.mean()),
                                                 rel=STAT_RTOL, abs=STAT_RTOL * scale)

    def test_no_permutations(self):
        levels, counts = superlevel_betti_counts(path_graph(3), [3.0, 1.0, 2.0],
                                                 np.zeros((0, 3), dtype=np.int64))
        assert levels.tolist() == [1.0, 2.0, 3.0]
        assert counts.tolist() == [[1, 2, 1]]

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            superlevel_betti_counts(path_graph(3), [1.0, 2.0], np.zeros((1, 3), dtype=int))
        with pytest.raises(DimensionError):
            superlevel_betti_counts(path_graph(3), [1.0, 2.0, 3.0], np.zeros((1, 2), dtype=int))
        with pytest.raises(ValidationError):
            superlevel_betti_counts(path_graph(3), [1.0, np.nan, 3.0], np.zeros((1, 3), dtype=int))


def assert_bitwise_equal(got, want):
    for field in ("births", "deaths", "birth_vertices", "essential"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert repr((got.f_min, got.f_max)) == repr((want.f_min, want.f_max))


def assert_matches_sweep(graph, vals, perms):
    diagrams = superlevel_diagrams(graph, vals, perms)
    assert len(diagrams) == len(perms) + 1
    for d, assigned in zip(diagrams, [vals] + [vals[p] for p in perms]):
        assert_bitwise_equal(d, h0_sweep_diagram(graph, assigned))


class TestSuperlevelDiagrams:
    """The batched basin-forest diagrams against the union-find sweep, bit for bit."""

    @pytest.mark.parametrize("name,graph,vals", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_kernel_cases(self, name, graph, vals):
        rng = np.random.default_rng(13)
        n = graph.n_vertices
        assert_matches_sweep(graph, vals, np.asarray([rng.permutation(n) for _ in range(9)]))

    # hex-floor: 90 % of the vertices at the minimum, as in sparse counts, so
    # long plateau chains step by vertex index alone
    @pytest.mark.parametrize("kind", ["hex", "rect", "hex-floor"])
    def test_plateau_grids_beyond_one_block(self, kind):
        rng = np.random.default_rng(31)
        if kind == "rect":
            graph = rect_grid_graph([(x, y) for x in range(12) for y in range(12)])
        else:
            graph = hex_grid_graph(hex_lattice(10, 10))
        n = graph.n_vertices
        n_perm = 100
        assert n_perm + 1 > persistence._FOREST_BLOCK_SIZE // (n + graph.n_edges)
        vals = rng.integers(0, 4, n).astype(float)
        if kind == "hex-floor":
            vals[rng.permutation(n)[:9 * n // 10]] = 0.0
            assert np.mean(vals == vals.min()) >= 0.9
        assert_matches_sweep(graph, vals, np.asarray([rng.permutation(n) for _ in range(n_perm)]))

    @pytest.mark.parametrize("one_per_block", [False, True])
    def test_one_vertex_joins_many_basins_at_one_key(self, monkeypatch, one_per_block):
        # The hub 0 is the lowest vertex and touches every other one. Peaks
        # 1, 3, 5, 7 and 9 are basins; valley 2 joins 1 and 3, valley 6 joins
        # 5 and 7, and 4 and 8 tie with the hub and step into its basin. At
        # the hub's key the basin pairs (1, 5), (1, 7) and (1, 9) all arrive:
        # two merge and the third, already joined through valley 6, is skipped.
        edges = [(0, v) for v in range(1, 10)] + [(1, 2), (2, 3), (5, 6), (6, 7)]
        graph = make_graph([(float(v), 0.0) for v in range(10)], edges)
        vals = np.array([0.0, 8.0, 2.0, 7.0, 0.0, 6.0, 2.0, 6.0, 0.0, 5.0])
        if one_per_block:
            monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", 1)
        rng = np.random.default_rng(43)
        peaks = np.array([1, 3, 5, 7, 9])
        perms = []
        for _ in range(12):  # the peaks trade values, so the elder basin moves
            perm = np.arange(10)
            perm[peaks] = rng.permutation(peaks)
            perms.append(perm)
        perms = np.asarray(perms + [rng.permutation(10) for _ in range(4)])
        assert_matches_sweep(graph, vals, perms)
        (d,) = superlevel_diagrams(graph, vals, np.zeros((0, 10), dtype=np.int64))
        assert d.birth_vertices.tolist() == [1, 3, 7, 5, 9]
        assert d.deaths.tolist() == [0.0, 2.0, 2.0, 0.0, 0.0]
        assert d.essential.tolist() == [True, False, False, False, False]

    def test_signed_zeros_keep_their_vertex_values(self):
        # -0.0 and 0.0 tie in the order but not in their bits; each pair
        # carries the bits of its own vertices and of its assignment's minimum
        rng = np.random.default_rng(37)
        graph = random_graph(rng, 16, 0.25)
        vals = rng.integers(0, 3, 16).astype(float)
        zeros = np.flatnonzero(vals == 0)
        assert len(zeros) >= 2
        vals[zeros[::2]] = -0.0
        assert_matches_sweep(graph, vals, np.asarray([rng.permutation(16) for _ in range(12)]))

    def test_no_permutations(self):
        rng = np.random.default_rng(41)
        graph = random_graph(rng, 12, 0.3)
        vals = rng.random(12)
        (d,) = superlevel_diagrams(graph, vals, np.zeros((0, 12), dtype=np.int64))
        assert_bitwise_equal(d, h0_sweep_diagram(graph, vals))
        assert_bitwise_equal(superlevel_diagram(graph, vals), d)

    def test_empty_graph(self):
        g = SpatialGraph(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64),
                         GraphKind.EPSILON, {})
        diagrams = superlevel_diagrams(g, [], np.zeros((2, 0), dtype=np.int64))
        assert [len(d) for d in diagrams] == [0, 0, 0]

    def test_rejects_bad_inputs(self):
        g = path_graph(3)
        for perms in (np.zeros((1, 2), dtype=int), np.zeros(3, dtype=int),
                      np.zeros((1, 3, 1), dtype=int)):
            with pytest.raises(DimensionError):
                superlevel_diagrams(g, [1.0, 2.0, 3.0], perms)
        with pytest.raises(DimensionError):
            superlevel_diagrams(g, [1.0, 2.0], np.zeros((1, 3), dtype=int))
        with pytest.raises(ValidationError):
            superlevel_diagrams(g, [1.0, np.nan, 3.0], np.zeros((1, 3), dtype=int))


class TestStreamedPermutations:
    """A generator of permutations, read one block at a time, gives bitwise
    the results of the same permutations as a 2-D array."""

    # 1: one assignment per block, the first block holding only the values;
    # 64: several blocks; the default: one block
    @pytest.mark.parametrize("block_size", [1, 64, persistence._FOREST_BLOCK_SIZE])
    @pytest.mark.parametrize("name,graph,vals", KERNEL_CASES[:4] + KERNEL_CASES[-4:],
                             ids=[c[0] for c in KERNEL_CASES[:4] + KERNEL_CASES[-4:]])
    def test_generator_equals_array(self, monkeypatch, block_size, name, graph, vals):
        monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", block_size)
        rng = np.random.default_rng(17)
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(23)])
        levels, counts = superlevel_betti_counts(graph, vals, perms)
        got_levels, got_counts = superlevel_betti_counts(graph, vals, (p for p in perms))
        assert got_levels.tobytes() == levels.tobytes()
        assert got_counts.shape == counts.shape and got_counts.tobytes() == counts.tobytes()
        diagrams = superlevel_diagrams(graph, vals, perms)
        streamed = superlevel_diagrams(graph, vals, iter(list(perms)))
        assert len(streamed) == len(diagrams) == 24
        for got, want in zip(streamed, diagrams):
            assert_bitwise_equal(got, want)
            assert (got.f_min, got.f_max) == (want.f_min, want.f_max)

    def test_generator_is_read_block_by_block(self, monkeypatch):
        monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", 64)
        graph = path_graph(6)  # 6 vertices + 5 edges: 5 assignments per block
        drawn = []

        def draws():
            rng = np.random.default_rng(3)
            for _ in range(12):
                drawn.append(rng.permutation(6))
                yield drawn[-1]

        blocks = persistence._assignment_blocks(6, draws(), graph.n_edges)
        assert [len(next(blocks)), len(drawn)] == [5, 4]
        assert [len(next(blocks)), len(drawn)] == [5, 9]
        assert [len(next(blocks)), len(drawn)] == [3, 12]
        assert next(blocks, None) is None

    def test_empty_graph_counts_the_generator(self):
        g = SpatialGraph(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64),
                         GraphKind.EPSILON, {})
        empty = (np.zeros(0, dtype=np.int64) for _ in range(2))
        assert [len(d) for d in superlevel_diagrams(g, [], empty)] == [0, 0, 0]
        empty = (np.zeros(0, dtype=np.int64) for _ in range(2))
        assert superlevel_betti_counts(g, [], empty)[1].shape == (3, 0)
        edgeless = make_graph([(0.0, 0.0), (1.0, 0.0)], [])
        levels, counts = superlevel_betti_counts(edgeless, [2.0, 1.0],
                                                 (np.asarray([1, 0]) for _ in range(4)))
        assert counts.tolist() == [[2, 1]] * 5

    @pytest.mark.parametrize("kernel", [superlevel_betti_counts, superlevel_diagrams])
    def test_bad_rows_raise_as_they_arrive(self, monkeypatch, kernel):
        monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", 64)
        g, vals = path_graph(3), [1.0, 2.0, 3.0]
        # a 1-D stream, a short row, a short row in the second block
        for perms in ((i for i in range(3)), iter([[0, 1]]), iter([[0, 1, 2]] * 20 + [[0, 1]])):
            with pytest.raises(DimensionError):
                kernel(g, vals, perms)

    @pytest.mark.parametrize("kernel", [superlevel_betti_counts, superlevel_diagrams])
    @pytest.mark.parametrize("bad, message", [
        (-1, "holds an index outside range(3)"),  # numpy would wrap it to vertex 2
        (3, "holds an index outside range(3)"),  # numpy would raise a bare IndexError
        (1.5, "holds indices that are not integers"),  # a cast would truncate it to 1
    ])
    def test_rows_that_index_no_vertex_raise(self, monkeypatch, kernel, bad, message):
        monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", 64)  # 11 rows, then 12 a block
        g, vals = path_graph(3), [1.0, 2.0, 3.0]
        for at in (0, 10, 11, 24):  # the first block's ends, the second's first row, the third
            perms = [np.asarray([2, 0, 1])] * 30
            perms[at] = np.asarray([bad, 0, 2])
            with pytest.raises(ValidationError, match=re.escape(f"perms[{at}] {message}")):
                kernel(g, vals, iter(perms))

    @pytest.mark.parametrize("kernel", [superlevel_betti_counts, superlevel_diagrams])
    def test_integer_rows_of_mixed_types(self, kernel):
        # int64 and uint64 rows promote to float64 together; each is integer
        g, vals = path_graph(3), [1.0, 2.0, 3.0]
        perms = [np.asarray([2, 0, 1]), np.asarray([1, 2, 0], np.uint64)] * 3
        got = kernel(g, vals, perms)
        want = kernel(g, vals, [p.astype(np.int64) for p in perms])
        if kernel is superlevel_diagrams:
            got, want = ([a for d in ds for a in (d.births, d.deaths)] for ds in (got, want))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        perms[3] = np.asarray([1, 2, 3], np.uint64)
        with pytest.raises(ValidationError, match=re.escape("perms[3] holds an index outside")):
            kernel(g, vals, perms)


def floor_cases():
    """Graphs with floor plateaus: random graphs with a floor share from none
    to all, the rule's threshold from both sides, and edge cases."""
    rng = np.random.default_rng(2025)
    cases = []
    for i, share in enumerate([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0] * 3):
        n = int(rng.integers(3, 31))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        vals = rng.integers(1, 4, n).astype(float) if i % 2 else 1.0 + rng.random(n)
        vals[rng.permutation(n)[:round(share * n)]] = -1.5 if i % 3 == 2 else 0.0
        cases.append((f"random{i}-floor{share}", g, vals))
    n = 40
    at = math.ceil(persistence._FLOOR_SHARE * n)  # the fewest floor vertices the rule drops
    for name, on_floor in (("below threshold", at - 1), ("at threshold", at)):
        vals = np.arange(1.0, n + 1.0)
        vals[rng.permutation(n)[:on_floor]] = 0.0
        cases.append((name, random_graph(rng, n, 0.15), vals))
    floor = np.zeros(12)
    floor[5] = 2.0
    cases.append(("one vertex above", random_graph(rng, 12, 0.3), floor))
    cases.append(("constant", path_graph(7), np.full(7, 2.25)))
    cases.append(("single vertex", make_graph([(0.0, 0.0)], []), np.asarray([3.5])))
    vals = rng.integers(0, 3, 10).astype(float)
    vals[:8] = 0.0
    cases.append(("edgeless", make_graph(rng.random((10, 2)), []), vals))
    two_paths = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    cases.append(("disconnected", make_graph(rng.random((8, 2)), two_paths),
                  np.asarray([0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 3.0, 0.0])))
    vals = rng.integers(0, 3, 24).astype(float)
    vals[rng.permutation(24)[:16]] = 0.0
    vals[np.flatnonzero(vals == 0)[::2]] = -0.0
    cases.append(("signed-zero floor", random_graph(rng, 24, 0.2), vals))
    empty = SpatialGraph(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64), GraphKind.EPSILON, {})
    cases.append(("empty", empty, np.zeros(0)))
    # 25-60 % at the floor, where an assignment's support has the most basin pairs
    for i, share in enumerate([0.25, 0.4, 0.6]):
        n = 90
        vals = rng.integers(1, 6, n).astype(float) if i % 2 else 1.0 + rng.random(n)
        vals[rng.permutation(n)[:math.ceil(share * n)]] = 0.0
        cases.append((f"mid floor {share}", random_graph(rng, n, 0.06), vals))
    lattice = hex_grid_graph(hex_lattice(9, 10))
    vals = rng.integers(1, 4, lattice.n_vertices).astype(float)
    vals[rng.permutation(lattice.n_vertices)[:lattice.n_vertices // 2]] = 0.0
    cases.append(("mid floor hex lattice", lattice, vals))
    # a checkerboard of 2s among 1s above a 40 % floor: each 1 between
    # isolated peaks joins several basins at its own key, so pairs tie on it
    pts = np.asarray([(x, y) for y in range(12) for x in range(12)], dtype=float)
    vals = 1.0 + (pts.sum(axis=1) % 2)
    vals[rng.permutation(len(pts))[:round(0.4 * len(pts))]] = 0.0
    cases.append(("plateau checkerboard", rect_grid_graph(pts), vals))
    return cases


FLOOR_CASES = floor_cases()


def assert_landscapes_bitwise_equal(got, want):
    assert repr(got.domain) == repr(want.domain)
    assert len(got.levels) == len(want.levels)
    for (gx, gy), (wx, wy) in zip(got.levels, want.levels):
        assert gx.tobytes() == wx.tobytes() and gy.tobytes() == wy.tobytes()


class TestFloorSupport:
    """Both kernels skip the floor once it holds _FLOOR_SHARE of the vertices;
    counts and landscapes are bitwise those of the whole graph."""

    @pytest.mark.parametrize("one_per_block", [False, True])
    @pytest.mark.parametrize("name,graph,vals", FLOOR_CASES, ids=[c[0] for c in FLOOR_CASES])
    def test_counts_match_full_graph_oracle(self, monkeypatch, one_per_block, name, graph, vals):
        if one_per_block:
            monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", 1)
        rng = np.random.default_rng(19)
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(12)])
        levels, counts = superlevel_betti_counts(graph, vals, perms)
        want_levels, want = betti_counts_full_graph(graph, vals, perms)
        assert levels.tobytes() == want_levels.tobytes()
        assert counts.shape == want.shape and counts.tobytes() == want.tobytes()

    @pytest.mark.parametrize("one_per_block", [False, True])
    @pytest.mark.parametrize("name,graph,vals", FLOOR_CASES, ids=[c[0] for c in FLOOR_CASES])
    def test_support_landscapes_match_public_diagrams(self, monkeypatch, one_per_block,
                                                      name, graph, vals):
        if one_per_block:
            monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", 1)
        rng = np.random.default_rng(23)
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(12)])
        support = persistence._diagrams(graph, vals, perms, keep_floor=False)
        public = superlevel_diagrams(graph, vals, perms)
        assert len(support) == len(public) == len(perms) + 1
        for got, want, assigned in zip(support, public, [vals] + [vals[p] for p in perms]):
            swept = landscape(h0_sweep_diagram(graph, assigned), 3)
            for levels in (1, 3):
                assert_landscapes_bitwise_equal(landscape(got, levels), landscape(want, levels))
            assert_landscapes_bitwise_equal(landscape(got, 3), swept)

    def test_rule_decides_by_floor_share(self):
        dropped = {name: persistence._dense_ranks(vals)[2] is not None
                   for name, _, vals in FLOOR_CASES}
        assert not dropped["below threshold"] and dropped["at threshold"]
        assert dropped["one vertex above"] and dropped["constant"] and dropped["signed-zero floor"]
        assert not dropped["random0-floor0.0"] and not dropped["empty"]

    def test_support_diagrams_drop_only_floor_pairs(self):
        rng = np.random.default_rng(29)
        graph = hex_grid_graph(hex_lattice(10, 10))
        vals = rng.integers(1, 4, graph.n_vertices).astype(float)
        vals[rng.permutation(graph.n_vertices)[:90]] = 0.0
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(8)])
        support = persistence._diagrams(graph, vals, perms, keep_floor=False)
        for got, want in zip(support, superlevel_diagrams(graph, vals, perms)):
            assert np.all(got.births > got.f_min)
            live = want.births > want.deaths
            assert np.sum(got.births > got.deaths) == np.sum(live)


def test_public_diagrams_keep_floor_pairs():
    # a floor-heavy hex lattice, 90 % at the minimum as in sparse counts. A
    # floor vertex whose closed neighbourhood is all floor and has no lower
    # index is a basin of its own, born and dead at the minimum;
    # superlevel_diagrams keeps every such zero-lifetime pair
    rng = np.random.default_rng(47)
    graph = hex_grid_graph(hex_lattice(12, 12))
    n = graph.n_vertices
    vals = np.log(rng.poisson(2.0, n) + 3.0)
    vals[rng.permutation(n)[:9 * n // 10]] = np.log(2.0)
    vals[neighbor_lists(graph)[0]] = vals[0] = np.log(2.0)
    assert persistence._dense_ranks(vals)[2] is not None  # the kernels drop this floor
    perms = np.asarray([rng.permutation(n) for _ in range(6)])
    diagrams = superlevel_diagrams(graph, vals, perms)
    for d, assigned in zip(diagrams, [vals] + [vals[p] for p in perms]):
        assert len(d) == len(h0_sweep_diagram(graph, assigned))
    floor_pairs = (diagrams[0].births == vals.min()) & (diagrams[0].deaths == vals.min())
    assert diagrams[0].birth_vertices[floor_pairs].tolist() == [0]
    (support,) = persistence._diagrams(graph, vals, (), keep_floor=False)
    assert len(support) == len(diagrams[0]) - 1


def flat_cases():
    """FLOOR_CASES plus a floor that is all -0.0 and tied decimal levels."""
    rng = np.random.default_rng(2026)
    cases = list(FLOOR_CASES)
    vals = rng.integers(1, 4, 30).astype(float)
    vals[rng.permutation(30)[:20]] = -0.0
    cases.append(("all -0.0 floor", random_graph(rng, 30, 0.15), vals))
    vals = np.round(0.1 * rng.integers(1, 8, 30), 1)  # 0.1 ... 0.7, unevenly rounded gaps
    cases.append(("decimal levels", random_graph(rng, 30, 0.15), vals))
    return cases


FLAT_CASES = flat_cases()


class TestFlatLandscapes:
    """The landscape test builds each assignment's landscape from the flat
    pair arrays of its block, with no diagram object: bit for bit, sign bits
    included, the public landscape of the public diagram."""

    @pytest.mark.parametrize("one_per_block", [False, True])
    @pytest.mark.parametrize("name,graph,vals", FLAT_CASES, ids=[c[0] for c in FLAT_CASES])
    def test_matches_public_landscape(self, monkeypatch, one_per_block, name, graph, vals):
        if one_per_block:  # one assignment a block, and one block a landscape group
            monkeypatch.setattr(persistence, "_FOREST_BLOCK_SIZE", 1)
            monkeypatch.setattr(staircase, "_FOREST_BLOCK_SIZE", 1)
        rng = np.random.default_rng(59)
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(12)])
        diagrams = [superlevel_diagram(graph, vals[perm])
                    for perm in [np.arange(graph.n_vertices)] + list(perms)]
        for max_levels in (1, 3, 5, 20):
            flat = summaries._landscapes(
                (persistence._block_diagrams(*block) for block in persistence._block_forests(
                    graph, vals, perms, keep_floor=False)), max_levels)
            assert len(flat) == len(diagrams)
            for got, d in zip(flat, diagrams):
                assert_landscapes_bitwise_equal(got, landscape(d, max_levels))


class _TieShuffledNumpy:
    """numpy, except that argsort breaks ties in a seeded random order."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.ties = []  # equal neighbours in each sorted input
        self.callers = []  # the function that sorted each input

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, a):
        shuffle = self._rng.permutation(len(a))
        order = shuffle[np.argsort(a[shuffle], kind="stable")]
        self.ties.append(int(np.count_nonzero(a[order][1:] == a[order][:-1])))
        self.callers.append(sys._getframe(1).f_code.co_name)
        return order


def plateau_cases():
    """Plateau-heavy inputs, where many basin pairs share one key: a hex
    lattice 90 % at its floor, a floor of -0.0 and 0.0, and decimal levels."""
    rng = np.random.default_rng(61)
    graph = hex_grid_graph(hex_lattice(10, 10))
    n = graph.n_vertices
    floor = rng.integers(1, 4, n).astype(float)
    floor[rng.permutation(n)[:9 * n // 10]] = 0.0
    signed = rng.integers(1, 3, n).astype(float)
    signed[rng.permutation(n)[:n // 2]] = 0.0
    signed[np.flatnonzero(signed == 0)[::2]] = -0.0
    decimal = np.round(0.1 * rng.integers(1, 6, n), 1)
    return [("hex-floor", graph, floor), ("signed-zero floor", graph, signed),
            ("decimal levels", graph, decimal)]


PLATEAU_CASES = plateau_cases()
# inputs whose basins meet at tied keys above the floor, or on the whole graph
TIED_COUNT_CASES = PLATEAU_CASES[1:] + [c for c in FLOOR_CASES if c[0] in (
    "mid floor hex lattice", "plateau checkerboard", "below threshold")]


class TestKruskalTieOrder:
    """Edges between basins with equal keys may reach Borůvka's forest, and
    its edges the elder-rule loop, in any order: every component they touch
    merges at that key, so the counts and the diagrams, public and without
    the floor, come out bitwise the same."""

    @pytest.mark.parametrize("name,graph,vals", PLATEAU_CASES, ids=[c[0] for c in PLATEAU_CASES])
    def test_shuffled_ties_give_the_same_diagrams(self, monkeypatch, name, graph, vals):
        rng = np.random.default_rng(67)
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(30)])
        want = {keep: persistence._diagrams(graph, vals, perms, keep_floor=keep)
                for keep in (True, False)}
        for seed in range(4):
            shuffled = _TieShuffledNumpy(seed)
            monkeypatch.setattr(persistence, "np", shuffled)
            for keep in (True, False):
                got = persistence._diagrams(graph, vals, perms, keep_floor=keep)
                assert len(got) == len(want[keep])
                for g, w in zip(got, want[keep]):
                    assert_bitwise_equal(g, w)
            monkeypatch.undo()
            # the forest's key sort is each block's only one, and some edges
            # of every input tie on their key there
            assert set(shuffled.callers) == {"_forest_edges"}
            assert sum(shuffled.ties) > 0

    @pytest.mark.parametrize("name,graph,vals", TIED_COUNT_CASES,
                             ids=[c[0] for c in TIED_COUNT_CASES])
    def test_shuffled_ties_give_the_same_counts(self, monkeypatch, name, graph, vals):
        # Borůvka's forest depends on the order of equal keys; its keys do not
        rng = np.random.default_rng(71)
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(30)])
        want = superlevel_betti_counts(graph, vals, perms)[1]
        for seed in range(4):
            shuffled = _TieShuffledNumpy(seed)
            monkeypatch.setattr(persistence, "np", shuffled)
            got = superlevel_betti_counts(graph, vals, perms)[1]
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes()
            assert set(shuffled.callers) == {"_forest_edges"}
            assert sum(shuffled.ties) > 0


class TestBasinForest:
    """`_forest_edges`, Borůvka's algorithm in numpy, against Kruskal's
    algorithm with a plain union-find: the same multiset of forest keys,
    edges in key order that each join two trees, and one edge fewer than
    nodes per tree of the input multigraph."""

    @pytest.mark.parametrize("seed", range(12))
    def test_forest_keys_match_kruskal(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 60))
        n_edges = int(rng.integers(0, 4 * n_nodes))
        a = rng.integers(0, n_nodes, n_edges)
        b = rng.integers(0, n_nodes, n_edges)  # loops and repeated pairs included
        keys = rng.integers(0, 1 + n_edges // int(rng.integers(1, 5)), n_edges)  # ties
        got_a, got_b, got_keys = persistence._forest_edges(a, b, keys, n_nodes)
        assert sorted(got_keys.tolist()) == kruskal_forest_keys(a, b, keys, n_nodes)
        assert len(got_a) == len(got_b) == len(got_keys)
        assert np.all(got_a < n_nodes) and np.all(got_b < n_nodes)
        # each returned edge was an input edge of its key
        given = set(zip(a.tolist(), b.tolist(), keys.tolist()))
        assert set(zip(got_a.tolist(), got_b.tolist(), got_keys.tolist())) <= given
        assert np.all(got_keys[1:] >= got_keys[:-1])
        # replayed in the returned order, every edge joins two trees
        parent = list(range(n_nodes))

        def find(u):
            while parent[u] != u:
                u = parent[u]
            return u

        for u, w in zip(got_a.tolist(), got_b.tolist()):
            u, w = find(u), find(w)
            assert u != w
            parent[w] = u
        assert len(got_keys) == n_nodes - component_count(n_nodes, a, b)

    def test_no_edges(self):
        for n_nodes in (5, 0):
            forest = persistence._forest_edges(*(np.zeros(0, dtype=np.int64),) * 3, n_nodes)
            assert [len(x) for x in forest] == [0, 0, 0]

    def test_counts_on_the_support_match_full_graph_oracle_at_scale(self):
        # a 40 %-floor hex lattice of about 1100 spots in blocks of a few
        # assignments, where Borůvka takes several rounds
        rng = np.random.default_rng(73)
        graph = hex_grid_graph(hex_lattice(30, 36))
        vals = np.log(rng.poisson(3.0, graph.n_vertices) + 2.0)
        vals[rng.permutation(graph.n_vertices)[:2 * graph.n_vertices // 5]] = np.log(2.0)
        perms = np.asarray([rng.permutation(graph.n_vertices) for _ in range(8)])
        assert persistence._dense_ranks(vals)[2] is not None
        levels, counts = superlevel_betti_counts(graph, vals, perms)
        want_levels, want = betti_counts_full_graph(graph, vals, perms)
        assert levels.tobytes() == want_levels.tobytes() and counts.tobytes() == want.tobytes()


STABILITY_CASES = stability_cases()


class TestStability:
    """Bottleneck stability (Cohen-Steiner, Edelsbrunner & Harer, "Stability
    of persistence diagrams", Discrete Comput. Geom. 37, 2007): the diagrams
    of f and g = f + e lie at most ||e||_inf apart. Essential pairs die at
    each function's minimum, which moves by at most ||e||_inf too, so they
    count as ordinary points."""

    def test_oracle_on_hand_computed_diagrams(self):
        one = PersistenceDiagram(np.asarray([3.0]), np.asarray([1.0]), np.asarray([0]),
                                 np.asarray([True]), 1.0, 3.0)
        moved = PersistenceDiagram(np.asarray([3.5, 2.0]), np.asarray([1.0, 1.8]),
                                   np.asarray([0, 1]), np.asarray([True, False]), 1.0, 3.5)
        none = PersistenceDiagram(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64),
                                  np.zeros(0, dtype=bool), 1.0, 3.0)
        assert bottleneck_distance(one, moved) == bottleneck_distance(moved, one) == 0.5
        assert bottleneck_distance(one, none) == 1.0  # half its lifetime, to the diagonal
        assert bottleneck_distance(none, none) == bottleneck_distance(one, one) == 0.0

    @pytest.mark.parametrize("name,graph,f,g", STABILITY_CASES,
                             ids=[c[0] for c in STABILITY_CASES])
    def test_bottleneck_distance_is_at_most_the_perturbation(self, name, graph, f, g):
        size = np.abs(g - f).max()
        # a point moves by a difference of two values, rounded as f - g is
        slack = 4 * np.finfo(float).eps * np.abs(np.concatenate([f, g])).max()
        assert bottleneck_distance(superlevel_diagram(graph, f),
                                   superlevel_diagram(graph, g)) <= size + slack

    @pytest.mark.parametrize("name,graph,f,g", STABILITY_CASES[::4],
                             ids=[c[0] for c in STABILITY_CASES[::4]])
    def test_oracle_catches_a_planted_violation(self, name, graph, f, g):
        # f's diagram against itself with one pair moved by 2 ||e||_inf: no
        # other point or the diagonal is nearer the moved one than that
        size = np.abs(g - f).max()
        d = superlevel_diagram(graph, f)
        distance = bottleneck_distance(d, planted(d, 2 * size))
        assert distance == pytest.approx(2 * size, rel=1e-9) and distance > 1.5 * size
