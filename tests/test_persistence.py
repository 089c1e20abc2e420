import numpy as np
import pytest

from topospat import (
    DimensionError,
    GraphKind,
    SpatialGraph,
    TestConfig,
    ValidationError,
    betti_curve,
    curve_lp_distance,
    curve_lp_norm,
    diagram_stats,
    hex_grid_graph,
    mean_step_curve,
    permutation_test,
    rect_grid_graph,
    sublevel_diagram,
    superlevel_betti_counts,
    superlevel_diagram,
    superlevel_diagrams,
    total_lifetime,
    write_diagram,
)
from topospat import persistence
from topospat.spatial_stats import _feature_rng

from oracles import (
    exact_distance_count,
    h0_sweep_diagram,
    hex_lattice,
    make_graph,
    neighbor_lists,
    pairs_alive_at,
    random_graph,
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
        assert diagram_stats(d).n_pairs == 0

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


class TestDiagramStats:
    def test_running_example(self):
        d = superlevel_diagram(path_graph(3), [3, 1, 2])
        s = diagram_stats(d)
        assert (s.n_pairs, s.max_lifetime, s.n_essential) == (2, 2.0, 2)

    def test_constant(self):
        d = superlevel_diagram(path_graph(3), [4.0, 4.0, 4.0])
        s = diagram_stats(d)
        assert (s.n_pairs, s.max_lifetime, s.n_essential) == (1, 0.0, 1)


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


def test_sublevel_is_negated_superlevel():
    g = path_graph(3)
    sub = sublevel_diagram(g, [3, 1, 2])
    sup = superlevel_diagram(g, [-3, -1, -2])
    assert pair_set(sub) == pair_set(sup)


def test_write_diagram(tmp_path):
    d = superlevel_diagram(path_graph(3), [3, 1, 2])
    path = tmp_path / "diagram.tsv"
    write_diagram(d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# f_min=1.0"
    assert lines[1] == "# f_max=3.0"
    assert lines[2] == "birth\tdeath\tbirth_vertex"
    rows = {tuple(ln.split("\t")) for ln in lines[3:]}
    assert rows == {("3.0", "1.0", "0"), ("2.0", "1.0", "2")}


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

    @pytest.mark.parametrize("kind", ["hex", "rect"])
    def test_plateau_grids_beyond_one_block(self, kind):
        rng = np.random.default_rng(31)
        if kind == "hex":
            graph = hex_grid_graph(hex_lattice(10, 10))
        else:
            graph = rect_grid_graph([(x, y) for x in range(12) for y in range(12)])
        n = graph.n_vertices
        n_perm = 100
        assert n_perm + 1 > persistence._FOREST_BLOCK_SIZE // (n + graph.n_edges)
        vals = rng.integers(0, 4, n).astype(float)
        assert_matches_sweep(graph, vals, np.asarray([rng.permutation(n) for _ in range(n_perm)]))

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
