import math

import numpy as np
import pytest

from topospat import (
    Dataset,
    DegenerateDataError,
    DimensionError,
    ParameterError,
    SimConfig,
    StateError,
    SummaryMethod,
    TestConfig,
    ValidationError,
    benjamini_hochberg,
    PersistenceDiagram,
    delaunay_graph,
    hex_grid_graph,
    landscape,
    morans_i,
    permutation_test,
    read_report,
    rect_grid_graph,
    run_battery,
    shifted_log_transform,
    simulate_dataset,
    superlevel_betti_counts,
    superlevel_diagram,
    write_report,
)
from topospat import spatial_stats
from topospat.spatial_stats import _feature_rng

from oracles import hex_lattice, make_graph, moran_direct, random_graph


def path_graph(n):
    return make_graph([(float(i), 0.0) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


# With seed 51 and 23 permutations, exactly half of the 24 assignments of
# these values put the minimum in the middle of a 3-vertex path.
PATH3_TIE_VALUES = [0.13309590724291953, 0.040546058804559526, 0.7906770960216951]


class TestMoransI:
    def test_checkerboard_is_minus_one(self):
        g = rect_grid_graph([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert morans_i(g, [1, 0, 0, 1]) == -1.0

    def test_monotone_path_values(self):
        # centre value equals the mean, so every edge cross-term vanishes
        assert morans_i(path_graph(3), [1, 2, 3]) == 0.0

    def test_skewed_path_values(self):
        assert morans_i(path_graph(3), [1, 2, 4]) == pytest.approx(-1.0 / 28.0, abs=1e-15)

    def test_constant_values_raise(self):
        with pytest.raises(DegenerateDataError):
            morans_i(path_graph(3), [2.0, 2.0, 2.0])

    def test_edgeless_graph_raises(self):
        g = make_graph([(0, 0), (1, 0)], [])
        with pytest.raises(DegenerateDataError):
            morans_i(g, [1.0, 2.0])

    def test_matches_dense_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 25))
            g = random_graph(rng, n, 0.3)
            if g.n_edges == 0:
                continue
            vals = rng.random(n)
            assert morans_i(g, vals) == pytest.approx(moran_direct(g, vals), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 20, 0.3)
        vals = rng.random(20)
        base = morans_i(g, vals)
        assert morans_i(g, 3.7 * vals + 11.0) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            morans_i(path_graph(3), [1.0, 2.0])


class TestBenjaminiHochberg:
    def test_worked_example(self):
        assert np.allclose(benjamini_hochberg([0.01, 0.02, 0.03]), [0.03, 0.03, 0.03])

    def test_single_p(self):
        assert benjamini_hochberg([0.2]) == pytest.approx([0.2])

    def test_clipped_at_one(self):
        assert np.allclose(benjamini_hochberg([1.0, 1.0]), [1.0, 1.0])

    def test_mixed_example(self):
        assert np.allclose(benjamini_hochberg([0.03, 0.01, 0.04, 0.04]),
                           [0.04, 0.04, 0.04, 0.04])

    def test_rejects_out_of_range(self):
        for bad in ([0.0, 0.5], [0.5, 1.5], [np.nan, 0.5]):
            with pytest.raises(ValidationError):
                benjamini_hochberg(bad)

    def test_invariant_to_input_order(self):
        rng = np.random.default_rng(6)
        ps = rng.uniform(0.001, 1.0, 50)
        perm = rng.permutation(50)
        q = benjamini_hochberg(ps)
        q_perm = benjamini_hochberg(ps[perm])
        assert np.allclose(q[perm], q_perm, atol=1e-15)

    def test_monotone_in_p_order(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(0.001, 1.0, 40)
        q = benjamini_hochberg(ps)
        order = np.argsort(ps)
        assert np.all(np.diff(q[order]) >= -1e-15)
        assert q.max() <= 1.0


class TestTestConfig:
    def test_defaults(self):
        cfg = TestConfig(method="betti")
        assert cfg.n_perm == 1000 and cfg.p == 2.0 and cfg.alpha == 0.05

    @pytest.mark.parametrize("kwargs", [
        {"n_perm": 0}, {"alpha": 0.0}, {"alpha": 1.0}, {"p": 3}, {"max_levels": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            TestConfig(method="betti", **kwargs)


class TestPermutationTest:
    def test_p_value_floor_for_overwhelming_signal(self):
        # a pure coordinate ramp is as spatially structured as it gets
        g = rect_grid_graph([(x, y) for y in range(6) for x in range(6)])
        values = np.asarray([float(x) for _ in range(6) for x in range(6)])
        cfg = TestConfig(method="moran", n_perm=99, seed=5)
        report = permutation_test(g, values, cfg)
        assert report.p_value == pytest.approx(1.0 / 100.0)
        assert report.statistic == morans_i(g, values)

    def test_constant_total_lifetime_gives_p_one(self):
        # every permutation of a two-valued feature on a complete graph gives
        # the same diagram, so all statistics tie and p must be 1
        g = make_graph([(i, 0) for i in range(4)],
                       [(i, j) for i in range(4) for j in range(i + 1, 4)])
        cfg = TestConfig(method="total", n_perm=25, seed=1)
        report = permutation_test(g, [5.0, 1.0, 1.0, 1.0], cfg)
        assert report.p_value == 1.0

    def test_p_value_bounds_all_methods(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 25, 0.2)
        vals = rng.random(25)
        for method in SummaryMethod:
            cfg = TestConfig(method=method, n_perm=40, seed=3)
            r = permutation_test(g, vals, cfg)
            assert 1.0 / 41.0 <= r.p_value <= 1.0

    def test_statistic_is_distance_from_null_mean_for_curves(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 15, 0.3)
        vals = rng.random(15)
        cfg = TestConfig(method="betti", n_perm=20, seed=9)
        r = permutation_test(g, vals, cfg)
        # recompute via public primitives using the same stream
        from topospat import betti_curve, curve_lp_distance, mean_step_curve, superlevel_diagram
        stream = _feature_rng(cfg.seed, np.asarray(vals))
        perms = [stream.permutation(15) for _ in range(cfg.n_perm)]
        curves = [betti_curve(superlevel_diagram(g, v))
                  for v in [vals] + [vals[p] for p in perms]]
        center = mean_step_curve(curves)
        assert r.statistic == pytest.approx(curve_lp_distance(curves[0], center, 2), abs=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        g = random_graph(rng, 20, 0.25)
        vals = rng.random(20)
        cfg = TestConfig(method="landscape", n_perm=15, seed=21)
        r1 = permutation_test(g, vals, cfg)
        r2 = permutation_test(g, vals, cfg)
        assert r1.p_value == r2.p_value and r1.statistic == r2.statistic

    def test_affine_transform_preserves_p_values_exactly(self):
        # integer values, power-of-two count and scale: the transform is exact
        # in floats, distances scale exactly, and the rank-keyed stream draws
        # identical permutations, so the p-values must agree bit for bit
        rng = np.random.default_rng(17)
        g = random_graph(rng, 32, 0.2)
        vals = rng.integers(0, 7, 32).astype(np.float64)
        for method in ("moran", "betti", "total", "landscape"):
            cfg = TestConfig(method=method, n_perm=30, seed=2)
            base = permutation_test(g, vals, cfg)
            moved = permutation_test(g, 2.0 * vals + 3.0, cfg)
            assert moved.p_value == base.p_value, method

    def test_betti_and_total_build_no_diagrams(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("diagram built on the Betti/total path")

        monkeypatch.setattr(spatial_stats, "superlevel_diagram", refuse)
        rng = np.random.default_rng(19)
        g = random_graph(rng, 20, 0.25)
        vals = rng.random(20)
        for method in ("betti", "total"):
            assert permutation_test(g, vals, TestConfig(method=method, n_perm=10)).ok

    @pytest.mark.parametrize("method", ["total", "betti"])
    def test_exact_tie_counts(self, method):
        # On a 3-vertex path with values a > b > c, an assignment has two
        # components between c and b when c sits in the middle and one
        # otherwise, so its total lifetime is a + b - 2c or a - c. This stream
        # puts c in the middle in exactly half of the 24 assignments: every
        # deviation from the mean is equal and p must be 1. Summing diagram
        # lifetimes in floats splits the total-lifetime tie and gives 12/24.
        report = permutation_test(path_graph(3), PATH3_TIE_VALUES,
                                  TestConfig(method=method, n_perm=23, seed=51))
        assert report.p_value == 1.0

    @pytest.mark.parametrize("method", ["total", "betti"])
    def test_integer_ties_need_no_rounding_slack(self, method, monkeypatch):
        # Rows whose integer deviation from the mean matches the observed one
        # (up to the sign of the whole vector for total lifetime, entry by
        # entry in absolute value for Betti curves) must tie in floats alone.
        monkeypatch.setattr(spatial_stats, "_TIE_ULPS", 0)
        rng = np.random.default_rng(23)
        vals = np.asarray(PATH3_TIE_VALUES)
        stream = _feature_rng(51, vals)
        cases = [(path_graph(3), vals, [stream.permutation(3) for _ in range(23)])]
        for _ in range(40):
            n = int(rng.integers(3, 10))
            vals = rng.random(n)
            cases.append((random_graph(rng, n, 0.4), vals,
                          [rng.permutation(n) for _ in range(30)]))
        sign_flips = 0
        for g, vals, perms in cases:
            _, counts = superlevel_betti_counts(g, vals, perms)
            seg = counts[:, 1:]
            dev = len(seg) * seg - seg.sum(axis=0)
            if method == "total":
                tied = np.all(dev == dev[0], axis=1) | np.all(dev == -dev[0], axis=1)
            else:
                tied = np.all(np.abs(dev) == np.abs(dev[0]), axis=1)
            _, extreme = spatial_stats._component_test(g, vals, perms,
                                                       TestConfig(method=method))
            assert np.all(extreme[tied])
            sign_flips += int(np.count_nonzero(tied & np.any(dev != dev[0], axis=1)))
        assert sign_flips > 0

    def test_total_rounding_tie_counts(self):
        # log(c + 2) levels make integrals equal in real arithmetic through
        # identities such as log 3 - log 2 = log 6 - log 4; one null assignment
        # of gene0019 ties the observed deviation that way and differs from it
        # by one rounding only. Comparing floats strictly gives 170/201.
        ds = shifted_log_transform(simulate_dataset(SimConfig(
            pattern="clusters", zero_prop=0.5, n_locations=400, n_signal=10, n_null=10,
            seed=5)))
        feature = ds.values[ds.feature_names.index("gene0019")]
        report = permutation_test(delaunay_graph(ds.locations), feature,
                                  TestConfig(method="total", n_perm=200, seed=0))
        assert report.p_value == 171 / 201

    def test_mirrored_assignments_tie_bitwise(self, monkeypatch):
        # A path read backwards has the same diagram, hence the same landscape
        # knots, so its statistic must equal the forward one bit for bit.
        monkeypatch.setattr(spatial_stats, "_TIE_ULPS", 0)
        rng = np.random.default_rng(67)
        n = 11
        vals = rng.random(n)
        perms = [np.arange(n)[::-1]]
        for _ in range(10):
            perm = rng.permutation(n)
            perms += [perm, perm[::-1]]
        lands = [landscape(superlevel_diagram(path_graph(n), vals[perm]), 5)
                 for perm in [np.arange(n)] + perms]
        for p in (1.0, 2.0, math.inf):
            stats, _ = spatial_stats._landscape_stats(lands, p)
            assert stats[1] == stats[0]
            assert np.array_equal(stats[2::2], stats[3::2])

    def test_count_feature_equal_landscapes_tie_bitwise(self, monkeypatch):
        # gene0013 has 12 distinct values; its 201 assignments give 201
        # different diagrams but only 17 different 5-level landscapes, and
        # 161 null assignments share the observed one. Equal landscapes must
        # give bitwise-equal statistics without any rounding slack.
        monkeypatch.setattr(spatial_stats, "_TIE_ULPS", 0)
        ds = shifted_log_transform(simulate_dataset(SimConfig(
            pattern="clusters", zero_prop=0.5, n_locations=400, n_signal=10, n_null=10,
            seed=1)))
        graph = delaunay_graph(ds.locations)
        feature = ds.values[ds.feature_names.index("gene0013")]
        stream = _feature_rng(3, feature)
        perms = [stream.permutation(len(feature)) for _ in range(200)]
        lands = [landscape(superlevel_diagram(graph, feature[perm]), 5)
                 for perm in [np.arange(len(feature))] + perms]
        stats, _ = spatial_stats._landscape_stats(lands, 2.0)
        classes = {}
        for L, stat in zip(lands, stats):
            key = b"".join(xs.tobytes() + ys.tobytes() for xs, ys in L.levels)
            classes.setdefault(key, set()).add(float(stat))
        assert all(len(stat_set) == 1 for stat_set in classes.values())
        assert len(classes) < 50
        assert int(np.sum(stats[1:] == stats[0])) == 161
        report = permutation_test(graph, feature,
                                  TestConfig(method="landscape", n_perm=200, seed=3))
        assert report.p_value == 1.0

    def test_landscape_rounding_tie_counts(self):
        # Tents on [0.3, 0.6] and [0.4, 0.7] have equal widths and mirror each
        # other inside the pair (0.9, 0.1), so their landscapes lie at equal
        # distances from their mean in real arithmetic; their float heights,
        # (0.6 - 0.3) / 2 and (0.7 - 0.4) / 2, differ, which splits the tie.
        def one_tent(birth, death):
            births, deaths = np.asarray([0.9, birth]), np.asarray([0.1, death])
            return landscape(PersistenceDiagram(
                births, deaths, np.arange(2), deaths == 0.1, 0.1, 0.9), 3)

        left, right = one_tent(0.6, 0.3), one_tent(0.7, 0.4)
        split = 0
        for p in (1.0, 2.0, math.inf):
            for lands in ([left, right], [right, left]):
                stats, slack = spatial_stats._landscape_stats(lands, p)
                split += int(stats[1] < stats[0])
                assert stats[1] >= stats[0] - slack
        assert split > 0

    @pytest.mark.parametrize("values, p, seed, expected", [
        ([0.5, 0.8, 0.2, 0.6], math.inf, 48, 16),
        ([0.1, 0.7, 0.4, 0.7], 1.0, 79, 9),
    ])
    def test_landscape_rounding_ties_end_to_end(self, values, p, seed, expected):
        # On a 4-vertex path these decimal features tie several null
        # landscape distances with the observed one in exact rational
        # arithmetic, which gives the expected count out of 20; comparing
        # the floats plainly splits those ties and gives 8/20 and 7/20.
        report = permutation_test(path_graph(4), values, TestConfig(
            method="landscape", n_perm=19, p=p, max_levels=3, seed=seed))
        assert report.p_value == expected / 20

    def test_moran_constant_feature_raises(self):
        with pytest.raises(DegenerateDataError):
            permutation_test(path_graph(4), [1.0] * 4,
                             TestConfig(method="moran", n_perm=10))


class TestFeatureStream:
    def test_same_values_same_draws(self):
        vals = np.asarray([1.0, 5.0, 2.0, 0.0])
        g1 = _feature_rng(7, vals)
        g2 = _feature_rng(7, vals.copy())
        assert np.array_equal(g1.permutation(4), g2.permutation(4))

    def test_different_seed_different_draws(self):
        vals = np.arange(50, dtype=np.float64)
        a = _feature_rng(1, vals).permutation(50)
        b = _feature_rng(2, vals).permutation(50)
        assert not np.array_equal(a, b)


def make_dataset(n_loc=30, n_feat=8, seed=0, transformed=True):
    rng = np.random.default_rng(seed)
    locations = rng.random((n_loc, 2))
    return Dataset(locations=locations, values=[rng.random(n_loc) for _ in range(n_feat)],
                   feature_names=[f"g{i:02d}" for i in range(n_feat)],
                   labels=[bool(i % 2) for i in range(n_feat)], transformed=transformed)


class TestRunBattery:
    def setup_method(self):
        self.ds = make_dataset()
        from topospat import delaunay_graph
        self.graph = delaunay_graph(self.ds.locations)
        self.cfg = TestConfig(method="betti", n_perm=30, seed=4)

    def test_report_count_and_rank_permutation(self):
        reports = run_battery(self.ds, self.graph, self.cfg)
        assert len(reports) == self.ds.n_features
        assert sorted(r.rank for r in reports) == list(range(1, self.ds.n_features + 1))
        assert [r.feature_name for r in reports] == self.ds.feature_names

    def test_identical_features_get_identical_p(self):
        ds = make_dataset(n_feat=4)
        ds.values[1] = ds.values[0]
        ds.feature_names[1] = "aa_twin"
        reports = run_battery(ds, self.graph, self.cfg)
        by_name = {r.feature_name: r for r in reports}
        twin, orig = by_name["aa_twin"], by_name["g00"]
        assert twin.p_value == orig.p_value
        assert abs(twin.rank - orig.rank) == 1
        assert twin.rank < orig.rank  # name tie-break: "aa_twin" < "g00"

    def test_shuffled_feature_order_preserves_p_values(self):
        reports = run_battery(self.ds, self.graph, self.cfg)
        shuffled = Dataset(locations=self.ds.locations,
                           values=self.ds.values[::-1],
                           feature_names=self.ds.feature_names[::-1],
                           labels=self.ds.labels[::-1], transformed=True,
                           location_ids=list(self.ds.location_ids))
        reports2 = run_battery(shuffled, self.graph, self.cfg)
        p1 = {r.feature_name: r.p_value for r in reports}
        p2 = {r.feature_name: r.p_value for r in reports2}
        assert p1 == p2

    def test_thread_count_does_not_change_results(self):
        serial = run_battery(self.ds, self.graph, self.cfg, threads=1)
        parallel = run_battery(self.ds, self.graph, self.cfg, threads=3)
        for a, b in zip(serial, parallel):
            assert (a.feature_name, a.statistic, a.p_value, a.q_value, a.rank) == \
                   (b.feature_name, b.statistic, b.p_value, b.q_value, b.rank)

    def test_failed_feature_recorded_not_fatal(self):
        ds = make_dataset(n_feat=4)
        ds.values[2] = 1.0
        ds.feature_names[2] = "flat"
        cfg = TestConfig(method="moran", n_perm=20, seed=8)
        reports = run_battery(ds, self.graph, cfg)
        by_name = {r.feature_name: r for r in reports}
        assert not by_name["flat"].ok
        assert math.isnan(by_name["flat"].p_value)
        assert by_name["flat"].rank == 4  # failures sort last
        assert all(r.ok for n, r in by_name.items() if n != "flat")
        assert sorted(r.rank for r in reports) == [1, 2, 3, 4]

    def test_unexpected_error_recorded_not_fatal(self, monkeypatch):
        poisoned = self.ds.values[3]
        kernel = spatial_stats.superlevel_betti_counts

        def flaky(graph, values, perms):
            if np.array_equal(values, poisoned):
                raise ValueError("kernel blew up")
            return kernel(graph, values, perms)

        monkeypatch.setattr(spatial_stats, "superlevel_betti_counts", flaky)
        reports = run_battery(self.ds, self.graph, self.cfg)
        by_name = {r.feature_name: r for r in reports}
        bad = by_name["g03"]
        assert bad.status == "ValueError: kernel blew up"
        assert math.isnan(bad.p_value) and bad.rank == self.ds.n_features
        assert all(r.ok for n, r in by_name.items() if n != "g03")
        assert sorted(r.rank for r in reports) == list(range(1, self.ds.n_features + 1))

    def test_raw_dataset_requires_allow_raw(self):
        raw = make_dataset(transformed=False)
        with pytest.raises(StateError):
            run_battery(raw, self.graph, self.cfg)
        reports = run_battery(raw, self.graph, self.cfg, allow_raw=True)
        assert all(r.ok for r in reports)

    def test_q_values_match_bh_of_p_values(self):
        reports = run_battery(self.ds, self.graph, self.cfg)
        qs = benjamini_hochberg([r.p_value for r in reports])
        assert np.allclose([r.q_value for r in reports], qs, atol=1e-15)


def test_report_round_trip(tmp_path):
    ds = make_dataset()
    from topospat import delaunay_graph
    graph = delaunay_graph(ds.locations)
    reports = run_battery(ds, graph, TestConfig(method="total", n_perm=15, seed=2))
    path = tmp_path / "report.tsv"
    write_report(reports, path, meta={"graph": "delaunay"})
    loaded = read_report(path)
    assert [r.feature_name for r in loaded] == [r.feature_name for r in reports]
    assert [r.p_value for r in loaded] == [r.p_value for r in reports]
    assert [r.rank for r in loaded] == [r.rank for r in reports]
    sidecar = (tmp_path / "report.tsv.json").read_text()
    assert '"total"' in sidecar and '"delaunay"' in sidecar


CALIBRATION_GRAPHS = {
    "delaunay": lambda: delaunay_graph(np.random.default_rng(0).random((100, 2))),
    "hex": lambda: hex_grid_graph(hex_lattice(10, 10)),
    "rect": lambda: rect_grid_graph([(x, y) for x in range(10) for y in range(10)]),
}


@pytest.mark.parametrize("graph_kind", sorted(CALIBRATION_GRAPHS))
@pytest.mark.parametrize("method", ["betti", "total", "landscape", "moran"])
def test_null_calibration(method, graph_kind):
    # Under the null every assignment is exchangeable, so with 19 permutations
    # p <= 0.05 means the observed statistic beats all of them strictly,
    # which happens with probability 1/20 (less where statistics tie). The
    # count over independent Gaussian features must lie in the central
    # 99.9 % of Binomial(n_features, 0.05).
    from scipy.stats import binom

    graph = CALIBRATION_GRAPHS[graph_kind]()
    rng = np.random.default_rng(2024)
    n_features = 200
    cfg = TestConfig(method=method, n_perm=19, seed=7)
    hits = sum(permutation_test(graph, rng.normal(size=graph.n_vertices), cfg).p_value <= 0.05
               for _ in range(n_features))
    low, high = binom.interval(0.999, n_features, 0.05)
    assert low <= hits <= high
