import json
import math
import tracemalloc

import numpy as np
import pytest

from topospat import (
    Dataset,
    DegenerateDataError,
    DimensionError,
    ParameterError,
    ParseError,
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
from topospat import persistence, spatial_stats, summaries
from topospat.spatial_stats import _feature_rng

from oracles import (
    ROW_BREAKS,
    hex_lattice,
    make_graph,
    moran_direct,
    moran_exact_measures,
    random_graph,
)


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

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionError):
            benjamini_hochberg([[0.1, 0.2]])

    def test_empty_input(self):
        q = benjamini_hochberg([])
        assert q.shape == (0,) and q.dtype == np.float64

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
        assert cfg.n_perm == 1000 and cfg.p == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"n_perm": 0}, {"p": 3}, {"max_levels": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            TestConfig(method="betti", **kwargs)

    # a float count once failed every feature with a TypeError, and a float
    # seed ran as its integer part while the sidecar recorded the float
    @pytest.mark.parametrize("kwargs", [
        {"n_perm": 2.5}, {"max_levels": 2.5}, {"seed": 1.5}, {"n_perm": 10.0},
    ])
    def test_settings_must_be_integers(self, kwargs):
        (name, _), = kwargs.items()
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            TestConfig(method="landscape", **kwargs)

    def test_numpy_integers_are_plain_ints(self):
        cfg = TestConfig(method="landscape", n_perm=np.int64(9), max_levels=np.int32(2),
                         seed=np.uint64(2**63))
        assert (cfg.n_perm, cfg.max_levels, cfg.seed) == (9, 2, 2**63)
        assert {type(cfg.n_perm), type(cfg.max_levels), type(cfg.seed)} == {int}


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
            _, measure, slack = spatial_stats._component_null(g, vals, perms,
                                                              TestConfig(method=method))
            assert not slack.any()
            assert np.all(spatial_stats._extreme(measure, slack)[tied])
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

    def test_mirrored_assignments_tie_bitwise(self):
        # A path read backwards has the same diagram, hence the same landscape
        # knots, so its statistic must equal the forward one bit for bit.
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
            stats, slack = landscape_measures(lands, p, tie_ulps=0)
            assert stats[1] == stats[0]
            assert np.array_equal(stats[2::2], stats[3::2])
            assert not slack.any() and spatial_stats._extreme(stats, slack)[1]

    def test_count_feature_equal_landscapes_tie_bitwise(self):
        # gene0013 has 12 distinct values; its 201 assignments give 201
        # different diagrams but only 17 different 5-level landscapes, and
        # 161 null assignments share the observed one. Equal landscapes must
        # give bitwise-equal statistics without any rounding slack.
        ds = shifted_log_transform(simulate_dataset(SimConfig(
            pattern="clusters", zero_prop=0.5, n_locations=400, n_signal=10, n_null=10,
            seed=1)))
        graph = delaunay_graph(ds.locations)
        feature = ds.values[ds.feature_names.index("gene0013")]
        stream = _feature_rng(3, feature)
        perms = [stream.permutation(len(feature)) for _ in range(200)]
        lands = [landscape(superlevel_diagram(graph, feature[perm]), 5)
                 for perm in [np.arange(len(feature))] + perms]
        stats, slack = landscape_measures(lands, 2.0, tie_ulps=0)
        classes = {}
        for L, stat in zip(lands, stats):
            key = b"".join(xs.tobytes() + ys.tobytes() for xs, ys in L.levels)
            classes.setdefault(key, set()).add(float(stat))
        assert all(len(stat_set) == 1 for stat_set in classes.values())
        assert len(classes) < 50
        assert int(np.sum(stats[1:] == stats[0])) == 161
        assert not slack.any()
        assert int(np.sum(spatial_stats._extreme(stats, slack)[1:])) >= 161
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
                stats, slack = landscape_measures(lands, p)
                split += int(stats[1] < stats[0])
                assert spatial_stats._extreme(stats, slack)[1]
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

    def test_moran_ties_follow_level_pair_counts(self, monkeypatch):
        # On a 6 x 6 rect lattice, symmetric under reversing its columns, with
        # three count levels above a floor: assignments with equal edge counts
        # per (level, level) pair have the same Moran's I, and an assignment
        # and its mirror image always do. Summing the edge products in another
        # order splits such ties by a few ulps; the counted assignments must
        # still be those of the exact oracle, which with no slack they are not.
        rows = cols = 6
        n = rows * cols
        graph = rect_grid_graph([(float(c), float(r)) for r in range(rows) for c in range(cols)])
        rng = np.random.default_rng(12)
        vals = np.log(rng.choice([0] * 9 + [1, 3, 7], size=n) + 2.0)
        mirror = np.arange(n).reshape(rows, cols)[:, ::-1].ravel()
        perms = [mirror]
        while len(perms) < 199:
            perm = rng.permutation(n)
            perms += [perm, perm[mirror]]
        exact = moran_exact_measures(graph, vals, [np.arange(n)] + perms)
        assert exact[1] == exact[0] and exact[2::2] == exact[3::2]
        expected = np.array([m >= exact[0] for m in exact])

        class Draws:  # hands the null the test's own permutations, in order
            def __init__(self):
                self.perms = iter(perms)

            def permutation(self, dev):
                return dev[next(self.perms)]

        _, measure, slack = spatial_stats._moran_null(graph, vals, Draws(), len(perms))
        assert np.array_equal(spatial_stats._extreme(measure, slack), expected)
        assert np.any(measure[2::2] != measure[3::2])  # the floats split mirror ties
        monkeypatch.setattr(spatial_stats, "_TIE_ULPS", 0)
        _, measure, slack = spatial_stats._moran_null(graph, vals, Draws(), len(perms))
        assert not np.array_equal(spatial_stats._extreme(measure, slack), expected)

    def test_moran_constant_feature_raises(self):
        with pytest.raises(DegenerateDataError):
            permutation_test(path_graph(4), [1.0] * 4,
                             TestConfig(method="moran", n_perm=10))


def landscape_measures(lands, p, tie_ulps=spatial_stats._TIE_ULPS):
    """The landscape test's measure and slack of `lands`, lands[0] observed."""
    return summaries._landscape_measures(lands, summaries.mean_landscape(lands), p, tie_ulps)


def null_landscapes(graph, values, n_perm, max_levels=5, seed=0, mirror=False):
    """Landscapes of `values` on `graph` and of n_perm permutations, as the
    test draws them; with `mirror`, each permutation is followed by its
    reverse, whose diagram on a path is the same."""
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(len(values)) for _ in range(n_perm)]
    if mirror:
        perms = [q for perm in perms for q in (perm, perm[::-1])]
    blocks = persistence._diagram_blocks(graph, np.asarray(values, dtype=np.float64),
                                         iter(perms), keep_floor=False)
    return summaries._landscapes(blocks, max_levels)


def decimal_tents(birth, death, f_min=0.1, f_max=0.9, max_levels=3):
    births, deaths = np.asarray([f_max, birth]), np.asarray([f_min, death])
    return landscape(PersistenceDiagram(births, deaths, np.arange(2), deaths == f_min,
                                        f_min, f_max), max_levels)


def moment_cases():
    rng = np.random.default_rng(97)
    delaunay = delaunay_graph(rng.random((60, 2)))
    counts = np.log(rng.poisson(0.8, size=60) + 2.0)
    point = PersistenceDiagram(np.asarray([2.0]), np.asarray([2.0]), np.arange(1),
                               np.asarray([True]), 2.0, 2.0)
    # the essential tent of a diagram on [0.1, 0.9] and a zero-lifetime pair
    one_tent = PersistenceDiagram(np.asarray([0.9, 0.5]), np.asarray([0.1, 0.5]), np.arange(2),
                                  np.asarray([True, False]), 0.1, 0.9)
    no_tent = PersistenceDiagram(np.asarray([0.5]), np.asarray([0.5]), np.arange(1),
                                 np.asarray([False]), 0.1, 0.9)
    return {
        "continuous": null_landscapes(delaunay, rng.normal(size=60), 120),
        "counts": null_landscapes(delaunay, counts, 120),
        "counts-hex": null_landscapes(hex_grid_graph(hex_lattice(8, 8)),
                                      np.log(rng.poisson(1.0, size=64) + 2.0), 80, seed=1),
        "mirrored": null_landscapes(path_graph(11), rng.random(11), 20, mirror=True),
        "decimal-ties": [decimal_tents(0.6, 0.3), decimal_tents(0.7, 0.4),
                         decimal_tents(0.5, 0.2), decimal_tents(0.8, 0.5)],
        "one-tent-and-none": [landscape(no_tent, 3), landscape(one_tent, 3),
                              decimal_tents(0.6, 0.3), landscape(no_tent, 3),
                              landscape(one_tent, 3)],
        "single-point": [landscape(point, 3)] * 4,
        "one-level": null_landscapes(delaunay, rng.normal(size=60), 60, max_levels=1),
        "one-level-counts": null_landscapes(delaunay, counts, 60, max_levels=1),
    }


MOMENT_CASES = moment_cases()


class TestLandscapeMoments:
    """The p = 2 landscape measures from moments against the grid's."""

    @staticmethod
    def grid_stats(lands):
        center = summaries.mean_landscape(lands)
        return sum(summaries._level_distances([xs for xs, _ in center.levels], lands, center, 2.0))

    @pytest.mark.parametrize("case", list(MOMENT_CASES))
    def test_within_the_bound_of_the_grid(self, case, monkeypatch):
        # A moment distance is measured again on the grid when it lies
        # within its bound of the tie threshold, measure[0] - 2 * slack. With
        # the threshold put on each landscape's grid distance in turn, a
        # moment distance within its bound of the grid's must give way to it.
        lands = MOMENT_CASES[case]
        grid = self.grid_stats(lands)
        moment, _ = landscape_measures(lands, 2.0, tie_ulps=math.nan)  # no threshold
        assert moment[0] == grid[0]
        unit = landscape_measures(lands, 2.0, tie_ulps=1)[1][0]  # the slack of one ulp
        # A threshold far above every distance measures none on the grid but
        # the observed one, so every bound, also of a landscape whose moment
        # distance equals the grid's, is finite and below it. A domain of no
        # width has no slack: its threshold is measure[0], where each landscape
        # equal to the observed one lies, with a bound of 0.
        measured, on_grid = [], summaries._level_distances

        def counting_distances(grids, group, center, p):
            measured.append(len(group))
            return on_grid(grids, group, center, p)

        monkeypatch.setattr(summaries, "_level_distances", counting_distances)
        far, _ = landscape_measures(lands, 2.0,
                                    tie_ulps=-(grid.max() + 1.0) / unit if unit > 0 else 0)
        monkeypatch.undo()
        assert sum(measured) == 1
        assert far.tobytes() == moment.tobytes()
        for i in np.flatnonzero(moment != grid):
            at_grid, _ = landscape_measures(lands, 2.0, tie_ulps=(grid[0] - grid[i]) / (2 * unit))
            assert at_grid[i] == grid[i]

    @pytest.mark.parametrize("tie_ulps", [spatial_stats._TIE_ULPS, 0])
    @pytest.mark.parametrize("case", list(MOMENT_CASES))
    def test_counts_are_the_grids(self, case, tie_ulps):
        lands = MOMENT_CASES[case]
        for first in range(0, len(lands), max(1, len(lands) // 5)):  # each as the observed one
            order = [first] + [i for i in range(len(lands)) if i != first]
            ordered = [lands[i] for i in order]
            stats, slack = landscape_measures(ordered, 2.0, tie_ulps)
            grid = self.grid_stats(ordered)
            assert stats[0] == grid[0]
            assert np.array_equal(spatial_stats._extreme(stats, slack),
                                  spatial_stats._extreme(grid, slack))

    @pytest.mark.parametrize("case", list(MOMENT_CASES))
    def test_forced_band_gives_the_grid_bit_for_bit(self, case, monkeypatch):
        # every assignment whose levels differ from the observed one's goes
        # back to the grid; the others equal it, so each measure is the grid's
        monkeypatch.setattr(summaries, "_MOMENT_ULPS", 2.0 ** 900)
        lands = MOMENT_CASES[case]
        stats, _ = landscape_measures(lands, 2.0)
        assert stats.tobytes() == self.grid_stats(lands).tobytes()

    def test_cases_cover_ties_and_near_ties(self, monkeypatch):
        refined, on_grid = [], summaries._level_distances

        def counting_distances(grids, group, center, p):
            refined.append(len(group))
            return on_grid(grids, group, center, p)

        monkeypatch.setattr(summaries, "_level_distances", counting_distances)
        counted, near = {}, {}
        for case, lands in MOMENT_CASES.items():
            refined.clear()
            stats, slack = landscape_measures(lands, 2.0)
            counted[case] = int(np.sum(spatial_stats._extreme(stats, slack)[1:]))
            near[case] = sum(refined) - 1  # the observed one is always measured on the grid
        assert counted["mirrored"] >= 1 and counted["decimal-ties"] >= 1
        assert 0 < counted["counts"] < len(MOMENT_CASES["counts"]) - 1
        # decimal ties are near ties of different landscapes, which the grid
        # decides; continuous values have none
        assert near["decimal-ties"] >= 1 and near["continuous"] == 0

    def test_linear_in_the_landscapes(self, monkeypatch):
        # On about 1001 continuous landscapes the grid sees the observed one
        # and the near ties alone; the union grid has thousands of knots per
        # level, so interpolating every landscape onto it is quadratic.
        rng = np.random.default_rng(101)
        lands = null_landscapes(delaunay_graph(rng.random((150, 2))), rng.normal(size=150), 1000)
        rows, interp = [], np.interp

        def counting_interp(x, xp, fp, *args, **kwargs):
            rows.append(np.ndim(x))
            return interp(x, xp, fp, *args, **kwargs)

        refined, on_grid = [], summaries._level_distances

        def counting_distances(grids, group, center, p):
            refined.append(len(group))
            return on_grid(grids, group, center, p)

        monkeypatch.setattr(np, "interp", counting_interp)
        monkeypatch.setattr(summaries, "_level_distances", counting_distances)
        stats, slack = landscape_measures(lands, 2.0)
        levels = lands[0].max_levels
        near = sum(refined) - 1  # the observed one is always measured on the grid
        assert near <= len(lands) // 100
        assert sum(rows) <= levels * (1 + near)
        monkeypatch.undo()
        grid = self.grid_stats(lands)
        assert np.array_equal(spatial_stats._extreme(stats, slack),
                              spatial_stats._extreme(grid, slack))


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

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 4992])
    def test_value_shuffle_is_the_index_shuffle_gathered(self, n):
        # the Moran null shuffles the centred values themselves; its p-values
        # are those of the index draws only while numpy shuffles a float64
        # array with the same swaps as the index array of the same length
        vals = np.random.default_rng(n).random(n) - 0.5
        vals[::3] = -0.0
        by_value, by_index = _feature_rng(9, vals), _feature_rng(9, vals)
        for _ in range(5):
            shuffled = by_value.permutation(vals)
            assert shuffled.dtype == np.float64
            assert shuffled.tobytes() == vals[by_index.permutation(n)].tobytes()


class TestStreamedDraws:
    """A feature's permutations are drawn as the kernels read them, so a
    test's memory does not grow with n_perm by the bytes of the draws."""

    @pytest.fixture(scope="class")
    def feature(self):
        rng = np.random.default_rng(5)
        n = 2000
        # few distinct levels, so the Betti count matrix stays small
        return delaunay_graph(rng.random((n, 2))), np.log(rng.poisson(2.0, n) + 2.0)

    @staticmethod
    def traced_peak(graph, vals, cfg):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            permutation_test(graph, vals, cfg)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # landscapes are held for their mean; their bytes grow with n_perm
    @pytest.mark.parametrize("method,share", [("betti", 0.25), ("total", 0.25),
                                              ("moran", 0.25), ("landscape", 1.0)])
    def test_peak_does_not_hold_the_draws(self, feature, method, share):
        graph, vals = feature
        permutation_test(graph, vals, TestConfig(method, n_perm=5))  # imports, adjacency
        peaks = [self.traced_peak(graph, vals, TestConfig(method, n_perm=n_perm, seed=3))
                 for n_perm in (150, 300)]
        added = 150 * graph.n_vertices * np.dtype(np.intp).itemsize
        assert peaks[1] - peaks[0] < share * added, peaks

    # The counts kernel turns each block into counts before the next one, and
    # only the total-lifetime branch scales the count matrix, in place, so a
    # test holds about three matrices of the (n_perm + 1) x K counts at once.
    @pytest.mark.parametrize("method,p", [("betti", 1), ("betti", 2), ("betti", math.inf),
                                          ("total", 1)])
    def test_peak_holds_few_count_matrices(self, feature, method, p):
        graph, _ = feature
        vals = np.random.default_rng(6).random(graph.n_vertices)  # every level distinct
        permutation_test(graph, vals, TestConfig(method, n_perm=5, p=p))
        cfg = TestConfig(method, n_perm=150, p=p, seed=3)
        matrix = (cfg.n_perm + 1) * graph.n_vertices * np.dtype(np.int64).itemsize
        assert self.traced_peak(graph, vals, cfg) <= 3.5 * matrix


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
        for threads in (1, 2):  # in this process, then in pool workers
            reports = run_battery(ds, self.graph, cfg, threads=threads)
            by_name = {r.feature_name: r for r in reports}
            assert not by_name["flat"].ok
            assert by_name["flat"].status.startswith("DegenerateDataError: feature is constant")
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

    def test_graph_size_mismatch(self):
        with pytest.raises(DimensionError, match="29 vertices but dataset has 30"):
            run_battery(self.ds, delaunay_graph(self.ds.locations[:-1]), self.cfg)

    def test_threads_below_one(self):
        with pytest.raises(ParameterError, match="threads"):
            run_battery(self.ds, self.graph, self.cfg, threads=0)

    def test_q_values_match_bh_of_p_values(self):
        reports = run_battery(self.ds, self.graph, self.cfg)
        qs = benjamini_hochberg([r.p_value for r in reports])
        assert np.allclose([r.q_value for r in reports], qs, atol=1e-15)


def test_report_round_trip(tmp_path):
    ds = make_dataset()
    graph = delaunay_graph(ds.locations)
    cfg = TestConfig(method="betti", n_perm=20, p=math.inf, seed=5)
    reports = run_battery(ds, graph, cfg)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_report(reports, a, cfg, meta={"graph": "delaunay"})
    loaded = read_report(a)
    assert [r.feature_name for r in loaded] == [r.feature_name for r in reports]
    assert [r.p_value for r in loaded] == [r.p_value for r in reports]
    assert [r.rank for r in loaded] == [r.rank for r in reports]
    # the settings live in cfg alone, so a re-written report keeps them
    write_report(loaded, b, cfg, meta={"graph": "delaunay"})
    assert b.read_bytes() == a.read_bytes()
    sidecar = json.loads((tmp_path / "a.tsv.json").read_text())
    assert sidecar == {"method": "betti", "n_perm": 20, "p": "inf", "seed": 5,
                       "graph": "delaunay"}
    assert (tmp_path / "b.tsv.json").read_bytes() == (tmp_path / "a.tsv.json").read_bytes()


def test_report_row_breaks_read_back_as_spaces(tmp_path):
    path = tmp_path / "report.tsv"
    write_report([spatial_stats.TestReport(f"g{c}{i}", "betti", 0.5, 0.25, 0.5, i + 1,
                                           f"ValueError: a{c}b")
                  for i, c in enumerate(ROW_BREAKS)], path, TestConfig(method="betti"))
    assert [(r.feature_name, r.rank, r.status) for r in read_report(path)] == [
        (f"g {i}", i + 1, "ValueError: a b") for i in range(len(ROW_BREAKS))]


_REPORT_HEADER = "feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus\n"


def test_report_with_failed_rows_loads_their_nan(tmp_path):
    path = tmp_path / "report.tsv"
    path.write_text(_REPORT_HEADER + "g1\tbetti\t0.5\t0.25\t0.5\t1\tok\n\n"
                    "g2\tbetti\tnan\tnan\tnan\t2\tDegenerateDataError: constant\n")
    ok, failed = read_report(path)
    assert (ok.statistic, ok.p_value, ok.q_value, ok.rank, ok.ok) == (0.5, 0.25, 0.5, 1, True)
    assert math.isnan(failed.p_value) and failed.rank == 2 and not failed.ok


@pytest.mark.parametrize("row, message", [
    ("g1\tbetti\t0.5\t0.25\t0.5\t1", "expected 7 tab-separated fields, got 6"),
    ("g1\tbetti\t0.5\t0.25\t0.5\t1\tok\textra", "expected 7 tab-separated fields, got 8"),
    ("g1 betti 0.5 0.25 0.5 1 ok", "expected 7 tab-separated fields, got 1"),
    ("g1\tbetti\tbig\t0.25\t0.5\t1\tok", "could not convert string to float: 'big'"),
    ("g1\tbetti\t0.5\tabc\t0.5\t1\tok", "could not convert string to float: 'abc'"),
    ("g1\tbetti\t0.5\t0.25\t\t1\tok", "could not convert string to float: ''"),
    ("g1\tbetti\t0.5\t0.25\t0.5\t1.0\tok", "invalid literal for int() with base 10: '1.0'"),
], ids=["six_fields", "eight_fields", "spaces", "statistic", "p_value", "q_value", "rank"])
def test_bad_report_row_is_a_parse_error_naming_it(row, message, tmp_path):
    path = tmp_path / "report.tsv"
    path.write_text(_REPORT_HEADER + "g0\tbetti\t0.5\t0.25\t0.5\t2\tok\n" + row + "\n")
    with pytest.raises(ParseError) as exc:
        read_report(path)
    assert str(exc.value) == f"{path}: row 3: {message}"


def test_failed_report_write_keeps_the_previous_file(tmp_path):
    cfg = TestConfig(method="total", n_perm=9)
    path = tmp_path / "report.tsv"
    write_report([spatial_stats.TestReport("g1", "total", 1.0, 0.1)], path, cfg)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # a lone surrogate cannot be encoded, so the write fails before its rename
    with pytest.raises(UnicodeEncodeError):
        write_report([spatial_stats.TestReport("g\ud800", "total", 1.0, 0.1)], path, cfg)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


@pytest.fixture(scope="module")
def sparse_null_features():
    """(graph, values) of null `clusters` count features, log-transformed, on
    the 100-vertex Delaunay and hex graphs; at zero_prop 0.9 about 96 % of a
    feature's spots sit at its floor. Constant features are left out, as
    Moran's I rejects them."""
    features = []
    for zero_prop in (0.1, 0.9):
        ds = shifted_log_transform(simulate_dataset(SimConfig(
            pattern="clusters", n_locations=100, n_signal=0, n_null=80, zero_prop=zero_prop,
            seed=77)))
        for kind in ("delaunay", "hex"):
            graph = CALIBRATION_GRAPHS[kind]()
            features += [(graph, v) for v in ds.values if v.min() < v.max()]
    return features


@pytest.mark.parametrize("method", ["betti", "total", "landscape", "moran"])
def test_null_calibration_on_sparse_counts(method, sparse_null_features):
    # On zero-inflated counts many permutations tie the observed statistic
    # exactly, and the +1 / at-least-as-extreme rule counts every tie, so the
    # tests are conservative there but must stay valid: P(p <= alpha) may
    # exceed alpha by no more than 3 standard errors. The four inputs are
    # pooled per method: at alpha 0.01 one 80-feature input alone crosses
    # that normal-approximation bound by chance a few times in a hundred.
    cfg = TestConfig(method=method, n_perm=99, seed=5)
    ps = np.asarray([permutation_test(graph, v, cfg).p_value for graph, v in sparse_null_features])
    for alpha in (0.01, 0.05, 0.1):
        se = math.sqrt(alpha * (1 - alpha) / len(ps))
        assert np.mean(ps <= alpha) <= alpha + 3 * se, (alpha, np.mean(ps <= alpha))
