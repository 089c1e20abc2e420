import math
import time
import tracemalloc

import numpy as np
import pytest

from topospat import (
    DomainMismatchError,
    ParameterError,
    PersistenceDiagram,
    StepCurve,
    betti_curve,
    curve_lp_distance,
    curve_lp_norm,
    delaunay_graph,
    landscape,
    landscape_lp_distance,
    landscape_lp_distances,
    landscape_lp_norm,
    mean_landscape,
    mean_step_curve,
    superlevel_diagram,
    superlevel_diagrams,
    total_lifetime,
    write_landscape,
    write_step_curve,
)

from topospat import summaries

from oracles import dense_grid_landscape, pairwise_landscape_distance, random_diagram

INF = math.inf


def diagram(pairs, f_min=None, f_max=None):
    """Build a diagram from (birth, death) pairs; essential = dies at f_min."""
    births = np.asarray([p[0] for p in pairs], dtype=np.float64)
    deaths = np.asarray([p[1] for p in pairs], dtype=np.float64)
    f_min = float(deaths.min()) if f_min is None else float(f_min)
    f_max = float(births.max()) if f_max is None else float(f_max)
    return PersistenceDiagram(
        births=births, deaths=deaths,
        birth_vertices=np.arange(len(pairs), dtype=np.int64),
        essential=deaths == f_min, f_min=f_min, f_max=f_max,
    )


EMPTY = PersistenceDiagram(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=bool), 0.0, 0.0)


class TestTotalLifetime:
    def test_running_example(self):
        assert total_lifetime(diagram([(3, 1), (2, 1)])) == 3.0

    def test_zero_lifetime_pair(self):
        assert total_lifetime(diagram([(4, 4)])) == 0.0

    def test_empty_diagram(self):
        assert total_lifetime(EMPTY) == 0.0


class TestBettiCurve:
    def test_running_example_segments(self):
        c = betti_curve(diagram([(3, 1), (2, 1)]))
        assert c.domain == (1.0, 3.0)
        assert c.value_at(1.5) == 2.0   # two pairs alive on (1, 2)
        assert c.value_at(2.0) == 2.0
        assert c.value_at(2.5) == 1.0   # one pair alive on (2, 3]
        assert c.value_at(3.0) == 1.0

    def test_degenerate_constant_diagram(self):
        c = betti_curve(diagram([(2, 2)]))
        assert c.domain == (2.0, 2.0)
        assert c.value_at(2.0) == 1.0
        assert curve_lp_norm(c, 1) == 0.0

    def test_duplicate_pairs_count_twice(self):
        c = betti_curve(diagram([(3, 1), (3, 1)]))
        assert c.value_at(2.0) == 2.0
        assert c.value_at(1.0) == 2.0  # both essential at the bound

    def test_zero_outside_domain(self):
        c = betti_curve(diagram([(3, 1)]))
        assert c.value_at(0.5) == 0.0 and c.value_at(3.5) == 0.0

    def test_empty_diagram_gives_zero_curve(self):
        c = betti_curve(EMPTY)
        assert curve_lp_norm(c, 1) == 0.0 and c.value_at(0.0) == 0.0

    def test_extended_domain_padding(self):
        c = betti_curve(diagram([(2, 1)], f_min=0.0, f_max=4.0))
        assert c.domain == (0.0, 4.0)
        assert c.value_at(0.5) == 0.0 and c.value_at(1.5) == 1.0 and c.value_at(3.0) == 0.0


class TestCurveNorms:
    def test_l1_equals_total_lifetime(self):
        d = diagram([(3, 1), (2, 1)])
        assert curve_lp_norm(betti_curve(d), 1) == 3.0

    def test_linf_is_max_step(self):
        assert curve_lp_norm(betti_curve(diagram([(3, 1), (2, 1)])), INF) == 2.0

    def test_l2(self):
        # value 2 on (1,2), value 1 on (2,3): sqrt(4 + 1) = sqrt(5)
        c = betti_curve(diagram([(3, 1), (2, 1)]))
        assert curve_lp_norm(c, 2) == pytest.approx(math.sqrt(5.0), abs=1e-14)

    def test_zero_curve_all_p(self):
        c = betti_curve(EMPTY)
        for p in (1, 2, INF):
            assert curve_lp_norm(c, p) == 0.0

    def test_unsupported_p(self):
        with pytest.raises(ParameterError):
            curve_lp_norm(betti_curve(diagram([(3, 1)])), 3)

    def test_identity_on_random_diagrams(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = random_diagram(rng)
            assert curve_lp_norm(betti_curve(d), 1) == pytest.approx(
                total_lifetime(d), rel=1e-12, abs=1e-12)


class TestCurveDistance:
    def test_self_distance_zero(self):
        c = betti_curve(diagram([(3, 1), (2, 1)]))
        for p in (1, 2, INF):
            assert curve_lp_distance(c, c, p) == 0.0

    def test_rectangle_area(self):
        c1 = StepCurve.from_intervals((0.0, 1.0), [], [2.0])
        c2 = StepCurve.from_intervals((0.0, 1.0), [], [0.0])
        assert curve_lp_distance(c1, c2, 1) == 2.0

    def test_translated_unit_steps(self):
        c1 = StepCurve.from_intervals((0.0, 3.0), [2.0], [1.0, 0.0])
        c2 = StepCurve.from_intervals((0.0, 3.0), [1.0], [0.0, 1.0])
        assert curve_lp_distance(c1, c2, 1) == 2.0  # symmetric difference of supports

    def test_domain_mismatch(self):
        c1 = StepCurve.from_intervals((0.0, 1.0), [], [1.0])
        c2 = StepCurve.from_intervals((0.0, 2.0), [], [1.0])
        with pytest.raises(DomainMismatchError):
            curve_lp_distance(c1, c2, 1)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(23)
        f_min, f_max = 0.0, 6.0
        for p in (1, 2, INF):
            for _ in range(20):
                curves = []
                for _ in range(3):
                    d = random_diagram(rng)
                    scale = (f_max - f_min) / max(d.f_max - d.f_min, 1e-9)
                    births = np.clip((d.births - d.f_min) * scale, f_min, f_max)
                    deaths = np.clip((d.deaths - d.f_min) * scale, f_min, f_max)
                    curves.append(betti_curve(diagram(
                        list(zip(births, deaths)), f_min=f_min, f_max=f_max)))
                a, b, c = curves
                assert curve_lp_distance(a, b, p) == pytest.approx(
                    curve_lp_distance(b, a, p), abs=1e-12)
                assert curve_lp_distance(a, c, p) <= (
                    curve_lp_distance(a, b, p) + curve_lp_distance(b, c, p) + 1e-9)


class TestMeanStepCurve:
    def test_idempotent(self):
        c = betti_curve(diagram([(3, 1), (2, 1)]))
        m = mean_step_curve([c, c])
        assert curve_lp_distance(m, c, 1) == 0.0

    def test_midpoint(self):
        c1 = StepCurve.from_intervals((0.0, 1.0), [], [2.0])
        c2 = StepCurve.from_intervals((0.0, 1.0), [], [0.0])
        m = mean_step_curve([c1, c2])
        assert m.value_at(0.5) == 1.0

    def test_staircase_of_translated_steps(self):
        # k translated unit steps: the mean at x counts covering steps / k
        k = 4
        curves = [
            StepCurve.from_intervals((0.0, 6.0), [i + 0.25, i + 1.25], [0.0, 1.0, 0.0])
            for i in range(k)
        ]
        m = mean_step_curve(curves)
        grid = np.linspace(0.01, 5.99, 199)
        for x in grid:
            covering = sum(1 for i in range(k) if i + 0.25 < x < i + 1.25)
            assert m.value_at(float(x)) == pytest.approx(covering / k, abs=1e-12)

    def test_empty_list(self):
        with pytest.raises(ParameterError):
            mean_step_curve([])


class TestLandscape:
    def test_single_pair_tent(self):
        L = landscape(diagram([(3, 1)]), max_levels=2)
        assert L.value_at(1, 2.0) == 1.0
        assert L.value_at(1, 1.5) == 0.5
        assert L.value_at(1, 1.0) == 0.0 and L.value_at(1, 3.0) == 0.0
        assert L.value_at(2, 2.0) == 0.0  # level 2 is the zero function

    def test_duplicate_pairs_fill_two_levels(self):
        L = landscape(diagram([(3, 1), (3, 1)]), max_levels=3)
        for x in np.linspace(1.0, 3.0, 21):
            assert L.value_at(1, float(x)) == pytest.approx(L.value_at(2, float(x)), abs=1e-12)
        assert L.value_at(3, 2.0) == 0.0

    def test_nested_pairs_against_dense_grid(self):
        d = diagram([(4, 0), (3, 1)])
        L = landscape(d, max_levels=3)
        grid = np.linspace(0.0, 4.0, 1000)
        ordered = dense_grid_landscape(d, grid, 3)
        for k in range(1, 4):
            expected = ordered[k - 1]
            got = np.asarray([L.value_at(k, float(x)) for x in grid])
            assert np.allclose(got, expected, atol=1e-12)

    def test_levels_are_ordered(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d = random_diagram(rng)
            L = landscape(d, max_levels=4)
            grid = np.linspace(d.f_min, d.f_max, 101)
            vals = np.asarray([[L.value_at(k, float(x)) for x in grid] for k in range(1, 5)])
            assert np.all(vals[:-1] >= vals[1:] - 1e-12)

    def test_level_slopes_in_unit_set(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            L = landscape(random_diagram(rng), max_levels=3)
            for xs, ys in L.levels:
                if len(xs) < 2:
                    continue
                slopes = np.diff(ys) / np.diff(xs)
                assert np.all(np.min(np.abs(slopes[:, None] - np.asarray([-1.0, 0.0, 1.0])),
                                     axis=1) < 1e-4)

    def test_max_levels_validation(self):
        with pytest.raises(ParameterError):
            landscape(diagram([(3, 1)]), max_levels=0)

    def test_zero_lifetime_pairs_are_ignored(self):
        L = landscape(diagram([(2, 2), (3, 3)]), max_levels=2)
        assert landscape_lp_norm(L, 1) == 0.0


# Adversarial diagrams as (birth, death) pairs with an optional domain. All
# values are dyadic, so every tent corner, peak and crossing is exact in floats.
ADVERSARIAL = {
    "duplicates": ([(3, 1), (3, 1), (3, 1)], None, None),
    "nested": ([(4, 0), (3, 1), (2.5, 1.5), (2.5, 1.5)], None, None),
    "equal_births": ([(3, 0), (3, 1), (3, 2)], None, None),
    "equal_deaths": ([(4, 1), (3, 1), (2, 1)], None, None),
    "shared_endpoints": ([(2, 1), (3, 2), (4, 3), (3, 1)], None, None),
    "crossing_chain": ([(3, 0), (4, 1), (5, 2), (6, 3)], None, None),
    "gaps": ([(1, 0), (4, 3), (2.5, 2)], None, None),
    "touching_ends": ([(4, 0), (2, 0), (4, 2.5), (4, 3)], 0, 4),
    "padded_domain": ([(3, 1), (2, 1.5)], -1, 6),
    "negative_values": ([(-1, -3), (0.5, -2), (0.5, -0.25)], None, None),
    "zero_lifetime_only": ([(2, 2), (3, 3)], 1, 4),
    "zero_lifetime_mixed": ([(2, 2), (3, 1), (3, 3)], None, None),
    "single_point_domain": ([(1, 1)], 1, 1),
}

NEXT_AFTER_1 = float(np.nextafter(1.0, 2.0))
# Pairs whose values lie one ulp apart: tent peaks and crossings round.
ONE_ULP_APART = {
    "deaths": ([(3, 1), (3, NEXT_AFTER_1)], None, None),
    "births": ([(3, 1), (float(np.nextafter(3.0, 4.0)), 1)], None, None),
    "one_ulp_lifetime": ([(3, 1), (NEXT_AFTER_1, 1)], None, None),
    "one_ulp_gap": ([(2, 1), (3, float(np.nextafter(2.0, 3.0)))], None, None),
    "one_ulp_overlap": ([(2, 1), (3, float(np.nextafter(2.0, 1.0)))], None, None),
}


def critical_points(d):
    """Domain ends, tent corners, peaks and crossings, plus the midpoints
    between consecutive ones: both landscapes are linear between criticals."""
    b, dd = d.births, d.deaths
    pts = np.concatenate([[d.f_min, d.f_max], b, dd, (0.5 * (dd[:, None] + b[None, :])).ravel()])
    pts = np.unique(pts[(pts >= d.f_min) & (pts <= d.f_max)])
    return np.unique(np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])]))


def dyadic_diagram(rng):
    m = int(rng.integers(1, 16))
    births = rng.integers(0, 33, m) / 8.0
    deaths = births - rng.integers(0, 17, m) / 8.0
    lo, hi = float(deaths.min()), float(births.max())
    if rng.random() < 0.3:
        lo, hi = lo - 1.0, hi + 0.5
    return diagram(list(zip(births, deaths)), f_min=lo, f_max=hi)


def assert_well_formed(L, exact_slopes):
    lo, hi = L.domain
    for xs, ys in L.levels:
        assert xs[0] == lo and xs[-1] == hi and ys[0] == 0.0 and ys[-1] == 0.0
        assert np.all(np.diff(xs) > 0)
        assert np.all(ys >= 0.0)
        if exact_slopes and len(xs) > 1:
            assert set((np.diff(ys) / np.diff(xs)).tolist()) <= {-1.0, 0.0, 1.0}


class TestLandscapeSweep:
    """The sweep against the dense k-th-maximum oracle on adversarial inputs."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("max_levels", [1, 3, 8])
    def test_adversarial_diagrams_exact(self, name, max_levels):
        pairs, lo, hi = ADVERSARIAL[name]
        d = diagram(pairs, f_min=lo, f_max=hi)
        L = landscape(d, max_levels=max_levels)
        assert L.max_levels == max_levels
        assert_well_formed(L, exact_slopes=True)
        grid = critical_points(d)
        expected = dense_grid_landscape(d, grid, max_levels)
        for k in range(1, max_levels + 1):
            xs, ys = L.levels[k - 1]
            assert np.array_equal(np.interp(grid, xs, ys), expected[k - 1]), (name, k)

    def test_random_dyadic_diagrams_exact(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            d = dyadic_diagram(rng)
            L = landscape(d, max_levels=6)
            assert_well_formed(L, exact_slopes=True)
            grid = critical_points(d)
            expected = dense_grid_landscape(d, grid, 6)
            for k in range(6):
                xs, ys = L.levels[k]
                assert np.array_equal(np.interp(grid, xs, ys), expected[k])

    @pytest.mark.parametrize("name", sorted(ONE_ULP_APART))
    def test_pairs_one_ulp_apart(self, name):
        pairs, lo, hi = ONE_ULP_APART[name]
        d = diagram(pairs, f_min=lo, f_max=hi)
        L = landscape(d, max_levels=3)
        assert_well_formed(L, exact_slopes=False)
        grid = np.unique(np.concatenate([critical_points(d)] + [xs for xs, _ in L.levels]))
        expected = dense_grid_landscape(d, grid, 3)
        tol = 4 * np.finfo(np.float64).eps * max(abs(d.f_min), abs(d.f_max))
        for k in range(3):
            xs, ys = L.levels[k]
            assert np.max(np.abs(np.interp(grid, xs, ys) - expected[k])) <= tol, (name, k)

    def test_decimal_slopes_within_one_rounding(self):
        # Decimal values make corners and crossings round once each, so the
        # slopes are -1, 0 or +1 up to a few ulps of the abscissae.
        rng = np.random.default_rng(61)
        for _ in range(200):
            d = random_diagram(rng, max_pairs=20)
            L = landscape(d, max_levels=5)
            assert_well_formed(L, exact_slopes=False)
            tol = 4 * np.finfo(np.float64).eps * max(abs(d.f_min), abs(d.f_max))
            for xs, ys in L.levels:
                dx, dy = np.diff(xs), np.diff(ys)
                off = np.min(np.abs(dy[:, None] - np.outer(dx, [-1.0, 0.0, 1.0])), axis=1)
                assert np.all(off <= tol)


class TestLandscapeScaling:
    @pytest.mark.parametrize("n_vertices, min_pairs, limit_s", [(4000, 500, 1.0),
                                                                 (2000, 250, 0.02)])
    def test_delaunay_diagram_landscape_time(self, n_vertices, min_pairs, limit_s):
        # Scoring every tent at every pairwise midpoint takes seconds on
        # 4000 vertices and about half a second on 2000; the sweep takes
        # about a millisecond on either.
        rng = np.random.default_rng(n_vertices)
        d = superlevel_diagram(delaunay_graph(rng.random((n_vertices, 2))),
                               rng.normal(size=n_vertices))
        assert len(d) > min_pairs
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            landscape(d, max_levels=5)
            best = min(best, time.perf_counter() - t0)
        assert best < limit_s


class TestLandscapeNorms:
    def test_single_tent_area(self):
        L = landscape(diagram([(3, 1)]))
        assert landscape_lp_norm(L, 1) == pytest.approx(1.0, abs=1e-14)

    def test_zero_landscape(self):
        assert landscape_lp_norm(landscape(EMPTY), 1) == 0.0

    def test_duplicated_tent_sums_levels(self):
        L = landscape(diagram([(3, 1), (3, 1)]))
        assert landscape_lp_norm(L, 1) == pytest.approx(2.0, abs=1e-14)

    def test_l2_of_single_tent(self):
        # two ramps of length 1, integral of x^2 each: 2/3; norm sqrt(2/3)
        L = landscape(diagram([(3, 1)]))
        assert landscape_lp_norm(L, 2) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-14)

    def test_linf_is_peak_height(self):
        L = landscape(diagram([(3, 1)]))
        assert landscape_lp_norm(L, INF) == pytest.approx(1.0, abs=1e-14)

    def test_unsupported_p(self):
        with pytest.raises(ParameterError):
            landscape_lp_norm(landscape(diagram([(3, 1)])), 0.5)


class TestLandscapeDistance:
    def test_self_distance_zero(self):
        L = landscape(diagram([(3, 1), (2, 0)]))
        for p in (1, 2, INF):
            assert landscape_lp_distance(L, L, p) == 0.0

    def test_tent_vs_zero_equals_norm(self):
        L = landscape(diagram([(3, 1)], f_min=1, f_max=3))
        Z = landscape(diagram([(3, 3)], f_min=1, f_max=3))
        assert landscape_lp_distance(L, Z, 1) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_on_random_diagrams(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            lo = min(d1.f_min, d2.f_min)
            hi = max(d1.f_max, d2.f_max)
            L1 = landscape(diagram(list(zip(d1.births, d1.deaths)), f_min=lo, f_max=hi))
            L2 = landscape(diagram(list(zip(d2.births, d2.deaths)), f_min=lo, f_max=hi))
            for p in (1, 2, INF):
                assert landscape_lp_distance(L1, L2, p) == pytest.approx(
                    landscape_lp_distance(L2, L1, p), abs=1e-12)

    def test_level_count_mismatch(self):
        L1 = landscape(diagram([(3, 1)]), max_levels=2)
        L2 = landscape(diagram([(3, 1)]), max_levels=3)
        with pytest.raises(ParameterError):
            landscape_lp_distance(L1, L2, 1)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(53)
        for p in (1, 2, INF):
            for _ in range(10):
                lands = []
                for _ in range(3):
                    m = int(rng.integers(1, 10))
                    births = rng.uniform(0.0, 8.0, m)
                    deaths = births * rng.uniform(0.0, 1.0, m)
                    lands.append(landscape(diagram(
                        list(zip(births, deaths)), f_min=0.0, f_max=8.0)))
                a, b, c = lands
                assert landscape_lp_distance(a, c, p) <= (
                    landscape_lp_distance(a, b, p) + landscape_lp_distance(b, c, p) + 1e-9)


def feature_landscapes(n_vertices=400, n_perm=200, seed=5):
    """Landscapes of a continuous feature on a Delaunay graph and of its permutations."""
    rng = np.random.default_rng(seed)
    graph = delaunay_graph(rng.random((n_vertices, 2)))
    perms = np.asarray([rng.permutation(n_vertices) for _ in range(n_perm)])
    return [landscape(d, 5)
            for d in superlevel_diagrams(graph, rng.normal(size=n_vertices), perms)]


FEATURE_LANDSCAPES = feature_landscapes()


def common_domain_landscapes(rng, count, lo=0.0, hi=8.0):
    lands = []
    for _ in range(count):
        m = int(rng.integers(1, 9))
        births = np.round(rng.uniform(lo, hi, m), 2)
        deaths = np.round(lo + (births - lo) * rng.uniform(0.0, 1.0, m), 2)
        lands.append(landscape(diagram(list(zip(births, deaths)), f_min=lo, f_max=hi)))
    return lands


class TestLandscapeDistances:
    """The batched distances against a per-pair oracle, bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_from_mean_matches_pairwise_oracle(self, p):
        rng = np.random.default_rng(71)
        point = PersistenceDiagram(np.asarray([2.0, 2.0]), np.asarray([2.0, 2.0]),
                                   np.arange(2), np.asarray([True, False]), 2.0, 2.0)
        cases = [
            FEATURE_LANDSCAPES,                      # many row blocks per level
            common_domain_landscapes(rng, 30),       # levels past the pairs are zero
            [landscape(point, 3)] * 4,               # single-point domain
            [landscape(diagram([(3, 3)], f_min=1, f_max=3))] * 3,  # all levels zero
        ]
        for lands in cases:
            center = mean_landscape(lands)
            got = landscape_lp_distances(lands, center, p)
            want = np.asarray([pairwise_landscape_distance(L, center, p) for L in lands])
            assert got.tobytes() == want.tobytes()

    def test_feature_spans_row_blocks(self):
        center = mean_landscape(FEATURE_LANDSCAPES)
        widest = max(len(xs) for xs, _ in center.levels)
        rows = summaries._FOREST_BLOCK_SIZE // (2 * widest - 1)
        assert widest > 2000 and len(FEATURE_LANDSCAPES) > 10 * rows

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_single_pair_matches_oracle(self, p):
        rng = np.random.default_rng(73)
        for _ in range(30):
            L1, L2 = common_domain_landscapes(rng, 2)
            assert landscape_lp_distance(L1, L2, p) == pairwise_landscape_distance(L1, L2, p)
            assert landscape_lp_distances([L1, L2], L2, p)[1] == 0.0

    def test_no_landscapes(self):
        center = landscape(diagram([(3, 1)]))
        assert landscape_lp_distances([], center, 2).shape == (0,)

    def test_rejects_mismatched_landscapes(self):
        L = landscape(diagram([(3, 1)]), max_levels=2)
        with pytest.raises(ParameterError):
            landscape_lp_distances([L], landscape(diagram([(3, 1)]), max_levels=3), 1)
        with pytest.raises(DomainMismatchError):
            landscape_lp_distances([L], landscape(diagram([(3, 0)]), max_levels=2), 1)
        with pytest.raises(ParameterError):
            landscape_lp_distances([L], L, 3)

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_memory_stays_bounded(self, p):
        # All 201 rows of the widest level (about 2800 knots) interpolated at
        # once would allocate several 4.5 MiB matrices.
        center = mean_landscape(FEATURE_LANDSCAPES)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            landscape_lp_distances(FEATURE_LANDSCAPES, center, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * 2**20


class TestMeanLandscape:
    def test_idempotent(self):
        L = landscape(diagram([(3, 1), (2, 0)]))
        M = mean_landscape([L, L])
        assert landscape_lp_distance(M, L, 1) == pytest.approx(0.0, abs=1e-14)

    def test_tent_and_zero_average_to_half_tent(self):
        L = landscape(diagram([(3, 1)], f_min=1, f_max=3))
        Z = landscape(diagram([(3, 3)], f_min=1, f_max=3))
        M = mean_landscape([L, Z])
        assert M.value_at(1, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_matches_dense_grid_average(self):
        rng = np.random.default_rng(43)
        lands = []
        for _ in range(5):
            d = random_diagram(rng)
            lands.append(landscape(diagram(
                list(zip(d.births - d.f_min, d.deaths - d.f_min)), f_min=0.0, f_max=8.0)))
        M = mean_landscape(lands)
        grid = np.linspace(0.0, 8.0, 500)
        for k in (1, 2, 3):
            direct = np.mean(
                [[L.value_at(k, float(x)) for x in grid] for L in lands], axis=0)
            got = np.asarray([M.value_at(k, float(x)) for x in grid])
            assert np.allclose(got, direct, atol=1e-12)

    def test_empty_list(self):
        with pytest.raises(ParameterError):
            mean_landscape([])


class TestTranslationInvariance:
    def test_norms_unchanged_by_value_shift(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = random_diagram(rng)
            shifted = diagram(
                list(zip(d.births + 5.0, d.deaths + 5.0)),
                f_min=d.f_min + 5.0, f_max=d.f_max + 5.0)
            assert total_lifetime(shifted) == pytest.approx(total_lifetime(d), rel=1e-12)
            for p in (1, 2, INF):
                assert curve_lp_norm(betti_curve(shifted), p) == pytest.approx(
                    curve_lp_norm(betti_curve(d), p), rel=1e-9, abs=1e-12)
                assert landscape_lp_norm(landscape(shifted), p) == pytest.approx(
                    landscape_lp_norm(landscape(d), p), rel=1e-9, abs=1e-12)


def test_write_step_curve(tmp_path):
    c = betti_curve(diagram([(3, 1), (2, 1)]))
    path = tmp_path / "curve.tsv"
    write_step_curve(c, path, p=1)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {") and '"step_curve"' in lines[0]
    assert lines[1] == "start\tend\tvalue"
    assert lines[2:] == ["1.0\t2.0\t2.0", "2.0\t3.0\t1.0"]


def test_write_landscape(tmp_path):
    L = landscape(diagram([(3, 1)]), max_levels=2)
    path = tmp_path / "landscape.tsv"
    write_landscape(L, path)
    lines = path.read_text().splitlines()
    assert '"landscape"' in lines[0] and lines[1] == "level\tx\ty"
    assert "1\t2.0\t1.0" in lines
