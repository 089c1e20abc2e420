"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s`. The heavyweight detection
batteries (clusters pattern, 400 locations, 50 signal + 50 null features,
200 permutations) are computed once in module-scoped fixtures and shared by
the criteria that score them.
"""
import time

import numpy as np
import pytest

from topospat import (
    Dataset,
    DegenerateDataError,
    SimConfig,
    TestConfig,
    auprc,
    betti_curve,
    curve_lp_norm,
    delaunay_graph,
    landscape,
    morans_i,
    rect_grid_graph,
    run_battery,
    sensitivity_specificity,
    shifted_log_transform,
    simulate_dataset,
    spearman,
    superlevel_diagram,
    total_lifetime,
)

from oracles import (
    auprc_enumeration, dense_grid_landscape, random_diagram, random_graph, superlevel_components,
)

SIM_SEED = 1234
TEST_SEED = 7
OUTLIER_SEED = 12
N_PERM = 200
PERSISTENCE_METHODS = ("betti", "total", "landscape")


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _run_batteries(zero_prop: float, methods) -> dict:
    cfg = SimConfig(pattern="clusters", n_locations=400, zero_prop=zero_prop,
                    seed=SIM_SEED)
    ds = shifted_log_transform(simulate_dataset(cfg))
    graph = delaunay_graph(ds.locations)
    labels = ds.labels
    out = {}
    for method in methods:
        reports = run_battery(ds, graph, TestConfig(method=method, n_perm=N_PERM,
                                                    seed=TEST_SEED))
        out[method] = reports
    return {"labels": labels, "reports": out}


@pytest.fixture(scope="module")
def clusters_battery():
    t0 = time.perf_counter()
    low = _run_batteries(0.1, PERSISTENCE_METHODS + ("moran",))
    high = _run_batteries(0.9, PERSISTENCE_METHODS)
    elapsed = time.perf_counter() - t0
    return {"low": low, "high": high, "elapsed": elapsed}


def _outlier_batteries(k: int, methods, max_levels: int = 5, n_perm: int = N_PERM) -> dict:
    """The zero_prop 0.1 clusters battery with k outlier spots per feature:
    spots drawn with a fixed seed are set to 20 x (row maximum + 1) before
    the log transform, so they sit far above the floor. Returns each
    method's AUPRC; landscapes keep `max_levels` levels."""
    ds = simulate_dataset(SimConfig(pattern="clusters", n_locations=400, zero_prop=0.1,
                                    seed=SIM_SEED))
    values = ds.values.copy()
    rng = np.random.default_rng(OUTLIER_SEED)
    for row in values:
        row[rng.choice(len(row), size=k, replace=False)] = 20.0 * (row.max() + 1.0)
    ds = shifted_log_transform(Dataset(locations=ds.locations, values=values,
                                       feature_names=ds.feature_names, labels=ds.labels))
    graph = delaunay_graph(ds.locations)
    out = {}
    for method in methods:
        reports = run_battery(ds, graph, TestConfig(method=method, n_perm=n_perm, seed=TEST_SEED,
                                                    max_levels=max_levels))
        out[method] = auprc(np.asarray([-r.p_value for r in reports]), ds.labels)
    return out


def _auprc_of(battery, method) -> float:
    scores = np.asarray([-r.p_value for r in battery["reports"][method]])
    return auprc(scores, battery["labels"])


def test_criterion_1_persistence_threshold_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for i in range(500):
        n = int(rng.integers(1, 31))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        if i % 2:
            values = rng.integers(0, 5, n).astype(float)  # plateau-heavy
        else:
            values = np.round(rng.random(n), 4)
        d = superlevel_diagram(g, values)
        curve = betti_curve(d)
        for delta in np.unique(values):
            got = curve.value_at(float(delta))
            want = superlevel_components(g, values, float(delta))
            assert got == want, (i, n, delta, got, want)
            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict("1 persistence-vs-floodfill oracle", elapsed < 5.0,
             f"500 instances, {checked} thresholds, {elapsed:.2f}s")


def test_criterion_2_total_lifetime_betti_identity():
    rng = np.random.default_rng(512)
    worst = 0.0
    for _ in range(1000):
        d = random_diagram(rng)
        lhs = curve_lp_norm(betti_curve(d), 1)
        rhs = total_lifetime(d)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    _verdict("2 L1(Betti) == total lifetime", True, f"1000 diagrams, worst rel err {worst:.2e}")


def test_criterion_3_p_floor_and_thread_determinism(clusters_battery):
    floor = 1.0 / (N_PERM + 1)
    all_ps = [r.p_value
              for side in ("low", "high")
              for reports in clusters_battery[side]["reports"].values()
              for r in reports]
    bounds_ok = all(floor <= p <= 1.0 for p in all_ps)

    rng = np.random.default_rng(33)
    locations = rng.random((40, 2))
    ds = Dataset(locations=locations, values=[rng.random(40) for _ in range(12)],
                 feature_names=[f"f{i:02d}" for i in range(12)], transformed=True)
    graph = delaunay_graph(locations)
    cfg = TestConfig(method="betti", n_perm=50, seed=9)
    runs = [run_battery(ds, graph, cfg, threads=t) for t in (1, 3, 1)]
    identical = all(
        (a.feature_name, a.statistic, a.p_value, a.q_value, a.rank)
        == (b.feature_name, b.statistic, b.p_value, b.q_value, b.rank)
        for other in runs[1:] for a, b in zip(runs[0], other)
    )
    _verdict("3 p-value floor + thread determinism", bounds_ok and identical,
             f"{len(all_ps)} p-values, floor {floor:.5f}")


def test_criterion_4_null_calibration():
    rng = np.random.default_rng(20)
    locations = rng.random((200, 2))
    graph = delaunay_graph(locations)
    ds = Dataset(locations=locations, values=[rng.normal(size=200) for _ in range(200)],
                 feature_names=[f"noise{i:03d}" for i in range(200)], transformed=True)
    reports = run_battery(ds, graph, TestConfig(method="betti", n_perm=200, seed=3))
    ps = np.sort(np.asarray([r.p_value for r in reports]))
    n = len(ps)
    ks = max(np.max(np.abs(np.arange(1, n + 1) / n - ps)),
             np.max(np.abs(ps - np.arange(0, n) / n)))
    frac = float(np.mean(ps <= 0.05))
    _verdict("4 null calibration", ks < 0.1 and 0.02 <= frac <= 0.09,
             f"KS={ks:.4f}, frac(p<=0.05)={frac:.4f}")


def test_criterion_5_zero_inflation_detection(clusters_battery):
    low, high = clusters_battery["low"], clusters_battery["high"]
    auprc_low = {m: _auprc_of(low, m) for m in PERSISTENCE_METHODS}
    auprc_high = {m: _auprc_of(high, m) for m in PERSISTENCE_METHODS}
    best_high = max(auprc_high.values())
    ok = (all(v >= 0.95 for v in auprc_low.values())
          and best_high >= 0.6
          and clusters_battery["elapsed"] <= 600.0)
    detail = (f"z=0.1 {[f'{m}={v:.3f}' for m, v in auprc_low.items()]}, "
              f"z=0.9 best={best_high:.3f}, {clusters_battery['elapsed']:.0f}s")
    _verdict("5 AUPRC under zero-inflation", ok, detail)


def test_criterion_6_specificity_ordering(clusters_battery):
    low = clusters_battery["low"]

    def specificity(method):
        qs = np.asarray([r.q_value for r in low["reports"][method]])
        return sensitivity_specificity(qs, low["labels"], alpha=0.05)[1]

    spec = {m: specificity(m) for m in PERSISTENCE_METHODS + ("moran",)}
    ok = all(spec[m] >= 0.95 and spec[m] >= spec["moran"] for m in PERSISTENCE_METHODS)
    _verdict("6 persistence specificity >= Moran's", ok,
             ", ".join(f"{m}={v:.3f}" for m, v in spec.items()))


def test_criterion_7_morans_exactness():
    grid = rect_grid_graph([(0, 0), (1, 0), (0, 1), (1, 1)])
    checkerboard = morans_i(grid, [1, 0, 0, 1])
    exact = checkerboard == -1.0

    degenerate_ok = False
    try:
        morans_i(grid, [3.0, 3.0, 3.0, 3.0])
    except DegenerateDataError:
        degenerate_ok = True

    rng = np.random.default_rng(14)
    pts = rng.random((60, 2))
    g = delaunay_graph(pts)
    vals = rng.random(60)
    base = morans_i(g, vals)
    affine_ok = abs(morans_i(g, 7.3 * vals + 2.5) - base) <= 1e-12
    _verdict("7 Moran's I exactness", exact and degenerate_ok and affine_ok,
             f"checkerboard={checkerboard}, affine dev <= 1e-12")


def test_criterion_8_auprc_estimator_oracle():
    rng = np.random.default_rng(88)
    done = 0
    while done < 200:
        m = int(rng.integers(2, 13))
        scores = rng.integers(0, 5, m).astype(float) if rng.random() < 0.7 \
            else np.round(rng.random(m), 2)
        labels = rng.random(m) < 0.5
        if labels.all() or not labels.any():
            continue
        assert auprc(scores, labels) == auprc_enumeration(scores, labels)
        done += 1
    _verdict("8 AUPRC estimator == enumeration oracle", True, "200 instances, exact")


def test_criterion_9_method_agreement(clusters_battery):
    low = clusters_battery["low"]
    ranks = {m: np.asarray([r.rank for r in low["reports"][m]], dtype=float)
             for m in ("betti", "total", "moran")}
    rho_total = spearman(ranks["betti"], ranks["total"])
    rho_moran = spearman(ranks["betti"], ranks["moran"])
    _verdict("9 agreement: betti~total > betti~moran", rho_total > rho_moran,
             f"rho(betti,total)={rho_total:.3f}, rho(betti,moran)={rho_moran:.3f}")


def test_criterion_10_single_feature_performance():
    rng = np.random.default_rng(10)
    graph = delaunay_graph(rng.random((4000, 2)))
    values = rng.normal(size=4000)
    t0 = time.perf_counter()
    d = superlevel_diagram(graph, values)
    curve = betti_curve(d)
    curve_lp_norm(curve, 2)
    elapsed = time.perf_counter() - t0
    _verdict("10 4000-vertex Betti summary < 1s", elapsed < 1.0,
             f"{elapsed * 1000:.1f} ms, {len(d)} pairs")


def test_criterion_11_landscape_exactness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        d = random_diagram(rng)
        L = landscape(d, max_levels=5)
        if d.f_max == d.f_min:
            continue
        grid = np.linspace(d.f_min, d.f_max, 10_000)
        ordered = dense_grid_landscape(d, grid, 5)
        prev = None
        for k in range(1, 6):
            expected = ordered[k - 1]
            xs, ys = L.levels[k - 1]
            got = np.interp(grid, xs, ys)
            worst = max(worst, float(np.max(np.abs(got - expected))))
            assert np.allclose(got, expected, atol=1e-9)
            if prev is not None:
                assert np.all(prev >= got - 1e-12)  # pointwise level ordering
            prev = got
    _verdict("11 landscape vs dense-grid kmax", worst <= 1e-9,
             f"200 diagrams, worst abs err {worst:.2e}")


def test_criterion_12_outlier_robustness():
    # The paper: the vectorised tests are more robust to outliers than Moran's I.
    heavy = _outlier_batteries(12, ("betti", "moran"))
    light = _outlier_batteries(4, ("betti", "total"))
    ok = heavy["betti"] > heavy["moran"] and min(light.values()) >= 0.9
    _verdict("12 outliers: betti > moran at k=12, betti and total >= 0.9 at k=4", ok,
             f"k=12 betti={heavy['betti']:.3f} moran={heavy['moran']:.3f}; "
             f"k=4 betti={light['betti']:.3f} total={light['total']:.3f}")


def test_criterion_12_landscape_recovers_above_k_levels():
    # k outlier tents fill landscape levels 1..k of every assignment, so at
    # the default 5 levels and k = 4 one level is left for the signal. With
    # 20 levels the landscape test sees past them: AUPRC 0.997 (0.737 at 5
    # levels) at 99 permutations.
    default = _outlier_batteries(4, ("landscape",), n_perm=99)["landscape"]
    deep = _outlier_batteries(4, ("landscape",), max_levels=20, n_perm=99)["landscape"]
    _verdict("12 outliers: landscape at 20 levels >= 0.95 and above 5 levels at k=4",
             deep >= 0.95 and deep > default + 0.1,
             f"k=4 landscape max_levels=20 {deep:.3f}, max_levels=5 {default:.3f}")
