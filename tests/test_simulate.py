import math

import numpy as np
import pytest

from topospat import (
    ParameterError,
    SimConfig,
    SpatialPattern,
    default_effect_sizes,
    domain_mask,
    sample_feature,
    sample_locations,
    simulate_dataset,
)


class TestSampleLocations:
    def test_points_land_in_unit_square(self):
        pts = sample_locations(500, seed=1)
        assert pts.shape == (500, 2)
        assert np.all((pts >= 0) & (pts < 1))

    def test_seed_determinism(self):
        assert np.array_equal(sample_locations(50, 9), sample_locations(50, 9))
        assert not np.array_equal(sample_locations(50, 9), sample_locations(50, 10))

    def test_large_sample_mean_near_center(self):
        pts = sample_locations(10000, seed=3)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 0.02)

    def test_zero_locations_rejected(self):
        with pytest.raises(ParameterError):
            sample_locations(0, seed=0)


class TestDomainMask:
    def test_gradient_bands(self):
        pts = np.asarray([[0.1, 0.5], [0.3, 0.5], [0.6, 0.5], [0.99, 0.5], [0.25, 0.1]])
        mask = domain_mask(pts, "gradient")
        assert mask.tolist() == [1, 2, 3, 4, 2]

    def test_cellring_membership(self):
        pts = np.asarray([
            [0.5, 0.5],   # centre hole
            [0.3, 0.5],   # radius 0.2 < 0.25: still the hole
            [0.5, 0.8],   # radius 0.3: in the ring
            [0.1, 0.5],   # radius 0.4: on the outer boundary
            [0.02, 0.02],  # far corner
        ])
        assert domain_mask(pts, "cellring").tolist() == [0, 0, 1, 1, 0]

    def test_clusters_membership(self):
        pts = np.asarray([[0.25, 0.25], [0.75, 0.3], [0.5, 0.75], [0.5, 0.5], [0.95, 0.95]])
        assert domain_mask(pts, "clusters").tolist() == [1, 1, 1, 0, 0]

    def test_streaks_membership(self):
        on_line = np.asarray([[0.25, 0.5], [0.5, 0.25], [0.2, 0.2 + 0.25]])
        off_line = np.asarray([[0.1, 0.9], [0.5, 0.5]])
        assert domain_mask(on_line, "streaks").tolist() == [1, 1, 1]
        assert domain_mask(off_line, "streaks").tolist() == [0, 0]

    def test_none_pattern_all_background(self):
        pts = sample_locations(100, 0)
        assert not domain_mask(pts, "none").any()

    def test_every_location_gets_one_domain(self):
        pts = sample_locations(300, 5)
        for pattern in SpatialPattern:
            mask = domain_mask(pts, pattern)
            assert mask.shape == (300,)
            assert mask.min() >= 0


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"zero_prop": 1.0}, {"zero_prop": -0.1}, {"mu": 0.0}, {"dispersion": 0.0},
        {"effect_scale": 0.5}, {"n_locations": 0}, {"effect_sizes": (0.5,)},
        {"seed": -1}, {"n_signal": -1}, {"n_null": -1}, {"continuous_gradient": True},
        {"mu": math.nan}, {"mu": math.inf}, {"mu": "1"}, {"dispersion": math.nan},
        {"dispersion": math.inf}, {"effect_scale": math.nan}, {"effect_scale": math.inf},
        {"effect_sizes": (2, math.nan, 3, 4)}, {"effect_sizes": (math.inf,)},
        {"n_locations": 30.5}, {"n_signal": 2.5}, {"n_null": 1.0}, {"seed": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SimConfig(pattern="clusters", **kwargs)

    def test_numpy_integers_are_counts(self):
        counts = {"n_locations": np.int64(30), "n_signal": np.int32(2),
                  "n_null": np.uint8(1), "seed": np.int64(4)}
        cfg = SimConfig(pattern="clusters", **counts)
        assert all(type(getattr(cfg, name)) is int for name in counts)
        assert cfg == SimConfig(pattern="clusters", n_locations=30, n_signal=2, n_null=1, seed=4)
        assert simulate_dataset(cfg).values.shape == (3, 30)

    def test_effect_scale_flattens_to_one(self):
        cfg = SimConfig(pattern="gradient", effect_sizes=(2, 3, 4, 5), effect_scale=6.0)
        assert np.array_equal(cfg.resolved_effects(), [1, 1, 1, 1, 1])

    def test_effect_scale_partial(self):
        cfg = SimConfig(pattern="gradient", effect_sizes=(2, 3, 4, 6), effect_scale=3.0)
        assert np.allclose(cfg.resolved_effects(), [1, 1, 1, 4 / 3, 2])

    def test_defaults_per_pattern(self):
        assert default_effect_sizes("gradient") == (2.0, 3.0, 4.0, 5.0)
        assert len(default_effect_sizes("clusters")) == 1
        assert default_effect_sizes("none") == ()


class TestSampleFeature:
    def test_heavy_zero_inflation(self):
        cfg = SimConfig(pattern="none", zero_prop=0.999, n_locations=10000)
        mask = np.zeros(10000, dtype=np.int64)
        f = sample_feature(mask, cfg, feature_seed=0)
        zero_frac = np.mean(f == 0)
        # binomial 3-sigma bound around 0.999 (zeros also come from the counts)
        assert zero_frac >= 0.999 - 3 * np.sqrt(0.999 * 0.001 / 10000)

    def test_poisson_mean(self):
        cfg = SimConfig(pattern="none", distribution="poisson", mu=1.0, zero_prop=0.0)
        mask = np.zeros(100000, dtype=np.int64)
        f = sample_feature(mask, cfg, feature_seed=1)
        assert abs(f.mean() - 1.0) < 0.02

    def test_negative_binomial_variance(self):
        cfg = SimConfig(pattern="none", mu=2.0, dispersion=0.3, zero_prop=0.0)
        mask = np.zeros(100000, dtype=np.int64)
        f = sample_feature(mask, cfg, feature_seed=2)
        expected_var = 2.0 + 4.0 / 0.3
        assert abs(f.mean() - 2.0) < 0.05
        assert abs(f.var() - expected_var) < 0.1 * expected_var

    def test_mask_domain_out_of_range(self):
        cfg = SimConfig(pattern="clusters")  # one domain
        with pytest.raises(ParameterError):
            sample_feature(np.full(5, 2, dtype=int), cfg, 0)

    def test_continuous_gradient_needs_points(self):
        cfg = SimConfig(pattern="gradient", continuous_gradient=True)
        with pytest.raises(ParameterError, match="location coordinates"):
            sample_feature(np.ones(5, dtype=int), cfg, 0)

    def test_effect_raises_in_domain_mean(self):
        cfg = SimConfig(pattern="cellring", effect_sizes=(5.0,), zero_prop=0.1,
                        n_locations=4000)
        pts = sample_locations(4000, 7)
        mask = domain_mask(pts, "cellring")
        assert mask.sum() >= 200
        f = sample_feature(mask, cfg, feature_seed=3)
        assert f[mask == 1].mean() > 1.5 * f[mask == 0].mean()


class TestSimulateDataset:
    def test_default_feature_counts_and_labels(self):
        ds = simulate_dataset(SimConfig(pattern="clusters", n_locations=120, seed=1))
        assert ds.n_features == 100
        assert sum(bool(label) for label in ds.labels) == 50
        assert ds.n_locations == 120

    def test_no_signal_config(self):
        ds = simulate_dataset(SimConfig(pattern="clusters", n_signal=0, n_null=10,
                                        n_locations=50))
        assert all(label is False for label in ds.labels.tolist())

    def test_flattened_effects_still_labelled_true(self):
        cfg = SimConfig(pattern="gradient", effect_sizes=(2, 3, 4, 5), effect_scale=6.0,
                        n_locations=50, n_signal=5, n_null=5)
        ds = simulate_dataset(cfg)
        assert sum(bool(label) for label in ds.labels) == 5

    def test_deterministic_per_seed(self):
        cfg = SimConfig(pattern="streaks", n_locations=80, n_signal=5, n_null=5, seed=42)
        d1, d2 = simulate_dataset(cfg), simulate_dataset(cfg)
        assert np.array_equal(d1.locations, d2.locations)
        for a_name, a, b_name, b in zip(d1.feature_names, d1.values,
                                        d2.feature_names, d2.values):
            assert a_name == b_name and np.array_equal(a, b)

    def test_zero_fraction_at_least_z(self):
        cfg = SimConfig(pattern="none", zero_prop=0.4, n_locations=300,
                        n_signal=0, n_null=20, seed=3)
        ds = simulate_dataset(cfg)
        values = np.concatenate(list(ds.values))
        assert np.mean(values == 0) >= 0.4

    def test_continuous_gradient_ramp(self):
        cfg = SimConfig(pattern="gradient", continuous_gradient=True, mu=2.0,
                        n_locations=4000, n_signal=1, n_null=1, zero_prop=0.0, seed=5)
        ds = simulate_dataset(cfg)
        signal = ds.values[0]
        x = ds.locations[:, 0]
        left = signal[x < 0.2].mean()
        right = signal[x > 0.8].mean()
        assert right > 2.0 * left
        null = ds.values[1]
        assert abs(null[x < 0.2].mean() - null[x > 0.8].mean()) < 0.5

    def test_metadata_echoes_config(self):
        ds = simulate_dataset(SimConfig(pattern="cellring", n_locations=40,
                                        n_signal=2, n_null=2, zero_prop=0.2))
        assert ds.metadata["pattern"] == "cellring"
        assert ds.metadata["zero_prop"] == 0.2
