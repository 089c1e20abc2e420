import numpy as np
import pytest

from topospat import (
    DegenerateDataError,
    DimensionError,
    ParameterError,
    ValidationError,
    auprc,
    bootstrap_sd,
    sensitivity_specificity,
    spearman,
    top_k_true_proportion,
)

from oracles import auprc_enumeration, spearman_direct


class TestAuprc:
    def test_perfect_separation(self):
        assert auprc([4, 3, 2, 1], [True, True, False, False]) == 1.0

    def test_all_tied_scores_give_prevalence(self):
        assert auprc([1, 1, 1, 1], [True, False, True, False]) == 0.5

    def test_worked_example(self):
        assert auprc([3, 2, 1], [True, False, True]) == pytest.approx(5 / 6)

    def test_matches_enumeration_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(2, 13))
            scores = rng.integers(0, 5, m).astype(float)  # heavy ties
            labels = rng.random(m) < 0.5
            if labels.all() or not labels.any():
                continue
            assert auprc(scores, labels) == auprc_enumeration(scores, labels)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        labels = rng.random(40) < 0.4
        base = auprc(scores, labels)
        assert auprc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("scores, labels, error", [
        ([[1.0, 2.0]], [True, False], DimensionError),
        ([1.0, 2.0, 3.0], [True, False], DimensionError),
        ([1.0, np.nan], [True, False], ValidationError),
        ([1.0, np.inf], [True, False], ValidationError),
    ], ids=["2-D", "length", "nan", "inf"])
    def test_input_errors(self, scores, labels, error):
        with pytest.raises(error):
            auprc(scores, labels)

    def test_single_class_raises(self):
        with pytest.raises(DegenerateDataError):
            auprc([1, 2], [True, True])


class TestSensitivitySpecificity:
    def test_perfect_calls(self):
        sens, spec = sensitivity_specificity(
            [0.001, 0.001, 0.9, 0.9], [True, True, False, False])
        assert (sens, spec) == (1.0, 1.0)

    def test_nothing_called(self):
        sens, spec = sensitivity_specificity([1.0, 1.0], [True, False])
        assert (sens, spec) == (0.0, 1.0)

    def test_single_class_raises(self):
        with pytest.raises(DegenerateDataError):
            sensitivity_specificity([0.01, 0.06], [True, True])

    def test_q_value_range_enforced(self):
        with pytest.raises(ValidationError):
            sensitivity_specificity([0.0, 0.5], [True, False])

    def test_shape_error(self):
        with pytest.raises(DimensionError):
            sensitivity_specificity([0.1, 0.2], [True, False, True])

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(0.001, 1.0, 60)
        labels = rng.random(60) < 0.5
        prev_sens, prev_spec = 0.0, 1.01
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            sens, spec = sensitivity_specificity(q, labels, alpha=alpha)
            assert sens >= prev_sens - 1e-15
            assert spec <= prev_spec + 1e-15
            prev_sens, prev_spec = sens, spec


class TestTopK:
    def test_perfect_ranking(self):
        assert top_k_true_proportion([4, 3, 1, 0], [True, True, False, False], 2) == 1.0

    def test_k_equals_all_gives_prevalence(self):
        rng = np.random.default_rng(4)
        scores = rng.random(40)
        labels = np.asarray([True] * 20 + [False] * 20)
        assert top_k_true_proportion(scores, labels, 40) == 0.5

    def test_worked_example(self):
        assert top_k_true_proportion([3, 2, 1], [True, False, True], 2) == 0.5

    def test_tie_break_by_name(self):
        scores = [1.0, 1.0]
        labels = [False, True]
        assert top_k_true_proportion(scores, labels, 1, names=["b", "a"]) == 1.0
        assert top_k_true_proportion(scores, labels, 1, names=["a", "b"]) == 0.0

    def test_k_bounds(self):
        with pytest.raises(ParameterError):
            top_k_true_proportion([1, 2], [True, False], 0)
        with pytest.raises(ParameterError):
            top_k_true_proportion([1, 2], [True, False], 3)

    def test_name_count_error(self):
        with pytest.raises(DimensionError, match="one name per score"):
            top_k_true_proportion([1, 2], [True, False], 1, names=["a"])


class TestSpearman:
    def test_identity_and_reversal(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(x, x) == pytest.approx(1.0)
        assert spearman(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_matches_direct_oracle_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 6, n).astype(float)
            y = rng.integers(0, 6, n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(spearman_direct(x, y), abs=1e-12)

    def test_rank_idempotence(self):
        from scipy.stats import rankdata
        rng = np.random.default_rng(6)
        x, y = rng.random(25), rng.random(25)
        assert spearman(x, y) == pytest.approx(
            spearman(rankdata(x), rankdata(y)), abs=1e-14)

    def test_average_ranks_equal_rankdata_bitwise(self):
        from scipy.stats import rankdata
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, int(rng.integers(1, 8)), n).astype(float)
            y = rng.integers(0, int(rng.integers(1, 8)), n).astype(float)
            x[rng.random(n) < 0.2] = -0.0
            x[rng.random(n) < 0.1] = np.inf
            y[rng.random(n) < 0.1] = -np.inf
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = float(np.corrcoef(rankdata(x, method="average"),
                                         rankdata(y, method="average"))[0, 1])
            assert spearman(x, y) == expected

    def test_nan_gives_nan(self):
        assert np.isnan(spearman([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]))

    def test_errors(self):
        with pytest.raises(ParameterError):
            spearman([1, 2], [3, 4])
        with pytest.raises(DegenerateDataError):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(DimensionError):
            spearman([1, 2, 3], [1, 2])


class TestBootstrapSd:
    def test_constant_metric_gives_zero(self):
        scores = [4.0, 3.0, 1.0, 0.5]
        labels = [True, True, False, False]  # perfectly separated at any resample
        assert bootstrap_sd(auprc, scores, labels, n_boot=50, seed=0) == 0.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        scores = rng.random(30)
        labels = rng.random(30) < 0.5
        a = bootstrap_sd(auprc, scores, labels, n_boot=100, seed=3)
        b = bootstrap_sd(auprc, scores, labels, n_boot=100, seed=3)
        assert a == b
        assert bootstrap_sd(auprc, scores, labels, n_boot=100, seed=4) != a
        with pytest.raises(ParameterError, match="seed"):
            bootstrap_sd(auprc, scores, labels, n_boot=100, seed=-1)

    def test_positive_sd_with_overlap(self):
        rng = np.random.default_rng(8)
        scores = rng.random(100)
        labels = rng.random(100) < 0.5
        assert bootstrap_sd(auprc, scores, labels, n_boot=200, seed=1) > 0.0

    def test_input_errors(self):
        with pytest.raises(DimensionError):
            bootstrap_sd(auprc, [1.0, 2.0], [True], n_boot=10)
        with pytest.raises(ParameterError, match="n_boot"):
            bootstrap_sd(auprc, [1.0, 2.0], [True, False], n_boot=0)

    def test_one_resample_gives_zero(self):
        assert bootstrap_sd(auprc, [1.0, 2.0, 3.0], [True, False, True], n_boot=1) == 0.0

    def test_retry_cap(self):
        def always_degenerate(scores, labels):
            raise DegenerateDataError("no")

        with pytest.raises(DegenerateDataError, match="100 consecutive"):
            bootstrap_sd(always_degenerate, [1.0, 2.0], [True, False], n_boot=10, seed=0)

    def test_tuple_metric_matches_separate_calls(self):
        # a metric returning a tuple gets one SD per entry from one resample
        # loop, each bitwise the SD of a separate call on that entry alone,
        # single-class resamples drawn again included
        rng = np.random.default_rng(11)
        redrawn = 0
        for _ in range(60):
            n = int(rng.integers(2, 25))
            qs = 1.0 - rng.random(n)  # in (0, 1]
            labels = rng.permutation(np.arange(n) < int(rng.integers(1, n)))
            alpha = float(rng.choice([0.05, 0.3, 0.7]))
            n_boot, seed = int(rng.choice([1, 2, 40])), int(rng.integers(0, 100))

            def both(q, l):
                nonlocal redrawn
                try:
                    return sensitivity_specificity(q, l, alpha=alpha)
                except DegenerateDataError:
                    redrawn += 1
                    raise

            joint = bootstrap_sd(both, qs, labels, n_boot=n_boot, seed=seed)
            apart = tuple(bootstrap_sd(lambda q, l, i=i: sensitivity_specificity(q, l, alpha)[i],
                                       qs, labels, n_boot=n_boot, seed=seed) for i in (0, 1))
            assert isinstance(joint, tuple)
            assert [x.hex() for x in joint] == [x.hex() for x in apart]
        assert redrawn > 0

    def test_redraw_on_single_class_resample(self):
        # one positive among four: single-class resamples occur but are redrawn
        scores = [4.0, 1.0, 2.0, 3.0]
        labels = [True, False, False, False]
        sd = bootstrap_sd(auprc, scores, labels, n_boot=200, seed=2)
        assert np.isfinite(sd)
