import math

import numpy as np
import pytest
from scipy import stats

from dpbeta.experiments import (
    ExperimentResult,
    ExperimentSpec,
    PairSummary,
    default_pairs,
    epsilon_schedule,
    profile_scale,
    qq_points,
    rate_study,
    run_experiment,
    truth_profile,
)


class TestSchedules:
    def test_epsilon_fixed(self):
        assert epsilon_schedule("fixed:2", 100) == 2.0
        assert epsilon_schedule("fixed:0.5", 7003) == 0.5

    def test_epsilon_polynomial_decay(self):
        assert epsilon_schedule("logn_over_n14", 100) == pytest.approx(
            math.log(100) / 100**0.25, abs=1e-12
        )
        assert epsilon_schedule("logn_over_n14", 100) == pytest.approx(1.4563, abs=1e-4)
        assert epsilon_schedule("logn_over_n12", 100) == pytest.approx(
            math.log(100) / 10, abs=1e-12
        )
        assert epsilon_schedule("logn_over_n12", 100) == pytest.approx(0.46052, abs=1e-5)

    def test_epsilon_rejects_unknown(self):
        with pytest.raises(ValueError):
            epsilon_schedule("garbage", 100)
        with pytest.raises(ValueError):
            epsilon_schedule("fixed:-1", 100)

    def test_profile_scale(self):
        assert profile_scale("zero", 100) == 0.0
        assert profile_scale("loglog", 100) == pytest.approx(
            math.log(math.log(100)), abs=1e-12
        )
        assert profile_scale("sqrtlog", 100) == pytest.approx(
            math.sqrt(math.log(100)), abs=1e-12
        )
        with pytest.raises(ValueError):
            profile_scale("linear", 100)

    def test_truth_profile(self):
        alpha = truth_profile(4, 2.0)
        np.testing.assert_allclose(alpha, [2.0, 1.5, 1.0, 0.5])
        assert truth_profile(100, 0.0).sum() == 0.0

    def test_default_pairs(self):
        assert default_pairs(100) == ((1, 2), (50, 51), (99, 100))
        assert default_pairs(7) == ((1, 2), (3, 4), (6, 7))


class TestSpecValidation:
    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, q=2, pairs=((1, 1),))
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, q=2, pairs=((0, 2),))
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, q=2, pairs=((1, 11),))

    def test_rejects_bad_level_and_reps(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, q=2, level=1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, q=2, reps=0)


class TestRunExperiment:
    def test_deterministic(self):
        spec = ExperimentSpec(n=12, q=3, reps=1, master_seed=9)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a == b

    def test_small_run_bookkeeping(self):
        spec = ExperimentSpec(n=20, q=3, l_mode="zero", eps_mode="fixed:2",
                              reps=50, master_seed=3)
        res = run_experiment(spec)
        assert res.reps_completed == 50
        assert res.converged + round(res.nonexistence * 50) == 50
        for p in res.pairs:
            assert 0.0 <= p.coverage <= 1.0
            assert len(p.xi) == res.converged
            assert p.mean_length > 0

    def test_binary_weights_coverage(self):
        spec = ExperimentSpec(n=100, q=2, l_mode="zero", eps_mode="fixed:2",
                              reps=300, master_seed=42)
        res = run_experiment(spec)
        assert res.nonexistence == 0.0
        for p in res.pairs:
            assert 0.89 <= p.coverage <= 0.98
            # interval scale z * sqrt(2 / v) with v = (n-1)/4
            assert p.mean_length == pytest.approx(0.556, abs=0.02)

    def test_noiseless_proxy_coverage(self):
        # epsilon = 100 makes lambda = e^-50: the noise is identically zero
        spec = ExperimentSpec(n=100, q=3, l_mode="zero", eps_mode="fixed:100",
                              reps=1000, master_seed=17)
        res = run_experiment(spec)
        assert res.nonexistence == 0.0
        for p in res.pairs:
            assert 0.93 <= p.coverage <= 0.97

    def test_degradation_with_shrinking_epsilon(self):
        base = ExperimentSpec(n=100, q=3, l_mode="zero", eps_mode="fixed:2",
                              reps=200, master_seed=5)
        degraded = ExperimentSpec(n=100, q=3, l_mode="zero",
                                  eps_mode="logn_over_n12", reps=200, master_seed=5)
        res_base = run_experiment(base)
        res_deg = run_experiment(degraded)
        for pb, pd in zip(res_base.pairs, res_deg.pairs):
            assert pd.coverage < pb.coverage

    def test_nonexistence_monotone_in_profile_scale(self):
        rates = {}
        for mode in ("zero", "loglog", "sqrtlog"):
            spec = ExperimentSpec(n=100, q=3, l_mode=mode, eps_mode="fixed:2",
                                  reps=300, master_seed=7)
            rates[mode] = run_experiment(spec).nonexistence
        assert rates["sqrtlog"] >= rates["loglog"] >= rates["zero"]
        assert rates["sqrtlog"] > 0.0

    def test_csv_rows_shape(self):
        spec = ExperimentSpec(n=10, q=2, reps=5, master_seed=1)
        res = run_experiment(spec)
        rows = res.csv_rows()
        assert len(rows) == 3
        first = rows[0].split(",")
        assert first[0] == "1" and first[1] == "2"
        assert first[5] == "5"


class TestQQPoints:
    @staticmethod
    def _result_with_xi(xi):
        # a study's result as run_experiment returns it, without running the
        # replications: pair (1, 2) carries the given standardized contrasts
        spec = ExperimentSpec(n=10, q=2, reps=len(xi), master_seed=0)
        pairs = [PairSummary(pair=p, coverage=1.0, mean_length=1.0) for p in spec.pairs]
        pairs[0].xi = list(xi)
        return ExperimentResult(
            spec=spec,
            pairs=pairs,
            nonexistence=0.0,
            reps_completed=len(xi),
            converged=len(xi),
        )

    def test_constant_zero_sample(self):
        res = self._result_with_xi([0.0] * 30)
        pts = qq_points(res, (1, 2))
        assert all(e == 0.0 for _, e in pts)
        assert pts[0][0] < 0 < pts[-1][0]

    def test_requires_enough_values(self):
        res = self._result_with_xi([0.0] * 10)
        with pytest.raises(ValueError):
            qq_points(res, (1, 2))

    def test_synthetic_normal_sample_tracks_reference(self):
        rng = np.random.default_rng(8)
        xi = rng.standard_normal(10_000)
        res = self._result_with_xi(xi)
        pts = qq_points(res, (1, 2))
        theo = np.array([t for t, _ in pts])
        emp = np.array([e for _, e in pts])
        # distribution-scale agreement
        ks = stats.kstest(xi, "norm").statistic
        assert ks < 0.06
        # central quantiles line up on the y = x reference
        central = slice(len(pts) // 20, -len(pts) // 20)
        assert np.max(np.abs(theo[central] - emp[central])) < 0.06

    def test_order_statistic_positions(self):
        res = self._result_with_xi(list(np.linspace(-2, 2, 40)))
        pts = qq_points(res, (1, 2))
        from dpbeta.estimator import normal_quantile

        assert pts[0][0] == pytest.approx(normal_quantile(0.5 / 40), abs=1e-12)
        assert pts[-1][0] == pytest.approx(normal_quantile(39.5 / 40), abs=1e-12)

    def test_unknown_pair(self):
        res = self._result_with_xi([0.0] * 30)
        with pytest.raises(KeyError):
            res.pair_summary((7, 8))


class TestRateStudy:
    def test_single_replication_median_is_that_error(self):
        rows = rate_study([20], 3, "zero", "fixed:2", reps=1, master_seed=4)
        assert len(rows) == 1
        assert rows[0].converged == 1
        assert rows[0].median_inf_error > 0

    def test_error_grows_with_profile_scale(self):
        flat = rate_study([100], 3, "zero", "fixed:2", reps=100, master_seed=6)
        steep = rate_study([100], 3, "loglog", "fixed:2", reps=100, master_seed=6)
        assert steep[0].median_inf_error > flat[0].median_inf_error

    def test_rejects_decreasing_sizes(self):
        with pytest.raises(ValueError):
            rate_study([100, 50], 3)


class TestReproducibility:
    def test_bitwise_identical_results(self):
        spec = ExperimentSpec(n=30, q=3, l_mode="loglog", eps_mode="fixed:2",
                              reps=20, master_seed=123)
        a = run_experiment(spec)
        b = run_experiment(spec)
        for pa, pb in zip(a.pairs, b.pairs):
            assert pa.xi == pb.xi
            assert pa.coverage == pb.coverage
            assert pa.mean_length == pb.mean_length
        assert a.nonexistence == b.nonexistence
