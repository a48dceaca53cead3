import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dpbeta import experiments, model
from dpbeta.estimator import contrast_ci, solve
from dpbeta.experiments import (
    ExperimentResult,
    ExperimentSpec,
    PairSummary,
    _noisy_degrees,
    _study_setup,
    child_seed,
    default_pairs,
    epsilon_schedule,
    profile_scale,
    qq_points,
    rate_study,
    run_experiment,
    truth_profile,
)
from dpbeta.mechanisms import sample_noise


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

    @pytest.mark.parametrize("mode", ["fixed:nan", "fixed:inf", "fixed:-inf"])
    def test_epsilon_rejects_non_finite(self, mode):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            epsilon_schedule(mode, 100)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            ExperimentSpec(n=10, q=2, eps_mode=mode)

    @pytest.mark.parametrize("mode", ["fixed:abc", "fixed:", "fixed:2x"])
    def test_epsilon_rejects_non_numbers(self, mode):
        text = mode.removeprefix("fixed:")
        message = f"fixed epsilon must be a number, got '{text}'"
        with pytest.raises(ValueError, match=message):
            epsilon_schedule(mode, 100)

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

    @pytest.mark.parametrize(
        "pairs", [(), [], [[1, 2, 3]], [[1]], [(1, 2), (3,)], 5],
        ids=["empty-tuple", "empty-list", "triple", "single", "short-second", "int"],
    )
    def test_rejects_malformed_pairs(self, pairs):
        # named up front, not an unpacking error inside run_experiment
        with pytest.raises(ValueError, match="^pairs must be a non-empty sequence"):
            ExperimentSpec(n=10, q=3, reps=5, pairs=pairs)

    def test_rejects_bad_level_and_reps(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, q=2, level=1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(n=10, q=2, reps=0)
        for n in (2, 0):
            with pytest.raises(ValueError, match="n must be >= 3"):
                ExperimentSpec(n=n, q=2)

    @pytest.mark.parametrize("q", [2.5, True, 1, "3"])
    def test_rejects_non_integral_q(self, q):
        with pytest.raises(ValueError, match="q must be an integer"):
            ExperimentSpec(n=10, q=q)

    def test_integral_float_q_is_stored_as_int(self):
        spec = ExperimentSpec(n=10, q=3.0)
        assert spec.q == 3 and isinstance(spec.q, int)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"pairs": ((1.9, 2),)}, "pair entry"),
            ({"pairs": ((1, True),)}, "pair entry"),
            ({"pairs": (("1", 2),)}, "pair entry"),
            ({"master_seed": 2.7}, "master_seed"),
            ({"master_seed": True}, "master_seed"),
            ({"n": 10.5}, "n"),
            ({"reps": 2.5}, "reps"),
        ],
        ids=["pair-1.9", "pair-true", "pair-str", "seed-2.7", "seed-true", "n-10.5", "reps-2.5"],
    )
    def test_rejects_non_integral_counts(self, kwargs, name):
        # rejected, not truncated: pair (1.9, 2) must not track (1, 2)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentSpec(**({"n": 10, "q": 2} | kwargs))

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError, match="master_seed must be an integer >= 0"):
            ExperimentSpec(n=10, q=2, master_seed=-1)

    def test_integral_float_entries_are_stored_as_int(self):
        spec = ExperimentSpec(n=10.0, q=2, reps=3.0, pairs=((1.0, 2),), master_seed=4.0)
        assert (spec.n, spec.reps, spec.pairs, spec.master_seed) == (10, 3, ((1, 2),), 4)
        assert all(isinstance(v, int) for v in (spec.n, spec.reps, *spec.pairs[0]))


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
        assert pts[0][0] == pytest.approx(stats.norm.ppf(0.5 / 40), abs=1e-12)
        assert pts[-1][0] == pytest.approx(stats.norm.ppf(39.5 / 40), abs=1e-12)

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
        with pytest.raises(ValueError, match="strictly increasing"):
            rate_study([20, 20], 3, reps=1)  # would write two identical rows
        for reps in (0, -3):
            with pytest.raises(ValueError, match="reps must be >= 1"):
                rate_study([20], 3, reps=reps)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"reps": True}, "reps must be an integer"),
            ({"reps": 2.5}, "reps must be an integer"),
            ({"n_list": [50.5]}, "n_list entry must be an integer"),
            ({"master_seed": -1}, "master_seed must be an integer >= 0"),
            ({"master_seed": 1.5}, "master_seed must be an integer"),
        ],
        ids=["reps-true", "reps-2.5", "n-50.5", "seed-neg", "seed-1.5"],
    )
    def test_rejects_bad_inputs_up_front(self, kwargs, message):
        # each one was accepted and returned as given, or failed deep
        # inside the loop with a message that did not name it
        with pytest.raises(ValueError, match=message):
            rate_study(**({"n_list": [50], "q": 3} | kwargs))

    def test_integral_float_entries_are_stored_as_int(self):
        (row,) = rate_study([20.0], 3, reps=1.0, master_seed=4.0)
        assert (row.n, row.reps) == (20, 1)
        assert all(isinstance(v, int) for v in (row.n, row.reps))


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


class TestChunking:
    """Replications are solved together in chunks within a class-pair
    budget; no output depends on the chunking."""

    @pytest.mark.parametrize("budget", [1, 2**20])
    def test_study_outputs_do_not_depend_on_the_budget(self, monkeypatch, budget):
        spec = ExperimentSpec(n=30, q=3, l_mode="loglog", eps_mode="fixed:1",
                              reps=40, master_seed=8)
        default = run_experiment(spec)
        monkeypatch.setattr(experiments, "_PAIR_BUDGET", budget)
        other = run_experiment(spec)
        assert 0 < other.converged < spec.reps  # both kinds of outcome occur
        assert (other.converged, other.nonexistence) == (default.converged, default.nonexistence)
        for pa, pb in zip(default.pairs, other.pairs):
            assert (pa.coverage, pa.mean_length, pa.xi) == (pb.coverage, pb.mean_length, pb.xi)
        rows = rate_study([20, 30], 3, "sqrtlog", reps=9, master_seed=3)
        monkeypatch.setattr(experiments, "_PAIR_BUDGET", 2**16)
        assert rows == rate_study([20, 30], 3, "sqrtlog", reps=9, master_seed=3)

    @pytest.mark.parametrize("pairs", [None, ((1, 2),)])
    def test_study_matches_a_loop_over_replications(self, monkeypatch, pairs):
        # the chunked draw, the batched solve and the one interval pass at
        # the end give the bits of one replication at a time, with every
        # sum added in replication order (a single pair too, whose lengths
        # a pairwise sum would regroup)
        monkeypatch.setattr(experiments, "_PAIR_BUDGET", 7 * 435)  # chunks of 7
        spec = ExperimentSpec(n=30, q=3, l_mode="loglog", eps_mode="fixed:2",
                              reps=150, pairs=pairs, master_seed=5)
        alpha_star, mechanism = _study_setup(spec.l_mode, spec.eps_mode, spec.n)
        i, j = np.array(spec.pairs).T - 1
        truth = alpha_star[i] - alpha_star[j]
        covered, length_sum, xi = np.zeros(len(i), dtype=np.int64), np.zeros(len(i)), []
        for rep in range(spec.reps):
            seed = child_seed(spec.master_seed, rep)
            fit = solve(_noisy_degrees(alpha_star, spec.q, mechanism, [seed])[0], spec.q)
            if fit.converged:
                ci = contrast_ci(fit, i, j, spec.level)
                covered += np.abs(ci.point - truth) <= ci.half_width
                length_sum += ci.half_width
                xi.append((ci.point - truth) / ci.se)
        result = run_experiment(spec)
        assert 10 < result.converged == len(xi) < spec.reps
        for k, summary in enumerate(result.pairs):
            assert summary.coverage == covered[k] / len(xi)
            assert summary.mean_length == length_sum[k] / len(xi)
            assert summary.xi == [float(row[k]) for row in xi]

    def test_warm_call_memory(self):
        # n=30, q=3, loglog: many solve groups split, and each half holds
        # its own sequences' classes and variances only; groups that kept
        # those of the whole chunk they were evaluated with peaked at 1.98 MB
        spec = ExperimentSpec(n=30, q=3, l_mode="loglog", eps_mode="fixed:2",
                              reps=200, master_seed=3)
        run_experiment(spec)
        tracemalloc.start()
        try:
            run_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.85 * 2**20


class TestReplicate:
    def test_draws_degrees_without_building_a_graph(self, monkeypatch):
        # the same fit as sampling the graph and taking its degrees
        alpha, mechanism = _study_setup("sqrtlog", "fixed:2", 40)
        seed = child_seed(9, 0)
        rng = np.random.default_rng(seed)
        d = model.sample_graph(alpha, 3, rng).degrees()
        expected = solve(d + sample_noise(mechanism, 40, rng), 3)

        def refuse(graph):
            raise AssertionError("a WeightedGraph was built")

        monkeypatch.setattr(model.WeightedGraph, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="WeightedGraph"):
            model.sample_graph(alpha, 3, seed=1)
        fit = solve(_noisy_degrees(alpha, 3, mechanism, [seed])[0], 3)
        assert fit.status == expected.status
        np.testing.assert_array_equal(fit.alpha_hat, expected.alpha_hat)
