import json
import math

import numpy as np
import pytest

from dpbeta.mechanisms import (
    CalibrationError,
    DegreeRelease,
    NoiseMechanism,
    calibrate,
    dlaplace_moments,
    dlaplace_pmf,
    dlaplace_tail,
    release_degrees,
    sample_noise,
    skew_dlaplace_moments,
    skew_dlaplace_pmf,
    skew_dlaplace_tail,
    worst_case_log_ratio,
)

import oracles


class TestCalibrate:
    def test_symmetric_formula(self):
        assert calibrate(2.0, 2).lam == pytest.approx(math.exp(-1), abs=1e-15)
        assert calibrate(1.0, 2).lam == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_symmetric_has_equal_parameters(self):
        m = calibrate(2.0)
        assert m.kind == "symmetric"
        assert m.lam == m.mu
        assert m.sensitivity == 2

    def test_skew_ratio_two(self):
        m = calibrate(2.0, 2, kind="skew", skew_ratio=2.0)
        assert min(m.lam, m.mu) == pytest.approx(math.exp(-1), abs=1e-15)
        assert max(m.lam, m.mu) == pytest.approx(2 * math.exp(-1), abs=1e-15)
        assert m.epsilon == 2.0

    def test_skew_ratio_below_one(self):
        m = calibrate(2.0, 2, kind="skew", skew_ratio=0.5)
        assert m.lam == pytest.approx(math.exp(-1), abs=1e-15)
        assert m.mu == pytest.approx(2 * math.exp(-1), abs=1e-15)

    def test_skew_ratio_pushing_param_past_one_fails(self):
        with pytest.raises(CalibrationError):
            calibrate(0.1, 2, kind="skew", skew_ratio=10.0)

    def test_bad_epsilon(self):
        with pytest.raises(CalibrationError):
            calibrate(0.0)
        with pytest.raises(CalibrationError):
            calibrate(-1.0)

    def test_mechanism_invariant_enforced(self):
        with pytest.raises(ValueError):
            NoiseMechanism("symmetric", 0.5, 0.5, epsilon=1.0, sensitivity=2)
        # consistent record passes
        NoiseMechanism("symmetric", 0.5, 0.5, epsilon=-2 * math.log(0.5), sensitivity=2)


class TestDlaplacePmf:
    def test_values(self):
        assert dlaplace_pmf(0, 0.5) == pytest.approx(1 / 3, abs=1e-15)
        assert dlaplace_pmf(2, 0.5) == pytest.approx(1 / 12, abs=1e-15)
        assert dlaplace_pmf(-2, 0.5) == pytest.approx(1 / 12, abs=1e-15)

    def test_symmetry_exact(self):
        z = np.arange(0, 40)
        np.testing.assert_array_equal(dlaplace_pmf(z, 0.77), dlaplace_pmf(-z, 0.77))

    def test_truncated_sum_reaches_one(self):
        z = np.arange(-60, 61)
        assert abs(dlaplace_pmf(z, 0.5).sum() - 1.0) <= 1e-12

    def test_rejects_bad_lambda(self):
        for lam in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                dlaplace_pmf(0, lam)


class TestDlaplaceMoments:
    def test_half(self):
        mean, var, mean_abs = dlaplace_moments(0.5)
        assert mean == 0.0
        assert var == pytest.approx(4.0, abs=1e-14)
        assert mean_abs == pytest.approx(4 / 3, abs=1e-14)

    def test_exp_minus_one_against_series(self):
        lam = math.exp(-1)
        _, var, mean_abs = dlaplace_moments(lam)
        assert var == pytest.approx(
            oracles.dlaplace_moment_by_series(lam, 2), abs=1e-12
        )
        assert var == pytest.approx(2 * math.exp(-1) / (1 - math.exp(-1)) ** 2)
        assert var == pytest.approx(1.841347, abs=5e-6)
        assert mean_abs == pytest.approx(
            oracles.dlaplace_moment_by_series(lam, 1), abs=1e-12
        )

    def test_random_lambdas_against_series(self):
        rng = np.random.default_rng(11)
        for lam in rng.uniform(0.05, 0.9, 5):
            _, var, mean_abs = dlaplace_moments(lam)
            assert var == pytest.approx(
                oracles.dlaplace_moment_by_series(lam, 2), rel=1e-10
            )
            assert mean_abs == pytest.approx(
                oracles.dlaplace_moment_by_series(lam, 1), rel=1e-10
            )


class TestDlaplaceTail:
    def test_at_zero(self):
        assert dlaplace_tail(0, 0.5) == pytest.approx(2 / 3, abs=1e-15)
        assert dlaplace_tail(0, 0.5, n=1) == pytest.approx(2 / 3, abs=1e-15)

    def test_floor_in_threshold(self):
        assert dlaplace_tail(2.7, 0.5) == dlaplace_tail(2.0, 0.5)

    def test_max_tail_against_monte_carlo(self):
        lam = math.exp(-1)
        mech = calibrate(2.0)
        trials, per = 10_000, 100
        rng = np.random.default_rng(12)
        draws = np.abs(sample_noise(mech, trials * per, rng)).reshape(trials, per)
        hit = float(np.mean(draws.max(axis=1) > 3))
        p = dlaplace_tail(3, lam, n=per)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hit - p) <= 3 * se


class TestSkewDlaplace:
    def test_collapses_to_symmetric(self):
        lam = 0.5
        z = np.arange(-20, 21)
        np.testing.assert_allclose(
            skew_dlaplace_pmf(z, lam, lam), dlaplace_pmf(z, lam), atol=1e-14
        )
        mean, var, mean_abs = skew_dlaplace_moments(lam, lam)
        s_mean, s_var, s_mean_abs = dlaplace_moments(lam)
        assert abs(mean - s_mean) <= 1e-14
        assert abs(var - s_var) <= 1e-14
        assert abs(mean_abs - s_mean_abs) <= 1e-14
        for c in (0, 1, 2.5, 7):
            assert abs(
                skew_dlaplace_tail(c, lam, lam) - dlaplace_tail(c, lam)
            ) <= 1e-14

    def test_mean_formula(self):
        mean, _, _ = skew_dlaplace_moments(0.5, 0.25)
        assert mean == pytest.approx(0.5 / 0.5 - 0.25 / 0.75, abs=1e-14)
        assert mean == pytest.approx(2 / 3, abs=1e-14)

    def test_moments_against_series(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            lam, mu = rng.uniform(0.05, 0.9, 2)
            mean, var, mean_abs = skew_dlaplace_moments(lam, mu)
            m1 = oracles.skew_dlaplace_moment_by_series(lam, mu, 1, absolute=False)
            m2 = oracles.skew_dlaplace_moment_by_series(lam, mu, 2, absolute=False)
            a1 = oracles.skew_dlaplace_moment_by_series(lam, mu, 1, absolute=True)
            assert mean == pytest.approx(m1, abs=1e-10)
            assert var == pytest.approx(m2 - m1**2, rel=1e-9)
            assert mean_abs == pytest.approx(a1, abs=1e-10)

    def test_tail_value(self):
        assert skew_dlaplace_tail(0, 0.5, 0.25) == pytest.approx(4 / 7, abs=1e-14)

    def test_pmf_sums_to_one(self):
        z = np.arange(-200, 201)
        assert skew_dlaplace_pmf(z, 0.6, 0.3).sum() == pytest.approx(1.0, abs=1e-12)


class TestSampleNoise:
    def test_tiny_lambda_gives_zeros(self):
        mech = NoiseMechanism(
            "symmetric", 1e-9, 1e-9, epsilon=-2 * math.log(1e-9), sensitivity=2
        )
        assert np.all(sample_noise(mech, 100, seed=3) == 0)

    def test_empirical_pmf_matches_analytic(self):
        lam = 0.5
        mech = NoiseMechanism(
            "symmetric", lam, lam, epsilon=-2 * math.log(lam), sensitivity=2
        )
        n = 1_000_000
        draws = sample_noise(mech, n, seed=14)
        for z in range(-2, 3):
            p = dlaplace_pmf(z, lam)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(draws == z) - p) <= 3 * se

    def test_skew_empirical_mean(self):
        mech = NoiseMechanism(
            "skew", 0.5, 0.25, epsilon=-2 * math.log(0.25), sensitivity=2
        )
        n = 1_000_000
        draws = sample_noise(mech, n, seed=15)
        mean, var, _ = skew_dlaplace_moments(0.5, 0.25)
        se = math.sqrt(var / n)
        assert abs(draws.mean() - mean) <= 3 * se

    def test_moment_consistency_random_lambdas(self):
        rng = np.random.default_rng(16)
        n = 1_000_000
        for lam in rng.uniform(0.2, 0.8, 5):
            mech = NoiseMechanism(
                "symmetric", lam, lam, epsilon=-2 * math.log(lam), sensitivity=2
            )
            draws = sample_noise(mech, n, seed=int(lam * 1e6))
            _, var, _ = dlaplace_moments(lam)
            kurt = oracles.dlaplace_moment_by_series(lam, 4)
            se_mean = math.sqrt(var / n)
            se_var = math.sqrt((kurt - var**2) / n)
            assert abs(draws.mean()) <= 3 * se_mean
            assert abs(draws.var() - var) <= 3 * se_var

    def test_deterministic(self):
        mech = calibrate(1.0)
        a = sample_noise(mech, 50, seed=8)
        b = sample_noise(mech, 50, seed=8)
        np.testing.assert_array_equal(a, b)


class TestReleaseDegrees:
    def test_negligible_noise_is_identity(self):
        mech = NoiseMechanism(
            "symmetric", 1e-9, 1e-9, epsilon=-2 * math.log(1e-9), sensitivity=2
        )
        d = np.array([5, 7, 3, 9])
        rel = release_degrees(d, mech, seed=1, q=3)
        np.testing.assert_array_equal(rel.d_bar, d)

    def test_definitional_consistency(self):
        mech = calibrate(2.0)
        d = np.array([5, 5, 5])
        rel = release_degrees(d, mech, seed=77, q=2)
        np.testing.assert_array_equal(rel.e, sample_noise(mech, 3, seed=77))
        np.testing.assert_array_equal(rel.d_bar, d + rel.e)

    def test_epsilon_one_provenance(self, zebra_path):
        from dpbeta.edgelist import parse_edge_list, prune_isolated

        graph = prune_isolated(parse_edge_list(zebra_path, q=3)).graph
        mech = calibrate(1.0, 2)
        rel = release_degrees(graph.degrees(), mech, seed=11, q=3)
        assert rel.mechanism.lam == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert rel.mechanism.epsilon == 1.0
        assert rel.seed == 11

    def test_json_omits_private_fields_by_default(self):
        mech = calibrate(1.0)
        rel = release_degrees([4, 4, 4], mech, seed=2, q=3)
        payload = json.loads(rel.to_json())
        assert set(payload) == {"n", "q", "epsilon", "lambda", "mu", "seed", "d_bar"}
        assert payload["n"] == 3 and payload["q"] == 3 and payload["seed"] == 2
        debug = json.loads(rel.to_json(debug=True))
        assert debug["d"] == [4, 4, 4]
        assert debug["d_bar"] == [d + e for d, e in zip(debug["d"], debug["e"])]

    def test_mismatched_vectors_rejected(self):
        mech = calibrate(1.0)
        with pytest.raises(ValueError):
            DegreeRelease(
                d=np.array([1, 2]),
                e=np.array([0, 0]),
                d_bar=np.array([1, 3]),
                mechanism=mech,
            )


class TestWorstCaseLogRatio:
    def test_symmetric_attains_epsilon(self):
        assert worst_case_log_ratio(calibrate(2.0), 30) == pytest.approx(
            2.0, abs=1e-10
        )
        assert worst_case_log_ratio(calibrate(1.0), 30) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_skew_with_equal_parameters_matches_symmetric(self):
        sym = calibrate(1.5)
        skew = calibrate(1.5, kind="skew", skew_ratio=1.0)
        assert worst_case_log_ratio(skew, 30) == pytest.approx(
            worst_case_log_ratio(sym, 30), abs=1e-12
        )

    def test_pointwise_ratio_never_exceeds_epsilon(self):
        # every unit degree-pair perturbation, every output in the window
        for eps in (0.7, 2.0):
            mech = calibrate(eps)
            ss = np.arange(-25, 26)
            logp = np.log(dlaplace_pmf(ss, mech.lam))
            for u1 in (-1, 0, 1):
                for u2 in (-1, 0, 1):
                    if abs(u1) + abs(u2) != 2:
                        continue
                    d1 = logp[5:-5] - np.log(dlaplace_pmf(ss[5:-5] - u1, mech.lam))
                    d2 = logp[5:-5] - np.log(dlaplace_pmf(ss[5:-5] - u2, mech.lam))
                    assert np.max(d1[:, None] + d2[None, :]) <= eps + 1e-12

    def test_window_precondition(self):
        with pytest.raises(ValueError):
            worst_case_log_ratio(calibrate(1.0), 2)

    def test_skew_bounded_by_epsilon(self):
        mech = calibrate(2.0, kind="skew", skew_ratio=2.0)
        value = worst_case_log_ratio(mech, 40)
        assert value <= 2.0 + 1e-12
