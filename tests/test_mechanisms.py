import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dpbeta.mechanisms import (
    CalibrationError,
    DegreeRelease,
    NoiseMechanism,
    calibrate,
    _log_pmf,
    dlaplace_moments,
    release_degrees,
    sample_noise,
    worst_case_log_ratio,
)

import oracles


class TestCalibrate:
    def test_symmetric_formula(self):
        assert calibrate(2.0, 2).lam == pytest.approx(math.exp(-1), abs=1e-15)
        assert calibrate(1.0, 2).lam == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_symmetric_has_equal_parameters(self):
        m = calibrate(2.0)
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

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_skew_ratio_with_symmetric_kind_fails(self, ratio):
        # not ignored: symmetric noise released under an asked-for ratio
        # would not be the mechanism the caller named
        with pytest.raises(CalibrationError, match="skew_ratio"):
            calibrate(2.0, 2, kind="symmetric", skew_ratio=ratio)

    @pytest.mark.parametrize("ratio", [math.nan, True, np.True_])
    def test_skew_ratio_nan_or_bool_fails(self, ratio):
        # NaN passes no comparison and a bool would calibrate as ratio 1:
        # both are named as skew_ratio, not as lam and mu out of range
        with pytest.raises(CalibrationError, match="skew_ratio") as info:
            calibrate(2.0, 2, kind="skew", skew_ratio=ratio)
        assert repr(ratio) in str(info.value)

    @pytest.mark.parametrize("eps", [0.01, 1.0, 2.0, 7.3, 40.0])
    def test_symmetric_is_skew_ratio_one(self, eps):
        # one formula: base * 1.0 is base, so lam and mu keep their bits
        assert calibrate(eps) == calibrate(eps, kind="skew", skew_ratio=1.0)

    @pytest.mark.parametrize("ratio", [[2], "two", None, object()])
    def test_non_numeric_skew_ratio_fails(self, ratio):
        # a CalibrationError naming skew_ratio, not a bare TypeError
        with pytest.raises(CalibrationError, match="skew_ratio"):
            calibrate(2.0, 2, kind="skew", skew_ratio=ratio)

    @pytest.mark.parametrize("eps", [None, [2], "two"])
    def test_non_numeric_epsilon_fails(self, eps):
        with pytest.raises(CalibrationError, match="^epsilon must be a number, got "):
            calibrate(eps)

    def test_numeric_strings_are_read_as_numbers(self):
        # epsilon and skew_ratio go through one reader
        assert calibrate("2") == calibrate(2.0)
        assert calibrate(2.0, kind="skew", skew_ratio="0.5") == calibrate(
            2.0, kind="skew", skew_ratio=0.5
        )

    def test_skew_ratio_pushing_param_past_one_fails(self):
        with pytest.raises(CalibrationError):
            calibrate(0.1, 2, kind="skew", skew_ratio=10.0)

    def test_bad_epsilon(self):
        with pytest.raises(CalibrationError):
            calibrate(0.0)
        with pytest.raises(CalibrationError):
            calibrate(-1.0)
        for flag in (True, np.True_):  # not calibrated as epsilon = 1
            with pytest.raises(CalibrationError, match="epsilon must be a number"):
                calibrate(flag)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 1e4])
    def test_non_finite_or_underflowing_epsilon(self, eps):
        # named up front, not as lam = exp(-eps/2) falling outside (0, 1)
        with pytest.raises(CalibrationError, match="epsilon"):
            calibrate(eps)

    @pytest.mark.parametrize("eps", [1e-17, 1e-300, 5e-324])
    @pytest.mark.parametrize(
        "kind, ratio", [("symmetric", None), ("skew", 0.5)], ids=["symmetric", "skew"]
    )
    def test_epsilon_rounding_base_to_one(self, eps, kind, ratio):
        # exp(-eps/2) rounds to 1: the error names epsilon, not lam, mu or
        # skew_ratio, which the caller never gave
        with pytest.raises(CalibrationError, match=f"^epsilon={eps} "):
            calibrate(eps, kind=kind, skew_ratio=ratio)

    @pytest.mark.parametrize("sensitivity", [2.7, True, "2"])
    def test_sensitivity_is_not_truncated(self, sensitivity):
        # 2.7 must not calibrate with 2, which is less noise than asked for
        with pytest.raises(ValueError, match="sensitivity must be an integer >= 1"):
            calibrate(2.0, sensitivity=sensitivity)
        with pytest.raises(ValueError, match="sensitivity must be an integer >= 1"):
            NoiseMechanism(0.5, 0.5, 1.0, sensitivity=sensitivity)

    def test_mechanism_invariant_enforced(self):
        with pytest.raises(ValueError):
            NoiseMechanism(0.5, 0.5, epsilon=1.0, sensitivity=2)
        with pytest.raises(ValueError, match="mu must lie strictly in"):
            NoiseMechanism(0.5, 1.0, epsilon=-2 * math.log(0.5), sensitivity=2)
        # consistent records pass; epsilon follows the smaller parameter
        NoiseMechanism(0.5, 0.5, epsilon=-2 * math.log(0.5), sensitivity=2)
        NoiseMechanism(0.5, 0.25, epsilon=-2 * math.log(0.25), sensitivity=2)


class TestDlaplacePmf:
    """The log-pmf that ``worst_case_log_ratio`` scans."""

    def test_values(self):
        for z, want in ((0, 1 / 3), (2, 1 / 12), (-2, 1 / 12)):
            assert np.exp(_log_pmf(z, 0.5, 0.5)) == pytest.approx(want, abs=1e-15)

    def test_symmetry_exact(self):
        z = np.arange(0, 40)
        np.testing.assert_array_equal(
            _log_pmf(z, 0.77, 0.77), _log_pmf(-z, 0.77, 0.77)
        )

    def test_truncated_sum_reaches_one(self):
        z = np.arange(-60, 61)
        assert abs(np.exp(_log_pmf(z, 0.5, 0.5)).sum() - 1.0) <= 1e-12


class TestDlaplaceMoments:
    def test_rejects_bad_lambda(self):
        for lam in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="^lam must lie strictly in"):
                dlaplace_moments(lam, lam)

    def test_half(self):
        mean, var, mean_abs = dlaplace_moments(0.5, 0.5)
        assert mean == 0.0
        assert var == pytest.approx(4.0, abs=1e-14)
        assert mean_abs == pytest.approx(4 / 3, abs=1e-14)

    def test_exp_minus_one_against_series(self):
        lam = math.exp(-1)
        _, var, mean_abs = dlaplace_moments(lam, lam)
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
            _, var, mean_abs = dlaplace_moments(lam, lam)
            assert var == pytest.approx(
                oracles.dlaplace_moment_by_series(lam, 2), rel=1e-10
            )
            assert mean_abs == pytest.approx(
                oracles.dlaplace_moment_by_series(lam, 1), rel=1e-10
            )


    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.5, math.exp(-1), 0.9, 1 - 1e-7])
    def test_equal_parameters_collapse_exactly(self, lam):
        mean, var, _ = dlaplace_moments(lam, lam)
        assert mean == 0.0
        assert var == 2 * lam / (1 - lam) ** 2

    @pytest.mark.parametrize("eps", [2.0, 0.5, 1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("side", ["equal", "half", "third"])
    def test_moments_against_rationals(self, eps, side):
        # exact values from the pmf's geometric series, in rational
        # arithmetic on the float parameters: sum_{z>=1} z x^z = x/(1-x)^2
        # and sum_{z>=1} z^2 x^z = x(1+x)/(1-x)^3
        lam = math.exp(-eps / 2)
        mu = {"equal": lam, "half": lam / 2, "third": math.exp(-eps / 3)}[side]
        x, y = Fraction(lam), Fraction(mu)
        norm = (1 - x) * (1 - y) / (1 - x * y)
        s1 = [t / (1 - t) ** 2 for t in (x, y)]
        s2 = [t * (1 + t) / (1 - t) ** 3 for t in (x, y)]
        m1 = norm * (s1[0] - s1[1])
        exact = (m1, norm * (s2[0] + s2[1]) - m1**2, norm * (s1[0] + s1[1]))
        for value, want in zip(dlaplace_moments(lam, mu), exact):
            if want == 0:
                assert value == 0.0
            else:
                assert abs(Fraction(value) / want - 1) <= 1e-15


class TestDlaplaceTail:
    def test_max_tail_against_monte_carlo(self):
        lam = math.exp(-1)
        mech = calibrate(2.0)
        trials, per = 10_000, 100
        rng = np.random.default_rng(12)
        draws = np.abs(sample_noise(mech, trials * per, rng)).reshape(trials, per)
        hit = float(np.mean(draws.max(axis=1) > 3))
        p = oracles.dlaplace_max_tail(3, lam, per)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hit - p) <= 3 * se


class TestSkewDlaplace:
    def test_mean_formula(self):
        mean, _, _ = dlaplace_moments(0.5, 0.25)
        assert mean == pytest.approx(0.5 / 0.5 - 0.25 / 0.75, abs=1e-14)
        assert mean == pytest.approx(2 / 3, abs=1e-14)

    def test_moments_against_series(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            lam, mu = rng.uniform(0.05, 0.9, 2)
            mean, var, mean_abs = dlaplace_moments(lam, mu)
            m1 = oracles.skew_dlaplace_moment_by_series(lam, mu, 1, absolute=False)
            m2 = oracles.skew_dlaplace_moment_by_series(lam, mu, 2, absolute=False)
            a1 = oracles.skew_dlaplace_moment_by_series(lam, mu, 1, absolute=True)
            assert mean == pytest.approx(m1, abs=1e-10)
            assert var == pytest.approx(m2 - m1**2, rel=1e-9)
            assert mean_abs == pytest.approx(a1, abs=1e-10)

    def test_tail_value(self):
        # P(|Z| > 0) = 1 - P(0) = 1 - (1 - lam)(1 - mu) / (1 - lam mu)
        off_zero = 1 - np.exp(_log_pmf(0, 0.5, 0.25))
        assert off_zero == pytest.approx(4 / 7, abs=1e-14)

    def test_pmf_sums_to_one(self):
        z = np.arange(-200, 201)
        total = np.exp(_log_pmf(z, 0.6, 0.3)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSampleNoise:
    def test_tiny_lambda_gives_zeros(self):
        mech = NoiseMechanism(1e-9, 1e-9, epsilon=-2 * math.log(1e-9), sensitivity=2)
        assert np.all(sample_noise(mech, 100, seed=3) == 0)

    def test_empirical_pmf_matches_analytic(self):
        lam = 0.5
        mech = NoiseMechanism(lam, lam, epsilon=-2 * math.log(lam), sensitivity=2)
        n = 1_000_000
        draws = sample_noise(mech, n, seed=14)
        for z in range(-2, 3):
            p = oracles.dlaplace_pmf_closed_form(z, lam)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(draws == z) - p) <= 3 * se

    def test_skew_empirical_mean(self):
        mech = NoiseMechanism(0.5, 0.25, epsilon=-2 * math.log(0.25), sensitivity=2)
        n = 1_000_000
        draws = sample_noise(mech, n, seed=15)
        mean, var, _ = dlaplace_moments(0.5, 0.25)
        se = math.sqrt(var / n)
        assert abs(draws.mean() - mean) <= 3 * se

    def test_moment_consistency_random_lambdas(self):
        rng = np.random.default_rng(16)
        n = 1_000_000
        for lam in rng.uniform(0.2, 0.8, 5):
            mech = NoiseMechanism(lam, lam, epsilon=-2 * math.log(lam), sensitivity=2)
            draws = sample_noise(mech, n, seed=int(lam * 1e6))
            _, var, _ = dlaplace_moments(lam, lam)
            kurt = oracles.dlaplace_moment_by_series(lam, 4)
            se_mean = math.sqrt(var / n)
            se_var = math.sqrt((kurt - var**2) / n)
            assert abs(draws.mean()) <= 3 * se_mean
            assert abs(draws.var() - var) <= 3 * se_var

    @pytest.mark.parametrize("size", [2.5, True, None, "3", -1])
    def test_bad_size_is_rejected(self, size):
        with pytest.raises(ValueError, match="^size must be an integer >= 0, got "):
            sample_noise(calibrate(1.0), size, seed=8)

    def test_deterministic(self):
        mech = calibrate(1.0)
        a = sample_noise(mech, 50, seed=8)
        b = sample_noise(mech, 50, seed=8)
        np.testing.assert_array_equal(a, b)


class TestReleaseDegrees:
    def test_negligible_noise_is_identity(self):
        mech = NoiseMechanism(1e-9, 1e-9, epsilon=-2 * math.log(1e-9), sensitivity=2)
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

    @pytest.mark.parametrize("seed", [11, np.int64(11), np.uint8(11), np.int32(11)])
    def test_integer_seed_is_recorded_as_int(self, seed):
        # a NumPy integer draws the noise of the same int, and is recorded
        rel = release_degrees([3, 4, 5], calibrate(1.0), seed=seed)
        np.testing.assert_array_equal(rel.e, sample_noise(calibrate(1.0), 3, seed=11))
        assert type(rel.seed) is int and rel.seed == 11
        assert json.loads(rel.to_json())["seed"] == 11

    def test_other_seeds_are_not_recorded(self):
        for seed in (None, np.random.default_rng(3), np.random.SeedSequence(3)):
            assert release_degrees([3, 4, 5], calibrate(1.0), seed=seed).seed is None

    @pytest.mark.parametrize("seed", [True, False, np.bool_(True)])
    def test_bool_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must not be a bool"):
            release_degrees([3, 4, 5], calibrate(1.0), seed=seed)

    @pytest.mark.parametrize("q", [3, np.int64(3), np.uint8(3), 3.0])
    def test_integer_q_is_recorded_as_int(self, q):
        rel = release_degrees([3, 4, 5], calibrate(1.0), seed=1, q=q)
        assert type(rel.q) is int and rel.q == 3
        assert json.loads(rel.to_json())["q"] == 3
        assert release_degrees([3, 4, 5], calibrate(1.0), seed=1).q is None

    @pytest.mark.parametrize("q", [2.5, "abc", "3", 1, True, np.bool_(True), 65537])
    def test_bad_q_rejected(self, q):
        # rejected, not written into the release for a fit to misread
        with pytest.raises(ValueError, match="^q must be "):
            release_degrees([3, 4, 5], calibrate(1.0), seed=1, q=q)

    @pytest.mark.parametrize("d", [[1.5, 2.7, 3.9], [1, np.nan, 2], [1, np.inf, 2]])
    def test_non_integral_degrees_rejected(self, d):
        # rejected, not truncated: [1.5, 2.7, 3.9] must not be released as [1, 2, 3]
        with pytest.raises(ValueError, match="^d must hold integers"):
            release_degrees(d, calibrate(30.0), seed=1)

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["d", "e"])
    def test_non_integral_release_field_rejected(self, name, bad):
        vectors = {"d": [3.0, 4.0], "e": [0.0, 1.0]}
        vectors[name][0] = bad
        with pytest.raises(ValueError, match=f"^{name} must hold integers"):
            DegreeRelease(**vectors, mechanism=calibrate(1.0))

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ValueError, match="^d and e must have equal length"):
            DegreeRelease(d=np.array([1, 2]), e=np.array([0]), mechanism=calibrate(1.0))

    def test_d_bar_is_derived(self):
        rel = DegreeRelease(d=[3, 4], e=[-5, 1], mechanism=calibrate(1.0))
        assert rel.d_bar.tolist() == [-2, 5] and rel.n == 2
        rel.e = np.array([0, 0])  # nothing stored can go stale
        assert rel.d_bar.tolist() == [3, 4]


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
            lam = mech.lam
            pmf = oracles.dlaplace_pmf_closed_form
            logp = np.log(pmf(ss, lam))
            for u1 in (-1, 0, 1):
                for u2 in (-1, 0, 1):
                    if abs(u1) + abs(u2) != 2:
                        continue
                    d1 = logp[5:-5] - np.log(pmf(ss[5:-5] - u1, lam))
                    d2 = logp[5:-5] - np.log(pmf(ss[5:-5] - u2, lam))
                    assert np.max(d1[:, None] + d2[None, :]) <= eps + 1e-12

    def test_window_precondition(self):
        with pytest.raises(ValueError, match=r"window must be >= sensitivity \+ 1"):
            worst_case_log_ratio(calibrate(1.0), 2)

    def test_non_integral_window_rejected(self):
        # rejected, not truncated: a window of 3.7 must not run as 3
        with pytest.raises(ValueError, match="window must be an integer, got 3.7"):
            worst_case_log_ratio(calibrate(1.0), window=3.7)

    @pytest.mark.parametrize("sensitivity", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_matches_scan_over_every_shift_pair(self, sensitivity, ratio):
        # every shift pair of l1 norm 1..delta and every output pair in the
        # window, by loops: with the package's log-pmf the same subtractions
        # and maxima give the same bits; with the oracle's pmf, the same value
        mech = calibrate(3.0, sensitivity, kind="skew", skew_ratio=ratio)
        window = 8
        s = np.arange(-window, window + 1)

        def scan(logp):
            best = -math.inf
            for u1 in range(-sensitivity, sensitivity + 1):
                for u2 in range(-sensitivity, sensitivity + 1):
                    if 0 < abs(u1) + abs(u2) <= sensitivity:
                        g1 = logp(s) - logp(s - u1)
                        g2 = logp(s) - logp(s - u2)
                        best = max(best, float(np.max(g1[:, None] + g2[None, :])))
            return best

        value = worst_case_log_ratio(mech, window)
        assert value == scan(lambda z: _log_pmf(z, mech.lam, mech.mu))
        oracle = scan(lambda z: np.log(oracles.skew_dlaplace_pmf(z, mech.lam, mech.mu)))
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_skew_bounded_by_epsilon(self):
        mech = calibrate(2.0, kind="skew", skew_ratio=2.0)
        value = worst_case_log_ratio(mech, 40)
        assert value <= 2.0 + 1e-12

    @pytest.mark.parametrize("sensitivity, window, ratio, value", [
        (1, 2, None, "0x1.4cccccccccccep+0"),
        (1, 2, 0.9, "0x1.4cccccccccccep+0"),
        (1, 2, 1.1, "0x1.4ccccccccccd0p+0"),
        (1, 7, None, "0x1.4ccccccccccd4p+0"),
        (1, 7, 0.9, "0x1.4ccccccccccd0p+0"),
        (1, 7, 1.1, "0x1.4ccccccccccd0p+0"),
        (1, 30, None, "0x1.4cccccccccce0p+0"),
        (1, 30, 0.9, "0x1.4cccccccccce0p+0"),
        (1, 30, 1.1, "0x1.4cccccccccce0p+0"),
        (2, 3, None, "0x1.4ccccccccccd0p+0"),
        (2, 3, 0.9, "0x1.4ccccccccccd0p+0"),
        (2, 3, 1.1, "0x1.4ccccccccccd0p+0"),
        (2, 7, None, "0x1.4ccccccccccd0p+0"),
        (2, 7, 0.9, "0x1.4ccccccccccd0p+0"),
        (2, 7, 1.1, "0x1.4ccccccccccd0p+0"),
        (2, 30, None, "0x1.4cccccccccce0p+0"),
        (2, 30, 0.9, "0x1.4cccccccccd00p+0"),
        (2, 30, 1.1, "0x1.4cccccccccce0p+0"),
        (3, 4, None, "0x1.4cccccccccccfp+0"),
        (3, 4, 0.9, "0x1.4ccccccccccd0p+0"),
        (3, 4, 1.1, "0x1.4ccccccccccd0p+0"),
        (3, 7, None, "0x1.4ccccccccccd0p+0"),
        (3, 7, 0.9, "0x1.4ccccccccccd0p+0"),
        (3, 7, 1.1, "0x1.4ccccccccccd0p+0"),
        (3, 30, None, "0x1.4ccccccccccd0p+0"),
        (3, 30, 0.9, "0x1.4ccccccccccd0p+0"),
        (3, 30, 1.1, "0x1.4ccccccccccd0p+0"),
        (5, 6, None, "0x1.4ccccccccccd0p+0"),
        (5, 6, 0.9, "0x1.4ccccccccccd2p+0"),
        (5, 6, 1.1, "0x1.4ccccccccccd0p+0"),
        (5, 7, None, "0x1.4ccccccccccd0p+0"),
        (5, 7, 0.9, "0x1.4ccccccccccd4p+0"),
        (5, 7, 1.1, "0x1.4ccccccccccd2p+0"),
        (5, 30, None, "0x1.4ccccccccccd8p+0"),
        (5, 30, 0.9, "0x1.4ccccccccccd8p+0"),
        (5, 30, 1.1, "0x1.4ccccccccccd8p+0"),
    ])
    def test_recorded_values(self, sensitivity, window, ratio, value):
        # bits recorded from the scan over every shift pair at once, at
        # epsilon = 1.3, symmetric (ratio None) and skew
        if ratio is None:
            mech = calibrate(1.3, sensitivity)
        else:
            mech = calibrate(1.3, sensitivity, kind="skew", skew_ratio=ratio)
        assert worst_case_log_ratio(mech, window).hex() == value

    def test_memory_is_linear_in_the_window(self):
        # at sensitivity 500 a scan of every shift pair at once held 21 MB
        mech = calibrate(2.0, 500)
        tracemalloc.start()
        try:
            value = worst_case_log_ratio(mech, 501)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(2.0, abs=1e-10)
        assert peak < 2**20
