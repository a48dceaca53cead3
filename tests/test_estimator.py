import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from dpbeta.estimator import (
    contrast_ci,
    inverse_approximation,
    node_intervals,
    normal_quantile,
    residual,
    solve,
    standardized_contrast,
)
from dpbeta.mechanisms import calibrate, sample_noise
from dpbeta.model import degree_jacobian, expected_degrees, sample_graph
from dpbeta.experiments import truth_profile

import oracles


class TestResidual:
    def test_zero_at_symmetric_point_q2(self):
        n = 5  # odd n keeps (n-1)/2 integral
        d_bar = np.full(n, (n - 1) / 2)
        np.testing.assert_allclose(residual(np.zeros(n), d_bar, 2), 0.0, atol=1e-13)

    def test_zero_at_symmetric_point_q3(self):
        n = 6
        d_bar = np.full(n, n - 1.0)
        np.testing.assert_allclose(residual(np.zeros(n), d_bar, 3), 0.0, atol=1e-13)

    def test_definitional(self):
        rng = np.random.default_rng(21)
        alpha = rng.uniform(-1, 1, 8)
        d_bar = expected_degrees(alpha, 3)
        assert np.max(np.abs(residual(alpha, d_bar, 3))) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            residual(np.zeros(3), np.zeros(4), 2)


class TestSolve:
    def test_symmetric_point_n3_q2(self):
        fit = solve([1, 1, 1], 2)
        assert fit.converged
        np.testing.assert_allclose(fit.alpha_hat, 0.0, atol=1e-10)

    def test_symmetric_point_n4_q3(self):
        fit = solve([3, 3, 3, 3], 3)
        assert fit.converged
        np.testing.assert_allclose(fit.alpha_hat, 0.0, atol=1e-10)

    def test_seeded_noisy_instance_matches_bisection_oracle(self):
        n, q = 6, 3
        alpha_star = truth_profile(n, 0.3)
        graph = sample_graph(alpha_star, q, seed=101)
        noise = sample_noise(calibrate(2.0), n, seed=202)
        d_bar = graph.degrees() + noise
        fit = solve(d_bar, q)
        assert fit.converged
        oracle = oracles.gauss_seidel_bisect(d_bar, q)
        assert oracle is not None
        assert np.max(np.abs(fit.alpha_hat - oracle)) < 1e-8

    def test_root_property(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            q = int(rng.choice([2, 3, 4]))
            g = sample_graph(rng.uniform(-0.8, 0.8, n), q, rng)
            d = g.degrees()
            fit = solve(d, q)
            if fit.converged:
                assert np.max(np.abs(residual(fit.alpha_hat, d, q))) <= fit.tolerance
                assert np.all(fit.v_hat_diag > 0)

    def test_infeasible_low_degree(self):
        fit = solve([0, 1, 1], 2)
        assert fit.status == "nonexistent_infeasible_degree"
        assert fit.iterations == 0
        assert fit.alpha_hat is None
        assert fit.infeasible_nodes == [0]

    def test_infeasible_high_degree(self):
        # (n-1)(q-1) = 4 is already unattainable in expectation
        fit = solve([4, 2, 2], 3)
        assert fit.status == "nonexistent_infeasible_degree"
        assert fit.infeasible_nodes == [0]

    def test_negative_degree_infeasible(self):
        fit = solve([-1, 1, 1], 2)
        assert fit.status == "nonexistent_infeasible_degree"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_degree_is_rejected(self, bad):
        # NaN fails every range comparison, so without the check it would
        # slip through as "converged" with a NaN residual
        with pytest.raises(ValueError, match="finite"):
            solve([bad, 2, 2, 2, 2], 2)

    def test_genuinely_nonexistent_instance_diverges(self):
        # strictly feasible coordinates, but no root: the oracle's bracket
        # check agrees that no solution exists
        d_bar = np.array([1, 1, 1, 3, 3])
        fit = solve(d_bar, 2)
        assert fit.status == "nonexistent_diverged"
        assert oracles.gauss_seidel_bisect(d_bar, 2, max_sweeps=3000) is None

    def test_max_iter_exhaustion_reports_diverged(self):
        d_bar = np.array([8, 8, 8, 4, 8, 6])
        full = solve(d_bar, 3)
        assert full.converged and full.iterations > 1
        fit = solve(d_bar, 3, max_iter=1)
        assert fit.status == "nonexistent_diverged"
        assert fit.iterations == 1

    def test_permutation_equivariance(self):
        n, q = 7, 3
        g = sample_graph(np.linspace(-0.5, 0.5, n), q, seed=6)
        d = g.degrees()
        fit = solve(d, q)
        assert fit.converged
        rng = np.random.default_rng(24)
        perm = rng.permutation(n)
        fit_p = solve(d[perm], q)
        assert fit_p.converged
        np.testing.assert_allclose(fit_p.alpha_hat, fit.alpha_hat[perm], atol=1e-8)

    def test_json_round_trip_fields(self):
        fit = solve([1, 1, 1], 2)
        payload = fit.to_dict()
        assert payload["status"] == "converged"
        assert payload["n"] == 3 and payload["q"] == 2
        assert len(payload["alpha_hat"]) == 3
        assert len(payload["v_hat_diag"]) == 3
        assert payload["residual_inf"] <= payload["tolerance"]


@st.composite
def tied_integer_degrees(draw):
    """Integer d_bar taking at most three distinct values, all inside the
    attainable region, so a root exists.

    The region is the zonotope (q-1) D_n with facets
    sum_S x - sum_T x <= (q-1) |S| (n-1-|T|) over disjoint S, T (Stanley
    1991); every point within (q-1)(n-2)/4 of the centre (q-1)(n-1)/2 in
    each coordinate satisfies all of them strictly.
    """
    n = draw(st.integers(6, 9))
    q = draw(st.integers(2, 4))
    centre, half = (q - 1) * (n - 1) / 2, (q - 1) * (n - 2) / 4
    lo, hi = math.floor(centre - half) + 1, math.ceil(centre + half) - 1
    values = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3, unique=True))
    d = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    return np.array(d, dtype=float), q


@st.composite
def distinct_float_degrees(draw):
    """All-distinct real d_bar = E(d | alpha) for distinct alpha: the root
    is alpha itself."""
    n = draw(st.integers(3, 7))
    q = draw(st.integers(2, 4))
    cents = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n, unique=True))
    alpha = np.array(cents) / 100.0
    return oracles.expected_degrees_by_summation(alpha, q), q


class TestDegreeClasses:
    """``solve`` works on the distinct noisy degrees, one parameter each."""

    @pytest.mark.parametrize("n, q, d", [(7, 2, 2.0), (6, 3, 3.0), (5, 3, 6.5)])
    def test_all_equal_degrees_match_closed_form(self, n, q, d):
        # one class: (n-1) mean_weight(2 beta) = d, a polynomial in
        # x = exp(2 beta); for q = 2 it is linear, for q = 3 quadratic
        m = d / (n - 1)
        if q == 2:
            x = m / (1 - m)
        else:
            x = ((m - 1) + math.sqrt((1 - m) ** 2 + 4 * (2 - m) * m)) / (2 * (2 - m))
        beta = math.log(x) / 2
        p = oracles.pmf_by_enumeration(2 * beta, q)
        k = np.arange(q)
        var = (n - 1) * float((k - k @ p) ** 2 @ p)
        fit = solve(np.full(n, d), q)
        assert fit.converged
        np.testing.assert_allclose(fit.alpha_hat, beta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit.v_hat_diag, var, rtol=1e-12)

    @settings(max_examples=40)
    @given(st.one_of(tied_integer_degrees(), distinct_float_degrees()))
    def test_fit_matches_bisection_and_ties_share_estimates(self, case):
        d_bar, q = case
        fit = solve(d_bar, q)
        assert fit.converged
        oracle = oracles.gauss_seidel_bisect(d_bar, q)
        assert oracle is not None
        assert np.max(np.abs(fit.alpha_hat - oracle)) < 1e-8
        for value in np.unique(d_bar):
            tied = d_bar == value
            assert np.all(fit.alpha_hat[tied] == fit.alpha_hat[tied][0])
            assert np.all(fit.v_hat_diag[tied] == fit.v_hat_diag[tied][0])


class TestNormalQuantile:
    def test_against_scipy(self):
        ps = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-6, 0.001, 0.02425, 0.5, 0.975]),
                np.linspace(0.01, 0.99, 37),
            ]
        )
        for p in ps:
            assert normal_quantile(float(p)) == pytest.approx(
                norm.ppf(p), abs=1e-8
            )

    def test_rejects_boundary(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(p)


class TestIntervals:
    @pytest.fixture()
    def fit(self):
        g = sample_graph(np.linspace(-0.4, 0.4, 8), 3, seed=30)
        out = solve(g.degrees(), 3)
        assert out.converged
        return out

    def test_contrast_half_width_formula(self, fit):
        fit.v_hat_diag = np.full(fit.n, 4.0)
        ci = contrast_ci(fit, 0, 1, 0.95)
        # (1/4 + 1/4)^(1/2) = sqrt(1/2)
        assert ci.half_width == pytest.approx(
            1.959964 * math.sqrt(0.5), abs=1e-5
        )
        assert ci.lo < ci.point < ci.hi
        assert ci.half_width > 0
        assert (ci.i, ci.j) == (0, 1)

    def test_single_matches_limit_of_contrast(self, fit):
        v = fit.v_hat_diag.copy()
        fit.v_hat_diag = v.copy()
        fit.v_hat_diag[0] = 1e12  # v_ii -> infinity: contrast SE -> 1/sqrt(v_jj)
        ci = contrast_ci(fit, 0, 1, 0.95)
        expected = normal_quantile(0.975) / math.sqrt(fit.v_hat_diag[1])
        assert ci.half_width == pytest.approx(expected, rel=1e-5)
        fit.v_hat_diag = v

    def test_node_intervals_formula(self, fit):
        se, half = node_intervals(fit, 0.95)
        assert se.shape == half.shape == (fit.n,)
        for i in range(fit.n):
            assert se[i] == pytest.approx(1 / math.sqrt(fit.v_hat_diag[i]), rel=1e-15)
            assert half[i] == pytest.approx(normal_quantile(0.975) * se[i], rel=1e-15)
        with pytest.raises(ValueError):
            node_intervals(fit, 1.0)

    def test_non_converged_fit_is_usage_error(self):
        bad = solve([0, 1, 1], 2)
        with pytest.raises(ValueError):
            contrast_ci(bad, 0, 1)
        with pytest.raises(ValueError):
            node_intervals(bad)
        with pytest.raises(ValueError):
            standardized_contrast(bad, 0, 1, np.zeros(3))


class TestStandardizedContrast:
    def test_zero_when_estimate_matches_truth(self):
        g = sample_graph(np.zeros(6), 3, seed=31)
        fit = solve(g.degrees(), 3)
        assert fit.converged
        assert standardized_contrast(fit, 0, 1, fit.alpha_hat) == 0.0

    def test_known_value(self):
        g = sample_graph(np.zeros(6), 3, seed=31)
        fit = solve(g.degrees(), 3)
        assert fit.converged
        fit.v_hat_diag = np.full(6, 8.0)
        truth = fit.alpha_hat.copy()
        truth[0] -= 0.1  # makes the numerator exactly 0.1
        # denominator sqrt(1/8 + 1/8) = 1/2
        assert standardized_contrast(fit, 0, 1, truth) == pytest.approx(0.2, abs=1e-12)


class TestInverseApproximation:
    def test_s_diagonal_at_zero_alpha(self):
        n = 50
        rep = inverse_approximation(np.zeros(n), 2)
        np.testing.assert_allclose(rep.s_diag, 4 / (n - 1), atol=1e-12)

    @pytest.mark.parametrize("q,v_off", [(2, 0.25), (3, 2 / 3)])
    def test_gap_closed_form_and_scaling(self, q, v_off):
        # at alpha = 0 the Jacobian is v_off((n-2) I + ones), whose inverse is
        # known in closed form; the max-entry gap to diag(1/v_ii) is
        # 1 / (v_off (n-2) (2n-2)).
        gaps = {}
        for n in (50, 100):
            rep = inverse_approximation(np.zeros(n), q)
            closed = 1.0 / (v_off * (n - 2) * (2 * n - 2))
            assert rep.max_entry_gap == pytest.approx(closed, rel=1e-6)
            gaps[n] = rep.max_entry_gap
        ratio = gaps[50] / gaps[100]
        assert 3.0 <= ratio <= 5.5

    def test_inf_norm_within_theory_window(self):
        n = 100
        rep = inverse_approximation(np.zeros(n), 3)
        # bound c (1 + e^0)^3 / (n-1) with a small constant
        assert rep.inv_inf_norm <= 3.0 * 8.0 / (n - 1)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            inverse_approximation(np.zeros(10), 2, max_n=5)
