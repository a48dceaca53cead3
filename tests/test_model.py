import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from dpbeta.experiments import truth_profile
from dpbeta.model import (
    WeightedGraph,
    _shifted_exponentials,
    degree_jacobian,
    degree_variances,
    expected_degrees,
    sample_graph,
)

import oracles
from conftest import dense


def edge_weight_pmf(s: float, q: int) -> np.ndarray:
    """P(a = k), k < q, at pair sum s, from the model's one kernel."""
    t, den = _shifted_exponentials(s, q)
    return t / den


def mean_weight(s: float, q: int) -> float:
    """E(a) at pair sum s: the expected degree in a graph of two nodes."""
    return float(expected_degrees([s / 2, s / 2], q)[0])


class TestEdgeWeightPmf:
    def test_uniform_at_zero_q2(self):
        np.testing.assert_allclose(edge_weight_pmf(0.0, 2), [0.5, 0.5], atol=1e-15)

    def test_uniform_at_zero_q3(self):
        np.testing.assert_allclose(edge_weight_pmf(0.0, 3), [1 / 3] * 3, atol=1e-15)

    def test_log2_q2(self):
        np.testing.assert_allclose(
            edge_weight_pmf(math.log(2), 2), [1 / 3, 2 / 3], atol=1e-15
        )

    def test_normalization_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = rng.uniform(-30, 30)
            q = int(rng.integers(2, 7))
            assert abs(edge_weight_pmf(s, q).sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("s", [800.0, -800.0])
    def test_extreme_s_is_stable(self, s):
        p = edge_weight_pmf(s, 4)
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.uniform(-5, 5)
            q = int(rng.integers(2, 6))
            np.testing.assert_allclose(
                edge_weight_pmf(s, q), oracles.pmf_by_enumeration(s, q), atol=1e-13
            )

    def test_rejects_bad_input(self):
        # the kernel trusts its callers; the public moment functions check
        with pytest.raises(ValueError):
            mean_weight(math.nan, 2)
        with pytest.raises(ValueError):
            mean_weight(math.inf, 3)
        with pytest.raises(ValueError):
            mean_weight(0.0, 1)


class TestMeanWeight:
    def test_trivial_values(self):
        assert mean_weight(0.0, 2) == pytest.approx(0.5, abs=1e-15)
        assert mean_weight(0.0, 3) == pytest.approx(1.0, abs=1e-15)
        assert mean_weight(math.log(2), 2) == pytest.approx(2 / 3, abs=1e-15)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(2)
        for q in (2, 3, 5):
            grid = np.sort(rng.uniform(-8, 8, 40))
            vals = [mean_weight(s, q) for s in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for q in (2, 3, 4):
            assert 0.0 < mean_weight(-30.0, q)
            assert mean_weight(30.0, q) <= q - 1
            # pair sums far past exp's range: mean and variance stay finite
            for s in (-800.0, 800.0):
                assert 0.0 <= mean_weight(s, q) <= q - 1
                var = degree_variances([s / 2, s / 2], q)[0]
                assert np.isfinite(var) and var >= 0.0


class TestSampleGraph:
    def test_mean_degree_near_half(self):
        n = 100
        g = sample_graph(np.zeros(n), 2, seed=5)
        mean_deg = g.degrees().mean()
        assert abs(mean_deg - (n - 1) / 2) <= 4 * math.sqrt(n / 4) / math.sqrt(n)

    def test_very_negative_alpha_gives_empty_graph(self):
        g = sample_graph(-20.0 * np.ones(30), 3, seed=0)
        assert g.w.size == 0

    def test_uniform_histogram_q3(self):
        n = 50
        g = sample_graph(np.zeros(n), 3, seed=1)
        iu = np.triu_indices(n, 1)
        w = dense(g)[iu]
        npairs = w.size
        se = math.sqrt((1 / 3) * (2 / 3) / npairs)
        for a in range(3):
            assert abs(np.mean(w == a) - 1 / 3) <= 3 * se

    def test_structure_and_determinism(self):
        g1 = sample_graph(np.linspace(-1, 1, 9), 4, seed=33)
        g2 = sample_graph(np.linspace(-1, 1, 9), 4, seed=33)
        w1 = dense(g1)
        assert np.array_equal(w1, dense(g2))
        assert np.array_equal(w1, w1.T)
        assert np.all(np.diagonal(w1) == 0)
        assert w1.min() >= 0 and w1.max() <= 3

    def test_chi_square_goodness_of_fit(self):
        # 1e5 draws per (s, q) case; graph of 448 nodes has >= 1e5 pairs
        rng = np.random.default_rng(4)
        n = 448
        for trial in range(10):
            s = float(rng.uniform(-2, 2))
            q = int(rng.integers(2, 5))
            g = sample_graph(np.full(n, s / 2), q, seed=100 + trial)
            w = dense(g)[np.triu_indices(n, 1)]
            counts = np.bincount(w, minlength=q)
            expected = oracles.pmf_by_enumeration(s, q) * w.size
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < stats.chi2.ppf(0.999, q - 1)

    @pytest.mark.parametrize(
        "q, digest",
        [(2, "0c596f8d79d08e0b"), (3, "9dc9d1211d9c186f"), (5, "31cc5032eba99b9c")],
    )
    def test_draws_are_pinned(self, q, digest):
        # the sampled weights of a fixed seed never change: one uniform per
        # pair in row-major order, compared against a recorded stream
        alpha = truth_profile(60, math.sqrt(math.log(60)))
        w = dense(sample_graph(alpha, q, seed=2002))
        assert hashlib.sha256(w.astype("<i8").tobytes()).hexdigest()[:16] == digest


class TestExpectedDegrees:
    def test_zero_alpha(self):
        n = 7
        np.testing.assert_allclose(
            expected_degrees(np.zeros(n), 2), np.full(n, (n - 1) / 2), atol=1e-12
        )
        np.testing.assert_allclose(
            expected_degrees(np.zeros(n), 3), np.full(n, n - 1.0), atol=1e-12
        )

    def test_matches_pairwise_summation(self):
        alpha = np.array([0.2, -0.1, 0.4])
        np.testing.assert_allclose(
            expected_degrees(alpha, 3),
            oracles.expected_degrees_by_summation(alpha, 3),
            atol=1e-12,
        )

    def test_random_against_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            q = int(rng.integers(2, 5))
            alpha = rng.uniform(-2, 2, n)
            np.testing.assert_allclose(
                expected_degrees(alpha, q),
                oracles.expected_degrees_by_summation(alpha, q),
                atol=1e-11,
            )


class TestDegreeJacobian:
    def test_zero_alpha_q2(self):
        n = 6
        v = degree_jacobian(np.zeros(n), 2)
        off = v[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, 0.25, atol=1e-14)
        np.testing.assert_allclose(np.diagonal(v), (n - 1) / 4, atol=1e-13)

    def test_zero_alpha_q3(self):
        n = 5
        v = degree_jacobian(np.zeros(n), 3)
        expected_off = oracles.weight_variance_by_enumeration(0.0, 3)
        assert expected_off == pytest.approx(2 / 3, abs=1e-14)
        off = v[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, expected_off, atol=1e-13)
        np.testing.assert_allclose(np.diagonal(v), 2 * (n - 1) / 3, atol=1e-12)

    def test_offdiagonal_equals_weight_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            q = int(rng.integers(2, 6))
            alpha = rng.uniform(-2, 2, n)
            v = degree_jacobian(alpha, q)
            for i in range(n):
                for j in range(i + 1, n):
                    var = oracles.weight_variance_by_enumeration(
                        alpha[i] + alpha[j], q
                    )
                    assert v[i, j] == pytest.approx(var, abs=1e-12)
        # pair sums 0, +-20 and +-40: saturated variances are tiny (down to
        # ~1e-17) but keep full relative accuracy instead of cancelling to 0
        alpha = np.array([-20.0, 0.0, 20.0, -20.0, 20.0])
        for q in (2, 3, 4, 5):
            v = degree_jacobian(alpha, q)
            for i in range(5):
                for j in range(i + 1, 5):
                    var = oracles.weight_variance_by_enumeration(
                        alpha[i] + alpha[j], q
                    )
                    assert v[i, j] == pytest.approx(var, rel=1e-12, abs=0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(4, 10))
            q = int(rng.integers(2, 5))
            alpha = rng.uniform(-1.5, 1.5, n)
            v = degree_jacobian(alpha, q)
            fd = oracles.jacobian_by_finite_differences(alpha, q)
            assert np.max(np.abs(v - fd)) / np.max(np.abs(v)) < 1e-6

    def test_structure_and_class_membership(self):
        rng = np.random.default_rng(9)
        q_bound = 1.5
        for _ in range(10):
            n = int(rng.integers(3, 10))
            q = int(rng.integers(2, 5))
            alpha = rng.uniform(-q_bound / 2, q_bound / 2, n)
            assert np.all(np.abs(alpha[:, None] + alpha[None, :]) <= q_bound)
            v = degree_jacobian(alpha, q)
            assert np.array_equal(v, v.T)
            off = v.copy()
            np.fill_diagonal(off, 0.0)
            # row-sum identity is exact: the diagonal is assigned from row sums
            np.testing.assert_array_equal(np.diagonal(v), off.sum(axis=1))
            # entry bounds over the box |alpha_i + alpha_j| <= q_bound
            m, big_m = 1.0 / (2.0 * (1.0 + math.exp(q_bound))), q**2 / 2.0
            offs = off[~np.eye(n, dtype=bool)]
            assert np.all(offs > 0)
            assert np.all(offs >= m) and np.all(offs <= big_m)


class TestDegreeClasses:
    """Class multiplicities: one parameter stands for every node of a class."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_counts_match_grouped_node_level(self, q):
        rng = np.random.default_rng(40 + q)
        for _ in range(5):
            k = int(rng.integers(1, 6))
            beta = rng.uniform(-2, 2, k)
            counts = rng.integers(1, 5, k)
            node_class = np.repeat(np.arange(k), counts)
            alpha = beta[node_class]
            p = (node_class[:, None] == np.arange(k)).astype(float)
            v = degree_jacobian(alpha, q)
            first = np.searchsorted(node_class, np.arange(k))
            np.testing.assert_allclose(
                degree_jacobian(beta, q, counts), p.T @ v @ p, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                expected_degrees(beta, q, counts),
                expected_degrees(alpha, q)[first],
                rtol=1e-12,
                atol=0,
            )
            np.testing.assert_allclose(
                degree_variances(beta, q, counts),
                np.diagonal(v)[first],
                rtol=1e-12,
                atol=0,
            )

    @pytest.mark.parametrize("counts", [[1, 2], [1, 0, 2], [1, 2, math.nan]])
    def test_rejects_bad_counts(self, counts):
        with pytest.raises(ValueError):
            expected_degrees(np.zeros(3), 2, counts)


class TestWeightedGraphValidation:
    def test_accepts_valid_pairs(self):
        g = WeightedGraph(4, 3, [0, 0, 2], [1, 3, 3], [2.0, 1.0, 1.0])
        assert g.i.dtype == g.j.dtype == g.w.dtype == np.int64
        np.testing.assert_array_equal(g.degrees(), [3, 2, 1, 2])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, 2, [1], [1], [1])

    def test_rejects_pair_not_above_diagonal(self):
        # the lower-triangle entry (1, 0) of pair {0, 1}
        with pytest.raises(ValueError):
            WeightedGraph(3, 2, [1], [0], [1])

    @pytest.mark.parametrize("i, j", [(0, 3), (2, 5), (-1, 1)])
    def test_rejects_id_outside_nodes(self, i, j):
        with pytest.raises(ValueError):
            WeightedGraph(3, 2, [i], [j], [1])

    def test_rejects_out_of_range_weight(self):
        for w in (0, 2, -1):  # zero-weight pairs are not listed; 2 >= q
            with pytest.raises(ValueError):
                WeightedGraph(3, 2, [0], [1], [w])

    @pytest.mark.parametrize(
        "i, j", [([0, 0], [1, 1]), ([0, 0], [2, 1]), ([1, 0], [2, 1])]
    )
    def test_rejects_repeated_or_unsorted_pairs(self, i, j):
        with pytest.raises(ValueError):
            WeightedGraph(3, 2, i, j, [1, 1])

    @pytest.mark.parametrize(
        "n, i, j, w",
        [
            (3, [0, 0], [1, 2], [1]),  # mismatched lengths
            (3, [0], [1.5], [1]),  # non-integer id
            (3, [0], [1], [0.5]),  # non-integer weight
            (3, [[0]], [[1]], [[1]]),  # not one-dimensional
            (1, [], [], []),  # fewer than two nodes
            (2.5, [0], [1], [1]),  # non-integer node count
        ],
    )
    def test_rejects_malformed_arrays(self, n, i, j, w):
        with pytest.raises(ValueError):
            WeightedGraph(n, 3, i, j, w)

    def test_degrees_are_row_sums(self):
        g = sample_graph(np.zeros(5), 3, seed=9)
        np.testing.assert_array_equal(g.degrees(), dense(g).sum(axis=1))

    def test_degree_sum_parity(self):
        # each edge contributes twice, so the total degree is even
        for seed in range(5):
            g = sample_graph(np.linspace(-1, 1, 9), 2, seed=seed)
            assert g.degrees().sum() % 2 == 0
