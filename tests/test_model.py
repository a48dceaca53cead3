import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dpbeta import model
from dpbeta.estimator import solve
from dpbeta.experiments import ExperimentSpec, run_experiment, truth_profile
from dpbeta.model import WeightedGraph, _shifted_exponentials, sample_graph

import oracles
from conftest import degree_jacobian, dense, expected_degrees


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
        # the kernel trusts its callers; the public functions check
        for s, q in ((math.nan, 2), (math.inf, 3), (0.0, 1)):
            with pytest.raises(ValueError):
                sample_graph([s / 2, s / 2], q, seed=0)


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
                var = degree_jacobian([s / 2, s / 2], q)[0, 0]
                assert np.isfinite(var) and var >= 0.0


# sha256 prefixes of the dense weights of sample_graph(truth, q, seed=2002)
# at the sqrt(log n) truth profile
PINNED_N60 = [(2, "0c596f8d79d08e0b"), (3, "9dc9d1211d9c186f"), (5, "31cc5032eba99b9c")]
PINNED_SIZES = [
    (2, 2, "db7f8e2aa97f8d23"),
    (2, 3, "e84f1be4268b18b9"),
    (3, 2, "d013045e8789b95a"),
    (3, 3, "e2db79364667a8c7"),
    # 79,800 pairs: the thresholds are built in more than one block
    (400, 2, "819a9370ce0db3cc"),
    (400, 3, "b893f98d4f4cb6e6"),
]


def pinned_digest(n, q):
    alpha = truth_profile(n, math.sqrt(math.log(n)))
    w = dense(sample_graph(alpha, q, seed=2002))
    return hashlib.sha256(w.astype("<i8").tobytes()).hexdigest()[:16]


@pytest.fixture
def streamed(monkeypatch):
    """No threshold budget: every draw builds its thresholds block by block."""
    monkeypatch.setattr(model, "_THRESHOLD_BUDGET", 0)
    model._threshold_cache.clear()


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

    @pytest.mark.parametrize("q, digest", PINNED_N60)
    def test_draws_are_pinned(self, q, digest):
        # the sampled weights of a fixed seed never change: one uniform per
        # pair in row-major order, compared against a recorded stream
        assert pinned_digest(60, q) == digest

    @pytest.mark.parametrize("n, q, digest", PINNED_SIZES)
    def test_draws_are_pinned_at_other_sizes(self, n, q, digest):
        assert pinned_digest(n, q) == digest

    def test_single_node_is_rejected(self):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            sample_graph([0.3], 3, seed=1)


def cold_sample(alpha, q, seed):
    """sample_graph on an empty threshold cache."""
    model._threshold_cache.clear()
    return sample_graph(alpha, q, seed)


def same_graph(g, h):
    return (g.n, g.q) == (h.n, h.q) and all(
        np.array_equal(getattr(g, name), getattr(h, name)) for name in "ijw"
    )


class TestThresholdCache:
    def test_alpha_mutated_in_place_is_resampled(self):
        alpha = np.linspace(-1.0, 1.0, 40)
        sample_graph(alpha, 3, seed=7)
        alpha[::2] += 0.8
        g = sample_graph(alpha, 3, seed=7)
        assert same_graph(g, cold_sample(alpha.copy(), 3, seed=7))

    def test_interleaved_profiles_match_cold_calls(self):
        alpha_a = np.linspace(-1.0, 1.0, 50)
        alpha_b = np.linspace(-0.3, 1.5, 50)
        calls = [(alpha_a, 3), (alpha_b, 3), (alpha_a, 2), (alpha_a, 3), (alpha_a, 3)]
        model._threshold_cache.clear()
        warm = [sample_graph(alpha, q, seed=11) for alpha, q in calls]
        for g, (alpha, q) in zip(warm, calls):
            assert same_graph(g, cold_sample(alpha, q, seed=11))

    def test_cached_thresholds_are_read_only(self):
        sample_graph(np.zeros(20), 3, seed=1)
        (thresholds,) = model._threshold_cache.values()
        assert thresholds.shape == (2, 20 * 19 // 2)
        assert not thresholds.flags.writeable

    @pytest.mark.parametrize("spare", [0, -1])
    def test_budget_counts_the_thresholds(self, monkeypatch, spare):
        # q-1 thresholds per pair, 8(q-1) bytes, and nothing else
        n, q = 30, 3
        budget = 8 * (q - 1) * (n * (n - 1) // 2)
        monkeypatch.setattr(model, "_THRESHOLD_BUDGET", budget + spare)
        model._threshold_cache.clear()
        g = sample_graph(np.linspace(-1.0, 1.0, n), q, seed=3)
        assert len(model._threshold_cache) == (spare == 0)
        assert same_graph(g, cold_sample(np.linspace(-1.0, 1.0, n), q, seed=3))

    def test_studies_do_not_depend_on_order(self):
        # the study-n100 interleaving: settings A, B, A in one process
        spec_a = ExperimentSpec(n=30, q=3, l_mode="zero", reps=20, master_seed=4)
        spec_b = ExperimentSpec(n=30, q=3, l_mode="sqrtlog", reps=20, master_seed=4)
        interleaved = [run_experiment(s) for s in (spec_a, spec_b, spec_a)]
        alone = []
        for spec in (spec_a, spec_b, spec_a):
            model._threshold_cache.clear()
            alone.append(run_experiment(spec))
        assert interleaved == alone
        assert interleaved[0] != interleaved[1]

    def test_warm_call_memory(self):
        # one n=1000, q=3 draw at a cached truth holds the uniforms, the
        # counts and the edge arrays, not the pair sums or the cdf
        alpha = truth_profile(1000, math.sqrt(math.log(1000)))
        sample_graph(alpha, 3, seed=1)
        tracemalloc.start()
        try:
            g = sample_graph(alpha, 3, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.w.size > 0
        assert peak < 28 * 2**20


class TestStreamedSampling:
    """Above the threshold budget, draws are built and counted in blocks."""

    @pytest.mark.parametrize("q, digest", PINNED_N60)
    def test_draws_are_pinned(self, streamed, q, digest):
        assert pinned_digest(60, q) == digest
        assert not model._threshold_cache

    @pytest.mark.parametrize("n, q, digest", PINNED_SIZES)
    def test_draws_are_pinned_at_other_sizes(self, streamed, n, q, digest):
        assert pinned_digest(n, q) == digest

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_draws_are_pinned_in_small_blocks(self, streamed, monkeypatch, block):
        # single-row blocks, and rows longer than a block
        monkeypatch.setattr(model, "_BLOCK_PAIRS", block)
        pinned = [(60, q, digest) for q, digest in PINNED_N60] + PINNED_SIZES
        assert [pinned_digest(n, q) for n, q, _ in pinned] == [d for *_, d in pinned]

    def test_degree_draw_memory(self, streamed):
        # n=3000, q=3: the full thresholds would take 72 MB; one streamed
        # block's temporaries take ~6
        n, q = 3000, 3
        full = 8 * (q - 1) * (n * (n - 1) // 2)
        alpha = truth_profile(n, math.sqrt(math.log(n)))
        tracemalloc.start()
        try:
            (d,) = model._sample_degrees(alpha, q, [np.random.default_rng(1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.sum() > 0
        assert peak < full / 6


class TestSampleDegrees:
    """The degree-only draw gives the degrees of the graph the same seed
    gives, and leaves the generator where ``sample_graph`` leaves it."""

    @pytest.mark.parametrize("path", ["cached", "streamed"])
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 3, 60, 400])
    def test_match_sampled_graph(self, request, path, n, q):
        if path == "streamed":
            request.getfixturevalue("streamed")
        self.check_match(n, q)

    @pytest.mark.parametrize("path", ["cached", "streamed"])
    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_match_sampled_graph_in_small_blocks(self, request, monkeypatch, path, block):
        # single-row blocks, and rows longer than a block
        if path == "streamed":
            request.getfixturevalue("streamed")
        monkeypatch.setattr(model, "_BLOCK_PAIRS", block)
        for n, q in ((2, 3), (3, 2), (60, 5), (400, 3)):
            model._threshold_cache.clear()
            self.check_match(n, q)

    @pytest.mark.parametrize("path", ["cached", "streamed"])
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("block", [1, 7, 2**16])
    def test_batch_matches_one_generator_each(self, request, monkeypatch, path, q, block):
        # a batch of generators gives each the row and the stream position
        # of a lone draw, from cached thresholds or block by block
        if path == "streamed":
            request.getfixturevalue("streamed")
        monkeypatch.setattr(model, "_BLOCK_PAIRS", block)
        alpha = np.linspace(-1.0, 2.0, 30)
        model._threshold_cache.clear()
        if path == "cached":
            model._sample_degrees(alpha, q, [np.random.default_rng(99)])
            assert model._threshold_cache
        together = [np.random.default_rng(seed) for seed in range(5)]
        apart = [np.random.default_rng(seed) for seed in range(5)]
        d = model._sample_degrees(alpha, q, together)
        for row, rng in zip(d, apart):
            np.testing.assert_array_equal(row, model._sample_degrees(alpha, q, [rng])[0])
        assert [rng.random() for rng in together] == [rng.random() for rng in apart]

    @staticmethod
    def check_match(n, q):
        alpha = np.linspace(-1.0, 2.0, n)
        pairs = n * (n - 1) // 2
        seeds = (0, 1, 2002)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        d = model._sample_degrees(alpha, q, rngs)
        assert d.dtype == np.int64 and d.shape == (len(seeds), n)
        for row, rng, seed in zip(d, rngs, seeds):
            np.testing.assert_array_equal(row, sample_graph(alpha, q, seed).degrees())
            after = np.random.default_rng(seed)
            after.random(pairs)
            assert rng.random() == after.random()

    def test_warm_call_stays_under_12_bytes_a_pair(self):
        # n = 1000, q = 3 at a cached truth: the uniforms (8 bytes a pair)
        # and one block's weights and strip at a time
        alpha = truth_profile(1000, math.sqrt(math.log(1000)))
        model._sample_degrees(alpha, 3, [np.random.default_rng(1)])
        tracemalloc.start()
        try:
            model._sample_degrees(alpha, 3, [np.random.default_rng(2)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * (1000 * 999 // 2)

    def test_rejects_what_sample_graph_rejects(self):
        for alpha, q in (([0.3], 3), ([0.0, np.nan], 3), ([0.0, 0.0], 1)):
            with pytest.raises(ValueError) as graph_error:
                sample_graph(alpha, q, seed=1)
            with pytest.raises(ValueError) as degree_error:
                model._sample_degrees(alpha, q, [np.random.default_rng(1)])
            assert str(degree_error.value) == str(graph_error.value)


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
            cls = model._classes(counts)
            mean, var = model._moments(beta, q, cls)
            jac = model._class_jacobian(cls.c, var[:-k], var[-k:], cls.iu * k + cls.ju)
            np.testing.assert_allclose(jac, p.T @ v @ p, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                model._node_sums(cls, mean),
                expected_degrees(alpha, q)[first],
                rtol=1e-12,
                atol=0,
            )


    def test_side_by_side_sequences_get_their_own_moments(self):
        # classes of several sequences share one layout and one pass; every
        # sequence's pair moments are bit-identical to a pass over it alone,
        # which a BLAS product over the class axis would not give for q >= 4
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = int(rng.integers(2, 7))
            sizes = rng.integers(1, 14, size=int(rng.integers(2, 40)))
            beta = rng.normal(0, 2, sizes.sum())
            cls = model._classes(rng.integers(1, 4, sizes.sum()), sizes)
            mean, var = model._moments(beta, q, cls)
            pairs = sizes * (sizes - 1) // 2
            p_at, c_at = np.cumsum(pairs) - pairs, np.cumsum(sizes) - sizes
            for k, p, p0, c0 in zip(sizes, pairs, p_at, c_at):
                alone = model._classes(cls.c[c0 : c0 + k])
                assert np.array_equal(alone.iu + c0, cls.iu[p0 : p0 + p])
                assert np.array_equal(alone.ju + c0, cls.ju[p0 : p0 + p])
                one_mean, one_var = model._moments(beta[c0 : c0 + k], q, alone)
                own = np.r_[p0 : p0 + p, cls.iu.shape[0] + c0 + np.arange(k)]
                assert np.array_equal(one_mean, mean[own])
                assert np.array_equal(one_var, var[own])


class TestCheckQ:
    """q is a whole number >= 2; nothing truncates a fractional q."""

    @pytest.mark.parametrize("q", [2.9, 3.7, True, np.bool_(True), 1, math.nan, "3"])
    def test_rejects_non_integral_q(self, q):
        with pytest.raises(ValueError, match="q must be an integer") as info:
            sample_graph(np.zeros(4), q, seed=0)
        assert repr(q) in str(info.value)
        with pytest.raises(ValueError, match="q must be an integer"):
            solve([1.0, 1.5, 1.2], q)

    @pytest.mark.parametrize("q", [model._Q_MAX + 1, 10**9, 10**400])
    def test_rejects_q_above_the_cap(self, q):
        # the kernel holds q terms per pair sum: no huge allocation is tried
        for call in (
            lambda: sample_graph(np.zeros(4), q, seed=0),
            lambda: solve([1.0, 1.5, 1.2], q),
        ):
            with pytest.raises(ValueError, match=f"q must be at most {model._Q_MAX}"):
                call()

    def test_accepts_q_at_the_cap(self):
        q = model._Q_MAX
        assert sample_graph(np.zeros(2), q, seed=0).q == q
        np.testing.assert_allclose(expected_degrees(np.zeros(2), q), [(q - 1) / 2] * 2)

    @pytest.mark.parametrize("q", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_accepts_integral_q(self, q):
        assert sample_graph(np.zeros(4), q, seed=0).q == 3
        assert solve([1.0, 1.5, 1.2], q).q == 3


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

    def test_order_check_matches_row_major_keys(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            i, j = np.triu_indices(n, 1)
            pick = rng.integers(0, i.size, size=rng.integers(0, 6))
            if rng.random() < 0.5:
                pick.sort()
            i, j = i[pick], j[pick]
            ordered = bool(np.all(np.diff(i * n + j) > 0))
            try:
                WeightedGraph(n, 2, i, j, np.ones_like(i))
                accepted = True
            except ValueError as err:
                assert "row-major order" in str(err)
                accepted = False
            assert accepted == ordered, (n, i, j)

    def test_construction_memory_per_pair(self):
        i, j = np.triu_indices(1000, 1)  # ~500k pairs
        w = np.ones_like(i)
        tracemalloc.start()
        try:
            WeightedGraph(1000, 2, i, j, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / i.size < 6

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

    @pytest.mark.parametrize("n", [math.inf, math.nan, None, "5", True])
    def test_bad_node_count_is_named(self, n):
        message = f"n must be an integer >= 2, got {n!r}."
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeightedGraph(n, 3, [], [], [])

    @pytest.mark.parametrize("name", ["i", "j", "w"])
    def test_non_finite_entry_is_not_an_integer(self, name):
        arrays = {"i": [0.0], "j": [1.0], "w": [1.0]}
        arrays[name] = [np.inf]
        with pytest.raises(ValueError, match=f"^{name} must hold integers"):
            WeightedGraph(3, 3, **arrays)

    def test_degrees_are_row_sums(self):
        g = sample_graph(np.zeros(5), 3, seed=9)
        np.testing.assert_array_equal(g.degrees(), dense(g).sum(axis=1))

    def test_degree_sum_parity(self):
        # each edge contributes twice, so the total degree is even
        for seed in range(5):
            g = sample_graph(np.linspace(-1, 1, 9), 2, seed=seed)
            assert g.degrees().sum() % 2 == 0
