import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from dpbeta import estimator, model
from dpbeta.estimator import contrast_ci, node_intervals, solve, solve_many
from dpbeta.mechanisms import calibrate, sample_noise
from dpbeta.model import sample_graph
from dpbeta.experiments import _noisy_degrees, _study_setup, child_seed, truth_profile

import oracles
from conftest import degree_jacobian, expected_degrees


class TestResidual:
    """The moment-equation residual d_bar - E(d) vanishes at the root."""

    def test_zero_at_symmetric_point_q2(self):
        n = 5  # odd n keeps (n-1)/2 integral
        d_bar = np.full(n, (n - 1) / 2)
        np.testing.assert_allclose(
            d_bar - expected_degrees(np.zeros(n), 2), 0.0, atol=1e-13
        )

    def test_zero_at_symmetric_point_q3(self):
        n = 6
        d_bar = np.full(n, n - 1.0)
        np.testing.assert_allclose(
            d_bar - expected_degrees(np.zeros(n), 3), 0.0, atol=1e-13
        )

    def test_definitional(self):
        # the solver's root is a root of the model's degree map
        rng = np.random.default_rng(21)
        d_bar = expected_degrees(rng.uniform(-1, 1, 8), 3)
        fit = solve(d_bar, 3)
        assert fit.converged
        assert np.max(np.abs(d_bar - expected_degrees(fit.alpha_hat, 3))) < 1e-10


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
                residual = d - expected_degrees(fit.alpha_hat, q)
                assert np.max(np.abs(residual)) <= fit.tolerance
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

    def test_genuinely_nonexistent_instance_is_infeasible(self):
        # strictly feasible coordinates, but outside the degree polytope:
        # the top two nodes against the rest break 6 - 3 < 2 * (5-1-3), and
        # the oracle's bracket check agrees that no solution exists
        d_bar = np.array([1, 1, 1, 3, 3])
        fit = solve(d_bar, 2)
        assert fit.status == "nonexistent_infeasible_degree"
        assert fit.iterations == 0 and fit.infeasible_nodes == [0, 1, 2, 3, 4]
        assert oracles.gauss_seidel_bisect(d_bar, 2, max_sweeps=3000) is None

    def test_real_degrees_outside_polytope_are_infeasible(self):
        # 7.8 - 3.3 > 2 * (5-1-3): no root, though every degree is in (0, 4)
        fit = solve([3.9, 3.9, 1.1, 1.1, 1.1], 2)
        assert fit.status == "nonexistent_infeasible_degree"
        assert fit.iterations == 0 and fit.infeasible_nodes == [0, 1, 2, 3, 4]

    def test_max_iter_exhaustion_reports_diverged(self):
        d_bar = np.array([8, 8, 8, 4, 8, 6])
        full = solve(d_bar, 3)
        assert full.converged and full.iterations > 1
        fit = solve(d_bar, 3, max_iter=1)
        assert fit.status == "nonexistent_diverged"
        assert fit.iterations == 1

    def test_zero_max_iter_is_a_budget(self):
        assert solve([1, 1, 1], 2, max_iter=0).converged  # the start is the root
        fit = solve([8, 8, 8, 4, 8, 6], 3, max_iter=0)
        assert fit.status == "nonexistent_diverged" and fit.iterations == 0

    @pytest.mark.parametrize("max_iter", [-1, True, 2.5, None, "3"])
    def test_bad_max_iter_is_rejected(self, max_iter):
        # rejected, not run: -1 must not report "diverged" after no step,
        # nor True run as 1 or 2.5 as 3
        with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
            solve([3, 4, 5, 4], 3, max_iter=max_iter)

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


@st.composite
def alpha_profiles(draw):
    """A parameter vector in [-3, 3]^n, n = 3..7, and q."""
    n = draw(st.integers(3, 7))
    q = draw(st.integers(2, 4))
    cents = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n))
    return np.array(cents) / 100.0, q


@st.composite
def small_integer_degrees(draw):
    """Integer d_bar, n = 3..6, each entry in -1..(n-1)(q-1)+1."""
    n = draw(st.integers(3, 6))
    q = draw(st.integers(2, 4))
    top = (n - 1) * (q - 1) + 1
    return np.array(draw(st.lists(st.integers(-1, top), min_size=n, max_size=n))), q


class TestExistence:
    """A root exists iff d_bar lies inside the polytope (q-1) D_n, which
    ``solve`` decides before iterating."""

    @settings(max_examples=40)
    @given(alpha_profiles())
    def test_expected_degrees_converge(self, case):
        alpha, q = case
        fit = solve(oracles.expected_degrees_by_summation(alpha, q), q)
        assert fit.converged
        assert np.max(np.abs(fit.alpha_hat - alpha)) < 1e-6

    @settings(max_examples=40)
    @given(alpha_profiles(), st.data())
    def test_degrees_moved_onto_or_past_an_inequality_are_infeasible(self, case, data):
        alpha, q = case
        n = alpha.shape[0]
        # on a grid of 2**-10, where every sum and slack below is exact
        d_bar = np.round(oracles.expected_degrees_by_summation(alpha, q) * 1024) / 1024
        labels = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
        )
        in_s, in_t = labels == 1, labels == 2
        slack = (q - 1) * in_s.sum() * (n - 1 - in_t.sum()) - (
            d_bar[in_s].sum() - d_bar[in_t].sum()
        )
        # spread a move of the nodes in S u T, up in S and down in T, that
        # takes the slack to 0 or -past; one node takes the rounding
        past = data.draw(st.sampled_from([0.0, 0.5, 4.0]))
        move = max(slack, 0.0) + past
        share = np.floor(move / np.count_nonzero(labels) * 1024) / 1024
        step = np.where(labels > 0, share, 0.0)
        step[np.flatnonzero(labels)[0]] += move - step.sum()
        d_bar += np.where(in_t, -step, step)
        fit = solve(d_bar, q)
        assert fit.status == "nonexistent_infeasible_degree"
        assert fit.iterations == 0 and fit.infeasible_nodes

    @settings(max_examples=200)
    @given(small_integer_degrees())
    def test_verdict_matches_enumeration(self, case):
        d_bar, q = case
        fit = solve(d_bar, q)
        assert fit.converged == oracles.interior_by_enumeration(d_bar, q)
        if not fit.converged:
            assert fit.status == "nonexistent_infeasible_degree"
            assert fit.iterations == 0


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
        # for q <= 3 the start is this root, so no step is needed
        assert fit.iterations == 0
        np.testing.assert_allclose(fit.alpha_hat, beta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit.v_hat_diag, var, rtol=1e-12)

    @pytest.mark.parametrize("nodes, value", [([0, 50], 0.5), ([10, 99], 197.5)])
    def test_near_boundary_degrees_match_bisection(self, nodes, value):
        # n = 100, q = 3: noisy degrees half a unit inside (0, (n-1)(q-1)),
        # among interior ones; the one-class start of such a class lies far
        # out (|beta| ~ 5), and the iteration must still find the root
        n, q = 100, 3
        d_bar = expected_degrees(truth_profile(n, 1.0) - 0.5, q)
        d_bar[nodes] = value
        fit = solve(d_bar, q)
        assert fit.converged
        oracle = oracles.gauss_seidel_bisect(d_bar, q)
        assert oracle is not None
        assert np.max(np.abs(fit.alpha_hat - oracle)) < 1e-8

    def test_degree_below_the_smallest_double_over_n(self):
        # m = d / (n-1) underflows to 0 for d = 5e-324, and so does the
        # one-class x = 2m / (...); its log, taken in parts, is the finite
        # 0.5 log(d / (n-1)), and the fit converges as it does for 1e-300
        d_bar = np.array([5e-324, 1.0, 1.0, 1.0, 2.0])
        start = estimator._one_class_roots(np.unique(d_bar), 5, 3)
        assert start[0] == pytest.approx(0.5 * (math.log(5e-324) - math.log(4)))
        assert np.all(np.isfinite(start))
        fit = solve(d_bar, 3)
        assert fit.status == "converged" and np.isfinite(fit.residual_inf)
        assert fit.iterations == solve([1e-300, 1.0, 1.0, 1.0, 2.0], 3).iterations

    def test_zero_start_converges_for_larger_q(self):
        # q >= 4 has no closed-form start; the iteration starts from zero
        q = 5
        d_bar = sample_graph(np.linspace(-0.6, 0.6, 9), q, seed=12).degrees()
        fit = solve(d_bar, q)
        assert fit.converged and fit.iterations > 1
        oracle = oracles.gauss_seidel_bisect(d_bar, q)
        assert oracle is not None
        assert np.max(np.abs(fit.alpha_hat - oracle)) < 1e-8

    def test_one_kernel_pass_per_point(self, monkeypatch):
        # each point the solver evaluates, the start and one per accepted
        # step here (no backtracks), gives E(d), the next step's matrix and
        # v_hat_diag from a single call of the kernel
        calls = []
        kernel = model._shifted_exponentials

        def counted(s, q):
            calls.append(1)
            return kernel(s, q)

        d_bar = sample_graph(truth_profile(40, 1.9), 3, seed=3).degrees()
        monkeypatch.setattr(model, "_shifted_exponentials", counted)
        fit = solve(d_bar, 3)
        assert fit.converged and fit.iterations > 1
        assert len(calls) == fit.iterations + 1

    def test_boundary_degrees_are_infeasible(self):
        # (5, 4, 5, 2) lies on a facet of the degree polytope (nodes 0 and 2
        # against node 3: 10 - 2 = 2*2*(4-1-1)), so no finite root exists,
        # though Newton meets tol far out; the fewest-node broken inequality
        # is named
        d_bar = np.array([5.0, 4.0, 5.0, 2.0])
        assert not oracles.interior_by_enumeration(d_bar, 3)
        fit = solve(d_bar, 3)
        assert fit.status == "nonexistent_infeasible_degree"
        assert fit.iterations == 0 and fit.alpha_hat is None
        assert fit.infeasible_nodes == [0, 2, 3]

    def test_diagonal_steps_spare_linear_solves(self, monkeypatch):
        # one study replication at n = 1000, q = 3, L = sqrt(log n): two
        # diagonal steps from the one-class start leave four Newton systems
        # to build and solve, not six, and each kept diagonal step counts as
        # an iteration
        alpha_star, mechanism = _study_setup("sqrtlog", "fixed:2", 1000)
        calls = []

        def counted(c, pair, own, cells):
            calls.append(1)
            return model._class_jacobian(c, pair, own, cells)

        monkeypatch.setattr(estimator, "_class_jacobian", counted)
        fit = solve(_noisy_degrees(alpha_star, 3, mechanism, child_seed(0, 1000, 0)), 3)
        assert fit.converged
        assert len(calls) <= 4
        assert fit.iterations == len(calls) + 2

    def test_v_hat_diag_is_jacobian_diagonal(self):
        # the class-level variances equal the node-level Jacobian diagonal
        d_bar = np.array([3.0, 5.0, 5.0, 2.5, 7.0, 5.0, 3.0])
        fit = solve(d_bar, 3)
        assert fit.converged
        np.testing.assert_allclose(
            fit.v_hat_diag,
            np.diagonal(degree_jacobian(fit.alpha_hat, 3)),
            rtol=1e-12,
            atol=0,
        )

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


@st.composite
def degree_batches(draw):
    """A (B, n) batch of noisy degree rows of mixed kinds and class counts:
    integers in -1..(n-1)(q-1)+1, so some rows lie outside the polytope or
    on its boundary; rows with one value (one class); and the real expected
    degrees of distinct parameters (n classes)."""
    n, q = draw(st.integers(2, 7)), draw(st.integers(2, 4))
    top = (n - 1) * (q - 1)
    integer_row = st.lists(st.integers(-1, top + 1), min_size=n, max_size=n)
    tied_row = st.integers(0, top).map(lambda v: [v] * n)
    expected_row = st.lists(
        st.integers(-150, 150), min_size=n, max_size=n, unique=True
    ).map(lambda cents: list(expected_degrees(np.array(cents) / 100.0, q)))
    rows = draw(
        st.lists(st.one_of(integer_row, tied_row, expected_row), min_size=1, max_size=6)
    )
    return np.array(rows, dtype=float), q


def _singular_if_odd(c, pair, own, cells):
    """``model._class_jacobian`` with every system of an odd class count
    made singular."""
    jac = model._class_jacobian(c, pair, own, cells)
    if c.shape[0] % 2:
        jac[:] = 0.0
    return jac


class TestSolveMany:
    """Sequences solved together, in groups that split where their steps
    are rejected apart, give each the fit it gets alone, to the last bit."""

    @settings(max_examples=80)
    @given(
        degree_batches(),
        st.sampled_from([0, 1, 2, 200]),
        st.sampled_from([1e-10, 1e-300]),
        st.booleans(),
        st.sampled_from([None, 3, estimator._CG_STEPS]),
    )
    # tol = 1e-300 is rarely met, so steps are halved down to _MIN_STEP: the
    # first row is diverged after 7 steps; the second rejects a diagonal
    # step the first accepts, and goes on as a group of its own
    @example((np.array([[3, 2, 4, 4], [2, 1, 3, 1]]), 3), 200, 1e-300, False, None)
    @example(
        (np.array([[3, 2, 4, 4], [2, 1, 3, 1]]), 3),
        200,
        1e-300,
        False,
        estimator._CG_STEPS,
    )
    # `singular` makes every system of an odd class count singular: the
    # first two rows (5 classes) end at their LU solve (by conjugate
    # gradients, p'Jp is NaN, so they fall back to it), the third (4
    # classes) converges in the batch
    @example(
        (np.array([[2, 3, 4, 5, 6], [2, 3, 4, 5, 7], [3, 3, 4, 5, 6]]), 3),
        200,
        1e-10,
        True,
        None,
    )
    @example(
        (np.array([[2, 3, 4, 5, 6], [2, 3, 4, 5, 7], [3, 3, 4, 5, 6]]), 3),
        200,
        1e-10,
        True,
        estimator._CG_STEPS,
    )
    # in three CG steps the first row (symmetric about the middle of its
    # range) is solved, while the second is not and falls back to LU
    @example(
        (np.array([[2, 3, 4, 5, 6], [2, 3, 4, 5, 7]]), 3), 200, 1e-10, False, 3
    )
    def test_each_fit_is_its_solo_fit(self, case, max_iter, tol, singular, cg_steps):
        # with cg_steps, every system of two or more classes is solved by
        # conjugate gradients within that many steps, or else by LU; with 3,
        # the rows of one batch often split between the two
        d_bars, q = case
        with pytest.MonkeyPatch.context() as mp:
            if singular:
                mp.setattr(estimator, "_class_jacobian", _singular_if_odd)
            if cg_steps is not None:
                mp.setattr(estimator, "_CG_CLASSES", 2)
                mp.setattr(estimator, "_CG_STEPS", cg_steps)
            fits = solve_many(d_bars, q, tol, max_iter)
            solo = [solve(d_bar, q, tol, max_iter) for d_bar in d_bars]
        assert [fit.to_dict() for fit in fits] == [fit.to_dict() for fit in solo]
        assert not any(
            fit.converged and not np.isfinite(fit.residual_inf) for fit in fits
        )

    def test_rows_that_end_in_different_rounds(self):
        # rows converging after different numbers of steps, a one-class row,
        # an out-of-range row and a boundary row (9 + 9 - 2 = 2*2*(6-1-1)),
        # in either order
        d_bars = np.array([
            [8, 8, 8, 4, 8, 6],
            [5, 4, 5, 2, 3, 3],
            [5, 5, 5, 5, 5, 5],
            [0, 3, 4, 5, 6, 7],
            [9, 9, 2, 5, 5, 5],
        ], dtype=float)
        fits = solve_many(d_bars, 3)
        assert [fit.to_dict() for fit in fits] == [
            fit.to_dict() for fit in solve_many(d_bars[::-1], 3)[::-1]
        ]
        assert len({fit.iterations for fit in fits if fit.converged}) == 3
        assert [fit.infeasible_nodes for fit in fits[3:]] == [[0], [0, 1, 2]]
        assert [solve(d, 3).to_dict() for d in d_bars] == [f.to_dict() for f in fits]
        # the second row rejects its second diagonal step while the first
        # accepts it, so the batch splits there
        d_bars = np.array([[3, 2, 4, 4], [2, 1, 3, 1]], dtype=float)
        fits = solve_many(d_bars, 3)
        assert [fit.to_dict() for fit in fits] == [solve(d, 3).to_dict() for d in d_bars]
        assert [(fit.status, fit.iterations) for fit in fits] == [("converged", 6)] * 2

    def test_singular_system_ends_only_its_sequence(self, monkeypatch):
        # two sequences of four classes; the Newton system of the one whose
        # first class holds two nodes is zeroed.  That sequence ends in the
        # batch as it ends alone, its batch-mate converges, and the batch
        # is started once
        d_bars = np.array([[2, 2, 3, 4, 5], [2, 3, 4, 5, 5]], dtype=float)
        jacobian, roots = estimator._class_jacobian, estimator._one_class_roots

        def zeroed(c, pair, own, cells):
            jac = jacobian(c, pair, own, cells)
            if c[0] == 2:
                jac[:] = 0.0
            return jac

        starts = []

        def counted(*args):
            starts.append(1)
            return roots(*args)

        monkeypatch.setattr(estimator, "_class_jacobian", zeroed)
        monkeypatch.setattr(estimator, "_one_class_roots", counted)
        fits = solve_many(d_bars, 3)
        assert len(starts) == 1
        solo = [solve(d_bar, 3) for d_bar in d_bars]
        assert [fit.to_dict() for fit in fits] == [fit.to_dict() for fit in solo]
        assert [fit.status for fit in fits] == ["nonexistent_diverged", "converged"]

    def test_rejecters_go_on_from_where_they_split(self, monkeypatch):
        # the second row rejects the second diagonal step, which the first
        # row accepts: it goes on from its last point as a group of its
        # own, so the batch is started once, and the start and the two
        # diagonal steps are the only kernel passes the rows share
        d_bars = np.array([[3, 2, 4, 4], [2, 1, 3, 1]], dtype=float)
        calls = {"pass": 0, "start": 0}
        kernel, roots = model._shifted_exponentials, estimator._one_class_roots

        def counted_pass(s, q):
            calls["pass"] += 1
            return kernel(s, q)

        def counted_start(*args):
            calls["start"] += 1
            return roots(*args)

        monkeypatch.setattr(model, "_shifted_exponentials", counted_pass)
        monkeypatch.setattr(estimator, "_one_class_roots", counted_start)
        solo = [solve(d_bar, 3) for d_bar in d_bars]
        solo_passes = calls["pass"]
        calls.update({"pass": 0, "start": 0})
        fits = solve_many(d_bars, 3)
        assert calls["start"] == 1
        assert calls["pass"] == solo_passes - 3
        assert [fit.to_dict() for fit in fits] == [fit.to_dict() for fit in solo]

    @settings(max_examples=60)
    @given(degree_batches())
    def test_conjugate_gradients_agree_with_lu(self, case):
        # the two ways to a Newton direction differ by rounding only
        d_bars, q = case
        lu = solve_many(d_bars, q)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_CG_CLASSES", 2)
            cg = solve_many(d_bars, q)
        for a, b in zip(lu, cg):
            assert (a.status, a.iterations) == (b.status, b.iterations)
            if a.converged:
                np.testing.assert_allclose(b.alpha_hat, a.alpha_hat, rtol=0, atol=1e-10)
                np.testing.assert_allclose(b.v_hat_diag, a.v_hat_diag, rtol=1e-10)

    @settings(max_examples=20)
    @given(degree_batches())
    def test_rows_conjugate_gradients_leave_unsolved_take_lu(self, case):
        # with no CG step allowed every row falls back to LU.
        # (One step is not enough to force that: a d_bar symmetric about
        # the middle of its range, such as [1, 2, 3] at q = 3, gives an
        # eigenvector right-hand side, which one step solves.)
        d_bars, q = case
        lu = solve_many(d_bars, q)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_CG_CLASSES", 2)
            mp.setattr(estimator, "_CG_STEPS", 0)
            fallback = solve_many(d_bars, q)
        assert [fit.to_dict() for fit in fallback] == [fit.to_dict() for fit in lu]

    def test_many_classes_take_conjugate_gradients(self, monkeypatch):
        # two sequences of 150 distinct degrees, over _CG_CLASSES: their
        # Newton directions come from conjugate gradients, no LU runs, and
        # each fit is its solo fit to the last bit
        rng = np.random.default_rng(19)
        d_bars = np.array([expected_degrees(rng.uniform(-1, 1, 150), 3) for _ in range(2)])
        assert min(np.unique(d).size for d in d_bars) >= estimator._CG_CLASSES
        calls = []
        lu = np.linalg.solve

        def counted(a, b):
            calls.append(1)
            return lu(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        fits = solve_many(d_bars, 3)
        solo = [solve(d, 3) for d in d_bars]
        assert calls == []
        assert [fit.to_dict() for fit in fits] == [fit.to_dict() for fit in solo]
        assert all(fit.converged and fit.iterations > estimator._DIAGONAL_STEPS for fit in fits)

    def test_empty_batch_and_bad_shapes(self):
        assert solve_many(np.empty((0, 4)), 3) == []
        with pytest.raises(ValueError, match="rows"):
            solve_many([1.0, 2.0, 3.0], 3)
        with pytest.raises(ValueError, match="rows"):
            solve_many([[1.0], [2.0]], 3)
        with pytest.raises(ValueError, match="finite"):
            solve_many([[1.0, 2.0, 2.0], [1.0, np.nan, 2.0]], 2)


class TestNormalQuantile:
    def test_against_scipy(self):
        ps = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-6, 0.001, 0.02425, 0.5, 0.975]),
                np.linspace(0.01, 0.99, 37),
            ]
        )
        for level in ps:
            assert estimator._z(float(level)) == pytest.approx(
                norm.ppf(1.0 - (1.0 - level) / 2.0), abs=1e-8
            )

    def test_rejects_boundary(self):
        for level in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="level"):
                estimator._z(level)


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
        expected = estimator._z(0.95) / math.sqrt(fit.v_hat_diag[1])
        assert ci.half_width == pytest.approx(expected, rel=1e-5)
        fit.v_hat_diag = v

    def test_node_intervals_formula(self, fit):
        se, half = node_intervals(fit, 0.95)
        assert se.shape == half.shape == (fit.n,)
        for i in range(fit.n):
            assert se[i] == pytest.approx(1 / math.sqrt(fit.v_hat_diag[i]), rel=1e-15)
            assert half[i] == pytest.approx(estimator._z(0.95) * se[i], rel=1e-15)
        with pytest.raises(ValueError):
            node_intervals(fit, 1.0)

    def test_non_converged_fit_is_usage_error(self):
        bad = solve([0, 1, 1], 2)
        with pytest.raises(ValueError):
            contrast_ci(bad, 0, 1)
        with pytest.raises(ValueError):
            node_intervals(bad)

    def test_index_arrays_give_one_interval_per_pair(self, fit):
        i, j = np.array([0, 2, 7]), np.array([1, 5, 0])
        ci = contrast_ci(fit, i, j, 0.9)
        for k in range(3):
            one = contrast_ci(fit, int(i[k]), int(j[k]), 0.9)
            assert (ci.point[k], ci.se[k], ci.half_width[k]) == (
                one.point, one.se, one.half_width
            )
        with pytest.raises(ValueError, match="distinct"):
            contrast_ci(fit, i, np.array([1, 2, 0]))

    @pytest.mark.parametrize(
        "i, j", [(3, -1), (-1, 0), (0, 8), (np.array([0, 1]), np.array([2, -3]))]
    )
    def test_node_outside_range_is_rejected(self, fit, i, j):
        # -1 would wrap to node 7: a contrast of a node the caller never named
        message = r"^node indices must be integers in 0\.\.7,"
        with pytest.raises(ValueError, match=message):
            contrast_ci(fit, i, j)

    def test_wrapped_self_contrast_is_rejected(self):
        # -1 is node 3 here, so this once gave point 0.0 and se 1.198
        with pytest.raises(ValueError, match="node indices"):
            contrast_ci(solve([3, 4, 5, 4], 3), 3, -1)

    def test_index_arrays_of_unequal_shape_are_rejected(self, fit):
        # not broadcast to two intervals
        with pytest.raises(ValueError, match="equal shape"):
            contrast_ci(fit, np.array([0, 1]), np.array([2]))

    def test_standardized_contrast(self, fit):
        # xi = (point - true contrast) / se, as run_experiment records it
        i, j = np.array([0, 2]), np.array([1, 3])
        ci = contrast_ci(fit, i, j)
        truth = fit.alpha_hat[i] - fit.alpha_hat[j]
        assert ((ci.point - truth) / ci.se).tolist() == [0.0, 0.0]
        fit.v_hat_diag = np.full(fit.n, 8.0)
        ci = contrast_ci(fit, i, j)
        # numerator 0.1, denominator sqrt(1/8 + 1/8) = 1/2
        np.testing.assert_allclose((ci.point - (truth - 0.1)) / ci.se, 0.2, atol=1e-12)


class TestInverseApproximation:
    """The dense-inversion oracle behind c09, at points with a closed form."""

    def test_s_diagonal_at_zero_alpha(self):
        n = 50
        rep = oracles.inverse_approximation(np.zeros(n), 2)
        np.testing.assert_allclose(rep.s_diag, 4 / (n - 1), atol=1e-12)

    @pytest.mark.parametrize("q,v_off", [(2, 0.25), (3, 2 / 3)])
    def test_gap_closed_form_and_scaling(self, q, v_off):
        # at alpha = 0 the Jacobian is v_off((n-2) I + ones), whose inverse is
        # known in closed form; the max-entry gap to diag(1/v_ii) is
        # 1 / (v_off (n-2) (2n-2)).
        gaps = {}
        for n in (50, 100):
            rep = oracles.inverse_approximation(np.zeros(n), q)
            closed = 1.0 / (v_off * (n - 2) * (2 * n - 2))
            assert rep.max_entry_gap == pytest.approx(closed, rel=1e-6)
            gaps[n] = rep.max_entry_gap
        ratio = gaps[50] / gaps[100]
        assert 3.0 <= ratio <= 5.5

    def test_inf_norm_within_theory_window(self):
        n = 100
        rep = oracles.inverse_approximation(np.zeros(n), 3)
        # bound c (1 + e^0)^3 / (n-1) with a small constant
        assert rep.inv_inf_norm <= 3.0 * 8.0 / (n - 1)
