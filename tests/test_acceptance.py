"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
live).  The Monte-Carlo criteria run at reduced replication counts with
fixed seeds, so every run of this suite is deterministic.
"""

import math

import numpy as np
import pytest
from scipy import stats

from dpbeta.estimator import solve
from dpbeta.experiments import ExperimentSpec, rate_study, run_experiment
from dpbeta.mechanisms import (
    _log_pmf,
    calibrate,
    dlaplace_moments,
    sample_noise,
    worst_case_log_ratio,
)
from dpbeta.model import sample_graph

import oracles
from conftest import degree_jacobian, expected_degrees

SEED = 20260808


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def run_flat_eps2():
    spec = ExperimentSpec(n=100, q=3, l_mode="zero", eps_mode="fixed:2",
                          reps=1000, master_seed=SEED)
    return run_experiment(spec)


@pytest.fixture(scope="module")
def run_steep_eps2():
    spec = ExperimentSpec(n=100, q=3, l_mode="sqrtlog", eps_mode="fixed:2",
                          reps=1000, master_seed=SEED)
    return run_experiment(spec)


@pytest.fixture(scope="module")
def run_flat_small_eps():
    spec = ExperimentSpec(n=100, q=3, l_mode="zero", eps_mode="logn_over_n12",
                          reps=1000, master_seed=SEED)
    return run_experiment(spec)


def test_c01_coverage_replication(run_flat_eps2):
    pair = run_flat_eps2.pair_summary((50, 51))
    ok = (
        0.93 <= pair.coverage <= 0.97
        and 0.33 <= pair.mean_length <= 0.37
        and run_flat_eps2.nonexistence == 0.0
    )
    _report(
        "1 coverage",
        ok,
        f"coverage={pair.coverage:.4f} in [0.93,0.97], "
        f"length={pair.mean_length:.4f} in [0.33,0.37], "
        f"nonexist={run_flat_eps2.nonexistence:.4f} == 0",
    )
    assert 0.93 <= pair.coverage <= 0.97
    assert 0.33 <= pair.mean_length <= 0.37
    assert run_flat_eps2.nonexistence == 0.0


def test_c02_nonexistence_replication(run_steep_eps2):
    rate = run_steep_eps2.nonexistence
    ok = 0.25 <= rate <= 0.40
    _report("2 nonexistence", ok, f"rate={rate:.4f} in [0.25,0.40]")
    assert ok


def test_c03_degradation_direction(run_flat_small_eps):
    coverages = {p.pair: p.coverage for p in run_flat_small_eps.pairs}
    ok = all(c < 0.93 for c in coverages.values())
    detail = ", ".join(f"{pair}={c:.4f}" for pair, c in coverages.items())
    _report("3 degradation", ok, f"{detail}; all < 0.93")
    assert ok


def test_c04_normality_ks(run_flat_eps2):
    xi = np.asarray(run_flat_eps2.pair_summary((99, 100)).xi)
    ks = stats.kstest(xi, "norm").statistic
    ok = ks < 0.06
    _report("4 normality", ok, f"KS={ks:.4f} < 0.06 on {xi.size} values")
    assert ok


def test_c05_solver_oracle():
    rng = np.random.default_rng(SEED)
    mech = calibrate(2.0)
    compared = 0
    worst = 0.0
    attempts = 0
    while compared < 50:
        attempts += 1
        assert attempts < 3000, "could not assemble 50 comparable instances"
        n = int(rng.integers(3, 11))
        q = int(rng.choice([2, 3, 4]))
        alpha = rng.uniform(-1.0, 1.0, n)
        graph = sample_graph(alpha, q, rng)
        d_bar = graph.degrees() + sample_noise(mech, n, rng)
        if (d_bar <= 0).any() or (d_bar >= (n - 1) * (q - 1)).any():
            continue
        fit = solve(d_bar, q)
        if not fit.converged:
            continue
        assert np.max(np.abs(d_bar - expected_degrees(fit.alpha_hat, q))) <= 1e-10
        if np.max(np.abs(fit.alpha_hat)) > 8.0:
            # near-saturated root: the bisection oracle's sweep rate
            # degenerates there, so agreement is checked on interior roots
            continue
        oracle = oracles.gauss_seidel_bisect(d_bar, q)
        assert oracle is not None, f"oracle found no root where Newton did: {d_bar}"
        worst = max(worst, float(np.max(np.abs(fit.alpha_hat - oracle))))
        compared += 1
    ok = worst < 1e-8
    _report("5 solver oracle", ok, f"50 instances, max gap={worst:.2e} < 1e-8")
    assert ok


def test_c06_jacobian_vs_finite_differences():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 12))
        q = int(rng.integers(2, 6))
        alpha = rng.uniform(-1.5, 1.5, n)
        v = degree_jacobian(alpha, q)
        fd = oracles.jacobian_by_finite_differences(alpha, q, step=1e-5)
        rel = float(np.max(np.abs(v - fd)) / np.max(np.abs(v)))
        worst = max(worst, rel)
    ok = worst < 1e-6
    _report("6 jacobian", ok, f"20 cases, max rel err={worst:.2e} < 1e-6")
    assert ok


def test_c07_mechanism_moments():
    n = 1_000_000
    worst_mean_z = 0.0
    worst_var_z = 0.0
    for k, lam in enumerate((0.3, math.exp(-1), 0.7)):
        mech = calibrate(-2.0 * math.log(lam))
        draws = sample_noise(mech, n, seed=SEED + 10 + k)
        _, var, _ = dlaplace_moments(lam, lam)
        fourth = oracles.dlaplace_moment_by_series(lam, 4)
        se_mean = math.sqrt(var / n)
        se_var = math.sqrt((fourth - var**2) / n)
        worst_mean_z = max(worst_mean_z, abs(float(draws.mean())) / se_mean)
        worst_var_z = max(worst_var_z, abs(float(draws.var()) - var) / se_var)

    # at mu = lam the law must give the symmetric closed forms
    collapse = 0.0
    for lam in (0.3, math.exp(-1), 0.7):
        z = np.arange(-20, 21)
        collapse = max(
            collapse, float(np.max(np.abs(
                np.exp(_log_pmf(z, lam, lam)) - oracles.dlaplace_pmf_closed_form(z, lam)
            )))
        )
        mean, var, mean_abs = dlaplace_moments(lam, lam)
        collapse = max(
            collapse,
            abs(mean),
            abs(var - 2 * lam / (1 - lam) ** 2),
            abs(mean_abs - 2 * lam / (1 - lam**2)),
        )
    ok = worst_mean_z <= 3.0 and worst_var_z <= 3.0 and collapse <= 1e-14
    _report(
        "7 moments",
        ok,
        f"max |mean|/SE={worst_mean_z:.2f} <= 3, max |var err|/SE={worst_var_z:.2f} <= 3, "
        f"skew collapse={collapse:.1e} <= 1e-14",
    )
    assert worst_mean_z <= 3.0
    assert worst_var_z <= 3.0
    assert collapse <= 1e-14


def test_c08_dp_ratio():
    worst = 0.0
    for eps in (1.0, 2.0):
        value = worst_case_log_ratio(calibrate(eps, 2), window=30)
        worst = max(worst, abs(value - eps))
    ok = worst <= 1e-10
    _report("8 dp ratio", ok, f"max |ratio - eps|={worst:.2e} <= 1e-10")
    assert ok


def test_c09_inverse_approximation_scaling():
    ratios = {}
    for q in (2, 3):
        gap50 = oracles.inverse_approximation(np.zeros(50), q).max_entry_gap
        gap100 = oracles.inverse_approximation(np.zeros(100), q).max_entry_gap
        ratios[q] = gap50 / gap100
    ok = all(3.0 <= r <= 5.5 for r in ratios.values())
    _report(
        "9 inverse gap",
        ok,
        f"q=2 ratio={ratios[2]:.3f}, q=3 ratio={ratios[3]:.3f}, both in [3.0,5.5]",
    )
    assert ok


def test_c10_consistency_rate_trend():
    rows = rate_study([100, 400], 3, "zero", "fixed:2", reps=300, master_seed=SEED)
    ratio = rows[0].median_inf_error / rows[1].median_inf_error
    ok = 1.6 <= ratio <= 2.6
    _report(
        "10 rate trend",
        ok,
        f"median(100)={rows[0].median_inf_error:.4f}, "
        f"median(400)={rows[1].median_inf_error:.4f}, ratio={ratio:.3f} in [1.6,2.6]",
    )
    assert ok
