"""Root-finding estimator for node parameters from a noisy degree sequence.

The estimate solves the moment equations

    d_bar_i = sum_{j != i} E(a_ij | alpha_i + alpha_j),  i = 1..n,

by damped Newton iteration.  The equations are the gradient of a strictly
convex function, so they have at most one root, and nodes with equal noisy
degree get equal estimates.  The solver therefore works on the K distinct
noisy degrees, one parameter per class of tied nodes: each step is one
K-by-K linear solve (LU, through ``numpy.linalg.solve``), whatever n is.
Per-node precision comes from the plug-in diagonal of the Jacobian at the
solution, which backs normal-approximation confidence intervals for single
parameters and for contrasts.

An estimate can fail to exist: either some noisy degree falls outside the
open attainable range (detected before iterating) or the iteration fails to
find a root (no root, singular system, or iteration budget exhausted).
Both outcomes are reported as data, not raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

import numpy as np

from .model import (
    _as_alpha,
    _check_q,
    degree_jacobian,
    degree_variances,
    expected_degrees,
)

STATUS_CONVERGED = "converged"
STATUS_INFEASIBLE = "nonexistent_infeasible_degree"
STATUS_DIVERGED = "nonexistent_diverged"

_MIN_STEP = 2.0**-40


def residual(alpha, d_bar, q: int) -> np.ndarray:
    """Moment-equation residual d_bar - E(d) at the given parameters."""
    a = _as_alpha(alpha)
    d_bar = np.asarray(d_bar, dtype=float)
    if d_bar.shape != a.shape:
        raise ValueError(
            f"length mismatch: alpha has {a.shape[0]} entries, "
            f"d_bar has {d_bar.shape[0]}."
        )
    return d_bar - expected_degrees(a, q)


@dataclass
class FitResult:
    """Outcome of one solve of the moment equations.

    ``status`` is one of "converged", "nonexistent_infeasible_degree" (some
    noisy degree outside the open range (0, (n-1)(q-1)); nothing was
    iterated) or "nonexistent_diverged" (no root found numerically).  The
    estimate and plug-in variances are present only when converged.
    """

    status: str
    n: int
    q: int
    tolerance: float
    iterations: int
    alpha_hat: Optional[np.ndarray] = None
    residual_inf: Optional[float] = None
    v_hat_diag: Optional[np.ndarray] = None
    infeasible_nodes: list[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "n": self.n,
            "q": self.q,
            "tolerance": self.tolerance,
            "iterations": self.iterations,
            "alpha_hat": None if self.alpha_hat is None else self.alpha_hat.tolist(),
            "residual_inf": self.residual_inf,
            "v_hat_diag": None if self.v_hat_diag is None else self.v_hat_diag.tolist(),
            "infeasible_nodes": list(self.infeasible_nodes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def solve(
    d_bar,
    q: int,
    tol: float = 1e-10,
    max_iter: int = 200,
    step_cap: float = 5.0,
) -> FitResult:
    """Solve the moment equations for the node parameters.

    Parameters
    ----------
    d_bar:
        Noisy degree sequence, length n >= 2; a non-finite entry raises
        ValueError.
    q:
        Weight-class count of the generating model.
    tol:
        Convergence threshold on the sup norm of the residual.
    max_iter:
        Newton iteration budget.
    step_cap:
        Bound on the sup norm of one raw Newton step; keeps distant
        starting points from overshooting into regions where the Jacobian
        degenerates.

    Notes
    -----
    The iteration starts from zero.  Each step solves V(alpha) delta =
    F(alpha) and applies alpha <- alpha + step * delta, halving step while
    the residual sup norm does not decrease.  The nodes are grouped once
    into the K distinct values d_a of d_bar, with counts c_a, and every
    iterate is constant on each class: with P the n-by-K class-indicator
    matrix, the step for the class parameters beta solves the K-by-K
    system (P^T V P) delta = C f, C = diag(c), by one LU solve, and gives
    the same iterates as the n-by-n system.
    Noisy degrees outside the open interval (0, (n-1)(q-1)) make the
    equations unsolvable, which is reported without iterating.
    """
    q = _check_q(q)
    d_bar = np.asarray(d_bar, dtype=float)
    if d_bar.ndim != 1 or d_bar.shape[0] < 2:
        raise ValueError("d_bar must be a vector of length >= 2.")
    if not np.all(np.isfinite(d_bar)):
        raise ValueError("d_bar must contain only finite values.")
    if tol <= 0:
        raise ValueError("tol must be > 0.")
    n = d_bar.shape[0]
    dmax = (n - 1) * (q - 1)

    bad = np.where((d_bar <= 0) | (d_bar >= dmax))[0]
    if bad.size:
        return FitResult(
            status=STATUS_INFEASIBLE,
            n=n,
            q=q,
            tolerance=tol,
            iterations=0,
            infeasible_nodes=bad.tolist(),
        )

    d_class, node_class, counts = np.unique(
        d_bar, return_inverse=True, return_counts=True
    )
    counts = counts.astype(float)
    beta = np.zeros(d_class.shape[0])

    f = d_class - expected_degrees(beta, q, counts)
    fnorm = float(np.max(np.abs(f)))
    iterations = 0

    while fnorm > tol and iterations < max_iter:
        try:
            delta = np.linalg.solve(degree_jacobian(beta, q, counts), counts * f)
        except np.linalg.LinAlgError:
            return _diverged(n, q, tol, iterations, fnorm)
        if not np.all(np.isfinite(delta)):
            return _diverged(n, q, tol, iterations, fnorm)
        dnorm = float(np.max(np.abs(delta)))
        if dnorm > step_cap:
            delta = delta * (step_cap / dnorm)

        step = 1.0
        accepted = False
        while step >= _MIN_STEP:
            cand = beta + step * delta
            fc = d_class - expected_degrees(cand, q, counts)
            cnorm = float(np.max(np.abs(fc)))
            if cnorm < fnorm:
                beta, f, fnorm = cand, fc, cnorm
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return _diverged(n, q, tol, iterations, fnorm)
        iterations += 1

    if fnorm > tol:
        return _diverged(n, q, tol, iterations, fnorm)

    return FitResult(
        status=STATUS_CONVERGED,
        n=n,
        q=q,
        tolerance=tol,
        iterations=iterations,
        alpha_hat=beta[node_class],
        residual_inf=fnorm,
        v_hat_diag=degree_variances(beta, q, counts)[node_class],
    )


def _diverged(n, q, tol, iterations, fnorm) -> FitResult:
    return FitResult(
        status=STATUS_DIVERGED,
        n=n,
        q=q,
        tolerance=tol,
        iterations=iterations,
        residual_inf=fnorm,
    )


def normal_quantile(p: float) -> float:
    """Standard normal quantile for p in (0, 1).

    Wichura's AS241 algorithm from the standard library, good to about 1e-16
    relative; ``scipy.special.ndtri`` agrees to 2e-15 but its import adds
    about 60 ms and 4 MB to every process.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly in (0, 1).")
    return NormalDist().inv_cdf(p)


# ---------------------------------------------------------------------------
# confidence intervals and standardized contrasts
# ---------------------------------------------------------------------------


@dataclass
class ConfidenceInterval:
    """Normal-approximation interval for the contrast alpha_i - alpha_j."""

    i: int
    j: int
    point: float
    half_width: float
    se: float
    level: float

    @property
    def lo(self) -> float:
        return self.point - self.half_width

    @property
    def hi(self) -> float:
        return self.point + self.half_width


def _require_converged(fit: FitResult) -> None:
    if not fit.converged:
        raise ValueError(f"fit did not converge (status={fit.status}).")


def _z(level: float) -> float:
    """The two-sided normal critical value of a level in (0, 1)."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly in (0, 1).")
    return normal_quantile(1.0 - (1.0 - level) / 2.0)


def contrast_ci(
    fit: FitResult, i: int, j: int, level: float = 0.95
) -> ConfidenceInterval:
    """Interval alpha_hat_i - alpha_hat_j +- z * (1/v_ii + 1/v_jj)^(1/2)."""
    if i == j:
        raise ValueError("contrast needs two distinct nodes.")
    _require_converged(fit)
    z = _z(level)
    point = float(fit.alpha_hat[i] - fit.alpha_hat[j])
    se = math.sqrt(1.0 / fit.v_hat_diag[i] + 1.0 / fit.v_hat_diag[j])
    return ConfidenceInterval(i, j, point, half_width=z * se, se=se, level=level)


def node_intervals(
    fit: FitResult, level: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Intervals alpha_hat_i +- z / sqrt(v_ii) for every node, as the arrays
    (se, half_width) of standard errors 1 / sqrt(v_ii) and half-widths."""
    _require_converged(fit)
    z = _z(level)
    se = 1.0 / np.sqrt(fit.v_hat_diag)
    return se, z * se


def standardized_contrast(fit: FitResult, i: int, j: int, alpha_star) -> float:
    """Estimated contrast error scaled by its plug-in standard error.

    [alpha_hat_i - alpha_hat_j - (alpha_star_i - alpha_star_j)]
    / (1/v_ii + 1/v_jj)^(1/2); approximately standard normal for converged
    fits when the model holds.  Requires the true parameters, so this is a
    simulation-side quantity.
    """
    _require_converged(fit)
    if i == j:
        raise ValueError("contrast needs two distinct nodes.")
    truth = _as_alpha(alpha_star)
    num = (fit.alpha_hat[i] - fit.alpha_hat[j]) - (truth[i] - truth[j])
    den = math.sqrt(1.0 / fit.v_hat_diag[i] + 1.0 / fit.v_hat_diag[j])
    return float(num / den)


# ---------------------------------------------------------------------------
# theory-side diagnostics
# ---------------------------------------------------------------------------


@dataclass
class InverseApproxReport:
    """Gap between the exact Jacobian inverse and its diagonal surrogate."""

    max_entry_gap: float
    s_diag: np.ndarray
    inv_inf_norm: float


def inverse_approximation(alpha, q: int, max_n: int = 2000) -> InverseApproxReport:
    """Compare the exact inverse Jacobian with the diagonal approximation.

    Computes V^{-1} by dense inversion and S with S_ij = delta_ij / v_ii,
    returning the largest absolute entry of V^{-1} - S, the S diagonal, and
    the sup-norm (max absolute row sum) of V^{-1}.  Dense inversion caps the
    usable size; intended as a diagnostic at moderate n.
    """
    a = _as_alpha(alpha)
    if a.shape[0] > max_n:
        raise ValueError(f"n={a.shape[0]} too large for dense inversion cap {max_n}.")
    v = degree_jacobian(a, q)
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Jacobian is singular.") from exc
    s_diag = 1.0 / np.diagonal(v)
    gap = v_inv - np.diag(s_diag)
    return InverseApproxReport(
        max_entry_gap=float(np.max(np.abs(gap))),
        s_diag=s_diag,
        inv_inf_norm=float(np.max(np.abs(v_inv).sum(axis=1))),
    )
