"""Root-finding estimator for node parameters from a noisy degree sequence.

The estimate solves the moment equations

    d_bar_i = sum_{j != i} E(a_ij | alpha_i + alpha_j),  i = 1..n,

by damped Newton iteration.  The equations are the gradient of a strictly
convex function, so they have at most one root, and nodes with equal noisy
degree get equal estimates.  The solver therefore works on the K distinct
noisy degrees, one parameter per class of tied nodes: each step is one
K-by-K linear solve (LU, through ``numpy.linalg.solve``), whatever n is.
The inputs are checked once per solve.  Each point the iteration evaluates
costs one pass of the model's moment kernel over the class pairs, which
gives the residual and the edge-weight variances that build the next
step's matrix.  For q = 2 and 3 the iteration starts from a closed-form
one-class root per class; for larger q it starts from zero.  From there
it first tries up to two diagonal steps f_a / v_aa, the fixed-point step
of Chatterjee, Diaconis & Sly (2011), which V^-1 ~ diag(1 / v_ii) (Yan &
Xu 2013) justifies: each costs one kernel pass and no linear solve, and
closes most of the distance from a far start.
Per-node precision comes from the plug-in diagonal of the Jacobian at the
solution, the variances of the last pass, which backs normal-approximation
confidence intervals for single parameters and for contrasts.

A root exists iff the noisy degrees lie inside the polytope (q-1) D_n of
expected degree sequences (Rinaldo, Petrovic & Fienberg 2013), which is
decided before iterating; an iteration that fails (singular system or
budget spent) had a root to find.  Both are reported as data, not raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

import numpy as np

from .model import (
    _as_alpha,
    _check_q,
    _class_jacobian,
    _classes,
    _integer,
    _moments,
    _node_sums,
    degree_jacobian,
)

STATUS_CONVERGED = "converged"
STATUS_INFEASIBLE = "nonexistent_infeasible_degree"
STATUS_DIVERGED = "nonexistent_diverged"

_MIN_STEP = 2.0**-40
# Diagonal (fixed-point) steps tried before the first Newton step; two
# close most of the distance from the one-class start at n = 1000.
_DIAGONAL_STEPS = 2
# Largest n ``inverse_approximation`` inverts densely.
_DENSE_INVERSE_CAP = 2000


@dataclass
class FitResult:
    """Outcome of one solve of the moment equations.

    ``status`` is one of "converged", "nonexistent_infeasible_degree" (no
    root: the nodes in ``infeasible_nodes`` break the polytope, see
    ``solve``; nothing was iterated) or "nonexistent_diverged" (budget spent
    or singular system).  The estimate and plug-in variances are present
    only when converged.
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
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(self).items()
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def solve(
    d_bar,
    q: int,
    tol: float = 1e-10,
    max_iter: int = 200,
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
        Convergence threshold on the sup norm of the residual, 0 < tol < inf.
    max_iter:
        Iteration budget, diagonal and Newton steps together; an integer
        >= 0.

    Notes
    -----
    The nodes are grouped once into the K distinct values d_a of d_bar,
    with counts c_a, and every iterate is constant on each class: with P
    the n-by-K class-indicator matrix, the step for the class parameters
    beta solves the K-by-K system (P^T V P) delta = C f, C = diag(c), by one
    LU solve, and gives the same iterates as the n-by-n system.  Each step
    applies beta <- beta + step * delta, halving step while the residual
    sup norm does not decrease.  The inputs are checked and the classes
    laid out once per call; each point evaluated then costs one kernel
    pass, which gives both E(d), hence f, and the pair variances, hence
    the next step's matrix and, at the root, ``v_hat_diag``.

    For q = 2 and 3 the iteration starts from the one-class roots
    (``_one_class_roots``), the solution if every node shared its class's
    noisy degree; for larger q it starts from zero.  Before the first
    Newton step at most two diagonal steps beta <- beta + f / v, with v
    the class's ``v_hat_diag`` at the current point, are taken: a step is
    kept only if its full length lowers the residual sup norm, and the
    first one that does not ends them, without halving.  They need only
    the variances of the pass already made, and each kept one counts in
    ``iterations`` and against ``max_iter``.

    Noisy degrees outside the open polytope (q-1) D_n have no root, which
    is reported without iterating.  ``infeasible_nodes`` then lists the
    nodes outside (0, (n-1)(q-1)) if there are any, else the nodes S u T of
    the broken inequality (see ``_outside_polytope``) with the fewest nodes.
    """
    q, max_iter = _check_q(q), _integer(max_iter, "max_iter", 0)
    d_bar = np.asarray(d_bar, dtype=float)
    if d_bar.ndim != 1 or d_bar.shape[0] < 2:
        raise ValueError("d_bar must be a vector of length >= 2.")
    if not np.all(np.isfinite(d_bar)):
        raise ValueError("d_bar must contain only finite values.")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must satisfy 0 < tol < inf.")
    n = d_bar.shape[0]
    d_class, node_class, counts = np.unique(
        d_bar, return_inverse=True, return_counts=True
    )
    broken = _outside_polytope(d_class, counts, node_class, q)
    if broken.size:
        outside = np.flatnonzero((d_bar <= 0) | (d_bar >= (n - 1) * (q - 1)))
        return FitResult(
            status=STATUS_INFEASIBLE,
            n=n,
            q=q,
            tolerance=tol,
            iterations=0,
            infeasible_nodes=(outside if outside.size else broken).tolist(),
        )

    cls = _classes(counts)
    beta = _one_class_roots(d_class, n, q)

    def evaluate(point):
        """The residual, its sup norm and the pair variances at a point,
        from one kernel pass."""
        mean, pair_var = _moments(point, q, cls)
        r = d_class - _node_sums(cls, mean)
        return r, float(np.max(np.abs(r))), pair_var

    f, fnorm, var = evaluate(beta)
    iterations = 0

    for _ in range(_DIAGONAL_STEPS):
        if fnorm <= tol or iterations >= max_iter:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cand = beta + f / _node_sums(cls, var)
        if not np.all(np.isfinite(cand)):
            break
        fc, cnorm, var_c = evaluate(cand)
        if not cnorm < fnorm:
            break
        beta, f, fnorm, var = cand, fc, cnorm, var_c
        iterations += 1

    while fnorm > tol and iterations < max_iter:
        try:
            delta = np.linalg.solve(_class_jacobian(cls, var), cls.c * f)
        except np.linalg.LinAlgError:
            return _diverged(n, q, tol, iterations, fnorm)
        if not np.all(np.isfinite(delta)):
            return _diverged(n, q, tol, iterations, fnorm)

        step = 1.0
        accepted = False
        while step >= _MIN_STEP:
            cand = beta + step * delta
            fc, cnorm, var_c = evaluate(cand)
            if cnorm < fnorm:
                beta, f, fnorm, var = cand, fc, cnorm, var_c
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
        v_hat_diag=_node_sums(cls, var)[node_class],
    )


def _outside_polytope(d, counts, node_class, q: int) -> np.ndarray:
    """The nodes S u T of the fewest-node broken inequality of the open
    polytope (q-1) D_n (Stanley 1991), or an empty array if none breaks:
    sum_S d - sum_T d < (q-1) |S| (n-1-|T|), S and T disjoint, not both
    empty.  d, counts and node_class are ``np.unique``'s.  For each |S| the
    tightest has S the top nodes and T the others below (q-1) |S|, so
    S = the top j classes, T = the bottom i[j], j = 0..K, decide; T is not
    empty when S is.  At n = 2 this gives the relative interior: tied
    degrees in (0, q-1).  In float, as (q-1) n^2 can overflow int64."""
    k, m = d.shape[0], float(q - 1)
    size = np.concatenate(([0], np.cumsum(counts)))  # nodes in bottom classes
    mass = np.concatenate(([0.0], np.cumsum(counts * d)))  # and their degrees
    s, top = size[-1] - size[::-1], mass[-1] - mass[::-1]  # the same, top
    i = np.minimum(np.searchsorted(d, m * s), k - np.arange(k + 1))
    i[0] = max(i[0], 1)
    slack = m * s * (size[-1] - 1 - size[i]) - top + mass[i]
    broken = np.flatnonzero(slack <= 0)
    if broken.size:
        j = broken[np.argmin((s + size[i])[broken])]
        broken = np.flatnonzero((node_class >= k - j) | (node_class < i[j]))
    return broken


def _one_class_roots(d: np.ndarray, n: int, q: int) -> np.ndarray:
    """Per class a, the root beta_a of (n-1) E(a | 2 beta_a) = d_a: the
    estimate if all n nodes had noisy degree d_a (Chatterjee, Diaconis & Sly
    2011 start their fixed-point iteration from the same idea).

    With x = exp(2 beta) and m = d/(n-1) the equation is
    sum_k (k - m) x^k = 0, whose positive root for q <= 3 is
    x = 2m / ((1-m) + sqrt((1-m)^2 + 4(q-2)(2-m)m)), a form with no
    cancellation.  Above the midpoint m > (q-1)/2 the symmetry
    E(a | -s) = (q-1) - E(a | s) maps the root to that of (q-1) - m, so
    nothing cancels near the upper end either.  For q >= 4 this returns
    zeros.
    """
    if q > 3:
        return np.zeros(d.shape[0])
    dmax = (n - 1) * (q - 1)
    upper = 2.0 * d > dmax
    m = np.where(upper, dmax - d, d) / (n - 1)
    root = np.sqrt((1.0 - m) ** 2 + 4.0 * (q - 2) * (2.0 - m) * m)
    x = 2.0 * m / ((1.0 - m) + root)
    return np.where(upper, -0.5, 0.5) * np.log(x)


def _diverged(n, q, tol, iterations, fnorm) -> FitResult:
    return FitResult(
        status=STATUS_DIVERGED,
        n=n,
        q=q,
        tolerance=tol,
        iterations=iterations,
        residual_inf=fnorm,
    )


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------


@dataclass
class ConfidenceInterval:
    """Normal-approximation interval for the contrast alpha_i - alpha_j.

    When the nodes are given as index arrays, ``i``, ``j``, ``point``,
    ``half_width`` and ``se`` are arrays with one entry per pair.
    """

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
    # Wichura's AS241 from the standard library, good to about 1e-16
    # relative: scipy's ndtri agrees to 2e-15 but its import adds about
    # 60 ms and 4 MB to every process.
    return NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)


def contrast_ci(fit: FitResult, i, j, level: float = 0.95) -> ConfidenceInterval:
    """Interval alpha_hat_i - alpha_hat_j +- z * (1/v_ii + 1/v_jj)^(1/2).

    ``i`` and ``j`` are node indices, or equal-length index arrays for one
    interval per pair.
    """
    if np.any(np.asarray(i) == np.asarray(j)):
        raise ValueError("contrast needs two distinct nodes.")
    _require_converged(fit)
    z = _z(level)
    point = fit.alpha_hat[i] - fit.alpha_hat[j]
    se = np.sqrt(1.0 / fit.v_hat_diag[i] + 1.0 / fit.v_hat_diag[j])
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


# ---------------------------------------------------------------------------
# theory-side diagnostics
# ---------------------------------------------------------------------------


@dataclass
class InverseApproxReport:
    """Gap between the exact Jacobian inverse and its diagonal surrogate."""

    max_entry_gap: float
    s_diag: np.ndarray
    inv_inf_norm: float


def inverse_approximation(alpha, q: int) -> InverseApproxReport:
    """Compare the exact inverse Jacobian with the diagonal approximation.

    Computes V^{-1} by dense inversion and S with S_ij = delta_ij / v_ii,
    returning the largest absolute entry of V^{-1} - S, the S diagonal, and
    the sup-norm (max absolute row sum) of V^{-1}.  Dense inversion caps the
    usable size at ``_DENSE_INVERSE_CAP`` nodes; intended as a diagnostic at
    moderate n.
    """
    a = _as_alpha(alpha)
    if a.shape[0] > _DENSE_INVERSE_CAP:
        raise ValueError(
            f"n={a.shape[0]} too large for dense inversion cap {_DENSE_INVERSE_CAP}."
        )
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
