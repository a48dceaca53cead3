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
Xu 2013) justifies: each costs one kernel pass and no linear solve.
Per-node precision comes from the plug-in diagonal of the Jacobian at the
solution, the variances of the last pass, which backs normal-approximation
confidence intervals for single parameters and for contrasts.

A root exists iff the noisy degrees lie inside the polytope (q-1) D_n of
expected degree sequences (Rinaldo, Petrovic & Fienberg 2013), which is
decided before iterating; an iteration that fails (singular system or
budget spent) had a root to find.  Both are reported as data, not raised.

Many sequences of one length, such as the replications of a study, are
solved together (``solve_many``): they iterate in lock-step rounds, and
each round evaluates the points of all of them in one kernel pass over
their classes laid side by side and stacks the LU solves of systems of
equal size.  At n = 100 a sequence has some 40 classes, so a solve alone
costs mostly numpy call overhead, which a round shares.  Every operation
on the shared arrays works entry by entry or within one sequence's
entries, so a sequence's result is bit-identical to solving it alone,
whatever its batch-mates.  ``solve`` is the batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

import numpy as np

from .model import (
    _check_q,
    _class_jacobian,
    _classes,
    _integer,
    _moments,
    _node_sums,
)

STATUS_CONVERGED = "converged"
STATUS_INFEASIBLE = "nonexistent_infeasible_degree"
STATUS_DIVERGED = "nonexistent_diverged"

_MIN_STEP = 2.0**-40
# Diagonal (fixed-point) steps tried before the first Newton step.
_DIAGONAL_STEPS = 2


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
    the class's ``v_hat_diag`` at the current point, are taken: the
    fixed-point step of Chatterjee, Diaconis & Sly (2011), which treats the
    inverse Jacobian as diag(1 / v_ii) (Yan & Xu 2013).  A step is kept
    only if its full length lowers the residual sup norm, and the first
    one that does not ends them, without halving.  They need only the
    variances of the pass already made, and each kept one counts in
    ``iterations`` and against ``max_iter``.

    Noisy degrees outside the open polytope (q-1) D_n have no root, which
    is reported without iterating.  ``infeasible_nodes`` then lists the
    nodes outside (0, (n-1)(q-1)) if there are any, else the nodes S u T of
    the broken inequality (see ``_outside_polytope``) with the fewest nodes.

    This is ``solve_many`` on a batch of one sequence.  There, many
    sequences take these steps in lock-step rounds that share each kernel
    pass and stack equal-size LU solves; every operation works entry by
    entry or within one sequence, so the fit returned here is the one the
    same d_bar gets in any batch, to the last bit.
    """
    d_bar = np.asarray(d_bar, dtype=float)
    if d_bar.ndim != 1 or d_bar.shape[0] < 2:
        raise ValueError("d_bar must be a vector of length >= 2.")
    return solve_many(d_bar[None], q, tol, max_iter)[0]


def solve_many(
    D,
    q: int,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> list[FitResult]:
    """``solve`` for each row of D, a (B, n) array of noisy degree
    sequences, iterated together; the fits come back in row order.

    Each sequence takes the steps ``solve`` describes, and all of them move
    in lock-step rounds.  In a round every sequence still iterating
    proposes one point: a diagonal step, a Newton step (its LU solve
    stacked with those of the other sequences with as many classes), or
    the next halving of one.  The classes of all of them are laid out side
    by side, pairs joining classes of one sequence only, so the round
    evaluates every proposed point in one kernel pass and one bincount per
    node sum, and takes each sequence's sup norm as the maximum over its
    own classes.  A sequence that converges or fails leaves the layout.

    A sequence's result does not depend on the others in its batch, to the
    last bit: the kernel and its sums over weight classes work entry by
    entry, a bincount adds a class's pairs in the order one sequence lays
    them out, and a stacked LU solve factors each matrix as a single one
    would.  Systems are never padded to a common size, which would change
    the LU result.
    """
    q, max_iter = _check_q(q), _integer(max_iter, "max_iter", 0)
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[1] < 2:
        raise ValueError("D must hold degree sequences of length >= 2 as rows.")
    if not np.all(np.isfinite(D)):
        raise ValueError("d_bar must contain only finite values.")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must satisfy 0 < tol < inf.")
    n = D.shape[1]
    fits: list = [None] * D.shape[0]
    rows, d_class, node_class, counts = [], [], [], []
    for b, d_bar in enumerate(D):
        d, inverse, c = np.unique(d_bar, return_inverse=True, return_counts=True)
        broken = _outside_polytope(d, c, inverse, q)
        if broken.size:
            outside = np.flatnonzero((d_bar <= 0) | (d_bar >= (n - 1) * (q - 1)))
            fits[b] = FitResult(
                status=STATUS_INFEASIBLE,
                n=n,
                q=q,
                tolerance=tol,
                iterations=0,
                infeasible_nodes=(outside if outside.size else broken).tolist(),
            )
        else:
            rows.append(b)
            d_class.append(d)
            node_class.append(inverse)
            counts.append(c)
    if rows:
        sizes = [c.shape[0] for c in counts]
        d, counts = np.concatenate(d_class), np.concatenate(counts)
        for r, fit in _iterate(d, counts, sizes, node_class, n, q, tol, max_iter):
            fits[rows[r]] = fit
    return fits


def _iterate(d, counts, sizes, node_class, n, q, tol, max_iter):
    """The rounds of ``solve_many`` over feasible sequences r = 0, 1, ...
    with sizes[r] classes each, whose distinct degrees d and counts lie
    side by side; yields (r, fit) as each one ends.

    A sequence's own state is a few numbers kept in lists: its sup norm,
    its iterations, whether it failed (a singular or non-finite Newton
    direction, or a step halved below ``_MIN_STEP``), and step: below 0,
    minus the diagonal steps it may still try; 0, it needs a Newton
    direction; above 0, the length of its next Newton step.  The state of
    its classes (the point beta, the residual f, the direction) and pairs
    (the variances of the last accepted pass) lies in the shared arrays.
    """
    live = list(range(len(sizes)))

    def lay_out(counts):
        """The class layout, each class's sequence, and where each
        sequence's classes and pairs start in it."""
        k = np.array(sizes)
        pairs = k * (k - 1) // 2
        return (
            _classes(counts, k),
            np.arange(k.shape[0]).repeat(k),
            np.cumsum(k) - k,
            np.cumsum(pairs) - pairs,
        )

    cls, seq, starts, pair_starts = lay_out(counts)

    def evaluate(point):
        """The residual, each sequence's sup norm and the pair variances
        at a point, from one kernel pass."""
        mean, pair_var = _moments(point, q, cls)
        r = d - _node_sums(cls, mean)
        return r, np.maximum.reduceat(np.abs(r), starts).tolist(), pair_var

    beta = _one_class_roots(d, n, q)
    f, fnorm, var = evaluate(beta)
    iterations, failed = [0] * len(live), [False] * len(live)
    step = [-float(_DIAGONAL_STEPS)] * len(live)
    delta = np.zeros(cls.k)
    cells = {}  # per class count k, the cells a*k + b of its class pairs a < b

    while True:
        going = [
            norm > tol and its < max_iter and not bad
            for norm, its, bad in zip(fnorm, iterations, failed)
        ]
        if not all(going):
            converged = [not norm > tol and not bad for norm, bad in zip(fnorm, failed)]
            if any(converged):
                v_hat = _node_sums(cls, var)
            for r in range(len(live)):
                if going[r]:
                    continue
                if converged[r]:
                    own = slice(starts[r], starts[r] + sizes[r])
                    nodes = node_class[live[r]]
                    fit = FitResult(
                        status=STATUS_CONVERGED,
                        n=n,
                        q=q,
                        tolerance=tol,
                        iterations=iterations[r],
                        alpha_hat=beta[own][nodes],
                        residual_inf=fnorm[r],
                        v_hat_diag=v_hat[own][nodes],
                    )
                else:
                    fit = _diverged(n, q, tol, iterations[r], fnorm[r])
                yield live[r], fit
            if not any(going):
                return
            keep = np.array(going)[seq]
            var = np.concatenate((var[: -cls.k][keep[cls.iu]], var[-cls.k :][keep]))
            beta, f, d, delta = beta[keep], f[keep], d[keep], delta[keep]
            live, sizes, fnorm, iterations, failed, step = (
                [x for x, on in zip(xs, going) if on]
                for xs in (live, sizes, fnorm, iterations, failed, step)
            )
            cls, seq, starts, pair_starts = lay_out(cls.c[keep])

        diagonal = [s < 0 for s in step]
        if any(diagonal):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                fixed_point = beta + f / _node_sums(cls, var)
            finite = np.logical_and.reduceat(np.isfinite(fixed_point), starts)
            for r in np.flatnonzero(~finite):
                if diagonal[r]:
                    diagonal[r], step[r] = False, 0.0
        if 0.0 in step:
            rhs = cls.c * f
            for k in sorted({k for k, s in zip(sizes, step) if s == 0.0}):
                group = [r for r in range(len(live)) if sizes[r] == k and step[r] == 0.0]
                idx = starts[group][:, None] + np.arange(k)
                pairs = k * (k - 1) // 2
                if k not in cells:
                    first = slice(pair_starts[group[0]], pair_starts[group[0]] + pairs)
                    cells[k] = cls.iu[first] * k + cls.ju[first] - idx[0, 0] * (k + 1)
                if len(live) == 1:  # the whole layout is this sequence's
                    var_rows = var[None]
                else:
                    own_idx = var.shape[0] - cls.k + idx
                    pair_idx = pair_starts[group][:, None] + np.arange(pairs)
                    var_rows = var[np.concatenate((pair_idx, own_idx), axis=1)]
                found = _newton_directions(
                    _class_jacobian(cls.c[idx], var_rows, cells[k]), rhs[idx]
                )
                finite = np.isfinite(found).all(axis=1)
                if not finite.all():
                    found[~finite] = 0.0
                delta[idx] = found
                for r, ok in zip(group, finite.tolist()):
                    step[r], failed[r] = 1.0, not ok

        cand = beta + np.array(step)[seq] * delta
        if any(diagonal):
            cand = np.where(np.array(diagonal)[seq], fixed_point, cand)
        fc, cnorm, var_c = evaluate(cand)
        better = [c < norm and not bad for c, norm, bad in zip(cnorm, fnorm, failed)]
        if all(better):
            beta, f, var = cand, fc, var_c
        elif any(better):
            keep = np.array(better)[seq]
            np.copyto(beta, cand, where=keep)
            np.copyto(f, fc, where=keep)
            np.copyto(var, var_c, where=np.concatenate((keep[cls.iu], keep)))
        for r in range(len(live)):
            if better[r]:
                fnorm[r] = cnorm[r]
                iterations[r] += 1
            if diagonal[r]:
                step[r] = step[r] + 1.0 if better[r] else 0.0
            elif better[r]:
                step[r] = 0.0
            elif not failed[r]:
                step[r] *= 0.5
                failed[r] = step[r] < _MIN_STEP


def _newton_directions(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solutions of the stacked systems jac[r] x = rhs[r], one LU solve
    each; the row of a singular system is NaN."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # raised for the whole stack
        out = np.full(rhs.shape, np.nan)
        for r in range(jac.shape[0]):
            try:
                out[r] = np.linalg.solve(jac[r : r + 1], rhs[r : r + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


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
