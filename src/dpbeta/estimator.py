"""Root-finding estimator for node parameters from a noisy degree sequence.

The estimate solves the moment equations

    d_bar_i = sum_{j != i} E(a_ij | alpha_i + alpha_j),  i = 1..n,

by damped Newton iteration.  The equations are the gradient of a strictly
convex function, so they have at most one root, and nodes with equal noisy
degree get equal estimates.  The solver therefore works on the K distinct
noisy degrees, one parameter per class of tied nodes: each Newton step
solves one K-by-K linear system, whatever n is.  From 128 classes up it
is solved by conjugate gradients preconditioned by diag(1 / v_ii) less a
constant, the approximate inverse of Yan & Xu (2013): some six K-by-K
matrix-vector products in place of an O(K^3) factorization.  Below 128
classes their per-step numpy overhead costs more than that saves, so the
system is factored by LU (``numpy.linalg.solve``), as is one that CG
does not solve.
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
solved together (``solve_many``): they move in groups, every sequence of a
group taking the same kind and length of step each round, so a round
evaluates the group's points in one kernel pass over their classes laid
side by side; each sequence then solves its own Newton system.  At
n = 100 a sequence has some 40 classes, so a solve alone costs mostly
numpy call overhead, which a round's kernel pass shares.  Where some
sequences of a group reject a step that the others accept, the group
splits, and the rejecters go on from their last point as a group of their
own.  A group's arrays hold its own sequences only: a split lays each half
out anew, and a group drops the sequences that end.  Every operation on a
group's arrays works entry by entry or within one sequence's entries, so a
sequence's result is bit-identical to solving it alone, whatever its
batch-mates.  ``solve`` is the batch of one.
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
# Newton systems of at least this many classes are solved by conjugate
# gradients, smaller ones by LU.  A CG step is a dozen numpy calls, so a
# direction costs some 0.1-0.25 ms by CG from K = 40 to 318, while by LU
# it grows from ~0.02 to ~1.2 ms: they cross between K = 96 and 128.
_CG_CLASSES = 128
# A CG system is solved once ||r|| <= _CG_TOL ||b||; one not solved within
# _CG_STEPS steps goes to LU.  Study replications up to n = 2000 take 5-7
# steps; parameters spread over +-10 take up to about 20.
_CG_TOL = 1e-13
_CG_STEPS = 20


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
    beta solves the K-by-K system (P^T V P) delta = C f, C = diag(c), and
    gives the same iterates as the n-by-n system.  With K < 128 the system
    is factored by LU.  With K >= 128 it is solved by preconditioned
    conjugate gradients (``_conjugate_gradients``), or by LU if they do not
    reach a relative residual of 1e-13 within 20 steps; the two directions
    agree to rounding.  Each step applies beta <- beta + step * delta,
    halving step while the residual sup norm does not decrease.  The
    inputs are checked and the classes laid out once per call; each point
    evaluated then costs one kernel pass, which gives both E(d), hence f,
    and the pair variances, hence the next step's matrix and, at the root,
    ``v_hat_diag``.

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

    This is ``solve_many`` on a batch of one sequence.  There, groups of
    sequences take these steps together, sharing each kernel pass, each
    solving its own linear system, and split where their steps are rejected
    apart.  Every operation works entry by entry or within one sequence, so
    the fit returned here is the one the same d_bar gets in any batch, to
    the last bit.
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

    The batch is checked and laid out once: one row-wise sort gives every
    row's classes as ``np.unique`` gives them (``_row_classes``), and one
    padded pass over all rows decides which lie outside the polytope
    (``_outside_polytope``), searching each row's own classes once.  The
    classes of the other rows, side by side, are then iterated.

    Each sequence takes the steps ``solve`` describes, in groups on one
    schedule each: each round every sequence of a group still iterating
    takes a diagonal step while the group has one left, else a Newton step
    of one common length, halved when every sequence rejects it.  The
    classes of a group are laid out side by side, pairs joining classes of
    one sequence only, so the round evaluates its points in one kernel pass
    and one bincount per node sum, and takes each sequence's sup norm as
    the maximum over its own classes.  All sequences start as one group.
    Where some reject a step that the others accept, the group splits: the
    rejecters go on as a group of their own from their last point, with the
    diagonal steps ended or the step halved, as each would alone.  A
    sequence whose Newton direction is singular or non-finite ends there.
    A group's arrays cover exactly its own sequences: the sequences that
    end leave it, and at a split the rejecters are laid out alone, with
    their own points, residuals, directions and variances.

    A sequence's result does not depend on the others in its batch, to the
    last bit: the kernel and its sums over weight classes work entry by
    entry, a bincount adds a class's pairs in the order one sequence lays
    them out, and each Newton system is built from that sequence's own
    classes and pairs and solved on its own.
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
    if not fits:
        return fits
    d, counts, k, node_class = _row_classes(D)
    for b, broken in _outside_polytope(d, counts, k, node_class, q).items():
        outside = np.flatnonzero((D[b] <= 0) | (D[b] >= (n - 1) * (q - 1)))
        fits[b] = FitResult(
            status=STATUS_INFEASIBLE,
            n=n,
            q=q,
            tolerance=tol,
            iterations=0,
            infeasible_nodes=(outside if outside.size else broken).tolist(),
        )
    feasible = np.array([fit is None for fit in fits])
    if feasible.any():
        at = feasible.repeat(k)
        layout = np.flatnonzero(feasible), k[feasible], counts[at], d[at]
        # a candidate point can be non-finite: its residual is then NaN,
        # which rejects it, and the warnings say nothing
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for b, fit in _iterate(*layout, node_class, n, q, tol, max_iter):
                fits[b] = fit
    return fits


def _row_classes(D: np.ndarray):
    """``np.unique(row, return_inverse=True, return_counts=True)`` of every
    row of D at once, from one sort: the distinct values d and their counts
    of all rows, laid side by side, each row's number of classes k, and the
    (B, n) array of every node's class in its row.  Each row is argsorted
    as ``np.unique`` sorts it alone."""
    row = np.arange(D.shape[0])[:, None]
    order = np.argsort(D, axis=1)
    ranked = D[row, order]
    new = np.ones(D.shape, dtype=bool)  # where a row's next class starts
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new[:, 1:])
    rank = np.cumsum(new, axis=1) - 1
    k = rank[:, -1] + 1
    node_class = np.empty_like(rank)
    node_class[row, order] = rank
    first = np.flatnonzero(new)
    return ranked.reshape(-1)[first], np.diff(first, append=new.size), k, node_class


def _iterate(rows, k, counts, d, node_class, n, q, tol, max_iter):
    """The rounds of ``solve_many`` over its feasible rows, rows[r] having
    k[r] classes, with distinct degrees d and counts counts laid side by
    side and its nodes' classes node_class[rows[r]]; yields (row, fit) as
    each one ends.

    A group's schedule is three numbers: the steps taken, the diagonal steps
    left and the Newton step length.  Its point covers exactly its own
    sequences, laid out side by side: per class the point beta, the residual
    f and the direction, per pair the variances of that pass, each
    sequence's class pairs, then every class's own pair.  Once the ended
    sequences are yielded the group is cut to those still going, and where
    it splits each half is cut to its own, so no two groups share an array.
    """

    def lay_out(seqs, k, c, d_here):
        """The class layout of the rows seqs, with k[r] classes each of
        counts c and distinct degrees d_here side by side: the rows and
        their numbers of classes, the classes, the distinct degrees and
        where each one's classes and pairs start."""
        pairs = k * (k - 1) // 2
        cls = _classes(c, k)
        return seqs, k, cls, d_here, np.cumsum(k) - k, np.cumsum(pairs) - pairs

    def evaluate(layout, point):
        """The residual, each sequence's sup norm and the pair variances at
        a point, from one kernel pass; the norm is NaN at a non-finite
        point, so no step reaches one."""
        _, _, cls, d_here, starts, _ = layout
        mean, pair_var = _moments(point, q, cls)
        f = d_here - _node_sums(cls, mean)
        return f, np.maximum.reduceat(np.abs(f), starts), pair_var

    def narrow(keep, layout, beta, f, fnorm, var, delta):
        """The state of the sequences that keep selects, in a layout of
        their own; the state itself if keep selects them all."""
        if keep.all():
            return layout, beta, f, fnorm, var, delta
        seqs, sizes, cls, d_here = layout[:4]
        at = keep.repeat(sizes)
        pairs = np.concatenate((keep.repeat(sizes * (sizes - 1) // 2), at))
        here = lay_out(seqs[keep], sizes[keep], cls.c[at], d_here[at])
        return here, beta[at], f[at], fnorm[keep], var[pairs], delta[at]

    layout = lay_out(rows, k, counts, d)
    beta = _one_class_roots(d, n, q)
    f, fnorm, var = evaluate(layout, beta)
    delta = np.zeros(beta.shape[0])
    groups = [(layout, beta, f, fnorm, var, delta, 0, _DIAGONAL_STEPS, 1.0)]
    cells = {}  # per class count k, the cells a*k + b of its class pairs a < b

    while groups:
        layout, beta, f, fnorm, var, delta, iterations, diagonal, step = groups.pop()
        seqs, sizes, cls, _, starts, pair_starts = layout
        converged = fnorm <= tol
        going = ~converged & (iterations < max_iter and step >= _MIN_STEP)
        if not diagonal and step == 1.0:  # not halving: a new Newton direction
            rhs = cls.c * f
            for i in np.flatnonzero(going).tolist():
                k = sizes[i]
                at = slice(starts[i], starts[i] + k)
                pairs = slice(pair_starts[i], pair_starts[i] + k * (k - 1) // 2)
                if k not in cells:
                    cells[k] = cls.iu[pairs] * k + cls.ju[pairs] - starts[i] * (k + 1)
                own = var[-cls.k :][at]  # every class's own pair follows all pairs
                jac = _class_jacobian(cls.c[at], var[pairs], own, cells[k])
                by = _conjugate_gradients if k >= _CG_CLASSES else _lu
                delta[at] = by(jac, rhs[at])
                del jac  # K-by-K: not to be held through the next kernel pass
                going[i] = np.isfinite(delta[at]).all()

        if converged.any():
            v_hat = _node_sums(cls, var)
        for i in np.flatnonzero(~going).tolist():
            fit = FitResult(
                status=STATUS_CONVERGED if converged[i] else STATUS_DIVERGED,
                n=n,
                q=q,
                tolerance=tol,
                iterations=iterations,
                residual_inf=float(fnorm[i]),
            )
            if converged[i]:
                own = slice(starts[i], starts[i] + sizes[i])
                nodes = node_class[seqs[i]]
                fit.alpha_hat, fit.v_hat_diag = beta[own][nodes], v_hat[own][nodes]
            yield seqs[i], fit
        if not going.any():
            continue

        state = narrow(going, layout, beta, f, fnorm, var, delta)
        layout, beta, f, fnorm, var, delta = state
        cand = beta + (f / _node_sums(layout[2], var) if diagonal else step * delta)
        fc, cnorm, var_c = evaluate(layout, cand)
        better = cnorm < fnorm
        if not better.all():  # the rejecters split off, from their last point
            rejected = iterations, 0, step if diagonal else 0.5 * step
            groups.append((*narrow(~better, *state), *rejected))
        if better.any():
            accepted = iterations + 1, max(diagonal - 1, 0), 1.0
            moved = layout, cand, fc, cnorm, var_c, delta
            groups.append((*narrow(better, *moved), *accepted))


def _lu(jac, b):
    """The solution x of jac x = b, by LU; all NaN if jac is singular."""
    try:
        return np.linalg.solve(jac, b)
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan)


def _conjugate_gradients(jac, b):
    """The solution x of jac x = b for a class Jacobian, by preconditioned
    conjugate gradients, or by ``_lu`` if they leave it unsolved.

    The preconditioner is V^-1 ~ diag(1 / v_ii) less a constant (Yan & Xu
    2013): z = M^-1 r = r / J_aa - gamma sum(r), with gamma =
    (1 - tr J / 1'J1) / tr J.  M is then the diagonal of J plus a rank-one
    term w J_aa J_bb whose weight makes 1'M1 = 1'J1, and the spectrum of
    M^-1 J lies near 1 (within [0.92, 1.01] at n = 1000), so a system takes
    some six steps.  It is solved once ||r|| <= _CG_TOL ||b||; one that
    meets p'Jp <= 0 or a non-finite value, or is still unsolved after
    ``_CG_STEPS`` steps, goes to LU.
    """
    diag = jac.diagonal()
    trace = diag.sum()
    gamma = (1.0 - trace / jac.sum(axis=1).sum()) / trace
    inv = 1.0 / diag

    def precondition(r):
        return r * inv - gamma * r.sum()

    x, r = np.zeros_like(b), b
    p = z = precondition(r)
    rz = (r * z).sum()
    stop = _CG_TOL**2 * (b * b).sum()
    for _ in range(_CG_STEPS):
        jp = jac @ p
        pjp = (p * jp).sum()
        if not 0.0 < pjp < np.inf:
            break
        a = rz / pjp
        x = x + a * p
        r = r - a * jp
        if (r * r).sum() <= stop and np.isfinite(x).all():
            return x
        z = precondition(r)
        rz, rz_last = (r * z).sum(), rz
        p = z + (rz / rz_last) * p
    return _lu(jac, b)


def _outside_polytope(d, counts, k, node_class, q: int) -> dict:
    """Per row of a batch whose degrees break the open polytope (q-1) D_n
    (Stanley 1991), the nodes S u T of its fewest-node broken inequality:
    sum_S d - sum_T d < (q-1) |S| (n-1-|T|), S and T disjoint, not both
    empty.  d, counts, k and node_class are ``_row_classes``'s.  For each
    |S| the tightest has S the top nodes and T the others below (q-1) |S|,
    so S = the top j classes, T = the bottom i[j], j = 0..K, decide; T is
    not empty when S is.  At n = 2 this gives the relative interior: tied
    degrees in (0, q-1).  In float, as (q-1) n^2 can overflow int64.

    All rows are decided in one pass over (B, K_max + 1) arrays, each row's
    classes zero-padded at its end: a cumulative sum accumulates in order,
    so a row's prefix sums are those of the row alone.  Only the search for
    i[j] runs row by row, O(K log K) each."""
    n, m = node_class.shape[1], float(q - 1)
    width = int(k.max()) + 1
    filled = np.arange(width - 1) < k[:, None]
    c, cd = np.zeros(filled.shape, counts.dtype), np.zeros(filled.shape)
    c[filled], cd[filled] = counts, counts * d
    size = np.zeros((k.shape[0], width), counts.dtype)  # nodes in bottom classes
    mass = np.zeros(size.shape)  # and their degrees
    np.cumsum(c, axis=1, out=size[:, 1:])
    np.cumsum(cd, axis=1, out=mass[:, 1:])
    row = np.arange(k.shape[0])[:, None]
    bottom = k[:, None] - np.arange(width)  # classes below the top j; < 0: padding
    valid = bottom >= 0
    np.maximum(bottom, 0, out=bottom)
    s = n - size[row, bottom]  # nodes in the top j classes
    top = mass[row, k[:, None]] - mass[row, bottom]  # and their degrees
    ms = m * s
    i = np.empty(s.shape, dtype=np.intp)
    ends = np.cumsum(k).tolist()
    for r, lo, hi in zip(range(len(ends)), [0] + ends, ends):
        i[r] = np.searchsorted(d[lo:hi], ms[r])
    np.minimum(i, bottom, out=i)
    i[:, 0] = np.maximum(i[:, 0], 1)
    size_i = size[row, i]
    slack = ms * (n - 1 - size_i) - top + mass[row, i]
    broken = (slack <= 0) & valid
    nodes = {}
    for r in np.flatnonzero(broken.any(axis=1)).tolist():
        j = np.flatnonzero(broken[r])
        j = j[np.argmin((s[r] + size_i[r])[j])]
        nodes[r] = np.flatnonzero((node_class[r] >= k[r] - j) | (node_class[r] < i[r, j]))
    return nodes


def _one_class_roots(d: np.ndarray, n: int, q: int) -> np.ndarray:
    """Per class a, the root beta_a of (n-1) E(a | 2 beta_a) = d_a: the
    estimate if all n nodes had noisy degree d_a (Chatterjee, Diaconis & Sly
    2011 start their fixed-point iteration from the same idea).

    With x = exp(2 beta) and m = d/(n-1) the equation is
    sum_k (k - m) x^k = 0, whose positive root for q <= 3 is
    x = 2m / ((1-m) + sqrt((1-m)^2 + 4(q-2)(2-m)m)), a form with no
    cancellation.  Above the midpoint m > (q-1)/2 the symmetry
    E(a | -s) = (q-1) - E(a | s) maps the root to that of (q-1) - m, so
    nothing cancels near the upper end either.  Where x underflows to 0
    (a degree below about (n-1) 5e-324 from an end), its log is taken in
    parts, log 2 + log d - log(n-1) - log((1-m) + sqrt(...)).  For q >= 4
    this returns zeros.
    """
    if q > 3:
        return np.zeros(d.shape[0])
    dmax = (n - 1) * (q - 1)
    upper = 2.0 * d > dmax
    e = np.where(upper, dmax - d, d)
    m = e / (n - 1)
    den = (1.0 - m) + np.sqrt((1.0 - m) ** 2 + 4.0 * (q - 2) * (2.0 - m) * m)
    x = 2.0 * m / den
    log_x = np.log(2.0 * e) - np.log((n - 1) * den)
    np.log(x, out=log_x, where=x > 0.0)
    return np.where(upper, -0.5, 0.5) * log_x


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

    ``i`` and ``j`` are node indices in 0..n-1, or index arrays of equal
    shape for one interval per pair.
    """
    ii, jj = np.asarray(i), np.asarray(j)
    if ii.shape != jj.shape:
        raise ValueError(
            f"i and j must have equal shape, got {ii.shape} and {jj.shape}."
        )
    if (ii == jj).any():
        raise ValueError("contrast needs two distinct nodes.")
    nodes = np.concatenate((ii, jj), axis=None)
    # checked, since a negative index would wrap to another node
    if nodes.size and (
        nodes.dtype.kind not in "iu" or not 0 <= nodes.min() <= nodes.max() < fit.n
    ):
        raise ValueError(
            f"node indices must be integers in 0..{fit.n - 1}, got {i!r} and {j!r}."
        )
    _require_converged(fit)
    a, v = fit.alpha_hat, fit.v_hat_diag
    point, se, half_width = _contrast(a[i], a[j], v[i], v[j], level)
    return ConfidenceInterval(i, j, point, half_width=half_width, se=se, level=level)


def _contrast(a_i, a_j, v_i, v_j, level: float):
    """The contrast interval's point a_i - a_j, standard error
    (1/v_i + 1/v_j)^(1/2) and half-width z * se, entry by entry, from the
    estimates and plug-in variances of the two nodes."""
    se = np.sqrt(1.0 / v_i + 1.0 / v_j)
    return a_i - a_j, se, _z(level) * se


def node_intervals(
    fit: FitResult, level: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Intervals alpha_hat_i +- z / sqrt(v_ii) for every node, as the arrays
    (se, half_width) of standard errors 1 / sqrt(v_ii) and half-widths."""
    _require_converged(fit)
    z = _z(level)
    se = 1.0 / np.sqrt(fit.v_hat_diag)
    return se, z * se
