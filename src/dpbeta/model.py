"""Weighted random-graph model with one parameter per node.

Edge weights take values in {0, ..., q-1}. Each unordered pair (i, j) draws
its weight independently with

    P(a_ij = k) = exp(k * s) / sum_l exp(l * s),    s = alpha_i + alpha_j,

so the degree sequence d_i = sum_{j != i} a_ij is sufficient for alpha.
This module provides graph sampling, the expected degree map and its
Jacobian (which equals the covariance matrix of d).

Each of these is a moment of that one q-class softmax, and all of them come
from one kernel, ``_shifted_exponentials``: for pair sums s it returns the
terms t_k = exp(k * s - shift), k < q, with shift = (q-1) * max(s, 0), and
their sum den.  The shift is the largest exponent, so no term overflows and
den lies in [1, q]; every function here is safe for arbitrarily large
|alpha_i + alpha_j|.  Pair quantities are evaluated on the i < j pairs only
and then scattered to the nodes.

A graph (``WeightedGraph``) is its list of nonzero pairs i < j with their
weights, the same form an edge-list file holds; degrees are scatters of
those weights.  The only matrix built here is the Jacobian the Newton step
solves with.

Sampling draws one uniform per pair, in row-major i < j order, and counts
the pair's cdf thresholds it reaches.  The thresholds depend only on (alpha,
q), and every replication of a study samples at the same truth, so
``sample_graph`` keeps those of its last (alpha, q) in a one-slot cache,
keyed on q and the bytes of alpha, when they fit a fixed 64 MB budget (q=3
up to n ~ 2900).  They are built in blocks of 2**16 pairs to bound the
temporaries.  A cached call draws the same uniforms as an uncached one, so
no graph depends on the cache.

Nodes with equal parameters have equal moments, so the degree map and its
Jacobian are computed over classes of tied nodes: one parameter per class
and the number of nodes in it, at a cost quadratic in the number of classes
rather than in n.  Both come from one private core: the classes are laid
out once (``_classes``), and one kernel pass (``_moments``) gives the mean
and the variance of every class pair, so a solver that checks its inputs
once can evaluate E(d) and the Jacobian at a point for the price of one
pass.  ``expected_degrees`` and ``degree_jacobian`` are the checking public
wrappers over that core, with one node per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def _as_alpha(alpha) -> np.ndarray:
    """Coerce an array-like to a 1-D float array of finite values."""
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim != 1:
        raise ValueError("alpha must be a one-dimensional vector.")
    if not np.all(np.isfinite(arr)):
        raise ValueError("alpha must contain only finite values.")
    return arr


def _check_q(q) -> int:
    """q as an int >= 2.  A bool or a non-integral value such as 2.5 is
    rejected rather than truncated."""
    try:
        ok = not isinstance(q, (bool, np.bool_)) and q == int(q) and q >= 2
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"q must be an integer >= 2, got {q!r}.")
    return int(q)


@dataclass
class WeightedGraph:
    """The nonzero-weight pairs of a graph on n nodes, as three arrays.

    Parameters
    ----------
    n:
        Number of nodes (>= 2); nodes are 0, ..., n-1.
    q:
        Number of weight classes (>= 2).
    i, j, w:
        Equal-length integer vectors: pair k joins i[k] < j[k] with weight
        w[k] in {1, ..., q-1}.  Pairs are listed once, in strictly
        increasing row-major order (i*n + j); every pair not listed has
        weight 0.
    """

    n: int
    q: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}.")
        self.n, self.q = int(self.n), _check_q(self.q)
        arrays = []
        for name in ("i", "j", "w"):
            a = np.asarray(getattr(self, name))
            if a.ndim != 1:
                raise ValueError(f"{name} must be a one-dimensional vector.")
            if not np.issubdtype(a.dtype, np.integer) and not np.all(a == np.round(a)):
                raise ValueError(f"{name} must hold integers.")
            arrays.append(a.astype(np.int64, copy=False))
        i, j, w = arrays
        if not i.shape == j.shape == w.shape:
            raise ValueError("i, j and w must have the same length.")
        if np.any(i < 0) or np.any(j <= i) or np.any(j >= self.n):
            raise ValueError(f"pairs must satisfy 0 <= i < j < n = {self.n}.")
        if np.any(w < 1) or np.any(w > self.q - 1):
            raise ValueError(f"weights must lie in [1, {self.q - 1}].")
        if np.any(np.diff(i * self.n + j) <= 0):
            raise ValueError("pairs must be distinct and in row-major order.")
        self.i, self.j, self.w = i, j, w

    def degrees(self) -> np.ndarray:
        """Weighted degrees d_v = sum of the weights of the pairs at v."""
        d = np.zeros(self.n, dtype=np.int64)
        np.add.at(d, self.i, self.w)
        np.add.at(d, self.j, self.w)
        return d


def _shifted_exponentials(s, q: int):
    """The edge-weight softmax at pair sums s, as (t, den).

    t[k] = exp(k*s - shift) for k < q, with shift = (q-1) * max(s, 0) the
    largest exponent, so the largest term is exactly 1 and den = sum_k t[k]
    lies in [1, q]; P(a = k) = t[k] / den.  The class index k is the leading
    axis of t, so every moment is a short sum of contiguous arrays.
    """
    s = np.asarray(s, dtype=float)
    shift = (q - 1) * np.maximum(s, 0.0)
    t = np.multiply.outer(np.arange(q, dtype=float), s)
    t -= shift
    np.exp(t, out=t)
    return t, t.sum(axis=0)


# The thresholds of the last (alpha, q) sampled are kept if they take at
# most this many bytes: 64 MB holds q=3 up to n ~ 2900.  Bigger sizes are
# rebuilt on every call.
_THRESHOLD_BUDGET = 64 * 2**20
# Pairs per block of the threshold build; it bounds the pair-sum and
# softmax temporaries.
_BLOCK_PAIRS = 2**16
# At most one entry, (q, alpha bytes) -> (thresholds, row starts).
_threshold_cache: dict = {}


def _pair_nodes(flat: np.ndarray, starts: np.ndarray):
    """The nodes i < j of the pairs at the sorted row-major indices flat,
    given the index at which each row's pairs start."""
    rows = np.arange(starts.shape[0])
    per_row = np.diff(np.searchsorted(flat, starts), append=flat.size)
    return np.repeat(rows, per_row), flat - np.repeat(starts - rows - 1, per_row)


def _pair_thresholds(a: np.ndarray, q: int):
    """The cdf thresholds of every pair i < j, as a (q-1, P) array in
    row-major pair order, and the index at which each row's pairs start.

    Threshold k of a pair is P(a_ij <= k).  The last cdf value, 1, is left
    out: no uniform in [0, 1) reaches it.  The thresholds are built in
    blocks of ``_BLOCK_PAIRS`` pairs; the last answer is kept, read-only,
    if it fits ``_THRESHOLD_BUDGET``.
    """
    key = (q, a.tobytes())
    if key in _threshold_cache:
        return _threshold_cache[key]
    _threshold_cache.clear()
    n = a.shape[0]
    rows = np.arange(n)
    starts = rows * (n - 1) - rows * (rows - 1) // 2
    pairs = n * (n - 1) // 2
    thresholds = np.empty((q - 1, pairs))
    for lo in range(0, pairs, _BLOCK_PAIRS):
        i, j = _pair_nodes(np.arange(lo, min(lo + _BLOCK_PAIRS, pairs)), starts)
        t, den = _shifted_exponentials(a[i] + a[j], q)
        cdf = thresholds[:, lo : lo + i.size]
        np.divide(t[:-1], den, out=cdf)
        for k in range(1, q - 1):
            cdf[k] += cdf[k - 1]
    if thresholds.nbytes <= _THRESHOLD_BUDGET:
        thresholds.flags.writeable = False
        starts.flags.writeable = False
        _threshold_cache[key] = (thresholds, starts)
    return thresholds, starts


def sample_graph(alpha, q: int, seed=None) -> WeightedGraph:
    """Draw a graph with independent multinomial edge weights.

    Pairs are enumerated in row-major i < j order, one uniform draw per
    pair (a single ``rng.random(P)`` call), so identical seeds give
    identical graphs.  A pair's weight is the number of its cdf thresholds
    its uniform reaches.  The thresholds depend only on (alpha, q): the
    last ones built are kept in a one-slot cache within a fixed byte budget
    (see ``_pair_thresholds``), so a repeated call, as in every replication
    of a study, only draws its uniforms.  The cache changes no draw.

    Parameters
    ----------
    alpha:
        Node parameter vector (array-like).
    q:
        Number of weight classes.
    seed:
        Anything accepted by ``numpy.random.default_rng``.
    """
    a, q = _as_alpha(alpha), _check_q(q)
    rng = np.random.default_rng(seed)
    thresholds, starts = _pair_thresholds(a, q)
    u = rng.random(thresholds.shape[1])
    w = (u >= thresholds).sum(axis=0, dtype=np.min_scalar_type(q - 1))
    del u  # free the uniforms before the edge arrays
    flat = np.flatnonzero(w)
    return WeightedGraph(a.shape[0], q, *_pair_nodes(flat, starts), w[flat])


class _Classes(NamedTuple):
    """The validated layout of k classes of tied nodes: the multiplicities
    c, the class pairs a < b (row-major) and their flat indices a*k + b in
    a k-by-k matrix, the partner weights c[iu] and c[ju] of those pairs,
    and c - 1, the weight of a class's own pair."""

    k: int
    c: np.ndarray
    iu: np.ndarray
    ju: np.ndarray
    flat: np.ndarray
    c_iu: np.ndarray
    c_ju: np.ndarray
    c_own: np.ndarray


def _classes(counts) -> _Classes:
    """Lay out the class pairs of the multiplicities counts (each >= 1)
    once for every moment pass."""
    c = np.asarray(counts, dtype=float)
    k = c.shape[0]
    iu, ju = np.triu_indices(k, 1)
    return _Classes(k, c, iu, ju, iu * k + ju, c[iu], c[ju], c - 1.0)


def _moments(beta: np.ndarray, q: int, cls: _Classes):
    """Mean and variance of the edge weight between and within classes,
    from one kernel pass, without checking the inputs.

    Both are arrays over the class pair sums beta_a + beta_b (a < b, in the
    order of cls) followed by 2 beta_a, the sum for two nodes of class a.
    The variance is taken about the mean, sum_k (k - m)^2 t_k / den, rather
    than as E(a^2) - m^2, so saturated pair sums keep their tiny positive
    variance instead of cancelling to zero.
    """
    s = np.concatenate((beta[cls.iu] + beta[cls.ju], 2.0 * beta))
    t, den = _shifted_exponentials(s, q)
    mean = np.arange(q, dtype=float) @ t / den
    for k in range(q):
        t[k] *= (k - mean) ** 2
    return mean, t.sum(axis=0) / den


def _node_sums(cls: _Classes, x: np.ndarray) -> np.ndarray:
    """Per class a, the sum over one node's partners of a pair moment x
    from ``_moments``: sum_{b != a} c_b x_ab + (c_a - 1) x_aa."""
    pair, own = x[: -cls.k], x[-cls.k :]
    return (
        np.bincount(cls.iu, cls.c_ju * pair, cls.k)
        + np.bincount(cls.ju, cls.c_iu * pair, cls.k)
        + cls.c_own * own
    )


def _class_jacobian(cls: _Classes, var: np.ndarray) -> np.ndarray:
    """The k-by-k class Jacobian P^T V P from the pair variances var of
    ``_moments``, where V is the node-level ``degree_jacobian`` and P the
    n-by-k class-indicator matrix: entry (a, b) is c_a c_b v_ab off the
    diagonal and c_a v_ii + c_a (c_a - 1) v_aa on it."""
    k, c = cls.k, cls.c
    pair, own = var[:-k], var[-k:]
    v = np.zeros((k, k))
    v.ravel()[cls.flat] = pair
    v = v + v.T  # x + 0 is exact: the symmetric matrix of the pair variances
    v *= c
    v_ii = v.sum(axis=1) + cls.c_own * own
    v *= c[:, None]
    np.fill_diagonal(v, c * (v_ii + cls.c_own * own))
    return v


def expected_degrees(alpha, q: int) -> np.ndarray:
    """Expected degree E(d_i) = sum_{j != i} E(a_ij), the mean edge weights
    at the pair sums alpha_i + alpha_j."""
    a, q = _as_alpha(alpha), _check_q(q)
    cls = _classes(np.ones(a.shape[0]))
    return _node_sums(cls, _moments(a, q, cls)[0])


def degree_jacobian(alpha, q: int) -> np.ndarray:
    """Jacobian of the expected-degree map; also the covariance matrix of d.

    Off-diagonal entries are the edge-weight variances v_ij = Var(a_ij) > 0
    and the diagonal carries the row sums v_ii = sum_{j != i} v_ij exactly,
    so the matrix is symmetric positive definite on feasible problems.
    """
    a, q = _as_alpha(alpha), _check_q(q)
    cls = _classes(np.ones(a.shape[0]))
    return _class_jacobian(cls, _moments(a, q, cls)[1])
