"""Weighted random-graph model with one parameter per node.

Edge weights take values in {0, ..., q-1}. Each unordered pair (i, j) draws
its weight independently with

    P(a_ij = k) = exp(k * s) / sum_l exp(l * s),    s = alpha_i + alpha_j,

so the degree sequence d_i = sum_{j != i} a_ij is sufficient for alpha.
This module provides the distribution itself, graph sampling, the expected
degree map, its Jacobian (which equals the covariance matrix of d), and the
log-likelihood.

Each of these is a moment of that one q-class softmax, and all of them come
from one kernel, ``_shifted_exponentials``: for pair sums s it returns the
terms t_k = exp(k * s - shift), k < q, with shift = (q-1) * max(s, 0), and
their sum den.  The shift is the largest exponent, so no term overflows and
den lies in [1, q]; every function here is safe for arbitrarily large
|alpha_i + alpha_j|.  Pair quantities are evaluated on the i < j pairs only
and then scattered to the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_alpha(alpha) -> np.ndarray:
    """Coerce an array-like to a 1-D float array of finite values."""
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim != 1:
        raise ValueError("alpha must be a one-dimensional vector.")
    if not np.all(np.isfinite(arr)):
        raise ValueError("alpha must contain only finite values.")
    return arr


def _check_q(q: int) -> int:
    q = int(q)
    if q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q}.")
    return q


@dataclass
class WeightedGraph:
    """Symmetric matrix of integer edge weights with zero diagonal.

    Parameters
    ----------
    weights:
        (n, n) integer array, symmetric, zero diagonal, entries in
        {0, ..., q-1}.
    q:
        Number of weight classes (>= 2).
    """

    weights: np.ndarray
    q: int

    def __post_init__(self):
        self.q = _check_q(self.q)
        w = np.asarray(self.weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix.")
        if w.shape[0] < 2:
            raise ValueError("a graph needs at least 2 nodes.")
        if not np.issubdtype(w.dtype, np.integer):
            if not np.all(w == np.round(w)):
                raise ValueError("weights must be integers.")
            w = w.astype(np.int64)
        else:
            w = w.astype(np.int64)
        if np.any(np.diagonal(w) != 0):
            raise ValueError("self-loops are not allowed (nonzero diagonal).")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric.")
        if w.min() < 0 or w.max() > self.q - 1:
            raise ValueError(f"weights must lie in [0, {self.q - 1}].")
        self.weights = w

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def degrees(self) -> np.ndarray:
        """Row sums of the weight matrix, as integers."""
        return self.weights.sum(axis=1)

    def edge_count(self) -> int:
        """Number of unordered pairs with nonzero weight."""
        return int(np.count_nonzero(np.triu(self.weights, 1)))


def _shifted_exponentials(s, q: int):
    """The edge-weight softmax at pair sums s, as (t, shift, den).

    t[k] = exp(k*s - shift) for k < q, with shift = (q-1) * max(s, 0) the
    largest exponent, so the largest term is exactly 1 and den = sum_k t[k]
    lies in [1, q].  P(a = k) = t[k] / den and log Z(s) = shift + log(den).
    The class index k is the leading axis of t, so every moment is a short
    sum of contiguous arrays.
    """
    s = np.asarray(s, dtype=float)
    shift = (q - 1) * np.maximum(s, 0.0)
    t = np.multiply.outer(np.arange(q, dtype=float), s)
    t -= shift
    np.exp(t, out=t)
    return t, shift, t.sum(axis=0)


def _pair_sums(alpha, q: int):
    """Validated (n, q, iu, ju, s): the pairs i < j in row-major order and
    their sums s = alpha_i + alpha_j."""
    a = _as_alpha(alpha)
    iu, ju = np.triu_indices(a.shape[0], 1)
    return a.shape[0], _check_q(q), iu, ju, a[iu] + a[ju]


def edge_weight_pmf(s: float, q: int) -> np.ndarray:
    """Probability vector of a single edge weight given the pair sum s.

    Parameters
    ----------
    s:
        The sum alpha_i + alpha_j for the pair. Must be finite.
    q:
        Number of weight classes.

    Returns
    -------
    Length-q vector p with p[a] proportional to exp(a*s); sums to 1.
    """
    q = _check_q(q)
    s = float(s)
    if not np.isfinite(s):
        raise ValueError("s must be finite.")
    t, _, den = _shifted_exponentials(s, q)
    return t / den


def mean_weight(s: float, q: int) -> float:
    """Expected edge weight sum_a a * P(a_ij = a); strictly increasing in s."""
    p = edge_weight_pmf(s, q)
    return float(np.arange(q) @ p)


def sample_graph(alpha, q: int, seed=None) -> WeightedGraph:
    """Draw a graph with independent multinomial edge weights.

    Pairs are enumerated in row-major i < j order, one uniform draw per
    pair, so identical seeds give identical graphs.

    Parameters
    ----------
    alpha:
        Node parameter vector (array-like).
    q:
        Number of weight classes.
    seed:
        Anything accepted by ``numpy.random.default_rng``.
    """
    n, q, iu, ju, s = _pair_sums(alpha, q)
    if n < 2:
        raise ValueError("need at least 2 nodes.")
    rng = np.random.default_rng(seed)

    cdf, _, den = _shifted_exponentials(s, q)
    cdf /= den
    np.cumsum(cdf, axis=0, out=cdf)
    cdf[-1] = 1.0  # guard against cumsum rounding below 1

    u = rng.random(s.shape[0])
    w = (u >= cdf).sum(axis=0)

    weights = np.zeros((n, n), dtype=np.int64)
    weights[iu, ju] = w
    weights += weights.T
    return WeightedGraph(weights=weights, q=q)


def expected_degrees(alpha, q: int) -> np.ndarray:
    """Expected degree E(d_i) = sum_{j != i} mean_weight(alpha_i + alpha_j, q)."""
    n, q, iu, ju, s = _pair_sums(alpha, q)
    t, _, den = _shifted_exponentials(s, q)
    mean = np.arange(q, dtype=float) @ t / den
    return np.bincount(iu, mean, n) + np.bincount(ju, mean, n)


def degree_jacobian(alpha, q: int) -> np.ndarray:
    """Jacobian of the expected-degree map; also the covariance matrix of d.

    Off-diagonal entries are the edge-weight variances

        v_ij = Var(a_ij) = sum_k (k - m_ij)^2 t_k / den,   m_ij = E(a_ij),

    taken about the mean rather than as E(a^2) - m^2, so saturated pair sums
    keep their tiny positive variance instead of cancelling to zero.  The
    diagonal carries the row sums v_ii = sum_{j != i} v_ij exactly.  The
    matrix is symmetric with strictly positive off-diagonal entries.
    """
    n, q, iu, ju, s = _pair_sums(alpha, q)
    t, _, den = _shifted_exponentials(s, q)
    mean = np.arange(q, dtype=float) @ t / den
    for k in range(q):
        t[k] *= (k - mean) ** 2
    var = t.sum(axis=0) / den
    del s, t, _, den, mean  # release the pair arrays before the dense matrix
    v = np.zeros((n, n))
    v[iu, ju] = var
    v[ju, iu] = var
    np.fill_diagonal(v, v.sum(axis=1))
    return v


def log_likelihood(graph: WeightedGraph, alpha) -> float:
    """Log-likelihood of alpha given the graph, up to an additive constant.

    Each unordered pair contributes a_ij (alpha_i + alpha_j) minus the
    log-partition term.  Diagnostic only: estimation works from degrees.
    """
    n, q, iu, ju, s = _pair_sums(alpha, graph.q)
    if n != graph.n:
        raise ValueError(
            f"dimension mismatch: graph has {graph.n} nodes, alpha has {n}."
        )
    _, shift, den = _shifted_exponentials(s, q)
    return float(np.sum(graph.weights[iu, ju] * s - (shift + np.log(den))))
