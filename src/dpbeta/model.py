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

Nodes with equal parameters have equal moments, so the degree map, its
variances and its Jacobian also take class multiplicities: one parameter
per class of tied nodes and the number of nodes in it.  Their cost is then
quadratic in the number of classes rather than in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=1)
def _upper_pairs(k: int):
    """The pairs i < j of k entries in row-major order, read-only.  Every
    moment pass of one solve asks for the same k, so the last answer is
    kept."""
    pairs = np.triu_indices(k, 1)
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


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
    a, q = _as_alpha(alpha), _check_q(q)
    iu, ju = np.triu_indices(a.shape[0], 1)
    s = a[iu] + a[ju]
    rng = np.random.default_rng(seed)

    cdf, den = _shifted_exponentials(s, q)
    cdf /= den
    np.cumsum(cdf, axis=0, out=cdf)
    cdf[-1] = 1.0  # guard against cumsum rounding below 1

    w = (rng.random(s.shape[0]) >= cdf).sum(axis=0)
    del s, cdf, den  # free the pair temporaries before the edge arrays
    nonzero = np.flatnonzero(w)
    return WeightedGraph(a.shape[0], q, iu[nonzero], ju[nonzero], w[nonzero])


def _weight_moment(s, q: int, centred: bool) -> np.ndarray:
    """Mean edge weight at pair sums s or, if centred, its variance.

    The variance is taken about the mean, sum_k (k - m)^2 t_k / den, rather
    than as E(a^2) - m^2, so saturated pair sums keep their tiny positive
    variance instead of cancelling to zero.
    """
    t, den = _shifted_exponentials(s, q)
    mean = np.arange(q, dtype=float) @ t / den
    if not centred:
        return mean
    for k in range(q):
        t[k] *= (k - mean) ** 2
    return t.sum(axis=0) / den


def _class_moments(alpha, q: int, counts, centred: bool):
    """Edge-weight moments between and within classes of tied nodes.

    Entry a of alpha is the parameter beta_a shared by the counts[a] nodes
    of class a (one node per entry when counts is None).  Returns (k, c,
    iu, ju, pair, same): the moment at the class pair sums beta_a + beta_b
    for a < b, and at 2 beta_a, the sum for two nodes of one class.
    """
    a = _as_alpha(alpha)
    k, q = a.shape[0], _check_q(q)
    iu, ju = _upper_pairs(k)
    s = a[iu] + a[ju]
    if counts is None:
        c = np.ones(k)
    else:
        c = np.asarray(counts, dtype=float)
        if c.shape != (k,) or not np.all(c >= 1):
            raise ValueError("counts must hold one multiplicity >= 1 per entry.")
    x = _weight_moment(np.concatenate((s, 2.0 * a)), q, centred)
    return k, c, iu, ju, x[:-k], x[-k:]


def _node_sums(k, c, iu, ju, pair, same) -> np.ndarray:
    """Per class a, the sum over one node's partners,
    sum_{b != a} c_b x_ab + (c_a - 1) x_aa."""
    return (
        np.bincount(iu, c[ju] * pair, k)
        + np.bincount(ju, c[iu] * pair, k)
        + (c - 1.0) * same
    )


def expected_degrees(alpha, q: int, counts=None) -> np.ndarray:
    """Expected degree E(d_i) = sum_{j != i} E(a_ij), the mean edge weights
    at the pair sums alpha_i + alpha_j.

    With counts, entry a of alpha stands for counts[a] nodes that share it,
    and entry a of the result is the expected degree of each of them.
    """
    return _node_sums(*_class_moments(alpha, q, counts, centred=False))


def degree_variances(alpha, q: int, counts=None) -> np.ndarray:
    """Var(d_i) = sum_{j != i} Var(a_ij): the diagonal of the node-level
    ``degree_jacobian``, per class when counts is given, without building
    any matrix."""
    return _node_sums(*_class_moments(alpha, q, counts, centred=True))


def degree_jacobian(alpha, q: int, counts=None) -> np.ndarray:
    """Jacobian of the expected-degree map; also the covariance matrix of d.

    Off-diagonal entries are the edge-weight variances v_ij = Var(a_ij) > 0
    and the diagonal carries the row sums v_ii = sum_{j != i} v_ij exactly,
    so the matrix is symmetric positive definite on feasible problems.

    With counts (class multiplicities c, see ``expected_degrees``) the
    result is P^T V P, where V is the node-level matrix and P the n-by-k
    class-indicator matrix: entry (a, b) is c_a c_b v_ab off the diagonal
    and c_a v_ii + c_a (c_a - 1) v_aa on it.  With one node per entry it
    is V itself.
    """
    k, c, iu, ju, var, same = _class_moments(alpha, q, counts, centred=True)
    v = np.zeros((k, k))
    v[iu, ju] = var
    v[ju, iu] = var
    v *= c
    v_ii = v.sum(axis=1) + (c - 1.0) * same
    v *= c[:, None]
    np.fill_diagonal(v, c * (v_ii + (c - 1.0) * same))
    return v
