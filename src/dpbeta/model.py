"""Weighted random-graph model with one parameter per node.

Edge weights take values in {0, ..., q-1}. Each unordered pair (i, j) draws
its weight independently with

    P(a_ij = k) = exp(k * s) / sum_l exp(l * s),    s = alpha_i + alpha_j,

so the degree sequence d_i = sum_{j != i} a_ij is sufficient for alpha.
This module provides graph sampling and the kernels of the expected
degree map and its Jacobian (which equals the covariance matrix of d).

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
the pair's cdf thresholds it reaches.  One private core, ``_pair_weights``,
yields those weights in blocks of whole rows, about 2**16 pairs each, as
strips: dense arrays of the block's rows, 0 where j <= i, so a pair's
nodes are its place in its strip.  The thresholds depend only on
(alpha, q), and every replication of a study samples at the same truth, so
when they fit a fixed 64 MB budget (q=3 up to n ~ 2900) they are kept in a
one-slot cache, keyed on q and the bytes of alpha, and a later draw costs
only its uniforms.  Otherwise each block builds its own thresholds and
draws its own uniforms, the same stream as one call, so memory stays
bounded at any n.  Two consumers share the core: ``sample_graph`` keeps
each block's nonzero pairs, and ``_sample_degrees``, which a study
replication calls, sums each strip along its rows and down its columns,
building no edge list.

Nodes with equal parameters have equal moments, so the degree map and its
Jacobian are computed over classes of tied nodes: one parameter per class
and the number of nodes in it, at a cost quadratic in the number of classes
rather than in n.  Both come from one private core: the classes are laid
out once (``_classes``), and one kernel pass (``_moments``) gives the mean
and the variance of every class pair, so a solver that checks its inputs
once can evaluate E(d) and the Jacobian at a point for the price of one
pass.  The classes of several degree sequences can share one layout and
one pass; the kernel computes each pair's moments on their own, so they
are the same as in a pass over its sequence alone.
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


# The largest q accepted.  A moment pass holds q terms per pair sum and
# sampling q-1 thresholds per pair, 512 KB each at this cap; a q in the
# billions, which a release file may declare, would ask for gigabytes on two
# nodes.
_Q_MAX = 2**16


def _integer(value, name: str, least=None) -> int:
    """value as an int, at least ``least`` if that is given.  A bool or a
    non-integral value such as 1.9 is rejected rather than truncated."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and value == int(value)
        ok = ok and (least is None or value >= least)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}.")
    return int(value)


def _integer_array(values, name: str) -> np.ndarray:
    """values as a one-dimensional int64 array.  A non-integral, non-finite
    or out-of-range entry is rejected rather than truncated."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector.")
    if not np.issubdtype(a.dtype, np.integer) and not (
        np.all(np.abs(a) < 2.0**63) and np.all(a % 1 == 0)
    ):
        raise ValueError(f"{name} must hold integers.")
    return a.astype(np.int64, copy=False)


def _check_q(q) -> int:
    """q as an int in 2.._Q_MAX (see ``_integer``)."""
    q = _integer(q, "q", 2)
    if q > _Q_MAX:
        raise ValueError(f"q must be at most {_Q_MAX}, got {q}.")
    return q


def _row_major(i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the pairs (i[k], j[k]) strictly increase in row-major order.

    Compares neighbours with byte masks only: for 0 <= j < n this is
    i*n + j strictly increasing, without an int64 key per pair.
    """
    later = i[1:] > i[:-1]
    tie = i[1:] == i[:-1]
    tie &= j[1:] > j[:-1]
    later |= tie
    return bool(later.all())


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
        self.n, self.q = _integer(self.n, "n", 2), _check_q(self.q)
        i, j, w = (_integer_array(getattr(self, k), k) for k in ("i", "j", "w"))
        if not i.shape == j.shape == w.shape:
            raise ValueError("i, j and w must have the same length.")
        if np.any(i < 0) or np.any(j <= i) or np.any(j >= self.n):
            raise ValueError(f"pairs must satisfy 0 <= i < j < n = {self.n}.")
        if np.any(w < 1) or np.any(w > self.q - 1):
            raise ValueError(f"weights must lie in [1, {self.q - 1}].")
        if not _row_major(i, j):
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
    return t, _class_sum(t)


def _class_sum(t: np.ndarray) -> np.ndarray:
    """sum_k t[k], added one class at a time, k = 0, 1, ...: each entry's
    sum is then the same whatever array it sits in, where ``t.sum(axis=0)``
    regroups the terms of a one-column t."""
    total = t[0] + t[1]
    for row in t[2:]:
        total += row
    return total


# The cdf thresholds of the last (alpha, q) sampled are kept if they take at
# most this many bytes, 8(q-1) per pair: 64 MB holds q=3 up to n ~ 2900.
# Bigger sizes are streamed, block by block, on every call.
_THRESHOLD_BUDGET = 64 * 2**20
# Pairs per block of whole rows (a longer row is a block of its own); it
# bounds the pair-sum, softmax, uniform and strip temporaries of a draw.
_BLOCK_PAIRS = 2**16
# At most one entry, (q, alpha bytes) -> thresholds.
_threshold_cache: dict = {}


def _block_thresholds(a, q: int, r0: int, mask, out=None):
    """The cdf thresholds of the pairs (i, j) that mask selects in the
    strip of the rows from r0 on (see ``_pair_weights``), in row-major
    order, as a (q-1, pairs) array (written to out if given).

    Threshold k of a pair is P(a_ij <= k).  The last cdf value, 1, is left
    out: no uniform in [0, 1) reaches it.
    """
    s = np.add.outer(a[r0 : r0 + mask.shape[0]], a[r0 + 1 :])[mask]
    t, den = _shifted_exponentials(s, q)
    cdf = np.divide(t[:-1], den, out=out)
    for k in range(1, q - 1):
        cdf[k] += cdf[k - 1]
    return cdf


def _pair_weights(a: np.ndarray, q: int, rng):
    """Draw every pair's weight, one uniform per pair in row-major order,
    and yield them in consecutive blocks of whole rows (r0, strip): the
    weight of the pair (i, j) of a row i = r0, r0+1, ... is
    strip[i - r0, j - r0 - 1], and the strip holds 0 where j <= i.

    A pair's weight is the number of its cdf thresholds its uniform reaches.
    At cached thresholds a draw takes all its uniforms in one call.  Any
    other draw builds the thresholds and draws the uniforms block by block,
    the same stream, and caches the thresholds, read-only, if they fit
    ``_THRESHOLD_BUDGET``.
    """
    n = a.shape[0]
    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}.")
    rows = np.arange(n)
    starts = rows * (n - 1) - rows * (rows - 1) // 2  # where row i's pairs start
    pairs = int(starts[-1])
    # blocks of the rows r0..r1-1: each starts at the row of a multiple of
    # _BLOCK_PAIRS, so a row longer than that is a block of its own (a set,
    # not np.unique, whose first call adds 1.1 MB to a study's peak RSS)
    firsts = np.searchsorted(starts, np.arange(0, pairs, _BLOCK_PAIRS), side="right") - 1
    bounds = sorted(set(firsts.tolist())) + [n - 1]
    dtype, small = np.min_scalar_type(q - 1), np.min_scalar_type(n)
    key = (q, a.tobytes())
    thresholds = _threshold_cache.get(key)
    cached = thresholds is not None
    if cached:
        uniforms = rng.random(pairs)
    else:
        _threshold_cache.clear()
        if 8 * (q - 1) * pairs <= _THRESHOLD_BUDGET:
            thresholds = np.empty((q - 1, pairs))  # filled by this draw
    for r0, r1 in zip(bounds, bounds[1:]):
        lo, hi = starts[r0], starts[r1]
        cols = np.arange(n - 1 - r0, dtype=small)  # of the nodes j = r0+1+c
        mask = cols >= np.arange(r1 - r0, dtype=small)[:, None]
        if cached:
            reached = uniforms[lo:hi] >= thresholds[:, lo:hi]
        else:
            out = None if thresholds is None else thresholds[:, lo:hi]
            # thresholds first: holding the uniforms while their temporaries
            # come and go, malloc maps those anew (2x the time at n=4000)
            cdf = _block_thresholds(a, q, r0, mask, out)
            reached = rng.random(hi - lo) >= cdf
        strip = np.zeros(mask.shape, dtype)
        strip[mask] = reached.sum(axis=0, dtype=dtype)
        yield r0, strip
    if not cached and thresholds is not None:
        thresholds.flags.writeable = False
        _threshold_cache[key] = thresholds


def sample_graph(alpha, q: int, seed=None) -> WeightedGraph:
    """Draw a graph with independent multinomial edge weights.

    Pairs are enumerated in row-major i < j order with one uniform draw per
    pair, so identical seeds give identical graphs.  Within a fixed byte
    budget the pairs' cdf thresholds at the last (alpha, q) are cached, so a
    repeated call only draws its uniforms; above it memory stays bounded
    apart from the graph itself.  Neither path changes a draw (see
    ``_pair_weights``).

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
    n = a.shape[0]
    # each block's nonzero pairs as 4-byte offsets into its strip, which
    # holds fewer than 2**32 entries: at most twice its pairs
    blocks = []
    for r0, strip in _pair_weights(a, q, np.random.default_rng(seed)):
        flat = strip.reshape(-1)
        nonzero = np.flatnonzero(flat)
        blocks.append((r0, nonzero.astype(np.uint32), flat[nonzero]))
    ends = np.cumsum([0] + [offsets.size for _, offsets, _ in blocks]).tolist()
    i, j, w = (np.empty(ends[-1], dtype=np.int64) for _ in range(3))
    for (r0, offsets, weights), lo, hi in zip(blocks, ends, ends[1:]):
        np.divmod(offsets, n - 1 - r0, out=(i[lo:hi], j[lo:hi]))
        i[lo:hi] += r0
        j[lo:hi] += r0 + 1
        w[lo:hi] = weights
    del blocks
    return WeightedGraph(n, q, i, j, w)


def _sample_degrees(alpha, q: int, seed=None) -> np.ndarray:
    """The degrees of ``sample_graph(alpha, q, seed)``, from the same draws,
    without building the graph: each block's strip is summed along its rows
    and down its columns."""
    a, q = _as_alpha(alpha), _check_q(q)
    n = a.shape[0]
    total = np.min_scalar_type((q - 1) * (n - 1))  # holds any row or column sum
    d = np.zeros(n, dtype=np.int64)
    for r0, strip in _pair_weights(a, q, np.random.default_rng(seed)):
        d[r0 : r0 + strip.shape[0]] += strip.sum(axis=1, dtype=total)
        d[r0 + 1 :] += strip.sum(axis=0, dtype=total)
    return d


class _Classes(NamedTuple):
    """The validated layout of k classes of tied nodes: the multiplicities
    c, the class pairs a < b (row-major) joined in a moment pass, the
    partner weights c[iu] and c[ju] of those pairs, and c - 1, the weight of
    a class's own pair."""

    k: int
    c: np.ndarray
    iu: np.ndarray
    ju: np.ndarray
    c_iu: np.ndarray
    c_ju: np.ndarray
    c_own: np.ndarray


def _classes(counts, sizes=None) -> _Classes:
    """Lay out the class pairs of the multiplicities counts (each >= 1)
    once for every moment pass.

    counts may hold the classes of several sequences side by side, sizes[b]
    of them for sequence b; a class is then paired only with the later
    classes of its own sequence, so a pass over the layout computes every
    sequence's moments as a pass over that sequence alone would.
    """
    c = np.asarray(counts, dtype=float)
    k = c.shape[0]
    # one past the last class of each class's sequence
    end = k if sizes is None else np.cumsum(sizes).repeat(sizes)
    later = end - np.arange(k) - 1
    iu = np.arange(k).repeat(later)
    ju = np.arange(iu.shape[0]) - (np.cumsum(later) - later).repeat(later) + iu + 1
    return _Classes(k, c, iu, ju, c[iu], c[ju], c - 1.0)


def _moments(beta: np.ndarray, q: int, cls: _Classes):
    """Mean and variance of the edge weight between and within classes,
    from one kernel pass, without checking the inputs.

    Both are arrays over the class pair sums beta_a + beta_b (a < b, in the
    order of cls) followed by 2 beta_a, the sum for two nodes of class a.
    The variance is taken about the mean, sum_k (k - m)^2 t_k / den, rather
    than as E(a^2) - m^2, so saturated pair sums keep their tiny positive
    variance instead of cancelling to zero.  Every entry is computed on its
    own, one class k at a time, so it does not depend on the other pair
    sums of the pass.
    """
    s = np.concatenate((beta[cls.iu] + beta[cls.ju], 2.0 * beta))
    t, den = _shifted_exponentials(s, q)
    del s  # a batch of sequences holds many pairs: keep the pass lean
    mean = sum((k * t[k] for k in range(2, q)), t[1]) / den
    square = np.empty_like(mean)
    for k in range(q):
        np.subtract(k, mean, out=square)
        t[k] *= np.square(square, out=square)
    var = _class_sum(t)
    var /= den
    return mean, var


def _node_sums(cls: _Classes, x: np.ndarray) -> np.ndarray:
    """Per class a, the sum over one node's partners of a pair moment x
    from ``_moments``: sum_{b != a} c_b x_ab + (c_a - 1) x_aa."""
    pair, own = x[: -cls.k], x[-cls.k :]
    return (
        np.bincount(cls.iu, cls.c_ju * pair, cls.k)
        + np.bincount(cls.ju, cls.c_iu * pair, cls.k)
        + cls.c_own * own
    )


def _class_jacobian(
    c: np.ndarray, pair: np.ndarray, own: np.ndarray, cells: np.ndarray
) -> np.ndarray:
    """The k-by-k class Jacobian P^T V P of one sequence of k classes, from
    its multiplicities c (k,) and the variances that ``_moments`` gives for
    it: pair (k(k-1)/2,) over its class pairs a < b and own (k,) over each
    class's own pair.  cells holds the indices a*k + b of the class pairs
    a < b in a k-by-k matrix.  V is the n-by-n Jacobian of the expected
    degrees, v_ij = Var(a_ij) off the diagonal and the row sums v_ii on it,
    and P the n-by-k class-indicator matrix: entry (a, b) is c_a c_b v_ab
    off the diagonal and c_a v_ii + c_a (c_a - 1) v_aa on it."""
    k = c.shape[0]
    c_own = c - 1.0
    v = np.zeros(k * k)
    v[cells] = pair
    v = v.reshape(k, k)
    v = v + v.T  # x + 0 is exact: the symmetric pair variances
    v *= c
    v_ii = v.sum(axis=1) + c_own * own
    v *= c[:, None]
    v.reshape(k * k)[:: k + 1] = c * (v_ii + c_own * own)
    return v

