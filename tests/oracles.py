"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: edge-weight
moments come from raw, unshifted exponentials summed over the q support
points (so they hold only for moderate pair sums, (q-1)|s| below ~700),
noise moments from truncated series summation over the integer support,
expected degrees from explicit pairwise summation of the scalar mean,
Jacobians from central finite differences of those sums, the inverse
Jacobian from dense inversion of a matrix of enumerated weight variances,
the moment equations are solved by cyclic coordinate bisection instead of
Newton steps, and whether a root exists is read off every inequality of
the degree polytope.  Edge lists are parsed one line at a time with
``str.split`` and ``int``.  Nothing here imports the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


def pmf_by_enumeration(s: float, q: int) -> np.ndarray:
    """Edge-weight pmf from raw exponentials (safe only for moderate s)."""
    raw = np.array([math.exp(a * s) for a in range(q)])
    return raw / raw.sum()


def mean_weights_by_enumeration(s: np.ndarray, q: int) -> np.ndarray:
    """E(a_ij) for a vector of pair sums, from raw exponentials."""
    raw = np.exp(np.multiply.outer(s, np.arange(q)))
    return raw @ np.arange(q) / raw.sum(axis=1)


def weight_variance_by_enumeration(s: float, q: int) -> float:
    """Var(a_ij) about its mean, summed directly over the q support points."""
    p = pmf_by_enumeration(s, q)
    a = np.arange(q)
    mean = float(a @ p)
    return float((a - mean) ** 2 @ p)


def expected_degrees_by_summation(alpha: np.ndarray, q: int) -> np.ndarray:
    """E(d_i) via the scalar mean weight from the enumerated pmf, pair by pair."""
    n = len(alpha)
    out = np.zeros(n)
    for i in range(n):
        out[i] = sum(
            float(np.arange(q) @ pmf_by_enumeration(alpha[i] + alpha[j], q))
            for j in range(n)
            if j != i
        )
    return out


def jacobian_by_finite_differences(
    alpha: np.ndarray, q: int, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of ``expected_degrees_by_summation``."""
    n = len(alpha)
    jac = np.zeros((n, n))
    for j in range(n):
        up = alpha.copy()
        dn = alpha.copy()
        up[j] += step
        dn[j] -= step
        jac[:, j] = (
            expected_degrees_by_summation(up, q) - expected_degrees_by_summation(dn, q)
        ) / (2 * step)
    return jac


@dataclass
class InverseApproxReport:
    """Gap between the exact Jacobian inverse and its diagonal surrogate."""

    max_entry_gap: float
    s_diag: np.ndarray
    inv_inf_norm: float


# Largest n ``inverse_approximation`` inverts densely.
_DENSE_INVERSE_CAP = 2000


def inverse_approximation(alpha, q: int) -> InverseApproxReport:
    """Compare the exact inverse Jacobian with the diagonal approximation.

    V has the enumerated weight variances Var(a_ij) off the diagonal and
    their row sums v_ii on it.  Computes V^{-1} by dense inversion and S
    with S_ij = delta_ij / v_ii, returning the largest absolute entry of
    V^{-1} - S, the S diagonal, and the sup-norm (max absolute row sum) of
    V^{-1}.  Dense inversion caps the usable size at ``_DENSE_INVERSE_CAP``
    nodes.
    """
    a = np.asarray(alpha, dtype=float)
    if a.shape[0] > _DENSE_INVERSE_CAP:
        raise ValueError(
            f"n={a.shape[0]} too large for dense inversion cap {_DENSE_INVERSE_CAP}."
        )
    v = np.array([[weight_variance_by_enumeration(x + y, q) for y in a] for x in a])
    np.fill_diagonal(v, 0.0)
    np.fill_diagonal(v, v.sum(axis=1))
    v_inv = np.linalg.inv(v)
    s_diag = 1.0 / np.diagonal(v)
    gap = v_inv - np.diag(s_diag)
    return InverseApproxReport(
        max_entry_gap=float(np.max(np.abs(gap))),
        s_diag=s_diag,
        inv_inf_norm=float(np.max(np.abs(v_inv).sum(axis=1))),
    )


def dlaplace_moment_by_series(lam: float, power: int, zmax: int = 400) -> float:
    """E |Z|^power for the symmetric discrete Laplace law, by summation."""
    norm = (1.0 - lam) / (1.0 + lam)
    total = norm  # z = 0 term is nonzero only for power == 0
    if power > 0:
        total = 2.0 * norm * sum(z**power * lam**z for z in range(1, zmax + 1))
    return total


def dlaplace_pmf_closed_form(z, lam: float) -> np.ndarray:
    """Symmetric discrete Laplace pmf (1 - lam) / (1 + lam) * lam^|z|."""
    return (1.0 - lam) / (1.0 + lam) * lam ** np.abs(z)


def dlaplace_max_tail(c: float, lam: float, n: int) -> float:
    """P(max of n iid |Z_i| > c) for the symmetric law, from
    P(|Z| > c) = 2 lam^k / (1 + lam) with k = floor(c) + 1."""
    single = 2.0 * lam ** (math.floor(c) + 1) / (1.0 + lam)
    return 1.0 - (1.0 - single) ** n


def skew_dlaplace_pmf(z, lam: float, mu: float) -> np.ndarray:
    """Skew law pmf (1-lam)(1-mu)/(1-lam mu) * (lam^z for z >= 0, mu^-z below)."""
    z = np.asarray(z)
    norm = (1.0 - lam) * (1.0 - mu) / (1.0 - lam * mu)
    return norm * np.where(z >= 0, lam ** np.abs(z), mu ** np.abs(z))


def skew_dlaplace_moment_by_series(
    lam: float, mu: float, power: int, absolute: bool, zmax: int = 400
) -> float:
    """E Z^power or E |Z|^power for the skew law, by summation."""
    z = np.arange(-zmax, zmax + 1)
    base = np.abs(z) if absolute else z
    return float(np.sum(base.astype(float) ** power * skew_dlaplace_pmf(z, lam, mu)))


def gauss_seidel_bisect(
    d_bar,
    q: int,
    lo: float = -40.0,
    hi: float = 40.0,
    tol: float = 1e-12,
    max_sweeps: int = 2000,
):
    """Solve the moment equations by cyclic coordinate bisection.

    Each coordinate's equation is strictly increasing in its own parameter,
    so bisection on [lo, hi] pins it given the others; sweeps repeat until
    the largest coordinate change drops below ``tol``.  Returns None when a
    coordinate's root leaves the bracket (no solution there) or the sweep
    budget runs out.  The linear sweep rate degenerates for near-saturated
    roots (coordinates beyond ~10), so use this on interior roots only.
    """
    d_bar = np.asarray(d_bar, dtype=float)
    n = len(d_bar)
    alpha = np.zeros(n)
    others = [np.array([j for j in range(n) if j != i]) for i in range(n)]

    def f(i, x):
        return mean_weights_by_enumeration(x + alpha[others[i]], q).sum() - d_bar[i]

    for _ in range(max_sweeps):
        delta = 0.0
        for i in range(n):
            a, b = lo, hi
            if f(i, a) > 0 or f(i, b) < 0:
                return None
            for _ in range(60):
                mid = 0.5 * (a + b)
                if f(i, mid) < 0:
                    a = mid
                else:
                    b = mid
            new = 0.5 * (a + b)
            delta = max(delta, abs(new - alpha[i]))
            alpha[i] = new
        if delta < tol:
            return alpha
    return None


def interior_by_enumeration(d_bar, q: int) -> bool:
    """Whether d_bar lies in the interior of the polytope (q-1) D_n, by
    checking sum_S d - sum_T d < (q-1) |S| (n-1-|T|) for every labelling of
    the n nodes as in S, in T or in neither, S and T not both empty: 3^n
    labellings, so keep n <= 7.  At n = 2 the polytope is a segment with no
    interior, and this returns False for every d_bar.
    """
    d_bar = np.asarray(d_bar, dtype=float)
    n = len(d_bar)
    labels = np.array(list(itertools.product(range(3), repeat=n)))[1:]
    in_s, in_t = labels == 1, labels == 2
    s, t = in_s.sum(axis=1), in_t.sum(axis=1)
    lhs = in_s @ d_bar - in_t @ d_bar
    return bool(np.all(lhs < (q - 1) * s * (n - 1 - t)))


_ID_MAX = 3037000499  # the largest n with n*n in int64
_TO_SPACE = str.maketrans(dict.fromkeys("\t\n\v\f\r\x1c\x1d\x1e\x1f", " "))


def _is_integer(field: str) -> bool:
    digits = field[1:] if field[0] in "+-" else field
    return digits.isascii() and digits.isdigit()


def parse_edge_list_by_lines(data: bytes, q: int, n=None):
    """The edge-list grammar of ``dpbeta.edgelist``, read line by line.

    Returns ``(n, i, j, w)`` with 0-based int64 pairs in row-major order, or
    ``(line, message)`` for the first fault (line None for a fault of the
    whole file), with the message ``EdgeListError`` would carry.
    """
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for k, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return k, "not UTF-8 text."
    pairs = {}
    for k, raw in enumerate(lines, start=1):
        text = raw.decode("utf-8")
        fields = [f for f in text.translate(_TO_SPACE).split(" ") if f]
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3:
            return k, f"expected 'i j w', got {text.strip()!r}."
        if not all(map(_is_integer, fields)):
            return k, f"non-integer field in {text.strip()!r}."
        a, b, w = map(int, fields)
        if a < 1 or b < 1:
            return k, "node ids are 1-based."
        if max(a, b) > _ID_MAX:
            return k, f"node id {max(a, b)} exceeds the largest supported id {_ID_MAX}."
        if a == b:
            return k, f"self-loop on node {a}."
        if w < 1:
            return k, f"weight must be >= 1 (omit zero-weight pairs), got {w}."
        if w > q - 1:
            return k, f"weight {w} >= q = {q}."
        pair = (min(a, b), max(a, b))
        if pair in pairs:
            return k, f"duplicate pair {pair[0]} {pair[1]}."
        pairs[pair] = w
    max_id = max((b for _, b in pairs), default=0)
    if n is None:
        if max_id < 2:
            return None, "cannot infer node count from an empty edge list; pass n."
        n = max_id
    elif max_id > n:
        return None, f"node id {max_id} exceeds declared n={n}."
    ordered = sorted(pairs)
    i = np.array([a - 1 for a, _ in ordered], dtype=np.int64)
    j = np.array([b - 1 for _, b in ordered], dtype=np.int64)
    w = np.array([pairs[p] for p in ordered], dtype=np.int64)
    return n, i, j, w
