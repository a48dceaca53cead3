"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: edge-weight
moments come from raw, unshifted exponentials summed over the q support
points (so they hold only for moderate pair sums, (q-1)|s| below ~700),
noise moments from truncated series summation over the integer support,
expected degrees from explicit pairwise summation of the scalar mean,
Jacobians from central finite differences, and the moment equations are
solved by cyclic coordinate bisection instead of Newton steps.
"""

from __future__ import annotations

import math

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
    """Central finite differences of the expected-degree map."""
    from dpbeta.model import expected_degrees

    n = len(alpha)
    jac = np.zeros((n, n))
    for j in range(n):
        up = alpha.copy()
        dn = alpha.copy()
        up[j] += step
        dn[j] -= step
        jac[:, j] = (expected_degrees(up, q) - expected_degrees(dn, q)) / (2 * step)
    return jac


def dlaplace_moment_by_series(lam: float, power: int, zmax: int = 400) -> float:
    """E |Z|^power for the symmetric discrete Laplace law, by summation."""
    norm = (1.0 - lam) / (1.0 + lam)
    total = norm  # z = 0 term is nonzero only for power == 0
    if power > 0:
        total = 2.0 * norm * sum(z**power * lam**z for z in range(1, zmax + 1))
    return total


def skew_dlaplace_moment_by_series(
    lam: float, mu: float, power: int, absolute: bool, zmax: int = 400
) -> float:
    """E Z^power or E |Z|^power for the skew law, by summation."""
    norm = (1.0 - lam) * (1.0 - mu) / (1.0 - lam * mu)
    total = 0.0
    for z in range(-zmax, zmax + 1):
        p = norm * (lam**z if z >= 0 else mu ** (-z))
        base = abs(z) if absolute else z
        total += base**power * p
    return total


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
