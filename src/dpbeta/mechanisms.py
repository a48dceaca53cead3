"""Integer noise mechanisms for releasing degree sequences under edge DP.

The noise follows one discrete Laplace law with parameters 0 < lam, mu < 1:

    P(Z = z) = (1 - lam)(1 - mu) / (1 - lam mu) * (lam^z if z >= 0 else mu^-z),

the law of Z = G1 - G2 with G1, G2 independent geometric (number of
failures) with success probabilities 1 - lam and 1 - mu (Kozubowski &
Inusah 2006).  The symmetric mechanism is mu = lam, with pmf
(1 - lam) / (1 + lam) * lam^|z|; the skew mechanism lets mu differ.  Adding
one independent draw to each coordinate of a statistic with global
sensitivity ``delta`` is (-delta * log(min(lam, mu)))-edge differentially
private.  Sampling draws G1 and G2, which is exact and integer-only.

Degree sequences of undirected graphs have sensitivity 2 for neighbouring
graphs that differ by one unit of weight on one pair, the relation assumed
here.  Whole-edge neighbours, which may change one pair's weight by up to
q - 1, move two degrees by q - 1 each: the same noise is then (q - 1)
epsilon-DP (Dwork, McSherry, Nissim & Smith 2006).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import _integer, _integer_array

DEGREE_SENSITIVITY = 2


class CalibrationError(ValueError):
    """Raised when requested privacy parameters cannot be realized."""


@dataclass
class NoiseMechanism:
    """Calibrated noise distribution with its privacy accounting.

    Invariants: 0 < lam < 1, 0 < mu < 1; for a symmetric mechanism mu == lam
    and epsilon == -sensitivity * log(lam); for a skew mechanism
    epsilon == -sensitivity * log(min(lam, mu)).
    """

    kind: str  # "symmetric" or "skew"
    lam: float
    mu: float
    epsilon: float
    sensitivity: int = DEGREE_SENSITIVITY

    def __post_init__(self):
        if self.kind not in ("symmetric", "skew"):
            raise ValueError(f"unknown mechanism kind {self.kind!r}.")
        if not (0.0 < self.lam < 1.0 and 0.0 < self.mu < 1.0):
            raise ValueError("lam and mu must lie strictly in (0, 1).")
        self.sensitivity = _integer(self.sensitivity, "sensitivity", 1)
        if self.kind == "symmetric" and self.mu != self.lam:
            raise ValueError("symmetric mechanism requires mu == lam.")
        implied = -self.sensitivity * math.log(min(self.lam, self.mu))
        if not math.isclose(self.epsilon, implied, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"epsilon={self.epsilon} inconsistent with parameters "
                f"(implied {implied})."
            )


def calibrate(
    epsilon: float,
    sensitivity: int = DEGREE_SENSITIVITY,
    kind: str = "symmetric",
    skew_ratio: Optional[float] = None,
) -> NoiseMechanism:
    """Choose noise parameters achieving a target privacy level.

    Parameters
    ----------
    epsilon:
        Privacy parameter, finite and > 0, such that
        exp(-epsilon / sensitivity) rounds to neither 0 nor 1.
    sensitivity:
        Global l1 sensitivity of the released statistic (2 for degrees), a
        positive integer.
    kind:
        "symmetric" sets lam = mu = exp(-epsilon / sensitivity).  "skew"
        sets min(lam, mu) = exp(-epsilon / sensitivity) and scales the other
        parameter by ``skew_ratio`` = lam / mu.
    skew_ratio:
        Required for kind="skew"; a number (not a bool, not NaN) > 0 that
        must not push the larger parameter to 1 or above.  Given with
        kind="symmetric", it raises CalibrationError.
    """
    if isinstance(epsilon, (bool, np.bool_)):  # float(True) would calibrate eps = 1
        raise CalibrationError(f"epsilon must be a number, got {epsilon!r}.")
    epsilon = float(epsilon)
    if not 0 < epsilon < math.inf:
        raise CalibrationError(f"epsilon must be finite and > 0, got {epsilon}.")
    # truncating a sensitivity of 2.7 to 2 would calibrate too little noise
    sensitivity = _integer(sensitivity, "sensitivity", 1)
    base = math.exp(-epsilon / sensitivity)
    if not 0.0 < base < 1.0:
        raise CalibrationError(
            f"epsilon={epsilon} is out of range: exp(-epsilon / sensitivity) "
            f"rounds to {base}."
        )

    if kind == "symmetric":
        if skew_ratio is not None:
            raise CalibrationError(
                "skew_ratio applies to kind='skew' only; symmetric noise has lam = mu."
            )
        return NoiseMechanism("symmetric", base, base, epsilon, sensitivity)
    if kind != "skew":
        raise CalibrationError(f"unknown mechanism kind {kind!r}.")
    if isinstance(skew_ratio, (bool, np.bool_)):  # True would calibrate ratio 1
        raise CalibrationError(f"skew_ratio must be a number, got {skew_ratio!r}.")
    if skew_ratio is None or not skew_ratio > 0:  # NaN compares false
        raise CalibrationError(
            f"skew calibration needs skew_ratio > 0, got {skew_ratio!r}."
        )

    # skew_ratio = lam / mu; the smaller of the two is pinned to base.
    if skew_ratio >= 1.0:
        mu, lam = base, base * skew_ratio
    else:
        lam, mu = base, base / skew_ratio
    if max(lam, mu) >= 1.0:
        raise CalibrationError(
            f"skew_ratio={skew_ratio} pushes max(lam, mu)={max(lam, mu)} to >= 1."
        )
    return NoiseMechanism("skew", lam, mu, epsilon, sensitivity)


def theory_epsilon_floor(n: int) -> float:
    """Smallest epsilon for which the consistency theory is in force.

    The asymptotic guarantees assume epsilon >= 4 sqrt(log n); smaller
    budgets are allowed everywhere in this package but are flagged by the
    CLI as outside the supported regime.
    """
    if n < 2:
        raise ValueError("n must be >= 2.")
    return 4.0 * math.sqrt(math.log(n))


# ---------------------------------------------------------------------------
# the discrete Laplace law
# ---------------------------------------------------------------------------


def _log_pmf(z, lam: float, mu: float):
    """log P(Z = z) at integer z.

    1 - lam mu is written (1-lam) + lam (1-mu), here and below: a sum of
    positive terms keeps its relative precision as lam and mu near 1.
    """
    log_norm = (
        math.log(1.0 - lam)
        + math.log(1.0 - mu)
        - math.log((1.0 - lam) + lam * (1.0 - mu))
    )
    return log_norm + np.where(z >= 0, z * math.log(lam), -z * math.log(mu))


def dlaplace_pmf(z, lam: float, mu: float):
    """pmf at integer z: proportional to lam^z for z >= 0, mu^|z| for z <= 0."""
    _check_params(lam, mu)
    out = np.exp(_log_pmf(np.asarray(z), lam, mu))
    return float(out) if out.ndim == 0 else out


def dlaplace_moments(lam: float, mu: float) -> tuple[float, float, float]:
    """(mean, variance, E|Z|) of Z = G1 - G2 (see the module docstring):
    mean = lam/(1-lam) - mu/(1-mu), variance = lam/(1-lam)^2 + mu/(1-mu)^2
    and, with r = (1-mu)/(1-lam), E|Z| = (lam r + mu/r) / (1 - lam mu).
    """
    _check_params(lam, mu)
    mean = lam / (1.0 - lam) - mu / (1.0 - mu)
    variance = lam / (1.0 - lam) ** 2 + mu / (1.0 - mu) ** 2
    r = (1.0 - mu) / (1.0 - lam)
    mean_abs = (lam * r + mu / r) / ((1.0 - lam) + lam * (1.0 - mu))
    return mean, variance, mean_abs


def dlaplace_tail(c: float, lam: float, mu: float, n: Optional[int] = None) -> float:
    """P(|Z| > c), or P(max of n iid |Z_i| > c) when n is given.

    With k = floor(c) + 1,
    P(|Z| > c) = [(1-mu) lam^k + (1-lam) mu^k] / (1 - lam mu).
    """
    _check_params(lam, mu)
    if not 0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c!r}.")
    k = math.floor(c) + 1
    single = ((1.0 - mu) * lam**k + (1.0 - lam) * mu**k) / (
        (1.0 - lam) + lam * (1.0 - mu)
    )
    if n is None:
        return single
    return 1.0 - (1.0 - single) ** _integer(n, "n", 1)


def _check_params(lam: float, mu: float) -> None:
    for value, name in ((lam, "lam"), (mu, "mu")):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie strictly in (0, 1), got {value}.")


# ---------------------------------------------------------------------------
# sampling and release
# ---------------------------------------------------------------------------


def sample_noise(mechanism: NoiseMechanism, size: int, seed=None) -> np.ndarray:
    """Draw iid integer noise, one value per coordinate.

    Uses the exact difference-of-geometrics representation; the two
    geometric blocks are drawn in a fixed order so a fixed seed fixes the
    output.
    """
    size = _integer(size, "size", 0)
    rng = np.random.default_rng(seed)
    g1 = rng.geometric(1.0 - mechanism.lam, size=size)
    g2 = rng.geometric(1.0 - mechanism.mu, size=size)
    return (g1 - g2).astype(np.int64)


@dataclass
class DegreeRelease:
    """A noisy degree sequence together with its provenance.

    ``d_bar = d + e`` elementwise; entries may be negative or exceed the
    largest attainable degree, and are never clamped.  The true degrees and
    the noise are kept out of the default serialization.
    """

    d: np.ndarray
    e: np.ndarray
    d_bar: np.ndarray
    mechanism: NoiseMechanism
    seed: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self):
        self.d, self.e, self.d_bar = (
            _integer_array(getattr(self, k), k) for k in ("d", "e", "d_bar")
        )
        if not (self.d.shape == self.e.shape == self.d_bar.shape):
            raise ValueError("d, e and d_bar must have equal length.")
        if not np.array_equal(self.d_bar, self.d + self.e):
            raise ValueError("d_bar must equal d + e.")

    @property
    def n(self) -> int:
        return self.d_bar.shape[0]

    def to_dict(self, debug: bool = False) -> dict:
        """JSON-ready mapping; ``debug`` adds the private d and e vectors."""
        out = {
            "n": self.n,
            "q": self.q,
            "epsilon": self.mechanism.epsilon,
            "lambda": self.mechanism.lam,
            "mu": self.mechanism.mu,
            "seed": self.seed,
            "d_bar": self.d_bar.tolist(),
        }
        if debug:
            out["d"] = self.d.tolist()
            out["e"] = self.e.tolist()
        return out

    def to_json(self, debug: bool = False) -> str:
        return json.dumps(self.to_dict(debug=debug), indent=2)


def release_degrees(
    d, mechanism: NoiseMechanism, seed=None, q: Optional[int] = None
) -> DegreeRelease:
    """Add calibrated noise to a degree sequence.

    Parameters
    ----------
    d:
        True degree sequence (integer array-like); a non-integral or
        non-finite entry raises ValueError rather than being truncated.
    mechanism:
        Calibrated noise mechanism; with sensitivity 2 the release is
        epsilon-edge DP for neighbours one unit of weight apart on one
        pair, and (q - 1) epsilon-DP for whole-edge neighbours.
    seed:
        RNG seed recorded in the release provenance.
    q:
        Weight-class count of the generating graph, recorded for downstream
        fitting.
    """
    d = _integer_array(d, "d")
    e = sample_noise(mechanism, d.shape[0], seed)
    stored_seed = seed if isinstance(seed, int) else None
    return DegreeRelease(
        d=d, e=e, d_bar=d + e, mechanism=mechanism, seed=stored_seed, q=q
    )


def worst_case_log_ratio(mechanism: NoiseMechanism, window: int = 50) -> float:
    """Largest log output-probability ratio over neighboring inputs.

    Scans all two-coordinate shift patterns with l1 norm up to the
    mechanism's sensitivity (an edge change moves at most two degrees) and
    all outputs with coordinates in [-window, window].  For the symmetric
    mechanism the supremum equals epsilon exactly; the ratio is monotone in
    |output|, so a finite window that extends past the shift is enough.
    """
    delta = mechanism.sensitivity
    window = _integer(window, "window")
    if window < delta + 1:
        raise ValueError(f"window must be >= sensitivity + 1 = {delta + 1}.")

    zmin, zmax = -window - delta, window + delta
    zs = np.arange(zmin, zmax + 1)
    logp = _log_pmf(zs, mechanism.lam, mechanism.mu)

    def idx(z: np.ndarray) -> np.ndarray:
        return z - zmin

    s = np.arange(-window, window + 1)
    # best single-coordinate gain for each shift u
    gain = {}
    for u in range(-delta, delta + 1):
        gain[u] = float(np.max(logp[idx(s)] - logp[idx(s - u)]))

    best = -math.inf
    for u1 in range(-delta, delta + 1):
        for u2 in range(-delta, delta + 1):
            if u1 == 0 and u2 == 0:
                continue
            if abs(u1) + abs(u2) > delta:
                continue
            best = max(best, gain[u1] + gain[u2])
    return best
