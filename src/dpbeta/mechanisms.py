"""Integer noise mechanisms for releasing degree sequences under edge DP.

The noise follows one discrete Laplace law with parameters 0 < lam, mu < 1:

    P(Z = z) = (1 - lam)(1 - mu) / (1 - lam mu) * (lam^z if z >= 0 else mu^-z),

the law of Z = G1 - G2 with G1, G2 independent geometric (number of
failures) with success probabilities 1 - lam and 1 - mu (Kozubowski &
Inusah 2006).  A mechanism is its (lam, mu): symmetric noise is mu = lam,
with pmf (1 - lam) / (1 + lam) * lam^|z|, and skew noise lets mu differ.
Adding one independent draw to each coordinate of a statistic with global
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

from .model import _check_q, _integer, _integer_array

DEGREE_SENSITIVITY = 2


class CalibrationError(ValueError):
    """Raised when requested privacy parameters cannot be realized."""


@dataclass
class NoiseMechanism:
    """Calibrated noise distribution with its privacy accounting.

    Invariants: 0 < lam < 1, 0 < mu < 1 and
    epsilon == -sensitivity * log(min(lam, mu)).  The mechanism is
    symmetric exactly when lam == mu.
    """

    lam: float
    mu: float
    epsilon: float
    sensitivity: int = DEGREE_SENSITIVITY

    def __post_init__(self):
        _check_params(self.lam, self.mu)
        self.sensitivity = _integer(self.sensitivity, "sensitivity", 1)
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
        Privacy parameter, a number (not a bool), finite and > 0, such that
        exp(-epsilon / sensitivity) rounds to neither 0 nor 1.
    sensitivity:
        Global l1 sensitivity of the released statistic (2 for degrees), a
        positive integer.
    kind:
        "symmetric" sets lam = mu = exp(-epsilon / sensitivity), which is
        skew_ratio 1.  "skew" sets min(lam, mu) = exp(-epsilon / sensitivity)
        and scales the other parameter by ``skew_ratio`` = lam / mu.
    skew_ratio:
        Required for kind="skew"; a number (not a bool, not NaN) > 0 that
        must not push the larger parameter to 1 or above.  Given with
        kind="symmetric", it raises CalibrationError.
    """
    epsilon = _number(epsilon, "epsilon")
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
        ratio = 1.0
    elif kind == "skew":
        ratio = None if skew_ratio is None else _number(skew_ratio, "skew_ratio")
        if ratio is None or not ratio > 0:  # NaN compares false
            raise CalibrationError(
                f"skew calibration needs skew_ratio > 0, got {skew_ratio!r}."
            )
    else:
        raise CalibrationError(f"unknown mechanism kind {kind!r}.")

    # ratio = lam / mu; the smaller is pinned to base (base * 1.0 is base)
    lam, mu = (base * ratio, base) if ratio >= 1.0 else (base, base / ratio)
    if max(lam, mu) >= 1.0:
        raise CalibrationError(
            f"skew_ratio={skew_ratio} pushes max(lam, mu)={max(lam, mu)} to >= 1."
        )
    return NoiseMechanism(lam, mu, epsilon, sensitivity)


def _number(value, name: str) -> float:
    """value as a float; a bool (float(True) would read as 1) or anything
    float() refuses raises CalibrationError naming the parameter."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise CalibrationError(f"{name} must be a number, got {value!r}.")


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

    ``d_bar`` is derived, ``d + e`` elementwise; its entries may be negative
    or exceed the largest attainable degree, and are never clamped.  The
    true degrees and the noise are kept out of the default serialization.
    """

    d: np.ndarray
    e: np.ndarray
    mechanism: NoiseMechanism
    seed: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self):
        self.d, self.e = (_integer_array(getattr(self, k), k) for k in ("d", "e"))
        if self.d.shape != self.e.shape:
            raise ValueError("d and e must have equal length.")

    @property
    def d_bar(self) -> np.ndarray:
        return self.d + self.e

    @property
    def n(self) -> int:
        return self.d.shape[0]

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
        Anything ``numpy.random.default_rng`` accepts but a bool (which
        raises ValueError).  An integer seed, Python or NumPy, is recorded
        in the release provenance as an int; any other as None.
    q:
        Weight-class count of the generating graph, recorded for downstream
        fitting: None, or an integer that ``model._check_q`` accepts,
        recorded as an int.
    """
    if isinstance(seed, (bool, np.bool_)):
        raise ValueError(f"seed must not be a bool, got {seed!r}.")
    q = None if q is None else _check_q(q)
    d = _integer_array(d, "d")
    e = sample_noise(mechanism, d.shape[0], seed)
    stored_seed = int(seed) if isinstance(seed, (int, np.integer)) else None
    return DegreeRelease(d=d, e=e, mechanism=mechanism, seed=stored_seed, q=q)


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

    zs = np.arange(-window - delta, window + delta + 1)
    logp = _log_pmf(zs, mechanism.lam, mechanism.mu)
    size = 2 * window + 1  # outputs -window..window, from index delta on
    # each shift u's best one-coordinate gain, one shift at a time
    gain = np.array([
        np.max(logp[delta : delta + size] - logp[delta - u : delta - u + size])
        for u in range(-delta, delta + 1)
    ])
    # per |u| = a the better of +-a, and the best over |u| <= a; a pair of
    # l1 norm 1..delta is a >= 1 with a partner of |u| <= delta - a, or
    # a = 0 with one of |u| >= 1.  Float addition is monotone, so adding a
    # gain to the partners' maximum gives the maximum of the sums.
    best = np.maximum(gain[delta:], gain[delta::-1])
    partner = np.maximum.accumulate(best)[::-1]  # at a: the best of |u| <= delta - a
    return float(max((best[1:] + partner[1:]).max(), best[0] + best[1:].max()))
