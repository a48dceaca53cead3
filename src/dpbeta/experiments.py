"""Monte-Carlo studies of coverage, interval width and estimate existence.

A study fixes a network size n, weight-class count q, a linear profile of
true parameters alpha*_i = (n - i + 1) L / n (1-based i), and a privacy
budget schedule.  Each replication samples a graph at the truth, releases
its degree sequence with calibrated symmetric noise, refits the parameters,
and records, for a set of tracked node pairs, whether the contrast interval
covers the true contrast, the interval's scale, and the standardized
contrast.  Replications whose estimate does not exist are tabulated
separately and excluded from the per-pair statistics.

Child seeds are derived by hashing (master_seed, replication index), so
replications are order-independent and results are bit-reproducible.
Replications are run in chunks: a chunk draws its degrees in one pass
(``model._sample_degrees``, one generator per replication, each drawing
its own stream), is solved together (``estimator.solve_many``), and the
intervals of all converged replications are computed in one array pass at
the end.  No result depends on the chunking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .estimator import _contrast, solve_many
from .mechanisms import _number, calibrate, sample_noise
from .model import _check_q, _integer, _sample_degrees

L_MODES = ("zero", "loglog", "sqrtlog")
EPS_MODES = ("fixed:<value>", "logn_over_n14", "logn_over_n12")


def profile_scale(l_mode: str, n: int) -> float:
    """Scale L of the linear truth profile: 0, log(log n) or sqrt(log n)."""
    if n < 3:
        raise ValueError("n must be >= 3.")
    if l_mode == "zero":
        return 0.0
    if l_mode == "loglog":
        return math.log(math.log(n))
    if l_mode == "sqrtlog":
        return math.sqrt(math.log(n))
    raise ValueError(f"unknown L mode {l_mode!r}; expected one of {L_MODES}.")


def epsilon_schedule(eps_mode: str, n: int) -> float:
    """Privacy budget for a given size: fixed:<v>, log(n)/n^(1/4) or log(n)/n^(1/2)."""
    if n < 3:
        raise ValueError("n must be >= 3.")
    if eps_mode.startswith("fixed:"):
        text = eps_mode.split(":", 1)[1]
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"fixed epsilon must be a number, got {text!r}.") from None
        if not 0 < value < math.inf:
            raise ValueError(f"fixed epsilon must be finite and > 0, got {value}.")
        return value
    if eps_mode == "logn_over_n14":
        return math.log(n) / n**0.25
    if eps_mode == "logn_over_n12":
        return math.log(n) / n**0.5
    raise ValueError(
        f"unknown epsilon mode {eps_mode!r}; expected one of {EPS_MODES}."
    )


def truth_profile(n: int, scale: float) -> np.ndarray:
    """Linear truth alpha*_i = (n - i + 1) * scale / n for i = 1..n."""
    i = np.arange(1, n + 1)
    return (n - i + 1) * scale / n


def default_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Tracked node pairs (1-based): (1,2), (n//2, n//2+1), (n-1, n)."""
    return ((1, 2), (n // 2, n // 2 + 1), (n - 1, n))


@dataclass
class ExperimentSpec:
    """Configuration of one Monte-Carlo study.

    ``pairs`` holds 1-based node labels, matching the CSV output; they are
    converted internally.
    """

    n: int
    q: int
    l_mode: str = "zero"
    eps_mode: str = "fixed:2"
    reps: int = 10_000
    level: float = 0.95
    pairs: Optional[tuple[tuple[int, int], ...]] = None
    master_seed: int = 0

    def __post_init__(self):
        self.n, self.reps = _integer(self.n, "n"), _integer(self.reps, "reps")
        if self.n < 3:
            raise ValueError("n must be >= 3.")
        self.q = _check_q(self.q)
        if self.reps < 1:
            raise ValueError("reps must be >= 1.")
        self.level = _number(self.level, "level")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie strictly in (0, 1).")
        # validate modes eagerly
        profile_scale(self.l_mode, self.n)
        epsilon_schedule(self.eps_mode, self.n)
        if self.pairs is None:
            self.pairs = default_pairs(self.n)
        try:
            pairs = [tuple(pair) for pair in self.pairs]
        except TypeError:
            pairs = []
        if not pairs or any(len(pair) != 2 for pair in pairs):
            raise ValueError(
                f"pairs must be a non-empty sequence of node pairs (i, j), "
                f"got {self.pairs!r}."
            )
        self.pairs = tuple(
            (_integer(i, "pair entry"), _integer(j, "pair entry")) for i, j in pairs
        )
        self.master_seed = _integer(self.master_seed, "master_seed", 0)
        for i, j in self.pairs:
            if i == j:
                raise ValueError(f"pair ({i},{j}) must have distinct nodes.")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"pair ({i},{j}) outside 1..{self.n}.")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PairSummary:
    """Per-pair aggregates over the converged replications.

    ``mean_length`` is the average interval scale
    z * (1/v_ii + 1/v_jj)^(1/2), i.e. the half-width of the reported
    interval (the interval is point +- this amount).
    """

    pair: tuple[int, int]
    coverage: float
    mean_length: float
    xi: list[float] = field(default_factory=list)


@dataclass
class ExperimentResult:
    """Aggregated output of :func:`run_experiment`."""

    spec: ExperimentSpec
    pairs: list[PairSummary]
    nonexistence: float
    reps_completed: int
    converged: int

    def pair_summary(self, pair: tuple[int, int]) -> PairSummary:
        for p in self.pairs:
            if p.pair == tuple(pair):
                return p
        raise KeyError(f"pair {pair} was not tracked.")


def child_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """Deterministic per-replication seed, independent of execution order."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(key))


def _study_setup(l_mode: str, eps_mode: str, n: int):
    """The truth profile and the calibrated noise mechanism at size n."""
    alpha_star = truth_profile(n, profile_scale(l_mode, n))
    return alpha_star, calibrate(epsilon_schedule(eps_mode, n))


def _noisy_degrees(
    alpha_star: np.ndarray, q: int, mechanism, seeds
) -> np.ndarray:
    """The released degrees of the replications with the given child seeds,
    one row each: a graph's degrees sampled at the truth, plus noise, from
    one generator per replication.

    Only the degrees are drawn, from the same streams as ``sample_graph``,
    for the whole chunk at once; no edge list is built.  Each generator then
    draws its noise.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    D = _sample_degrees(alpha_star, q, rngs)
    for d, rng in zip(D, rngs):
        d += sample_noise(mechanism, D.shape[1], rng)
    return D


# Replications solved together hold at most this many class pairs,
# counting each at its most, n(n-1)/2: 13 replications at n = 100, one
# from n = 257 up.  A pass over a batch takes some 90 bytes per pair, so
# the budget bounds a study's added memory at ~6 MB; at n = 100 a batch of
# about 40 classes per replication adds ~1 MB.
_PAIR_BUDGET = 2**16


def _fits(alpha_star: np.ndarray, q: int, mechanism, seeds):
    """The fits of the replications with the given child seeds, in order,
    solved in chunks within ``_PAIR_BUDGET``."""
    n = alpha_star.shape[0]
    chunk = max(1, _PAIR_BUDGET // (n * (n - 1) // 2))
    seeds = iter(seeds)
    while batch := list(itertools.islice(seeds, chunk)):
        yield from solve_many(_noisy_degrees(alpha_star, q, mechanism, batch), q)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the replication loop and aggregate coverage/length/existence.

    Deterministic given (spec, master_seed).  Nonexistent estimates count
    toward the nonexistence frequency and contribute nothing else.
    """
    alpha_star, mechanism = _study_setup(spec.l_mode, spec.eps_mode, spec.n)
    p = len(spec.pairs)
    nodes = np.array(spec.pairs).T.reshape(-1) - 1  # every i, then every j
    truth = alpha_star[nodes[:p]] - alpha_star[nodes[p:]]

    # the tracked estimates and variances of the converged fits, a row each
    alpha_hat, v_hat = [], []
    seeds = (child_seed(spec.master_seed, rep) for rep in range(spec.reps))
    for fit in _fits(alpha_star, spec.q, mechanism, seeds):
        if fit.converged:
            alpha_hat.append(fit.alpha_hat[nodes])
            v_hat.append(fit.v_hat_diag[nodes])

    converged = len(alpha_hat)
    a, v = (np.reshape(x, (converged, 2 * p)) for x in (alpha_hat, v_hat))
    point, se, half_width = _contrast(a[:, :p], a[:, p:], v[:, :p], v[:, p:], spec.level)
    covered = (np.abs(point - truth) <= half_width).sum(axis=0)
    # added in fit order: a cumulative sum accumulates row by row, where a
    # sum may add a one-pair column pairwise
    length_sum = np.cumsum(half_width, axis=0)[-1] if converged else np.zeros(p)
    with np.errstate(invalid="ignore"):  # no converged replication gives nan
        coverage, mean_length = covered / converged, length_sum / converged
    xi = ((point - truth) / se).T.tolist()
    return ExperimentResult(
        spec=spec,
        pairs=[
            PairSummary(pair, float(c), float(m), x)
            for pair, c, m, x in zip(spec.pairs, coverage, mean_length, xi)
        ],
        nonexistence=(spec.reps - converged) / spec.reps,
        reps_completed=spec.reps,
        converged=converged,
    )


# The fewest standardized contrasts ``qq_points`` pairs with quantiles.
QQ_MIN_VALUES = 30


def qq_points(
    result: ExperimentResult, pair: tuple[int, int]
) -> list[tuple[float, float]]:
    """Normal QQ pairing of the standardized contrasts for one tracked pair.

    Returns (theoretical, empirical) rows: the k-th order statistic against
    the standard normal quantile at (k - 0.5) / m.
    """
    xi = sorted(result.pair_summary(pair).xi)
    m = len(xi)
    if m < QQ_MIN_VALUES:
        raise ValueError(f"need at least {QQ_MIN_VALUES} values, have {m}.")
    quantile = NormalDist().inv_cdf
    return [(quantile((k - 0.5) / m), float(x)) for k, x in enumerate(xi, start=1)]


@dataclass
class RateRow:
    """Median sup-norm estimation error at one network size."""

    n: int
    median_inf_error: float
    converged: int
    reps: int


def rate_study(
    n_list: Sequence[int],
    q: int,
    l_mode: str = "zero",
    eps_mode: str = "fixed:2",
    reps: int = 300,
    master_seed: int = 0,
) -> list[RateRow]:
    """Median of ||alpha_hat - alpha*||_inf over converged replications, per n.

    Child seeds hash (master_seed, n, replication), so adding sizes to
    ``n_list`` does not disturb existing entries.
    """
    sizes = [_integer(n, "n_list entry") for n in n_list]
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("n_list must be strictly increasing.")
    reps = _integer(reps, "reps")
    master_seed = _integer(master_seed, "master_seed", 0)
    if reps < 1:
        raise ValueError("reps must be >= 1.")
    rows = []
    for n in sizes:
        alpha_star, mechanism = _study_setup(l_mode, eps_mode, n)
        errors = []
        seeds = (child_seed(master_seed, n, rep) for rep in range(reps))
        for fit in _fits(alpha_star, q, mechanism, seeds):
            if fit.converged:
                errors.append(float(np.max(np.abs(fit.alpha_hat - alpha_star))))
        median = float(np.median(errors)) if errors else math.nan
        rows.append(
            RateRow(n=n, median_inf_error=median, converged=len(errors), reps=reps)
        )
    return rows
