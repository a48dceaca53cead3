"""Differentially private degree-based estimation for weighted networks.

The package samples weighted graphs whose edge weights follow a one-
parameter-per-node exponential family, releases their degree sequences
under edge differential privacy with discrete Laplace noise, solves the
noisy moment equations for the node parameters, and quantifies the
uncertainty of the resulting estimates.
"""

from .edgelist import (
    DataError,
    EdgeListError,
    PruneResult,
    parse_edge_list,
    prune_isolated,
    write_edge_list,
)
from .estimator import (
    ConfidenceInterval,
    FitResult,
    InverseApproxReport,
    contrast_ci,
    inverse_approximation,
    node_intervals,
    normal_quantile,
    residual,
    solve,
    standardized_contrast,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    PairSummary,
    RateRow,
    default_pairs,
    epsilon_schedule,
    profile_scale,
    qq_points,
    rate_study,
    run_experiment,
    truth_profile,
)
from .mechanisms import (
    CalibrationError,
    DegreeRelease,
    NoiseMechanism,
    calibrate,
    dlaplace_moments,
    dlaplace_pmf,
    dlaplace_tail,
    release_degrees,
    sample_noise,
    skew_dlaplace_moments,
    skew_dlaplace_pmf,
    skew_dlaplace_tail,
    theory_epsilon_floor,
    worst_case_log_ratio,
)
from .model import (
    WeightedGraph,
    degree_jacobian,
    expected_degrees,
    sample_graph,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "ConfidenceInterval",
    "DataError",
    "DegreeRelease",
    "EdgeListError",
    "ExperimentResult",
    "ExperimentSpec",
    "FitResult",
    "InverseApproxReport",
    "NoiseMechanism",
    "PairSummary",
    "PruneResult",
    "RateRow",
    "WeightedGraph",
    "calibrate",
    "contrast_ci",
    "default_pairs",
    "degree_jacobian",
    "dlaplace_moments",
    "dlaplace_pmf",
    "dlaplace_tail",
    "epsilon_schedule",
    "expected_degrees",
    "inverse_approximation",
    "node_intervals",
    "normal_quantile",
    "parse_edge_list",
    "profile_scale",
    "prune_isolated",
    "qq_points",
    "rate_study",
    "release_degrees",
    "residual",
    "run_experiment",
    "sample_graph",
    "sample_noise",
    "skew_dlaplace_moments",
    "skew_dlaplace_pmf",
    "skew_dlaplace_tail",
    "solve",
    "standardized_contrast",
    "theory_epsilon_floor",
    "truth_profile",
    "worst_case_log_ratio",
    "write_edge_list",
]
