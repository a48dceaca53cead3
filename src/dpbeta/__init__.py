"""Differentially private degree-based estimation for weighted networks.

The package samples weighted graphs whose edge weights follow a one-
parameter-per-node exponential family, releases their degree sequences
under edge differential privacy with discrete Laplace noise, solves the
noisy moment equations for the node parameters, and quantifies the
uncertainty of the resulting estimates.  The rest of the API lives in the
submodules ``model``, ``mechanisms``, ``estimator``, ``experiments``,
``edgelist`` and ``cli``.
"""

from .estimator import contrast_ci, solve
from .experiments import ExperimentSpec, run_experiment, truth_profile
from .mechanisms import calibrate, release_degrees
from .model import sample_graph

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "calibrate",
    "contrast_ci",
    "release_degrees",
    "run_experiment",
    "sample_graph",
    "solve",
    "truth_profile",
]
