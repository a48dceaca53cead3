import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dpbeta import model

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent

sys.path.insert(0, str(TESTS_DIR))  # make `oracles` importable

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline: timing on a shared machine
# is not part of any property.
settings.register_profile("dpbeta", derandomize=True, deadline=None, database=None)
settings.load_profile("dpbeta")


def dense(graph) -> np.ndarray:
    """The graph's symmetric n-by-n weight matrix with zero diagonal."""
    weights = np.zeros((graph.n, graph.n), dtype=np.int64)
    weights[graph.i, graph.j] = graph.w
    weights[graph.j, graph.i] = graph.w
    return weights


def expected_degrees(alpha, q: int) -> np.ndarray:
    """E(d_i) = sum_{j != i} E(a_ij) at alpha, from the model's moment
    kernel with one class per node; the inputs are not checked."""
    alpha = np.asarray(alpha, dtype=float)
    cls = model._classes(np.ones(alpha.shape[0]))
    return model._node_sums(cls, model._moments(alpha, q, cls)[0])


def degree_jacobian(alpha, q: int) -> np.ndarray:
    """The n-by-n Jacobian of E(d) at alpha, the covariance matrix of d,
    from the model's moment kernel: the edge-weight variances v_ij off the
    diagonal and their row sums v_ii on it; the inputs are not checked."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    cls = model._classes(np.ones(n))
    var = model._moments(alpha, q, cls)[1]
    return model._class_jacobian(cls.c, var[:-n], var[-n:], cls.iu * n + cls.ju)


@pytest.fixture(scope="session")
def zebra_path() -> Path:
    return REPO_ROOT / "data" / "zebra.txt"
