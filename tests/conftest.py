import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

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


@pytest.fixture(scope="session")
def zebra_path() -> Path:
    return REPO_ROOT / "data" / "zebra.txt"
