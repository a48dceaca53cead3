import sys
from pathlib import Path

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


@pytest.fixture(scope="session")
def zebra_path() -> Path:
    return REPO_ROOT / "data" / "zebra.txt"
