"""Workload definitions: fixed settings and per-operation inputs from a seed.

Shared by the entry point (``run.py``), the measuring process (``worker.py``) and
the reference generator (``reference.py``).  Nothing here imports dpbeta.

Every workload is a closed loop of operations; operation k's input is a
pure function of (workload, seed, k), so the same seed gives the same inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WORKLOADS = ("study-n100", "rate-n1000", "pipeline-dense")

# study-n100: run_experiment at the acceptance-gate settings, 50 reps per call.
STUDY_N, STUDY_Q, STUDY_REPS = 100, 3, 50
STUDY_SETTINGS = (
    ("zero", "fixed:2"),
    ("sqrtlog", "fixed:2"),
    ("zero", "logn_over_n12"),
)
STUDY_POOL = 96  # reference master seeds per setting

# rate-n1000: rate_study with one replication per call.
RATE_N, RATE_Q, RATE_L, RATE_EPS = 1000, 3, "sqrtlog", "fixed:2"
RATE_POOL = 64  # reference master seeds

# pipeline-dense: `dpbeta pipeline` on a generated dense edge list.
PIPE_N, PIPE_Q, PIPE_EPS = 1000, 3, 2.0

# Master seeds of the reference pool start here, away from small test seeds.
POOL_BASE = 10_000

# Rough seconds per operation at the commit that defined the benchmark; only
# used to fix the operation count of a traced run, so counts repeat exactly.
NOMINAL_OP_S = {"study-n100": 0.2, "rate-n1000": 0.9, "pipeline-dense": 1.4}


def study_input(seed: int, k: int) -> dict:
    setting = k % len(STUDY_SETTINGS)
    order = np.random.default_rng([seed, 1]).permutation(STUDY_POOL)
    return {"setting": setting, "master_seed": POOL_BASE + int(order[(k // 3) % STUDY_POOL])}


def rate_input(seed: int, k: int) -> dict:
    order = np.random.default_rng([seed, 2]).permutation(RATE_POOL)
    return {"master_seed": POOL_BASE + int(order[k % RATE_POOL])}


def pipeline_input(seed: int, k: int) -> dict:
    return {"release_seed": int(np.random.default_rng([seed, 3, k]).integers(2**31))}


OP_INPUT = {
    "study-n100": study_input,
    "rate-n1000": rate_input,
    "pipeline-dense": pipeline_input,
}


def traced_op_count(workload: str, seconds: float) -> int:
    """Operations in each pass of a traced run (untraced, then traced)."""
    return max(1, int(seconds / (2.2 * NOMINAL_OP_S[workload])))


def write_dense_edge_list(seed: int, path: Path) -> int:
    """Sample the pipeline-dense graph (L=0: weights uniform on 0..q-1).

    Returns the number of lines written, header included.
    """
    rng = np.random.default_rng([seed, 4])
    iu, ju = np.triu_indices(PIPE_N, 1)
    w = rng.integers(0, PIPE_Q, size=iu.size)
    keep = w > 0
    lines = [f"{i + 1} {j + 1} {k}\n" for i, j, k in zip(iu[keep], ju[keep], w[keep])]
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# i j w\n")
        fh.writelines(lines)
    return len(lines) + 1
