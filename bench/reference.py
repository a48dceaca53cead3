"""Record the reference results that ``verify.py`` compares study and rate
operations against: one entry per master seed in each workload's pool.

    python3 bench/reference.py        # rewrites bench/reference.json

Rerun only when a change to dpbeta is meant to change these results (for
example a new random-number stream), and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import dpbeta
    import dpbeta.cli
    import dpbeta.experiments

    import workloads as wl
    from worker import op_runner

    study = op_runner(dpbeta, "study-n100", {})
    rate = op_runner(dpbeta, "rate-n1000", {})
    ref = {"study-n100": {}, "rate-n1000": {}}
    for s in range(len(wl.STUDY_SETTINGS)):
        for m in range(wl.POOL_BASE, wl.POOL_BASE + wl.STUDY_POOL):
            _, summary = study({"setting": s, "master_seed": m}, "ref")
            ref["study-n100"][f"{s}:{m}"] = summary
    for m in range(wl.POOL_BASE, wl.POOL_BASE + wl.RATE_POOL):
        _, summary = rate({"master_seed": m}, "ref")
        ref["rate-n1000"][str(m)] = summary
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
