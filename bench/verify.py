"""Output checks for each operation; each returns None or a failure reason.

Study and rate results are compared with ``reference.json``, recorded by
``reference.py`` for every master seed a run can draw.  Pipeline fits are
checked against the written release with an expected-degree map written
here, independent of ``dpbeta.model``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance on floating-point study/rate results (BLAS builds may
# differ in the last bits; observed differences are about 1e-14).
REL_TOL = 1e-9
# Bound on max |d_bar - E(d)| at the written estimates.  The fit CSV keeps
# 10 significant digits, which alone moves E(d) by about 1e-8 at n = 1000.
RESIDUAL_TOL = 1e-5
DOCUMENTED_EXITS = (0, 3)  # success; the estimate does not exist


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_study(ref: dict, out: dict):
    if out["converged"] != ref["converged"]:
        return f"converged {out['converged']} != reference {ref['converged']}"
    if out["covered"] != ref["covered"]:
        return f"covered {out['covered']} != reference {ref['covered']}"
    if not all(map(_close, out["mean_length"], ref["mean_length"])):
        return f"mean_length {out['mean_length']} != reference {ref['mean_length']}"
    return None


def check_rate(ref: list, out: list):
    if len(out) != len(ref):
        return f"{len(out)} rate rows, reference has {len(ref)}"
    for got, want in zip(out, ref):
        for key in ("n", "converged", "reps"):
            if got[key] != want[key]:
                return f"RateRow.{key} {got[key]} != reference {want[key]}"
        if not _close(got["median_inf_error"], want["median_inf_error"]):
            return (f"median_inf_error {got['median_inf_error']} != "
                    f"reference {want['median_inf_error']}")
    return None


def expected_degrees(alpha: np.ndarray, q: int) -> np.ndarray:
    """E(d_i) = sum_{j != i} sum_k k p_k(alpha_i + alpha_j), p_k ~ exp(k s)."""
    s = alpha[:, None] + alpha[None, :]
    k = np.arange(q)
    logits = k * s[..., None]
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    mean = (p @ k) / p.sum(axis=-1)
    np.fill_diagonal(mean, 0.0)
    return mean.sum(axis=1)


def check_pipeline(out: dict, q: int):
    code = out["exit"]
    if code not in DOCUMENTED_EXITS:
        return f"exit code {code} outside {DOCUMENTED_EXITS}"
    prefix = out["prefix"]
    release = json.loads(Path(prefix + "_release.json").read_text(encoding="utf-8"))
    d_bar = np.asarray(release["d_bar"], dtype=float)
    fit_path = Path(prefix + "_fit.csv")
    if code == 3:
        return f"{fit_path} written for a nonexistent estimate" if fit_path.exists() else None
    rows = fit_path.read_text(encoding="utf-8").splitlines()[1:]
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    if table.shape != (d_bar.size, 6):
        return f"fit table shape {table.shape}, release has {d_bar.size} nodes"
    alpha, lo, hi, d_col = table[:, 1], table[:, 2], table[:, 3], table[:, 5]
    if not np.array_equal(d_col, d_bar):
        return "fit table degrees differ from the release"
    if not np.all((lo < alpha) & (alpha < hi)):
        return "an interval does not contain its estimate"
    res = float(np.max(np.abs(d_bar - expected_degrees(alpha, q))))
    if not res <= RESIDUAL_TOL:  # also rejects NaN
        return f"residual {res:.3g} exceeds {RESIDUAL_TOL:g}"
    return None
