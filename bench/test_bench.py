"""The benchmark's own tests: its verifiers reject wrong answers, and a short
run of each workload passes verification and prints every declared metric.

    python -m pytest bench/test_bench.py -q

The smoke tests run the real benchmark for a few seconds per workload
(about a minute in all).
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import verify  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_study_verifier_rejects_perturbed_counts_and_lengths():
    ref = REFERENCE["study-n100"]["0:10000"]
    assert verify.check_study(ref, json.loads(json.dumps(ref))) is None
    for key, change in (
        ("converged", lambda v: v - 1),
        ("covered", lambda v: [v[0] + 1] + v[1:]),
        ("mean_length", lambda v: [v[0] * (1 + 1e-6)] + v[1:]),
    ):
        bad = dict(ref, **{key: change(ref[key])})
        assert verify.check_study(ref, bad) is not None, key


def test_rate_verifier_rejects_perturbed_row():
    ref = REFERENCE["rate-n1000"][str(wl.POOL_BASE)]
    assert verify.check_rate(ref, json.loads(json.dumps(ref))) is None
    bad = [dict(ref[0], median_inf_error=ref[0]["median_inf_error"] * (1 + 1e-6))]
    assert verify.check_rate(ref, bad) is not None
    assert verify.check_rate(ref, [dict(ref[0], converged=0)]) is not None


def test_own_expected_degrees_match_brute_force():
    alpha, q = np.array([0.3, -0.2, 0.1, 0.0]), 4
    want = [
        sum(
            sum(k * np.exp(k * (alpha[i] + alpha[j])) for k in range(q))
            / sum(np.exp(k * (alpha[i] + alpha[j])) for k in range(q))
            for j in range(4) if j != i
        )
        for i in range(4)
    ]
    np.testing.assert_allclose(verify.expected_degrees(alpha, q), want, rtol=1e-12)


def test_pipeline_verifier_rejects_perturbed_estimate(tmp_path):
    from dpbeta.cli import main

    graph = tmp_path / "g.txt"
    wl.write_dense_edge_list(5, graph)
    prefix = str(tmp_path / "fit")
    code = main(["pipeline", "--input", str(graph), "--q", "3", "--eps", "2",
                 "--seed", "9", "--out-prefix", prefix])
    out = {"exit": code, "prefix": prefix}
    assert verify.check_pipeline(out, 3) is None

    fit = Path(prefix + "_fit.csv")
    lines = fit.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    fit.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert "residual" in verify.check_pipeline(out, 3)
    assert verify.check_pipeline(dict(out, exit=1), 3) is not None


@functools.cache
def short_run(workload: str, trace: int, seed: int = 987) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_is_correct_and_prints_every_metric(workload, trace):
    result, stdout = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert re.search(row, stdout, re.M), m["name"]


def test_traced_counts_repeat_and_layers_account_for_wall_time():
    first, _ = short_run("rate-n1000", 1)
    again, _ = short_run.__wrapped__("rate-n1000", 1)  # a second, uncached run
    counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    assert first["metrics"]["model.sample_graph.calls"]["value"] >= 1
    assert 0.95 <= first["metrics"]["trace.accounted_frac"]["value"] <= 1.0
