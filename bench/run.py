"""dpbeta benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload study-n100 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  Every
operation's output is verified.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Working
files go to ``.bench_run/`` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5  # the measuring process plus four fresh ones
TIME_LIMIT_S = 170.0  # every worker must have ended by then
# The loop is single-threaded; one BLAS thread keeps the kernels' timing
# independent of what else shares the machine.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_worker(job: dict, run_dir: Path, name: str, deadline: float) -> dict:
    job_path = run_dir / f"{name}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    log_path = run_dir / f"{name}.log"
    with log_path.open("w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                stdout=log, stderr=log, env=os.environ | WORKER_ENV,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} did not finish in time; see {log_path}") from None
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").splitlines()[-5:]
        raise BenchError(f"{name} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(Path(str(job_path) + ".out").read_text(encoding="utf-8"))


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or sha
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def check_record(workload: str, record, ref: dict):
    inp, _, _, summary = record
    if "error" in summary:
        return summary["error"]
    if workload == "study-n100":
        want = ref["study-n100"].get(f"{inp['setting']}:{inp['master_seed']}")
        return verify.check_study(want, summary) if want else f"no reference for {inp}"
    if workload == "rate-n1000":
        want = ref["rate-n1000"].get(str(inp["master_seed"]))
        return verify.check_rate(want, summary) if want else f"no reference for {inp}"
    return verify.check_pipeline(summary, wl.PIPE_Q)


def end_to_end(records, setup_samples, peak_rss_mb, success) -> dict[str, tuple]:
    times = [r[1] for r in records]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "reps_per_s": (sum(r[2] for r in records) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (success, "fraction"),
    }


def run(args) -> dict:
    t_start = time.monotonic()
    deadline = t_start + TIME_LIMIT_S
    src = ROOT / "src"
    if not (src / "dpbeta" / "__init__.py").is_file():
        raise BenchError(f"no dpbeta sources under {src}")
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    run_dir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = run_dir / "outputs"
    out_dir.mkdir(parents=True)

    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "src": str(src), "out_dir": str(out_dir)}
    if args.workload == "pipeline-dense":
        edge_list = out_dir / "dense.txt"
        job["line_counts"] = {str(edge_list): wl.write_dense_edge_list(args.seed, edge_list)}
        job["edge_list"] = str(edge_list)
        job["zebra"] = str(ROOT / "data" / "zebra.txt")

    setup_samples = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setup_samples.append(
                run_worker(job | {"mode": "setup"}, run_dir, f"setup{i}", deadline)["setup_s"])
    mode = "trace" if args.trace else "measure"
    res = run_worker(job | {"mode": mode}, run_dir, mode, deadline)
    setup_samples.append(res["setup_s"])

    stamp = source_stamp() | res["versions"]
    too_many = {lib: n for lib, n in stamp["blas_threads"].items() if n > stamp["nproc"]}
    if too_many:
        raise BenchError(f"BLAS threads {too_many} exceed nproc={stamp['nproc']}")

    records = res["records"]
    ops = records + res.get("untraced", []) + res.get("alloc", []) + res.get("zebra", [])
    failures = [(r[0], why) for r in ops if (why := check_record(args.workload, r, ref))]
    attempted = len(ops)
    success = (attempted - len(failures)) / attempted
    if args.trace:
        untraced_wall = sum(r[1] for r in res["untraced"])
        traced_wall = sum(r[1] for r in records)
        metrics = tracing.layer_metrics(res["spans"], res["span_info"], res["peak_alloc_mb"],
                                        traced_wall, untraced_wall)
        with (run_dir / "spans.jsonl").open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in res["spans"]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    else:
        metrics = end_to_end(records, setup_samples, res["peak_rss_mb"], success)
    shutil.rmtree(out_dir)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp, "timed_operations": len(records),
        "setup_samples": setup_samples, "op_seconds": [r[1] for r in records],
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {len(records)} timed operations, "
          f"{attempted} verified, {len(failures)} failed")
    for inp, why in failures[:5]:
        print(f"FAILED {inp}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": report["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
