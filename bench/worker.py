"""Measuring process: imports dpbeta and runs one workload's closed loop.

Run by ``run.py`` as ``python3 bench/worker.py JOB.json``; writes
``JOB.json.out``.  The job's ``mode`` is

- ``setup``: import dpbeta, run one warm-up operation, report the time;
- ``measure``: set up, then run operations back to back until ``seconds``
  have passed (the untraced run that gives the end-to-end metrics);
- ``trace``: set up, run a fixed number of operations untraced, the same
  operations again with the tracer installed, then one operation with the
  allocation probe.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def op_runner(dpbeta, workload: str, job: dict):
    """Return run(inp, tag) -> (units of work, summary) for one operation."""
    import workloads as wl

    experiments, cli = dpbeta.experiments, dpbeta.cli
    if workload == "study-n100":
        def run(inp, tag):
            l_mode, eps_mode = wl.STUDY_SETTINGS[inp["setting"]]
            spec = experiments.ExperimentSpec(
                n=wl.STUDY_N, q=wl.STUDY_Q, l_mode=l_mode, eps_mode=eps_mode,
                reps=wl.STUDY_REPS, master_seed=inp["master_seed"],
            )
            r = experiments.run_experiment(spec)
            return r.reps_completed, {
                "converged": r.converged,
                "covered": [round(p.coverage * r.converged) for p in r.pairs],
                "mean_length": [p.mean_length for p in r.pairs],
            }
    elif workload == "rate-n1000":
        def run(inp, tag):
            rows = experiments.rate_study(
                [wl.RATE_N], wl.RATE_Q, l_mode=wl.RATE_L, eps_mode=wl.RATE_EPS,
                reps=1, master_seed=inp["master_seed"],
            )
            return rows[0].reps, [
                {"n": r.n, "median_inf_error": r.median_inf_error,
                 "converged": r.converged, "reps": r.reps}
                for r in rows
            ]
    elif workload == "pipeline-dense":
        def run(inp, tag):
            prefix = str(Path(job["out_dir"]) / tag)
            code = cli.main([
                "pipeline", "--input", inp.get("input", job["edge_list"]),
                "--q", str(wl.PIPE_Q), "--eps", str(wl.PIPE_EPS),
                "--seed", str(inp["release_seed"]), "--out-prefix", prefix,
            ])
            return 1, {"exit": code, "prefix": prefix}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return run


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": f"{blas.get('name')} {blas.get('version')}",
        "blas_scipy": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed(run, inputs, tag, tracer=None):
    """Run operations back to back; returns [(input, seconds, units, summary)]."""
    records = []
    for k, inp in inputs:
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            units, summary = run(inp, f"{tag}{k}")
        except Exception as exc:  # an operation that raises is a failure
            units, summary = 0, {"error": repr(exc)}
        records.append([inp, time.perf_counter() - t0, units, summary])
    return records


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    t_start = time.perf_counter()
    sys.path.insert(0, job["src"])
    import dpbeta
    import dpbeta.cli
    import dpbeta.experiments

    import workloads as wl

    workload, seed = job["workload"], job["seed"]
    run = op_runner(dpbeta, workload, job)
    op_input = wl.OP_INPUT[workload]
    timed(run, [(0, op_input(seed, 0))], "warmup")
    out = {"setup_s": time.perf_counter() - t_start}
    if Path(dpbeta.__file__).resolve().parent != Path(job["src"]).resolve() / "dpbeta":
        raise SystemExit(f"imported dpbeta from {dpbeta.__file__}, not {job['src']}")
    out["versions"] = versions()

    if job["mode"] == "measure":
        deadline = time.perf_counter() + job["seconds"]
        out["records"] = []
        while not out["records"] or time.perf_counter() < deadline:
            k = len(out["records"])
            out["records"] += timed(run, [(k, op_input(seed, k))], "op")
    elif job["mode"] == "trace":
        import tracing

        inputs = [(k, op_input(seed, k))
                  for k in range(wl.traced_op_count(workload, job["seconds"]))]
        out["untraced"] = timed(run, inputs, "untraced")
        tracer = tracing.Tracer(job.get("line_counts", {}))
        tracer.install(dpbeta)
        try:
            out["records"] = timed(run, inputs, "op", tracer)
        finally:
            tracer.uninstall()
        probe = tracing.AllocProbe()
        probe.install(dpbeta)
        try:
            out["alloc"] = timed(run, inputs[:1], "alloc")
        finally:
            probe.uninstall()
        out["peak_alloc_mb"] = probe.peak_mb
        out["spans"] = tracer.spans
        out["span_info"] = tracer.info
    if job.get("zebra"):
        # Verified, untimed: the small real fixture through the same command.
        out["zebra"] = timed(run, [(0, {"input": job["zebra"], "release_seed": seed})],
                             "zebra")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(job_path + ".out").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
