"""Command-line surface: generate, release, fit, pipeline, simulate, qq, rate, dpcheck.

Every command that writes files also writes a ``<output>.manifest.json``
with the resolved parameters, seeds, input digest and output paths, enough
to reproduce the outputs byte for byte.  Node ids are 1-based on the
command line and in all output tables.

Exit codes: 0 success, 1 usage error, 2 data error, 3 the estimate does
not exist.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .edgelist import (
    DataError,
    EdgeListError,
    parse_edge_list,
    prune_isolated,
    write_edge_list,
)
from .estimator import FitResult, node_intervals, solve
from .experiments import (
    ExperimentSpec,
    qq_points,
    rate_study,
    run_experiment,
    truth_profile,
)
from .mechanisms import (
    CalibrationError,
    DegreeRelease,
    calibrate,
    release_degrees,
    theory_epsilon_floor,
    worst_case_log_ratio,
)
from .model import sample_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NONEXISTENT = 3

SEED_ENV_VAR = "DPBETA_SEED"


class UsageError(Exception):
    """Bad flag values or flag combinations."""


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    command: str,
    params: dict,
    outputs: list[Path],
    input_path: Optional[Path] = None,
) -> Path:
    """Record how a set of outputs was produced, next to the first output."""
    manifest = {
        "command": command,
        "params": params,
        "input": str(input_path) if input_path else None,
        "input_digest": _sha256(input_path) if input_path else None,
        "outputs": [str(p) for p in outputs],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# pipeline: parse -> prune -> release -> fit -> intervals
# ---------------------------------------------------------------------------


@dataclass
class PipelineOutput:
    """Everything the end-to-end private fit produces.

    Vertex ids are 1-based; ``se`` and ``half_width`` are per pruned node
    and present only when the fit converged.
    """

    release: DegreeRelease
    fit: FitResult
    se: Optional[np.ndarray]
    half_width: Optional[np.ndarray]
    labels: np.ndarray  # original vertex id of each pruned node
    removed_count: int  # vertices dropped by pruning
    removed_ranges: list[tuple[int, int]]  # inclusive ranges of those ids


def pipeline_fit(
    path,
    q: int,
    epsilon: float,
    seed: Optional[int],
    level: float = 0.95,
    prune: bool = True,
) -> PipelineOutput:
    """Run the full private-estimation workflow on an edge-list file."""
    graph = parse_edge_list(path, q)
    if prune:
        pruned = prune_isolated(graph)
        graph, labels = pruned.graph, pruned.kept + 1
        removed_count = pruned.removed_count
        removed_ranges = [(a + 1, b + 1) for a, b in pruned.removed_ranges]
    else:
        labels, removed_count, removed_ranges = np.arange(1, graph.n + 1), 0, []

    mechanism = calibrate(epsilon)
    release = release_degrees(graph.degrees(), mechanism, seed=seed, q=q)
    fit = solve(release.d_bar, q)
    se, half_width = node_intervals(fit, level) if fit.converged else (None, None)
    return PipelineOutput(
        release=release,
        fit=fit,
        se=se,
        half_width=half_width,
        labels=labels,
        removed_count=removed_count,
        removed_ranges=removed_ranges,
    )


def _fit_table(out: PipelineOutput) -> str:
    alpha = out.fit.alpha_hat
    rows = map(
        "{},{:.10g},{:.10g},{:.10g},{:.10g},{}".format,
        out.labels.tolist(),
        alpha.tolist(),
        (alpha - out.half_width).tolist(),
        (alpha + out.half_width).tolist(),
        out.se.tolist(),
        out.release.d_bar.tolist(),
    )
    return "\n".join(["vertex,alpha_hat,ci_lo,ci_hi,se,degree_noisy", *rows]) + "\n"


def _scatter_table(out: PipelineOutput) -> str:
    rows = map(
        "{},{:.10g}".format, out.release.d_bar.tolist(), out.fit.alpha_hat.tolist()
    )
    return "\n".join(["degree_noisy,alpha_hat", *rows]) + "\n"


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_alpha_list(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError:
        raise UsageError(f"cannot parse alpha list {text!r}.") from None


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for item in text.split(","):
        bits = item.split(":")
        if len(bits) != 2:
            raise UsageError(f"pair {item!r} must look like i:j.")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise UsageError(f"pair {item!r} must be integers.") from None
    return tuple(pairs)


def _resolve(args, config: dict, name: str, default):
    """Flag value, else config value, else default."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    return value


def _resolve_seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR}={env!r} is not an integer.") from None
    return 0


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise EdgeListError(f"config file {path}: {exc}") from None
    if not isinstance(config, dict):
        raise EdgeListError(f"config file {path} must hold a JSON object.")
    return config


def _experiment_spec(args, pairs_override=None) -> ExperimentSpec:
    config = _load_config(args)
    n = _resolve(args, config, "n", None)
    q = _resolve(args, config, "q", None)
    if n is None or q is None:
        raise UsageError("--n and --q are required (flag or config).")
    if pairs_override is not None:
        pairs = pairs_override
    else:
        pairs = _resolve(args, config, "pairs", None)
        if isinstance(pairs, str):
            pairs = _parse_pairs(pairs)
        elif isinstance(pairs, list):
            pairs = tuple((int(i), int(j)) for i, j in pairs)
    try:
        return ExperimentSpec(
            n=int(n),
            q=int(q),
            l_mode=str(_resolve(args, config, "L", "zero")),
            eps_mode=str(_resolve(args, config, "eps", "fixed:2")),
            reps=int(_resolve(args, config, "reps", 10_000)),
            level=float(_resolve(args, config, "level", 0.95)),
            pairs=pairs,
            master_seed=_resolve_seed(args, config),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _fit_exit_code(fit: FitResult, labels) -> int:
    """EXIT_OK for a converged fit; otherwise say why the estimate does not
    exist, naming vertices by labels[i], and return EXIT_NONEXISTENT."""
    if fit.converged:
        return EXIT_OK
    if fit.infeasible_nodes:
        names = ", ".join(str(labels[i]) for i in fit.infeasible_nodes)
        _note(f"estimate does not exist: infeasible noisy degree at vertex {names}.")
    else:
        _note("estimate does not exist: iteration did not converge.")
    return EXIT_NONEXISTENT


def _check_theory_floor(epsilon: float, n: int) -> None:
    floor = theory_epsilon_floor(n)
    if epsilon < floor:
        _note(
            f"note: epsilon={epsilon:g} is below the supported-regime floor "
            f"4*sqrt(log n) = {floor:.3f} at n={n}; results may be unstable."
        )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    seed = _resolve_seed(args, {})
    if args.alpha is not None:
        if args.L is not None:
            raise UsageError("--alpha and --L are mutually exclusive.")
        alpha = _parse_alpha_list(args.alpha)
        if args.n is not None and args.n != alpha.shape[0]:
            raise UsageError("--n disagrees with the length of --alpha.")
    else:
        if args.n is None:
            raise UsageError("--n is required unless --alpha is given.")
        scale = args.L if args.L is not None else 0.0
        alpha = truth_profile(args.n, scale)
    graph = sample_graph(alpha, args.q, seed)
    out = Path(args.out)
    write_edge_list(graph, out)
    write_manifest(
        "generate",
        {
            "n": graph.n,
            "q": args.q,
            "seed": seed,
            "L": args.L,
            "alpha": None if args.alpha is None else alpha.tolist(),
            "out": str(out),
        },
        [out],
    )
    return EXIT_OK


def _cmd_release(args) -> int:
    seed = _resolve_seed(args, {})
    graph = parse_edge_list(args.input, args.q, n=args.n)
    _check_theory_floor(args.eps, graph.n)
    mechanism = calibrate(args.eps, kind=args.kind, skew_ratio=args.skew_ratio)
    release = release_degrees(graph.degrees(), mechanism, seed=seed, q=args.q)
    out = Path(args.out)
    out.write_text(release.to_json(debug=args.debug_noise) + "\n", encoding="utf-8")
    write_manifest(
        "release",
        {
            "input": str(args.input),
            "q": args.q,
            "eps": args.eps,
            "kind": args.kind,
            "skew_ratio": args.skew_ratio,
            "seed": seed,
            "debug_noise": args.debug_noise,
            "n": args.n,
            "out": str(out),
        },
        [out],
        input_path=Path(args.input),
    )
    return EXIT_OK


def _cmd_fit(args) -> int:
    try:
        payload = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise EdgeListError(f"release file {args.input}: {exc}") from None
    if not isinstance(payload, dict) or "d_bar" not in payload:
        raise EdgeListError(f"release file {args.input} lacks a d_bar field.")
    q = args.q if args.q is not None else payload.get("q")
    if q is None:
        raise EdgeListError("release file lacks q; pass --q.")
    d_bar = np.asarray(payload["d_bar"], dtype=float)
    if not np.all(np.isfinite(d_bar)):
        raise DataError(f"release file {args.input}: d_bar holds non-finite values.")
    fit = solve(d_bar, int(q), tol=args.tol, max_iter=args.max_iter)
    out = Path(args.out)
    out.write_text(fit.to_json() + "\n", encoding="utf-8")
    write_manifest(
        "fit",
        {
            "input": str(args.input),
            "q": int(q),
            "tol": args.tol,
            "max_iter": args.max_iter,
            "out": str(out),
        },
        [out],
        input_path=Path(args.input),
    )
    return _fit_exit_code(fit, range(1, fit.n + 1))


def _cmd_pipeline(args) -> int:
    seed = _resolve_seed(args, {})
    out = pipeline_fit(
        args.input,
        args.q,
        args.eps,
        seed=seed,
        level=args.level,
        prune=not args.no_prune,
    )
    _check_theory_floor(args.eps, out.fit.n)
    if out.removed_count:
        _note(
            f"pruned {out.removed_count} zero-degree "
            f"{'vertex' if out.removed_count == 1 else 'vertices'}: "
            + ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out.removed_ranges)
        )

    prefix = Path(args.out_prefix)
    release_path = Path(str(prefix) + "_release.json")
    release_path.write_text(out.release.to_json() + "\n", encoding="utf-8")
    outputs = [release_path]

    if out.fit.converged:
        fit_path = Path(str(prefix) + "_fit.csv")
        fit_path.write_text(_fit_table(out), encoding="utf-8")
        scatter_path = Path(str(prefix) + "_scatter.csv")
        scatter_path.write_text(_scatter_table(out), encoding="utf-8")
        outputs = [fit_path, scatter_path, release_path]

    write_manifest(
        "pipeline",
        {
            "input": str(args.input),
            "q": args.q,
            "eps": args.eps,
            "seed": seed,
            "level": args.level,
            "prune": not args.no_prune,
            "out_prefix": str(prefix),
        },
        outputs,
        input_path=Path(args.input),
    )

    return _fit_exit_code(out.fit, out.labels)


def _cmd_simulate(args) -> int:
    spec = _experiment_spec(args)
    result = run_experiment(spec)
    out = Path(args.out)
    lines = ["pair_i,pair_j,coverage,mean_len,nonexist,reps"] + result.csv_rows()
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest("simulate", spec.to_dict() | {"out": str(out)}, [out])
    return EXIT_OK


def _cmd_qq(args) -> int:
    pair = _parse_pairs(args.pair)
    if len(pair) != 1:
        raise UsageError("--pair takes exactly one i:j pair.")
    spec = _experiment_spec(args, pairs_override=pair)
    result = run_experiment(spec)
    try:
        points = qq_points(result, pair[0])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    lines = ["theoretical,empirical"] + [
        f"{t:.10g},{e:.10g}" for t, e in points
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(
        "qq", spec.to_dict() | {"pair": list(pair[0]), "out": str(out)}, [out]
    )
    return EXIT_OK


def _cmd_rate(args) -> int:
    config = _load_config(args)
    n_list = _resolve(args, config, "n_list", None)
    if isinstance(n_list, str):
        n_list = [int(v) for v in n_list.split(",")]
    if not n_list:
        raise UsageError("--n-list is required.")
    q = _resolve(args, config, "q", None)
    if q is None:
        raise UsageError("--q is required.")
    seed = _resolve_seed(args, config)
    l_mode = str(_resolve(args, config, "L", "zero"))
    eps_mode = str(_resolve(args, config, "eps", "fixed:2"))
    reps = int(_resolve(args, config, "reps", 300))
    rows = rate_study(
        n_list, int(q), l_mode=l_mode, eps_mode=eps_mode, reps=reps, master_seed=seed
    )
    out = Path(args.out)
    lines = ["n,median_inf_error,converged,reps"] + [
        f"{r.n},{r.median_inf_error:.10g},{r.converged},{r.reps}" for r in rows
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(
        "rate",
        {
            "n_list": list(n_list),
            "q": int(q),
            "L": l_mode,
            "eps": eps_mode,
            "reps": reps,
            "seed": seed,
            "out": str(out),
        },
        [out],
    )
    return EXIT_OK


def _cmd_dpcheck(args) -> int:
    mechanism = calibrate(
        args.eps,
        sensitivity=args.sensitivity,
        kind=args.kind,
        skew_ratio=args.skew_ratio,
    )
    value = worst_case_log_ratio(mechanism, window=args.window)
    print(f"{value:.10f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpbeta",
        description=(
            "Private degree-sequence release and node-parameter estimation "
            "for weighted networks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a graph and write its edge list")
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--q", type=int, required=True, help="weight classes (>= 2)")
    p.add_argument("--L", type=float, help="linear truth profile scale")
    p.add_argument("--alpha", help="comma-separated node parameters")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("release", help="noise a degree sequence under edge DP")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", type=float, required=True, help="privacy budget")
    p.add_argument("--n", type=int, help="declared node count")
    p.add_argument("--seed", type=int)
    p.add_argument("--kind", choices=["symmetric", "skew"], default="symmetric")
    p.add_argument("--skew-ratio", type=float, dest="skew_ratio")
    p.add_argument(
        "--debug-noise",
        action="store_true",
        help="include the private degrees and noise in the JSON",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_release)

    p = sub.add_parser("fit", help="solve the moment equations from a release")
    p.add_argument("--input", required=True, help="release JSON")
    p.add_argument("--q", type=int, help="override q from the release")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "pipeline", help="edge list -> prune -> release -> fit -> intervals"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument(
        "--no-prune",
        action="store_true",
        help="keep zero-degree vertices (the fit will not exist)",
    )
    p.add_argument("--out-prefix", required=True, dest="out_prefix")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("simulate", help="coverage/length/existence study")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--L", choices=["zero", "loglog", "sqrtlog"])
    p.add_argument("--eps", help="fixed:<v>, logn_over_n14 or logn_over_n12")
    p.add_argument("--reps", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--pairs", help="tracked pairs, e.g. 1:2,50:51")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file with defaults for these flags")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("qq", help="normal QQ data for one tracked pair")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--L", choices=["zero", "loglog", "sqrtlog"])
    p.add_argument("--eps")
    p.add_argument("--reps", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--pair", required=True, help="node pair i:j")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_qq)

    p = sub.add_parser("rate", help="median sup-norm error across sizes")
    p.add_argument("--n-list", dest="n_list", help="comma-separated sizes")
    p.add_argument("--q", type=int)
    p.add_argument("--L", choices=["zero", "loglog", "sqrtlog"])
    p.add_argument("--eps")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("dpcheck", help="verify the privacy bound numerically")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--sensitivity", type=int, default=2)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--kind", choices=["symmetric", "skew"], default="symmetric")
    p.add_argument("--skew-ratio", type=float, dest="skew_ratio")
    p.set_defaults(func=_cmd_dpcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE

    try:
        return args.func(args)
    except (UsageError, CalibrationError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except DataError as exc:
        _note(f"data error: {exc}")
        return EXIT_DATA
    except OSError as exc:
        _note(f"data error: {exc}")
        return EXIT_DATA
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
