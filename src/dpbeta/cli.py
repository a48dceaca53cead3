"""Command-line surface: generate, release, fit, pipeline, simulate, qq, rate, dpcheck.

``pipeline`` runs its stages here: parse, prune, release, fit, intervals.
Every CSV table (fit, scatter, simulate, qq, rate) is written here, by one
writer, ``_write_table``.
Every command that writes files also writes a ``<output>.manifest.json``
with its parameters, input digest and output paths, enough to reproduce the
outputs byte for byte.  The parameters are the parsed flags, with the values
the command resolved itself (seed, config values, a release's q) filled in.
Node ids are 1-based on the command line and in all output tables.

Exit codes: 0 success, 1 usage error, 2 data error, 3 the estimate does
not exist.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .edgelist import DataError, parse_edge_list, prune_isolated, write_edge_list
from .estimator import FitResult, _z, node_intervals, solve
from .experiments import (
    L_MODES,
    QQ_MIN_VALUES,
    ExperimentSpec,
    qq_points,
    rate_study,
    run_experiment,
    truth_profile,
)
from .mechanisms import calibrate, release_degrees, worst_case_log_ratio
from .model import _check_q, _integer, sample_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NONEXISTENT = 3

SEED_ENV_VAR = "DPBETA_SEED"


# ---------------------------------------------------------------------------
# manifests and tables
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _params(args, **resolved) -> dict:
    """A command's manifest parameters: its parsed flags, updated with the
    values it resolved itself."""
    params = vars(args).copy()
    for name in ("command", "func", "config"):
        params.pop(name, None)
    return params | resolved


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


def _write_table(path: Path, header: str, row_format: str, *columns) -> None:
    """Write a CSV table: the header line, then one line per row, the
    columns' entries at that row filled into ``row_format``."""
    rows = map(row_format.format, *(np.asarray(c).tolist() for c in columns))
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_alpha_list(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError:
        raise ValueError(f"cannot parse alpha list {text!r}.") from None


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for item in text.split(","):
        bits = item.split(":")
        if len(bits) != 2:
            raise ValueError(f"pair {item!r} must look like i:j.")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise ValueError(f"pair {item!r} must be integers.") from None
    return tuple(pairs)


def _int_or_text(text: str):
    """text as an int if ``int`` reads it, else the text itself, for
    ``_integer`` to reject by name."""
    try:
        return int(text)
    except ValueError:
        return text


def _seed(args) -> int:
    """--seed (or a config seed), else $DPBETA_SEED, else 0; a negative seed
    is rejected here, as ``numpy.random.SeedSequence`` would reject it."""
    if args.seed is not None:
        return _integer(args.seed, "seed", 0)
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR}={env!r} is not an integer.") from None
    return _integer(seed, SEED_ENV_VAR, 0)


def _study_args(args, **defaults) -> None:
    """Fill each study flag left unset from the --config file, then from
    its default, in place; a null config value counts as unset.  Check the
    counts and resolve the seed."""
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"config file {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise DataError(f"config file {args.config} must hold a JSON object.")
    defaults = {"q": None, "L": "zero", "eps": "fixed:2", "seed": None} | defaults
    for name, default in defaults.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name)
        setattr(args, name, default if value is None else value)
    for name in ("n", "q", "reps", "seed"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _integer(getattr(args, name), name))
    args.L, args.eps, args.seed = str(args.L), str(args.eps), _seed(args)


def _experiment_spec(args, pairs) -> ExperimentSpec:
    if args.n is None or args.q is None:
        raise ValueError("--n and --q are required (flag or config).")
    return ExperimentSpec(
        n=args.n,
        q=args.q,
        l_mode=args.L,
        eps_mode=args.eps,
        reps=args.reps,
        level=args.level,
        pairs=pairs,
        master_seed=args.seed,
    )


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _fit_exit_code(fit: FitResult, labels, d_bar) -> int:
    """EXIT_OK for a converged fit; otherwise say why there is no estimate,
    naming vertices by labels[i], and return EXIT_NONEXISTENT.

    ``infeasible_nodes`` holds either noisy degrees out of range on their
    own or, when every degree is in range, the nodes of one polytope
    inequality that they break together; the note says which."""
    if fit.converged:
        return EXIT_OK
    if fit.infeasible_nodes:
        names = ", ".join(str(labels[i]) for i in fit.infeasible_nodes)
        first = d_bar[fit.infeasible_nodes[0]]
        if 0 < first < (fit.n - 1) * (fit.q - 1):
            _note(
                f"estimate does not exist: the noisy degrees of vertices {names} "
                "jointly lie outside the degree polytope, though each is in range."
            )
        else:
            _note(f"estimate does not exist: infeasible noisy degree at vertex {names}.")
    else:
        _note(
            "no estimate: the iteration did not converge within its budget, "
            "though the noisy degrees lie inside the degree polytope, so an "
            "estimate exists."
        )
    return EXIT_NONEXISTENT


def _check_theory_floor(epsilon: float, n: int) -> None:
    """Note a budget below 4 sqrt(log n), the least epsilon the consistency
    theory assumes; smaller budgets are still accepted."""
    floor = 4.0 * math.sqrt(math.log(n))
    if epsilon < floor:
        _note(
            f"note: epsilon={epsilon:g} is below the supported-regime floor "
            f"4*sqrt(log n) = {floor:.3f} at n={n}; results may be unstable."
        )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    args.seed = _seed(args)
    if args.alpha is not None:
        if args.L is not None:
            raise ValueError("--alpha and --L are mutually exclusive.")
        alpha = _parse_alpha_list(args.alpha)
        if args.n is not None and args.n != alpha.shape[0]:
            raise ValueError("--n disagrees with the length of --alpha.")
    else:
        if args.n is None:
            raise ValueError("--n is required unless --alpha is given.")
        if args.n < 2:
            raise ValueError(f"--n must be an integer >= 2, got {args.n}.")
        scale = args.L if args.L is not None else 0.0
        # the profile's largest entry is n * L / n, and n * L is computed
        if not math.isfinite(args.n * scale):
            raise ValueError(
                f"--L must be finite, with n * L finite too, "
                f"got {args.L!r} at n={args.n}."
            )
        alpha = truth_profile(args.n, scale)
    graph = sample_graph(alpha, args.q, args.seed)
    out = Path(args.out)
    write_edge_list(graph, out)
    listed = None if args.alpha is None else alpha.tolist()
    write_manifest("generate", _params(args, n=graph.n, alpha=listed), [out])
    return EXIT_OK


def _cmd_release(args) -> int:
    args.seed = _seed(args)
    graph = parse_edge_list(args.input, args.q, n=args.n)
    mechanism = calibrate(args.eps, kind=args.kind, skew_ratio=args.skew_ratio)
    _check_theory_floor(args.eps, graph.n)
    release = release_degrees(graph.degrees(), mechanism, seed=args.seed, q=args.q)
    out = Path(args.out)
    out.write_text(release.to_json(debug=args.debug_noise) + "\n", encoding="utf-8")
    write_manifest("release", _params(args), [out], input_path=Path(args.input))
    return EXIT_OK


def _cmd_fit(args) -> int:
    """Fit a release file.  Without --q the release's q is used: it must be
    a JSON integer that passes the same check as the flag, which caps q at
    ``model._Q_MAX`` (65536), the most the moment kernel is built to hold.
    A release that fails it is a data error; the flag, a usage error."""
    try:
        payload = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"release file {args.input}: {exc}") from None
    if not isinstance(payload, dict) or "d_bar" not in payload:
        raise DataError(f"release file {args.input} lacks a d_bar field.")
    if args.q is None:
        args.q = payload.get("q")
        if args.q is None:
            raise DataError("release file lacks q; pass --q.")
        try:
            if not isinstance(args.q, int):  # a release writes q as an integer
                raise ValueError(f"q must be an integer >= 2, got {args.q!r}.")
            _check_q(args.q)
        except ValueError as exc:
            raise DataError(f"release file {args.input}: {exc}") from None
    d_bar = payload["d_bar"]
    if not isinstance(d_bar, list) or len(d_bar) < 2 or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in d_bar
    ):
        raise DataError(
            f"release file {args.input}: d_bar must be a list of at least two numbers."
        )
    try:
        d_bar = np.asarray(d_bar, dtype=float)
        finite = np.all(np.isfinite(d_bar))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise DataError(f"release file {args.input}: d_bar holds non-finite values.")
    fit = solve(d_bar, args.q, tol=args.tol, max_iter=args.max_iter)
    out = Path(args.out)
    out.write_text(fit.to_json() + "\n", encoding="utf-8")
    write_manifest("fit", _params(args), [out], input_path=Path(args.input))
    return _fit_exit_code(fit, range(1, fit.n + 1), d_bar)


def _cmd_pipeline(args) -> int:
    """parse -> prune -> release -> fit -> intervals, on an edge-list file."""
    args.seed = _seed(args)
    _z(args.level)  # a bad level fails before the work, not after the fit
    graph = parse_edge_list(args.input, args.q)
    labels, removed, count = np.arange(1, graph.n + 1), [], 0  # 1-based ids
    if args.prune:
        pruned = prune_isolated(graph)
        graph, labels = pruned.graph, pruned.kept + 1
        removed, count = pruned.removed_ranges, pruned.removed_count
    release = release_degrees(
        graph.degrees(), calibrate(args.eps), seed=args.seed, q=args.q
    )
    fit = solve(release.d_bar, args.q)
    _check_theory_floor(args.eps, graph.n)
    if count:
        ranges = (str(a + 1) if a == b else f"{a + 1}-{b + 1}" for a, b in removed)
        _note(
            f"pruned {count} zero-degree {'vertex' if count == 1 else 'vertices'}: "
            + ", ".join(ranges)
        )

    prefix = Path(args.out_prefix)
    release_path = Path(str(prefix) + "_release.json")
    release_path.write_text(release.to_json() + "\n", encoding="utf-8")
    outputs = [release_path]

    if fit.converged:
        se, half_width = node_intervals(fit, args.level)
        alpha, d_bar = fit.alpha_hat, release.d_bar
        fit_path = Path(str(prefix) + "_fit.csv")
        _write_table(
            fit_path,
            "vertex,alpha_hat,ci_lo,ci_hi,se,degree_noisy",
            "{},{:.10g},{:.10g},{:.10g},{:.10g},{}",
            labels, alpha, alpha - half_width, alpha + half_width, se, d_bar,
        )
        scatter_path = Path(str(prefix) + "_scatter.csv")
        _write_table(scatter_path, "degree_noisy,alpha_hat", "{},{:.10g}", d_bar, alpha)
        outputs = [fit_path, scatter_path, release_path]

    write_manifest("pipeline", _params(args), outputs, input_path=Path(args.input))
    return _fit_exit_code(fit, labels, release.d_bar)


def _cmd_simulate(args) -> int:
    _study_args(args, n=None, reps=10_000, level=0.95, pairs=None)
    pairs = _parse_pairs(args.pairs) if isinstance(args.pairs, str) else args.pairs
    spec = _experiment_spec(args, pairs)
    result = run_experiment(spec)
    out = Path(args.out)
    summaries = result.pairs
    _write_table(
        out,
        "pair_i,pair_j,coverage,mean_len,nonexist,reps",
        "{},{},{:.10g},{:.10g},{:.10g},{}",
        [s.pair[0] for s in summaries],
        [s.pair[1] for s in summaries],
        [s.coverage for s in summaries],
        [s.mean_length for s in summaries],
        [result.nonexistence] * len(summaries),
        [result.reps_completed] * len(summaries),
    )
    write_manifest("simulate", spec.to_dict() | {"out": str(out)}, [out])
    return EXIT_OK


def _cmd_qq(args) -> int:
    pair = _parse_pairs(args.pair)
    if len(pair) != 1:
        raise ValueError("--pair takes exactly one i:j pair.")
    _study_args(args, n=None, reps=10_000, level=0.95)
    spec = _experiment_spec(args, pair)
    result = run_experiment(spec)
    if result.converged < QQ_MIN_VALUES:
        _note(
            f"too few estimates exist for a QQ plot: {result.converged} of "
            f"{result.reps_completed} replications converged, and at least "
            f"{QQ_MIN_VALUES} are needed; nothing written."
        )
        return EXIT_NONEXISTENT
    out = Path(args.out)
    theoretical, empirical = zip(*qq_points(result, pair[0]))
    _write_table(
        out, "theoretical,empirical", "{:.10g},{:.10g}", theoretical, empirical
    )
    write_manifest(
        "qq", spec.to_dict() | {"pair": list(pair[0]), "out": str(out)}, [out]
    )
    return EXIT_OK


def _cmd_rate(args) -> int:
    _study_args(args, n_list=None, reps=300)
    n_list = args.n_list
    if isinstance(n_list, str):
        n_list = [_int_or_text(v) for v in n_list.split(",")]
    if not n_list:
        raise ValueError("--n-list is required.")
    if not isinstance(n_list, list):
        raise ValueError(f"n_list must be a list of sizes, got {n_list!r}.")
    args.n_list = [_integer(v, "n_list entry") for v in n_list]
    if args.q is None:
        raise ValueError("--q is required.")
    rows = rate_study(
        args.n_list, args.q, args.L, args.eps, reps=args.reps, master_seed=args.seed
    )
    out = Path(args.out)
    _write_table(
        out,
        "n,median_inf_error,converged,reps",
        "{},{:.10g},{},{}",
        [r.n for r in rows],
        [r.median_inf_error for r in rows],
        [r.converged for r in rows],
        [r.reps for r in rows],
    )
    write_manifest("rate", _params(args), [out])
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
        dest="prune",
        action="store_false",
        help="keep zero-degree vertices (the fit then usually does not exist)",
    )
    p.add_argument("--out-prefix", required=True, dest="out_prefix")
    p.set_defaults(func=_cmd_pipeline)

    # the flags every study shares; an unset one comes from --config
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--q", type=int)
    study.add_argument("--L", choices=L_MODES)
    study.add_argument("--eps", help="fixed:<v>, logn_over_n14 or logn_over_n12")
    study.add_argument("--reps", type=int)
    study.add_argument("--seed", type=int)
    study.add_argument("--config", help="JSON file with defaults for these flags")
    study.add_argument("--out", required=True)

    p = sub.add_parser(
        "simulate", parents=[study], help="coverage/length/existence study"
    )
    p.add_argument("--n", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--pairs", help="tracked pairs, e.g. 1:2,50:51")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "qq", parents=[study], help="normal QQ data for one tracked pair"
    )
    p.add_argument("--n", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--pair", required=True, help="node pair i:j")
    p.set_defaults(func=_cmd_qq)

    p = sub.add_parser(
        "rate", parents=[study], help="median sup-norm error across sizes"
    )
    p.add_argument("--n-list", dest="n_list", help="comma-separated sizes")
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
    except (DataError, OSError) as exc:
        _note(f"data error: {exc}")
        return EXIT_DATA
    except ValueError as exc:  # CalibrationError included
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
