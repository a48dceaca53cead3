"""Layer timing for dpbeta, recorded from outside the package.

The tracer replaces the module attributes through which callers reach each
layer's public functions (for example ``dpbeta.estimator.cho_factor``, the
name ``solve`` looks up at call time) with wrappers that record one span
per call: name, start, end, parent span and operation id.  Spans stay in
memory and are written out when the run ends.  A wrapped name that a later
version of the package no longer has is skipped, so its layer reports zero
calls.

``layer_metrics`` turns spans into the per-layer metrics; a span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

# (span name, layer group).  The module is the caller's: the wrapper sits on
# the name the caller looks up, so e.g. experiments -> model.sample_graph.
WRAPPED = (
    ("experiments.run_experiment", "experiments.loop"),
    ("experiments.rate_study", "experiments.loop"),
    ("experiments.sample_graph", "model.sample_graph"),
    ("experiments.sample_noise", "mechanisms.noise"),
    ("experiments.solve", "estimator.solve"),
    ("experiments.contrast_ci", "estimator.intervals"),
    ("experiments.standardized_contrast", "estimator.intervals"),
    ("estimator.expected_degrees", "model.expected_degrees"),
    ("estimator.degree_jacobian", "model.degree_jacobian"),
    ("estimator.cho_factor", "estimator.cholesky"),
    ("estimator.cho_solve", "estimator.cholesky"),
    ("cli.main", "cli.pipeline"),
    ("cli.parse_edge_list", "edgelist.parse_edge_list"),
    ("cli.prune_isolated", "edgelist.prune_isolated"),
    ("cli.release_degrees", "mechanisms.noise"),
    ("cli.solve", "estimator.solve"),
    ("cli.single_ci", "estimator.intervals"),
)
LAYER = dict(WRAPPED)

STATUSES = ("converged", "nonexistent_infeasible_degree", "nonexistent_diverged")

# Functions whose peak allocation is measured, in a separate untimed pass.
ALLOC_PROBED = ("experiments.sample_graph", "cli.parse_edge_list")


def _patch(package, name: str, make_wrapper, undo: list) -> None:
    module_name, attr = name.split(".")
    module = getattr(package, module_name, None)
    fn = getattr(module, attr, None)
    if fn is None:
        return
    setattr(module, attr, make_wrapper(fn))
    undo.append((module, attr, fn))


def _restore(undo: list) -> None:
    while undo:
        module, attr, fn = undo.pop()
        setattr(module, attr, fn)


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self, line_counts: dict[str, int]):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.info: dict[int, object] = {}  # span index -> size or fit outcome
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []
        self._info_of = {
            "estimator.expected_degrees": lambda args, out: len(out),
            "estimator.degree_jacobian": lambda args, out: len(out),
            "experiments.solve": lambda args, out: [out.status, out.iterations],
            "cli.solve": lambda args, out: [out.status, out.iterations],
            "cli.parse_edge_list": lambda args, out: line_counts.get(str(args[0]), 0),
        }

    def install(self, package) -> None:
        for name, _ in WRAPPED:
            _patch(package, name, lambda fn, name=name: self._wrap(name, fn), self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = self._info_of.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if info is not None:
                self.info[idx] = info(args, out)
            return out

        return traced


class AllocProbe:
    """Peak traced allocation (MB) per call of the probed functions."""

    def __init__(self):
        self.peak_mb: dict[str, float] = {}
        self._undo: list = []

    def install(self, package) -> None:
        tracemalloc.start()
        for name in ALLOC_PROBED:
            _patch(package, name, lambda fn, name=name: self._wrap(name, fn), self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)
        tracemalloc.stop()

    def _wrap(self, name: str, fn):
        def probed(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)

        return probed


def layer_metrics(spans, info, peak_mb, traced_wall, untraced_wall) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)} from one traced pass.

    ``info`` maps span index (as str or int) to the size or fit outcome the
    tracer recorded; ``traced_wall``/``untraced_wall`` are the summed
    operation wall times of the traced pass and of the same operations run
    untraced.
    """
    info = {int(k): v for k, v in info.items()}
    child_cover = defaultdict(float)
    ed_children = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            # One thread runs the loop, so a span's children never overlap:
            # the part of it they cover is the sum of their durations.
            child_cover[parent] += end - start
            if name == "estimator.expected_degrees":
                ed_children[parent] += 1

    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    pairs = defaultdict(float)
    status = dict.fromkeys(STATUSES + ("other",), 0)
    iterations = backtracks = 0
    lines = 0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        layer = LAYER[name]
        total[layer] += end - start
        own[layer] += end - start - child_cover[idx]
        calls[layer] += 1
        extra = info.get(idx)
        if layer in ("model.expected_degrees", "model.degree_jacobian"):
            pairs[layer] += extra * (extra - 1) / 2
        elif layer == "estimator.solve":
            st, its = extra
            status[st if st in status else "other"] += 1
            iterations += its
            # E(d) evaluations beyond the initial one plus one per iteration.
            backtracks += max(0, ed_children[idx] - 1 - its)
        elif layer == "edgelist.parse_edge_list":
            lines += extra

    def rate(amount, layer):
        return amount / total[layer] if total[layer] > 0 else 0.0

    m = {
        "experiments.loop.self_s": (own["experiments.loop"], "s"),
        "model.sample_graph.s": (total["model.sample_graph"], "s"),
        "model.sample_graph.calls": (calls["model.sample_graph"], "count"),
        "model.sample_graph.peak_alloc_mb": (
            peak_mb.get("experiments.sample_graph", 0.0), "MB"),
    }
    for layer in ("model.expected_degrees", "model.degree_jacobian"):
        m[f"{layer}.s"] = (total[layer], "s")
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.pairs_per_s"] = (rate(pairs[layer], layer), "pairs/s")
    m |= {
        "estimator.cholesky.s": (total["estimator.cholesky"], "s"),
        "estimator.cholesky.calls": (calls["estimator.cholesky"], "count"),
        "estimator.solve.s": (total["estimator.solve"], "s"),
        "estimator.solve.calls": (calls["estimator.solve"], "count"),
        "estimator.solve.self_s": (own["estimator.solve"], "s"),
        "estimator.newton_iterations": (iterations, "count"),
        "estimator.backtracks": (backtracks, "count"),
    }
    for st, count in status.items():
        m[f"estimator.status.{st}"] = (count, "count")
    m |= {
        "estimator.intervals.s": (total["estimator.intervals"], "s"),
        "mechanisms.noise.s": (total["mechanisms.noise"], "s"),
        "edgelist.parse_edge_list.s": (total["edgelist.parse_edge_list"], "s"),
        "edgelist.parse_edge_list.lines_per_s": (
            rate(lines, "edgelist.parse_edge_list"), "lines/s"),
        "edgelist.parse_edge_list.peak_alloc_mb": (
            peak_mb.get("cli.parse_edge_list", 0.0), "MB"),
        "edgelist.prune_isolated.s": (total["edgelist.prune_isolated"], "s"),
        "cli.pipeline.self_s": (own["cli.pipeline"], "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "fraction"),
        # Self times of all spans over the traced wall time: the share of
        # the operations' time that the layers account for.
        "trace.accounted_frac": (sum(own.values()) / traced_wall, "fraction"),
    }
    return m
