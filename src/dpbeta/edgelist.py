"""Weighted edge-list files and graph preprocessing.

Files are plain text, one edge per line: ``i j w`` with 1-based node ids
and an integer weight >= 1.  Pairs that never appear have weight 0; lines
starting with '#' are comments.  Node ids are 1-based in files and messages
but 0-based inside the package, where a graph is the same list of pairs
(``model.WeightedGraph``), so reading, pruning and writing all take time
and memory linear in the number of edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .model import WeightedGraph


class DataError(ValueError):
    """Problem with input data rather than with how the tool was invoked."""


class EdgeListError(DataError):
    """Malformed edge-list content; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_edge_list(
    path: Union[str, Path], q: int, n: Optional[int] = None
) -> WeightedGraph:
    """Read a weighted edge list into a graph.

    Parameters
    ----------
    path:
        File of "i j w" lines; '#' lines are skipped.
    q:
        Declared weight-class count; weights must be in 1..q-1.
    n:
        Declared node count.  Defaults to the largest id seen; required for
        files with no edges.

    Raises
    ------
    EdgeListError
        On malformed lines, self-loops, duplicate unordered pairs, or
        weights outside 1..q-1, with the line number.
    """
    if q < 2:
        raise EdgeListError(f"q must be >= 2, got {q}.")
    path = Path(path)
    edges: dict[tuple[int, int], int] = {}
    max_id = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListError(
                    f"expected 'i j w', got {line!r}.", line=lineno
                )
            try:
                i, j, w = (int(p) for p in parts)
            except ValueError:
                raise EdgeListError(
                    f"non-integer field in {line!r}.", line=lineno
                ) from None
            if i < 1 or j < 1:
                raise EdgeListError("node ids are 1-based.", line=lineno)
            if i == j:
                raise EdgeListError(f"self-loop on node {i}.", line=lineno)
            if w < 1:
                raise EdgeListError(
                    f"weight must be >= 1 (omit zero-weight pairs), got {w}.",
                    line=lineno,
                )
            if w > q - 1:
                raise EdgeListError(
                    f"weight {w} >= q = {q}.", line=lineno
                )
            key = (min(i, j), max(i, j))
            if key in edges:
                raise EdgeListError(
                    f"duplicate pair {key[0]} {key[1]}.", line=lineno
                )
            edges[key] = w
            max_id = max(max_id, i, j)

    if n is None:
        if max_id < 2:
            raise EdgeListError(
                "cannot infer node count from an empty edge list; pass n."
            )
        n = max_id
    elif max_id > n:
        raise EdgeListError(f"node id {max_id} exceeds declared n={n}.")

    m = len(edges)
    ij = np.fromiter(chain.from_iterable(edges), np.int64, 2 * m).reshape(m, 2)
    w = np.fromiter(edges.values(), np.int64, m)
    del edges  # by far the largest object here; free it before sorting
    ij -= 1
    order = np.argsort(ij[:, 0] * n + ij[:, 1])
    return WeightedGraph(n, q, ij[order, 0], ij[order, 1], w[order])


def write_edge_list(graph: WeightedGraph, path: Union[str, Path]) -> None:
    """Write the graph's pairs as "i j w" lines, 1-based, in row-major order."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# i j w\n")
        for i, j, w in zip(graph.i.tolist(), graph.j.tolist(), graph.w.tolist()):
            fh.write(f"{i + 1} {j + 1} {w}\n")


@dataclass
class PruneResult:
    """Graph with zero-degree nodes removed plus the index bookkeeping.

    ``removed`` and ``kept`` hold 0-based indices into the original graph;
    ``kept[k]`` is the original index of new node k.
    """

    graph: WeightedGraph
    removed: list[int]
    kept: list[int]


def prune_isolated(graph: WeightedGraph) -> PruneResult:
    """Drop all nodes with degree zero, reindexing the survivors.

    Raises DataError if fewer than two nodes would remain.
    """
    positive = graph.degrees() > 0
    kept = np.flatnonzero(positive)
    if kept.size < 2:
        raise DataError("fewer than 2 nodes with positive degree remain.")
    # every endpoint has positive degree; the monotone relabelling keeps
    # i < j and the row-major order of the pairs
    label = np.cumsum(positive) - 1
    return PruneResult(
        graph=WeightedGraph(kept.size, graph.q, label[graph.i], label[graph.j], graph.w),
        removed=np.flatnonzero(~positive).tolist(),
        kept=kept.tolist(),
    )
