"""Weighted edge-list files and graph preprocessing.

Files are UTF-8 text, one edge per line: ``i j w`` with 1-based node ids
and an integer weight >= 1; pairs that never appear have weight 0.  The
exact grammar:

* A line ends at LF, CRLF or a lone CR.
* A line that is empty or all whitespace is skipped; a line whose first
  non-whitespace character is ``#`` is a comment.  A ``#`` anywhere else
  is an ordinary character, so ``1 2 1 # note`` is a line of four fields.
* Every other line holds exactly three fields separated by runs of ASCII
  whitespace (space, tab, vertical tab, form feed and the separators
  0x1C-0x1F), optionally with leading and trailing whitespace.
* A field is an optional ``+`` or ``-`` followed by ASCII digits.
* Node ids lie in 1..3037000499 (the largest n with n*n in int64), so the
  row-major key i*n + j of every pair fits in int64.

The whole file is read at once and checked with array operations; a fault
is reported with the number of the first faulty line, counting comment and
blank lines.  Node ids are 1-based in files and messages but 0-based inside
the package, where a graph is the same list of pairs
(``model.WeightedGraph``), so reading, pruning and writing all take time
and memory linear in the size of the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .model import WeightedGraph

_ID_MAX = math.isqrt(np.iinfo(np.int64).max)  # 3037000499
_DIGITS = 18  # longer fields are out of range: above any id and any weight < q

_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[list(b"0123456789")] = np.arange(10)


def _is_space(b):
    """ASCII whitespace as ``str.split`` sees it: 9-13, 28-31 and 32."""
    return (b == ord(" ")) | ((b >= 9) & (b <= 13)) | ((b >= 28) & (b <= 31))


def _is_digit(b):
    return (b >= ord("0")) & (b <= ord("9"))


class DataError(ValueError):
    """Problem with input data rather than with how the tool was invoked."""


class EdgeListError(DataError):
    """Malformed edge-list content; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _read_text(path: Union[str, Path]) -> bytes:
    """The file's bytes with every line ending made LF, checked to be UTF-8."""
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListError(
            "not UTF-8 text.", line=data.count(b"\n", 0, exc.start) + 1
        ) from None
    return data


def _integers(buf, lo, hi):
    """The integers written as buf[lo:hi], elementwise: an optional sign,
    then ASCII digits.  A value of more than 18 significant digits reads as
    10**18 with its sign, which is out of range for every id and weight.
    Overwrites lo and hi."""
    sign = buf[lo]
    lo += (sign == ord("+")) | (sign == ord("-"))  # the first digit
    size = int((hi - lo).max(initial=0))
    value = np.zeros(lo.size, dtype=np.int64)
    # read digits right to left; once past a field's first digit, pos stays
    # on the byte before it, a sign or whitespace, which reads as 0
    lo -= 1  # the byte before the first digit
    pos = hi
    pos -= 1  # the last digit
    for k in range(min(size, _DIGITS)):
        np.maximum(pos, lo, out=pos)
        value += (_DIGIT_VALUE * 10**k)[buf[pos]]
        pos -= 1
    if size > _DIGITS:  # some field still has digits left of pos
        nonzero = np.cumsum(buf > ord("0"))
        long = np.flatnonzero(nonzero[np.maximum(pos, lo)] > nonzero[lo])
        value[long] = 10**_DIGITS
    np.negative(value, out=value, where=sign == ord("-"))
    return value


class _FirstFault:
    """The first faulty data row, and its message.

    Checks run in the order the rules apply to one line.  A check need only
    look at the rows before the earliest fault found so far: a fault there
    is on an earlier line, and so is the one to report.
    """

    def __init__(self, rows: int):
        self.stop, self.message = rows, None

    def check(self, bad: np.ndarray, describe) -> None:
        rows = np.flatnonzero(bad[: self.stop])
        if rows.size:
            self.stop = int(rows[0])
            self.message = describe(self.stop)


def _line_text(buf, newline, k) -> str:
    """Line k + 1 of the file, stripped."""
    return buf[newline[k] + 1 : newline[k + 1]].tobytes().decode("utf-8").strip()


def _data_rows(buf, newline):
    """Split the file into fields and read the data rows.

    Returns the 0-based line of each data row, the fields of each row that
    comes before the first faulty one as three int64 vectors (i, j, w), and
    the first row with the wrong field count or a non-integer field.
    """
    solid = ~_is_space(buf)
    bounds = np.flatnonzero(solid[1:] != solid[:-1])
    bounds += 1
    start, end = bounds[0::2], bounds[1::2]  # field k is buf[start[k]:end[k]]
    odd = np.flatnonzero(solid & ~_is_digit(buf))  # neither space nor digit
    del solid
    first = np.searchsorted(start, newline)  # first field of each line
    count = np.diff(first)
    line = np.flatnonzero(count)
    line = line[buf[start[first[line]]] != ord("#")]
    fault = _FirstFault(line.size)

    def text(r):
        return _line_text(buf, newline, line[r])

    fault.check(count[line] != 3, lambda r: f"expected 'i j w', got {text(r)!r}.")
    # an odd byte may only be a sign that opens a field and is followed by a
    # digit
    holder = np.searchsorted(start, odd, side="right") - 1
    sign = (buf[odd] == ord("+")) | (buf[odd] == ord("-"))
    sign &= (start[holder] == odd) & _is_digit(buf[odd + 1])
    malformed = np.zeros(count.size, dtype=bool)
    malformed[np.searchsorted(newline, odd[~sign]) - 1] = True
    fault.check(malformed[line], lambda r: f"non-integer field in {text(r)!r}.")

    first = first[line[: fault.stop]]
    values = [_integers(buf, start[first + c], end[first + c]) for c in range(3)]
    return line, values, fault


def parse_edge_list(
    path: Union[str, Path], q: int, n: Optional[int] = None
) -> WeightedGraph:
    """Read a weighted edge list into a graph.

    Parameters
    ----------
    path:
        File of "i j w" lines in the grammar of the module docstring.
    q:
        Declared weight-class count; weights must be in 1..q-1.
    n:
        Declared node count.  Defaults to the largest id seen; required for
        files with no edges.

    Raises
    ------
    EdgeListError
        On text that is not UTF-8, lines without exactly three integer
        fields, ids below 1 or above 3037000499, self-loops, weights outside
        1..q-1 and unordered pairs already listed, with the number of the
        first faulty line; each line's checks apply in that order.  Then,
        without a line number, on an id above n or an empty file without n.
    """
    if q < 2:
        raise EdgeListError(f"q must be >= 2, got {q}.")
    if q > 10**_DIGITS:
        raise EdgeListError(f"q must be at most 10**{_DIGITS}, got {q}.")
    if n is not None and n > _ID_MAX:
        raise EdgeListError(
            f"n={n} exceeds the largest supported node count {_ID_MAX}."
        )
    # a leading LF makes newline[k] the start of line k + 1; a trailing one
    # ends the last line
    buf = np.frombuffer(b"\n" + _read_text(path) + b"\n", dtype=np.uint8)
    newline = np.flatnonzero(buf == ord("\n"))
    line, (i, j, w), fault = _data_rows(buf, newline)

    def number(r, c):
        return int(_line_text(buf, newline, line[r]).split()[c])

    fault.check((i < 1) | (j < 1), lambda r: "node ids are 1-based.")
    fault.check(
        (i > _ID_MAX) | (j > _ID_MAX),
        lambda r: f"node id {max(number(r, 0), number(r, 1))} "
        f"exceeds the largest supported id {_ID_MAX}.",
    )
    fault.check(i == j, lambda r: f"self-loop on node {number(r, 0)}.")
    fault.check(
        w < 1,
        lambda r: "weight must be >= 1 (omit zero-weight pairs), "
        f"got {number(r, 2)}.",
    )
    fault.check(w > q - 1, lambda r: f"weight {number(r, 2)} >= q = {q}.")

    # 0-based endpoints with i < j, sorted by the row-major key; the stable
    # sort keeps repeats of a pair in file order, so a repeat is a later line
    stop = fault.stop
    lo = np.minimum(i[:stop], j[:stop]) - 1
    hi = np.maximum(i[:stop], j[:stop]) - 1
    max_id = int(hi.max(initial=-1)) + 1
    key = lo * max_id + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeat = np.zeros(stop, dtype=bool)
    repeat[order[1:][key[1:] == key[:-1]]] = True
    fault.check(repeat, lambda r: f"duplicate pair {lo[r] + 1} {hi[r] + 1}.")
    if fault.message is not None:
        raise EdgeListError(fault.message, line=int(line[fault.stop]) + 1)

    if n is None:
        if max_id < 2:
            raise EdgeListError(
                "cannot infer node count from an empty edge list; pass n."
            )
        n = max_id
    elif max_id > n:
        raise EdgeListError(f"node id {max_id} exceeds declared n={n}.")
    return WeightedGraph(n, q, lo[order], hi[order], w[:stop][order])


def write_edge_list(graph: WeightedGraph, path: Union[str, Path]) -> None:
    """Write the graph's pairs as "i j w" lines, 1-based, in row-major order."""
    lines = map(
        "{} {} {}\n".format,
        (graph.i + 1).tolist(),
        (graph.j + 1).tolist(),
        graph.w.tolist(),
    )
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("# i j w\n" + "".join(lines))


@dataclass
class PruneResult:
    """Graph with zero-degree nodes removed plus the index bookkeeping.

    Indices are 0-based into the original graph.  ``kept`` is the ascending
    int64 array of surviving nodes, ``kept[k]`` the original index of new
    node k.  The ``removed_count`` other nodes are listed as the inclusive
    ranges ``(first, last)`` between kept ones, in increasing order.
    """

    graph: WeightedGraph
    kept: np.ndarray
    removed_count: int
    removed_ranges: list[tuple[int, int]]


def prune_isolated(graph: WeightedGraph) -> PruneResult:
    """Drop all nodes with degree zero, reindexing the survivors.

    Memory is linear in the number of edges, whatever n is.
    Raises DataError if fewer than two nodes would remain.
    """
    # a node has positive degree iff it is an endpoint, since weights are >= 1
    ends = np.concatenate((graph.i, graph.j))
    if graph.n <= ends.size:
        # an n-long table takes no more memory than the endpoints, and a
        # lookup in it is several times faster than sorting them
        seen = np.zeros(graph.n, dtype=bool)
        seen[ends] = True
        kept = np.flatnonzero(seen)
        ends = (np.cumsum(seen) - 1)[ends]
    else:
        kept, ends = np.unique(ends, return_inverse=True)
    if kept.size < 2:
        raise DataError("fewer than 2 nodes with positive degree remain.")
    # the monotone relabelling keeps i < j and the row-major order of the pairs
    m = graph.w.size
    relabelled = WeightedGraph(kept.size, graph.q, ends[:m], ends[m:], graph.w)
    before = np.concatenate(([-1], kept))  # each gap lies between these
    after = np.concatenate((kept, [graph.n]))
    gap = np.flatnonzero(after - before > 1)
    return PruneResult(
        graph=relabelled,
        kept=kept,
        removed_count=graph.n - kept.size,
        removed_ranges=list(zip((before[gap] + 1).tolist(), (after[gap] - 1).tolist())),
    )
