import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpbeta
from dpbeta import edgelist
from dpbeta.cli import main
from dpbeta.edgelist import (
    DataError,
    EdgeListError,
    parse_edge_list,
    prune_isolated,
    write_edge_list,
)
from dpbeta.estimator import solve
from dpbeta.experiments import ExperimentSpec, run_experiment
from dpbeta.model import WeightedGraph, sample_graph

import oracles
from conftest import REPO_ROOT, dense


def _scrambled(data, rows):
    """The "i j w" rows shuffled, some written "j i w", with blank and
    comment lines put in."""
    rows = data.draw(st.permutations(rows))
    swap = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rows = [
        f"{j} {i} {w}" if flip else f"{i} {j} {w}"
        for (i, j, w), flip in zip((row.split() for row in rows), swap)
    ]
    fillers = st.sampled_from(["", "  ", "# c", "\t# 1 2 3"])
    for at, filler in sorted(
        data.draw(st.lists(st.tuples(st.integers(0, len(rows)), fillers), max_size=6)),
        reverse=True,
    ):
        rows.insert(at, filler)
    return rows


def _fault(data, rows, n, q):
    """One faulty line to insert into a valid file: (index, line, message)."""
    edges = [k for k, row in enumerate(rows) if row.strip()[:1] not in ("", "#")]
    kinds = ["fields", "integer", "self-loop", "weight"] + ["duplicate"] * bool(edges)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "duplicate":  # after the line it repeats
        original = data.draw(st.sampled_from(edges))
        i, j, w = map(int, rows[original].split())
        at = data.draw(st.integers(original + 1, len(rows)))
        return at, f"{j} {i} {w}", f"duplicate pair {min(i, j)} {max(i, j)}."
    v = data.draw(st.integers(1, n))
    line, message = {
        "fields": ("1 2", "expected 'i j w', got '1 2'."),
        "integer": ("1 x 2", "non-integer field in '1 x 2'."),
        "self-loop": (f"{v} {v} 1", f"self-loop on node {v}."),
        "weight": (f"1 2 {q}", f"weight {q} >= q = {q}."),
    }[kind]
    return data.draw(st.integers(0, len(rows))), line, message


class TestParseEdgeList:
    def test_small_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 3 1\n2 1 2\n")  # neither sorted nor i < j
        g = parse_edge_list(p, q=3, n=3)
        assert g.n == 3
        w = dense(g)
        assert w[0, 1] == 2 and w[1, 0] == 2
        assert w[1, 2] == 1 and w[0, 2] == 0

    def test_node_count_from_max_id(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n1 5 1\n")
        assert parse_edge_list(p, q=2).n == 5

    def test_empty_file_with_declared_n(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# nothing\n")
        g = parse_edge_list(p, q=3, n=3)
        assert g.n == 3 and g.w.size == 0

    def test_empty_file_without_n_fails(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("")
        with pytest.raises(EdgeListError):
            parse_edge_list(p, q=3)

    @pytest.mark.parametrize(
        "content,lineno",
        [
            ("1 2\n", 1),                 # malformed: missing weight
            ("1 2 1\n2 x 1\n", 2),        # non-integer
            ("1 2 1\n2 1 1\n", 2),        # duplicate unordered pair
            ("1 1 1\n", 1),               # self-loop
            ("1 2 3\n", 1),               # weight >= q
            ("1 2 0\n", 1),               # zero weight must be omitted
            ("0 2 1\n", 1),               # ids are 1-based
            ("# c\n\n  \n1 2 1\n3 3 1\n", 5),  # comment and blank lines count
            ("1 2 1 # x\n", 1),           # '#' opens a comment only at line start
            ("1 2 1 4\n2 3 1\n", 1),      # extra field on the first line
            ("1 2 1.0\n", 1),             # not an integer
            ("1 2+1 1\n", 1),             # a sign only opens a field
            ("1 -2 1\n", 1),              # negative id
            ("1 2 1\r1 1 1\n", 2),         # a lone CR ends a line
            ("1 2 1000000000000000001\n", 1),  # 19 digits, last 18 read 1
            ("1 99999999999999999999 1\n", 1),  # beyond int64
            (b"1 2 1\n# \xff\n", 2),       # not UTF-8
            ("1 2 1\n1 3037000500 1\n", 2),  # id whose i*n + j can overflow
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, content, lineno):
        p = tmp_path / "g.txt"
        p.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(EdgeListError) as err:
            parse_edge_list(p, q=3)
        assert err.value.line == lineno
        assert f"line {lineno}" in str(err.value)

    def test_whitespace_and_line_endings_do_not_matter(self, tmp_path):
        plain, messy = tmp_path / "plain.txt", tmp_path / "messy.txt"
        plain.write_bytes(b"1 2 1\n2 4 2\n1 3 2\n")
        messy.write_bytes(b"\t1\t2 1  \r\n  2   4\t2\r1  3 2 \t")
        a, b = parse_edge_list(plain, q=3), parse_edge_list(messy, q=3)
        assert a.n == b.n == 4
        for name in "ijw":
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_repeats_are_reported_at_the_later_line(self, tmp_path):
        # 3000 pairs in random order, then each again as "j i w" in another
        # order: the first line of the second block is the first repeat
        rng = np.random.default_rng(3)
        pairs = [(i, j) for i in range(1, 100) for j in range(i + 1, 100)][:3000]
        once, twice = rng.permutation(len(pairs)), rng.permutation(len(pairs))
        p = tmp_path / "g.txt"
        p.write_text(
            "".join(f"{pairs[k][0]} {pairs[k][1]} 1\n" for k in once)
            + "".join(f"{pairs[k][1]} {pairs[k][0]} 1\n" for k in twice)
        )
        with pytest.raises(EdgeListError) as err:
            parse_edge_list(p, q=2)
        i, j = pairs[twice[0]]
        assert str(err.value) == f"line 3001: duplicate pair {i} {j}."

    def test_largest_supported_id(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 3037000499 1\n")
        g = parse_edge_list(p, q=2)
        assert g.n == 3037000499 and g.j.tolist() == [3037000498]
        # a declared n out of range is the caller's fault, not the file's
        with pytest.raises(ValueError, match="3037000499") as err:
            parse_edge_list(p, q=2, n=3037000500)
        assert not isinstance(err.value, DataError)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_shuffled_file_parses_alike_and_faults_are_located(
        self, tmp_path_factory, data
    ):
        n, q = data.draw(st.integers(2, 12)), data.draw(st.integers(2, 5))
        alpha = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n))
        g = sample_graph(np.array(alpha), q, seed=data.draw(st.integers(0, 2**32 - 1)))
        path = tmp_path_factory.mktemp("prop") / "g.txt"
        write_edge_list(g, path)
        rows = _scrambled(data, path.read_text().splitlines()[1:])
        path.write_text("".join(row + "\n" for row in rows))
        parsed = parse_edge_list(path, q, n=n)
        assert parsed.n == n
        for name in "ijw":
            np.testing.assert_array_equal(getattr(parsed, name), getattr(g, name))

        at, line, message = _fault(data, rows, n, q)
        rows.insert(at, line)
        path.write_text("".join(row + "\n" for row in rows))
        with pytest.raises(EdgeListError) as err:
            parse_edge_list(path, q, n=n)
        assert err.value.line == at + 1
        assert str(err.value) == f"line {at + 1}: {message}"

    def test_id_beyond_declared_n(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 9 1\n")
        with pytest.raises(EdgeListError):
            parse_edge_list(p, q=2, n=5)

    def test_round_trip(self, tmp_path):
        g = sample_graph(np.linspace(-0.7, 0.7, 12), 3, seed=44)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        g2 = parse_edge_list(p, q=3, n=12)
        np.testing.assert_array_equal(dense(g), dense(g2))


def _outcome(path, q, n=None):
    """The parsed graph as lists, or the error's line and message."""
    try:
        g = parse_edge_list(path, q, n)
    except EdgeListError as err:
        return err.line, str(err)
    return g.n, g.i.tolist(), g.j.tolist(), g.w.tolist()


def _expected(data, q, n=None):
    """What parse_edge_list should give for the bytes, by the line-by-line
    reference parser, in the form of ``_outcome``."""
    result = oracles.parse_edge_list_by_lines(data, q, n)
    if len(result) == 2:
        line, message = result
        return line, message if line is None else f"line {line}: {message}"
    n, i, j, w = result
    return n, i.tolist(), j.tolist(), w.tolist()


_FAULTS = [
    b"1 2", b"1 2 1 4", b"1 x 2", b"1 2 1.0", b"1 2+1 1", b"+ 1 2", b"1 2 1 # x",
    b"-1 2 1", b"0 2 1", b"3 3 1", b"1 2 0", b"1 2 -1", b"1 2 9",
    b"1 3037000500 1", b"1 99999999999999999999 1", b"1 2 1000000000000000001",
    b"1 2 \xff", b"\xc3", b"1 2 1\xc2\xa0", b"1 2 \xc2\xbd",  # no-break space, one half
]
_FILLERS = [b"", b"   ", b"\t", b"# c", b"  #1 2 3", b"#", b"\x0c"]
_SPACES = [b" ", b"  ", b"\t", b"\x0b", b"\x1f", b" \t "]


def _random_edge_list(rng, n, q, lines, fault_rate):
    """Random edge-list bytes: the pairs of a graph on n nodes in random
    order and orientation, some fields signed, with comments, blank lines,
    mixed line endings and, at about fault_rate per line, a faulty line
    (a bad token, a range fault or a repeated pair)."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    used, rows = [], []
    for _ in range(lines):
        u = rng.random()
        if u < fault_rate:
            if used and rng.random() < 0.3:
                a, b, w = used[rng.integers(len(used))]
                row = b"%d %d %d" % ((b, a, w) if rng.random() < 0.5 else (a, b, w))
            else:
                row = _FAULTS[rng.integers(len(_FAULTS))]
        elif u < 0.25 or not pairs:
            row = _FILLERS[rng.integers(len(_FILLERS))]
        else:
            a, b = pairs.pop()
            if rng.random() < 0.5:
                a, b = b, a
            w = int(rng.integers(1, q))
            used.append((a, b, w))
            fields = [b"%s%d" % (rng.choice([b"", b"", b"+"]), v) for v in (a, b, w)]
            sep = [_SPACES[rng.integers(len(_SPACES))] for _ in range(4)]
            row = sep[1].join(fields[:2]) + sep[2] + fields[2]
            row = sep[0][: rng.integers(2)] + row + sep[3][: rng.integers(2)]
        rows.append(row + [b"\n", b"\r\n", b"\r"][rng.integers(3)])
    data = b"".join(rows)
    return data[: -1 if data.endswith(b"\n") and rng.random() < 0.3 else None]


class TestParseBlocks:
    """Checking a file in blocks of lines gives what one block gives."""

    FILES = [
        b"2 3 1\n2 1 2\n",
        b"# comment\n1 5 1\n",
        b"# nothing\n",
        b"",
        b"1 2 1\n2 x 1\n",
        b"1 2 1\n2 1 1\n",
        b"# c\n\n  \n1 2 1\n3 3 1\n",
        b"1 2 1 4\n2 3 1\n",
        b"1 2 1\r1 1 1\n",
        b"1 2 1\n# \xff\n",
        b"1 2 1\n1 3037000500 1\n",
        b"\t1\t2 1  \r\n  2   4\t2\r1  3 2 \t",
        b"1 2 1\n2 4 2\n1 3 2\n",
        b"1 3037000499 1\n",
        b"1 2 1\n3 4 1\n2 1 1\n4 5 1\n6 6 1\n",
        b"1 2 1\n3 4 1\n4 5 1\n2 1 1\n6 6 1\n",
        b"\n\n\n\n\n2 1 1\n\n\n\n1 2 1\n",
    ]

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("data", FILES)
    def test_block_boundaries_do_not_matter(self, tmp_path, monkeypatch, data, block):
        p = tmp_path / "g.txt"
        p.write_bytes(data)
        whole = _outcome(p, q=3)
        monkeypatch.setattr(edgelist, "_BLOCK_LINES", block)
        assert _outcome(p, q=3) == whole == _expected(data, q=3)

    def test_repeats_found_across_blocks(self, tmp_path, monkeypatch):
        # 9000 distinct pairs, then each again as "j i w": the first repeat,
        # line 9001, lies in a later block than the line it repeats
        rng = np.random.default_rng(5)
        pairs = [(i, j) for i in range(1, 140) for j in range(i + 1, 140)][:9000]
        once, twice = rng.permutation(len(pairs)), rng.permutation(len(pairs))
        data = "".join(
            [f"{pairs[k][0]} {pairs[k][1]} 1\n" for k in once]
            + [f"{pairs[k][1]} {pairs[k][0]} 1\n" for k in twice]
        ).encode()
        p = tmp_path / "g.txt"
        p.write_bytes(data)
        i, j = pairs[twice[0]]
        for block in (3, 2**13):
            monkeypatch.setattr(edgelist, "_BLOCK_LINES", block)
            assert _outcome(p, q=2) == (9001, f"line 9001: duplicate pair {i} {j}.")

    def test_matches_line_by_line_reference(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        p = tmp_path / "g.txt"
        for _ in range(150):
            n, q = int(rng.integers(2, 13)), int(rng.integers(2, 5))
            data = _random_edge_list(
                rng, n, q, int(rng.integers(0, 40)), rng.choice([0.0, 0.02, 0.1])
            )
            p.write_bytes(data)
            declared = [None, n, max(n - 1, 2)][rng.integers(3)]
            expected = _expected(data, q, declared)
            for block in (1, 2, 3, 5, 2**13):
                monkeypatch.setattr(edgelist, "_BLOCK_LINES", block)
                assert _outcome(p, q, declared) == expected, (data, block)

    def test_parse_memory_per_line(self, tmp_path):
        g = sample_graph(np.zeros(550), 3, seed=8)  # ~100k pairs
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        lines = g.w.size + 1
        tracemalloc.start()
        try:
            parsed = parse_edge_list(p, q=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.w.size == g.w.size > 90_000
        assert peak / lines < 80


class TestZebraFixture:
    def test_shape(self, zebra_path):
        g = parse_edge_list(zebra_path, q=3)
        assert g.n == 28
        assert g.w.size == 111

    def test_prune_removes_vertex_eight(self, zebra_path):
        g = parse_edge_list(zebra_path, q=3)
        pruned = prune_isolated(g)
        assert pruned.removed_count == 1
        assert pruned.removed_ranges == [(7, 7)]  # 0-based index of vertex 8
        assert pruned.graph.n == 27
        assert pruned.kept[0] + 1 == 1
        assert pruned.kept[7] + 1 == 9  # vertex 9 shifts into slot 7


class TestPruneIsolated:
    def test_identity_when_connected(self):
        g = sample_graph(np.zeros(6), 2, seed=3)
        assert g.degrees().min() > 0
        pruned = prune_isolated(g)
        assert pruned.removed_count == 0 and pruned.removed_ranges == []
        np.testing.assert_array_equal(pruned.kept, np.arange(6))
        assert pruned.graph is g

    def test_star_with_missing_leaves(self):
        # center node 0 linked to 1..3 only; 4..7 have no edges
        g = WeightedGraph(8, 2, [0, 0, 0], [1, 2, 3], [1, 1, 1])
        pruned = prune_isolated(g)
        assert pruned.removed_count == 4 and pruned.removed_ranges == [(4, 7)]
        assert pruned.graph.n == 4
        # degree recomputation confirms exactly the removed set was isolated
        np.testing.assert_array_equal(np.flatnonzero(g.degrees() == 0), np.arange(4, 8))
        np.testing.assert_array_equal(pruned.kept, np.flatnonzero(g.degrees() > 0))

    def test_all_isolated_is_data_error(self):
        g = WeightedGraph(4, 2, [], [], [])
        with pytest.raises(DataError):
            prune_isolated(g)

    def test_relabels_pairs_in_order(self):
        # nodes 1 and 4 are isolated; 0, 2, 3, 5 become 0, 1, 2, 3
        g = WeightedGraph(6, 3, [0, 0, 2, 3], [2, 5, 3, 5], [1, 2, 2, 1])
        pruned = prune_isolated(g)
        assert pruned.removed_count == 2 and pruned.removed_ranges == [(1, 1), (4, 4)]
        assert pruned.kept.tolist() == [0, 2, 3, 5]
        np.testing.assert_array_equal(
            dense(pruned.graph), dense(g)[np.ix_(pruned.kept, pruned.kept)]
        )

    def test_memory_is_linear_in_edges(self, tmp_path):
        # a path on 5000 nodes: its 5000 x 5000 weight matrix alone would
        # take 200 MB
        n = 5000
        p = tmp_path / "path.txt"
        p.write_text("".join(f"{v} {v + 1} 1\n" for v in range(1, n)))
        tracemalloc.start()
        try:
            pruned = prune_isolated(parse_edge_list(p, q=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pruned.graph.n == n and pruned.removed_count == 0
        assert peak < 5 * 2**20

    def test_memory_is_linear_in_edges_not_ids(self, tmp_path, capsys):
        # one 15-byte line naming vertex 10**7: nothing may be 10**7 long
        p = tmp_path / "sparse.txt"
        p.write_text("1 10000000 1\n")
        tracemalloc.start()
        try:
            pruned = prune_isolated(parse_edge_list(p, q=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pruned.kept.tolist() == [0, 9_999_999]
        assert pruned.removed_count == 9_999_998
        assert pruned.removed_ranges == [(1, 9_999_998)]
        assert peak < 2**20
        assert main(["pipeline", "--input", str(p), "--q", "3", "--eps", "8",
                     "--seed", "1", "--out-prefix", str(tmp_path / "s")]) == 0
        err = capsys.readouterr().err
        assert "pruned 9999998 zero-degree vertices: 2-9999999\n" in err
        fit_lines = (tmp_path / "s_fit.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in fit_lines[1:]] == ["1", "10000000"]


class TestPipelineFit:
    @staticmethod
    def _run(tmp_path, path, eps, seed):
        """Run ``dpbeta pipeline`` at q = 3: (exit code, prefix of its files)."""
        prefix = tmp_path / f"{Path(path).stem}_{seed}"
        code = main(["pipeline", "--input", str(path), "--q", "3", "--eps", str(eps),
                     "--seed", str(seed), "--out-prefix", str(prefix)])
        return code, str(prefix)

    @staticmethod
    def _fit_columns(prefix):
        """The fit table's (vertex, alpha_hat, degree_noisy) columns, as text."""
        lines = Path(prefix + "_fit.csv").read_text().splitlines()
        assert lines[0] == "vertex,alpha_hat,ci_lo,ci_hi,se,degree_noisy"
        rows = [line.split(",") for line in lines]
        return [[row[k] for row in rows[1:]] for k in (0, 1, 5)]

    def test_negligible_noise_matches_noiseless_solve(self, tmp_path, capsys):
        # seed 50 draws degrees (5, 4, 5, 2), on a facet of the degree
        # polytope, so neither fit exists; seed 52 draws an interior graph
        for seed, status in ((50, "nonexistent_infeasible_degree"), (52, "converged")):
            g = sample_graph(np.array([0.4, -0.2, 0.1, -0.3]), 3, seed=seed)
            assert g.degrees().min() > 0
            p = tmp_path / f"g{seed}.txt"
            write_edge_list(g, p)
            code, prefix = self._run(tmp_path, p, 100, 1)  # lambda = e^-50
            release = json.loads(Path(prefix + "_release.json").read_text())
            assert release["d_bar"] == g.degrees().tolist()
            direct = solve(g.degrees(), 3)
            assert direct.status == status
            err = capsys.readouterr().err
            if direct.converged:
                assert code == 0 and err == ""
                _, alpha, _ = self._fit_columns(prefix)
                assert alpha == [f"{a:.10g}" for a in direct.alpha_hat]
            else:
                # the joint-polytope note, naming the direct fit's vertices
                names = ", ".join(str(i + 1) for i in direct.infeasible_nodes)
                assert code == 3
                assert err == (
                    f"estimate does not exist: the noisy degrees of vertices {names} "
                    "jointly lie outside the degree polytope, though each is in range.\n"
                )
                assert not Path(prefix + "_fit.csv").exists()

    def test_zebra_run_is_monotone(self, tmp_path, zebra_path):
        code, prefix = self._run(tmp_path, zebra_path, 1, 11)
        assert code == 0
        _, alpha, d_bar = self._fit_columns(prefix)
        alpha, d_bar = np.array(alpha, dtype=float), np.array(d_bar, dtype=int)
        order = np.argsort(d_bar, kind="stable")
        sorted_alpha = alpha[order]
        assert np.all(np.diff(sorted_alpha) >= -1e-9)
        # ties in noisy degree give equal estimates
        for value in np.unique(d_bar):
            group = alpha[d_bar == value]
            assert np.max(group) - np.min(group) < 1e-8
        assert np.argmax(d_bar) in np.flatnonzero(alpha == alpha.max())

    def test_removed_labels_are_one_based(self, tmp_path, capsys, zebra_path):
        code, prefix = self._run(tmp_path, zebra_path, 1, 11)
        assert code == 0
        assert capsys.readouterr().err.endswith("pruned 1 zero-degree vertex: 8\n")
        labels, _, _ = self._fit_columns(prefix)
        assert labels[0] == "1" and labels[7] == "9" and len(labels) == 27


class TestCliCommands:
    def test_generate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["generate", "--n", "15", "--q", "3", "--seed", "4",
                     "--out", str(out1)]) == 0
        assert main(["generate", "--n", "15", "--q", "3", "--seed", "4",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["params"]["seed"] == 4

    def test_generate_roundtrip_parses(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["generate", "--n", "10", "--q", "2", "--L", "0.5",
                     "--seed", "1", "--out", str(out)]) == 0
        g = parse_edge_list(out, q=2, n=10)
        assert g.n == 10

    def test_release_and_fit(self, tmp_path, zebra_path):
        rel = tmp_path / "rel.json"
        code = main(["release", "--input", str(zebra_path), "--q", "3",
                     "--eps", "1", "--seed", "11", "--out", str(rel)])
        assert code == 0
        payload = json.loads(rel.read_text())
        assert set(payload) == {"n", "q", "epsilon", "lambda", "mu", "seed", "d_bar"}
        assert payload["n"] == 28
        assert payload["lambda"] == pytest.approx(math.exp(-0.5))

        fitp = tmp_path / "fit.json"
        # vertex 8 is isolated, so its released degree may make the fit fail;
        # build a feasible release via the pruned pipeline instead
        code = main(["pipeline", "--input", str(zebra_path), "--q", "3",
                     "--eps", "1", "--seed", "11",
                     "--out-prefix", str(tmp_path / "z")])
        assert code == 0
        rel2 = tmp_path / "z_release.json"
        code = main(["fit", "--input", str(rel2), "--out", str(fitp)])
        assert code == 0
        fit_payload = json.loads(fitp.read_text())
        assert fit_payload["status"] == "converged"
        assert len(fit_payload["alpha_hat"]) == 27

    def test_skew_release_records_both_parameters(self, tmp_path, zebra_path):
        rel = tmp_path / "rel.json"
        code = main(["release", "--input", str(zebra_path), "--q", "3",
                     "--eps", "2", "--seed", "5", "--kind", "skew",
                     "--skew-ratio", "0.5", "--out", str(rel)])
        assert code == 0
        payload = json.loads(rel.read_text())
        assert payload["lambda"] == pytest.approx(math.exp(-1))
        assert payload["mu"] == pytest.approx(2 * math.exp(-1))

    def test_release_debug_includes_noise(self, tmp_path, zebra_path):
        rel = tmp_path / "rel.json"
        main(["release", "--input", str(zebra_path), "--q", "3", "--eps", "1",
              "--seed", "11", "--debug-noise", "--out", str(rel)])
        payload = json.loads(rel.read_text())
        assert "d" in payload and "e" in payload
        assert payload["d_bar"] == [d + e for d, e in zip(payload["d"], payload["e"])]

    def test_fit_exit_three_on_infeasible_release(self, tmp_path):
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"q": 3, "d_bar": [0, 5, 5, 5]}))
        fitp = tmp_path / "fit.json"
        code = main(["fit", "--input", str(rel), "--out", str(fitp)])
        assert code == 3
        assert json.loads(fitp.read_text())["status"] == "nonexistent_infeasible_degree"

    def test_pipeline_outputs(self, tmp_path, zebra_path):
        prefix = tmp_path / "zeb"
        code = main(["pipeline", "--input", str(zebra_path), "--q", "3",
                     "--eps", "1", "--seed", "11", "--out-prefix", str(prefix)])
        assert code == 0
        fit_lines = (tmp_path / "zeb_fit.csv").read_text().splitlines()
        assert fit_lines[0] == "vertex,alpha_hat,ci_lo,ci_hi,se,degree_noisy"
        assert len(fit_lines) == 28  # header + 27 vertices
        vertices = [int(line.split(",")[0]) for line in fit_lines[1:]]
        assert 8 not in vertices and 28 in vertices
        for line in fit_lines[1:]:
            _, a, lo, hi, se, dn = line.split(",")
            assert float(lo) < float(a) < float(hi)
            assert float(se) > 0
        scatter_lines = (tmp_path / "zeb_scatter.csv").read_text().splitlines()
        assert scatter_lines[0] == "degree_noisy,alpha_hat"
        assert len(scatter_lines) == 28
        assert (tmp_path / "zeb_fit.csv.manifest.json").exists()

    @pytest.mark.parametrize("seed,code", [(1, 3), (7, 0)])
    def test_unpruned_isolated_vertex_usually_has_no_fit(
        self, tmp_path, zebra_path, seed, code
    ):
        # --no-prune keeps isolated vertex 8: its noisy degree is -2 at seed
        # 1, outside the range, but noise lifts it to 1 at seed 7
        prefix = tmp_path / "zeb"
        assert main(["pipeline", "--input", str(zebra_path), "--q", "3",
                     "--eps", "2", "--seed", str(seed), "--no-prune",
                     "--out-prefix", str(prefix)]) == code
        if code == 0:
            assert len((tmp_path / "zeb_fit.csv").read_text().splitlines()) == 29

    def test_simulate_and_manifest_rerun(self, tmp_path):
        out = tmp_path / "r.csv"
        args = ["simulate", "--n", "20", "--q", "3", "--L", "zero",
                "--eps", "fixed:2", "--reps", "10", "--seed", "7",
                "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair_i,pair_j,coverage,mean_len,nonexist,reps"
        assert len(lines) == 4
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        # re-run from the manifest parameters into a fresh location
        params = manifest["params"]
        out2 = tmp_path / "r2.csv"
        rerun = ["simulate", "--n", str(params["n"]), "--q", str(params["q"]),
                 "--L", params["l_mode"], "--eps", params["eps_mode"],
                 "--reps", str(params["reps"]), "--seed", str(params["master_seed"]),
                 "--out", str(out2)]
        assert main(rerun) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_simulate_table_has_one_row_per_pair(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--n", "10", "--q", "2", "--reps", "5", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair_i,pair_j,coverage,mean_len,nonexist,reps"
        result = run_experiment(ExperimentSpec(n=10, q=2, reps=5, master_seed=1))
        nonexist = f"{result.nonexistence:.10g}"
        assert lines[1:] == [
            f"{i},{j},{s.coverage:.10g},{s.mean_length:.10g},{nonexist},5"
            for s, (i, j) in zip(result.pairs, [(1, 2), (5, 6), (9, 10)])
        ]

    def test_simulate_with_config_and_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 20, "q": 3, "L": "zero",
                                      "eps": "fixed:2", "reps": 10, "seed": 7}))
        out1 = tmp_path / "c1.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        flags = tmp_path / "c2.csv"
        assert main(["simulate", "--n", "20", "--q", "3", "--L", "zero",
                     "--eps", "fixed:2", "--reps", "10", "--seed", "7",
                     "--out", str(flags)]) == 0
        assert out1.read_bytes() == flags.read_bytes()
        # a flag overrides the config value
        out3 = tmp_path / "c3.csv"
        assert main(["simulate", "--config", str(config), "--reps", "5",
                     "--out", str(out3)]) == 0
        assert out3.read_text().splitlines()[1].endswith(",5")

    def test_config_pairs_match_flag_pairs(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 20, "q": 3, "reps": 4, "seed": 3,
                                      "pairs": [[1, 2], [19, 20]]}))
        from_config, from_flag = tmp_path / "c.csv", tmp_path / "f.csv"
        assert main(["simulate", "--config", str(config), "--out", str(from_config)]) == 0
        assert main(["simulate", "--n", "20", "--q", "3", "--reps", "4", "--seed", "3",
                     "--pairs", "1:2,19:20", "--out", str(from_flag)]) == 0
        assert from_config.read_bytes() == from_flag.read_bytes()
        assert from_config.read_text().splitlines()[2].startswith("19,20,")

    @pytest.mark.parametrize(
        "command, keys, resolved",
        [
            (["generate", "--q", "3", "--alpha", "0,0.5,1"],
             {"n", "q", "L", "alpha", "seed", "out"},
             {"n": 3, "q": 3, "seed": 6, "alpha": [0.0, 0.5, 1.0], "L": None}),
            (["release", "--input", "{zebra}", "--q", "3", "--eps", "1"],
             {"input", "q", "eps", "n", "seed", "kind", "skew_ratio", "debug_noise", "out"},
             {"q": 3, "seed": 6, "n": None, "kind": "symmetric"}),
            (["fit", "--input", "{release}"],
             {"input", "q", "tol", "max_iter", "out"},
             {"q": 3, "max_iter": 200}),
            (["pipeline", "--input", "{zebra}", "--q", "3", "--eps", "1", "--no-prune"],
             {"input", "q", "eps", "seed", "level", "prune", "out_prefix"},
             {"q": 3, "seed": 6, "prune": False}),
            (["simulate", "--config", "{config}", "--reps", "2"],
             {"n", "q", "l_mode", "eps_mode", "reps", "level", "pairs", "master_seed",
              "out"},
             {"n": 12, "q": 3, "reps": 2, "master_seed": 8, "eps_mode": "fixed:2"}),
            (["qq", "--n", "20", "--q", "3", "--reps", "40", "--seed", "2",
              "--pair", "19:20"],
             {"n", "q", "l_mode", "eps_mode", "reps", "level", "pairs", "master_seed",
              "pair", "out"},
             {"n": 20, "q": 3, "master_seed": 2, "pair": [19, 20]}),
            (["rate", "--config", "{config}", "--n-list", "20,30"],
             {"n_list", "q", "L", "eps", "reps", "seed", "out"},
             {"n_list": [20, 30], "q": 3, "reps": 1, "seed": 8, "L": "zero"}),
        ],
        ids=["generate", "release", "fit", "pipeline", "simulate", "qq", "rate"],
    )
    def test_manifest_params_are_the_resolved_flags(
        self, tmp_path, zebra_path, monkeypatch, command, keys, resolved
    ):
        # the seed comes from DPBETA_SEED unless a flag or config sets it
        monkeypatch.setenv("DPBETA_SEED", "6")
        release = tmp_path / "rel.json"
        release.write_text('{"q": 3, "d_bar": [2, 3, 4, 5]}')
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 12, "q": 3, "reps": 1, "seed": 8}))
        paths = {"zebra": zebra_path, "release": release, "config": config}
        argv = [arg.format(**paths) for arg in command]
        out = tmp_path / "out"
        argv += ["--out-prefix" if command[0] == "pipeline" else "--out", str(out)]
        assert main(argv) in (0, 3)
        manifest = next(tmp_path.glob("out*.manifest.json"))
        params = json.loads(manifest.read_text())["params"]
        assert set(params) == keys
        assert {k: params[k] for k in resolved} == resolved

    def test_seed_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPBETA_SEED", "4")
        env_out = tmp_path / "env.txt"
        assert main(["generate", "--n", "15", "--q", "3", "--out", str(env_out)]) == 0
        flag_out = tmp_path / "flag.txt"
        assert main(["generate", "--n", "15", "--q", "3", "--seed", "4",
                     "--out", str(flag_out)]) == 0
        assert env_out.read_bytes() == flag_out.read_bytes()

    def test_qq_output(self, tmp_path):
        out = tmp_path / "qq.csv"
        code = main(["qq", "--n", "20", "--q", "3", "--L", "zero",
                     "--eps", "fixed:2", "--reps", "40", "--seed", "2",
                     "--pair", "19:20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theoretical,empirical"
        assert len(lines) == 41
        theo = [float(l.split(",")[0]) for l in lines[1:]]
        assert theo == sorted(theo)

    def test_rate_output(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = main(["rate", "--n-list", "20,40", "--q", "3", "--L", "zero",
                     "--eps", "fixed:2", "--reps", "5", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,median_inf_error,converged,reps"
        assert lines[1].startswith("20,") and lines[2].startswith("40,")

    def test_dpcheck_prints_epsilon(self, capsys):
        assert main(["dpcheck", "--eps", "2", "--window", "30"]) == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) == pytest.approx(2.0, abs=1e-10)


class TestLargeEdgeList:
    def test_pipeline_on_a_hundred_thousand_nodes(self, tmp_path):
        # a ring (steps of 1) plus ~3e5 random chords (steps of 2..n-2), q = 3
        n = 100_000
        rng = np.random.default_rng(12)
        a = np.concatenate([np.arange(n), rng.integers(0, n, 300_000)])
        step = np.concatenate([np.ones(n, np.int64), rng.integers(2, n - 1, 300_000)])
        b = (a + step) % n
        key = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
        g = WeightedGraph(n, 3, key // n, key % n, rng.integers(1, 3, key.size))
        p = tmp_path / "big.txt"
        write_edge_list(g, p)
        assert main(["pipeline", "--input", str(p), "--q", "3", "--eps", "8",
                     "--seed", "1", "--out-prefix", str(tmp_path / "big")]) == 0
        fit_lines = (tmp_path / "big_fit.csv").read_text().splitlines()
        assert len(fit_lines) == n + 1


class TestImports:
    def test_runtime_does_not_import_scipy(self):
        src = str(Path(dpbeta.__file__).resolve().parents[1])
        code = "import sys, dpbeta, dpbeta.cli; print('scipy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert done.stdout.strip() == "False"

    def test_readme_library_example_runs(self, capsys):
        # the README's "Library" block, run verbatim against the package
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage(self):
        assert main(["dpcheck", "--eps", "2", "--bogus"]) == 1

    def test_contradictory_generate_flags_are_usage(self, tmp_path):
        assert main(["generate", "--n", "3", "--q", "2", "--L", "1.0",
                     "--alpha", "0,0,0", "--out", str(tmp_path / "g.txt")]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "command",
        [
            ["release", "--input", "{zebra}", "--q", "3", "--eps", "2",
             "--out", "{out}"],
            ["dpcheck", "--eps", "2", "--window", "30"],
        ],
        ids=["release", "dpcheck"],
    )
    def test_skew_ratio_without_skew_kind_is_usage(
        self, tmp_path, zebra_path, capsys, command
    ):
        out = tmp_path / "rel.json"
        argv = [a.format(zebra=zebra_path, out=out) for a in command]
        assert main(argv + ["--skew-ratio", "0.5"]) == 1
        assert "skew_ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_release_bad_epsilon_prints_only_the_error(self, tmp_path, zebra_path, capsys):
        # epsilon is checked before the theory-floor note, which would
        # otherwise compare a negative epsilon with the floor
        out = tmp_path / "rel.json"
        assert main(["release", "--input", str(zebra_path), "--q", "3",
                     "--eps", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: epsilon must be finite and > 0, got -1.0."]
        assert not out.exists()

    def test_release_epsilon_rounding_noise_away_names_epsilon(
        self, tmp_path, zebra_path, capsys
    ):
        # exp(-1e-17 / 2) rounds to 1, which no noise parameter may equal
        out = tmp_path / "rel.json"
        assert main(["release", "--input", str(zebra_path), "--q", "3",
                     "--eps", "1e-17", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon=1e-17 ") and "lam and mu" not in err
        assert not out.exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["release", "--input", str(tmp_path / "none.txt"),
                     "--q", "3", "--eps", "1",
                     "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize(
        "release,fragment",
        [
            *(
                pytest.param(
                    '{"q": 2, "d_bar": [%s, 2, 2, 2, 2]}' % token, "non-finite", id=token
                )
                for token in ("NaN", "Infinity", "-Infinity")
            ),
            pytest.param(
                '{"q": 2, "d_bar": [1%s, 2, 2]}' % ("0" * 400), "non-finite", id="huge-int"
            ),
            pytest.param('{"q": 3.7, "d_bar": [2, 2, 2]}', "q must be", id="q-3.7"),
            pytest.param('{"q": true, "d_bar": [1, 1, 1]}', "q must be", id="q-true"),
            pytest.param('{"q": 1, "d_bar": [1, 1, 1]}', "q must be", id="q-1"),
            # more weight classes than the moment kernel is built to hold
            pytest.param(
                '{"q": 1000000000, "d_bar": [2, 3, 4, 5]}', "q must be at most", id="q-1e9"
            ),
            pytest.param(
                '{"q": 1%s, "d_bar": [2, 3, 4, 5]}' % ("0" * 400),
                "q must be at most",
                id="q-1e400",
            ),
            pytest.param('{"q": 2, "d_bar": ["a", "b"]}', "list of", id="d_bar-str"),
            pytest.param('{"q": 2, "d_bar": 5}', "list of", id="d_bar-scalar"),
            pytest.param('{"q": 2, "d_bar": [[1, 1]]}', "list of", id="d_bar-2d"),
            pytest.param('{"q": 2, "d_bar": [1]}', "list of", id="d_bar-short"),
        ],
    )
    def test_non_finite_release_is_data_error(self, tmp_path, release, fragment, capsys):
        rel = tmp_path / "rel.json"
        rel.write_text(release)
        fitp = tmp_path / "fit.json"
        assert main(["fit", "--input", str(rel), "--out", str(fitp)]) == 2
        assert fragment in capsys.readouterr().err
        assert not fitp.exists()

    def test_release_outside_polytope_names_its_vertices(self, tmp_path, capsys):
        # every degree lies in (0, 6), but vertices 1 and 3 against vertex 4
        # sit on a facet of the degree polytope: 10 - 2 = 2*2*(4-1-1)
        rel, fitp = tmp_path / "rel.json", tmp_path / "fit.json"
        rel.write_text('{"q": 3, "d_bar": [5, 4, 5, 2]}')
        assert main(["fit", "--input", str(rel), "--out", str(fitp)]) == 3
        err = capsys.readouterr().err
        # the inequality is named as one that the vertices break together,
        # not as three degrees each out of range
        assert "vertices 1, 3, 4 jointly lie outside the degree polytope" in err
        assert "infeasible noisy degree" not in err
        fit = json.loads(fitp.read_text())
        assert fit["status"] == "nonexistent_infeasible_degree"
        assert fit["iterations"] == 0 and fit["alpha_hat"] is None

    def test_out_of_range_degree_is_named_alone(self, tmp_path, capsys):
        rel, fitp = tmp_path / "rel.json", tmp_path / "fit.json"
        rel.write_text('{"q": 3, "d_bar": [0, 5, 5, 5]}')
        assert main(["fit", "--input", str(rel), "--out", str(fitp)]) == 3
        err = capsys.readouterr().err
        assert "estimate does not exist: infeasible noisy degree at vertex 1." in err
        assert "jointly" not in err

    def test_spent_budget_does_not_claim_nonexistence(self, tmp_path, capsys):
        # inside the polytope, so a root exists; a budget of 0 steps stops
        # short of it
        rel, fitp = tmp_path / "rel.json", tmp_path / "fit.json"
        rel.write_text('{"q": 3, "d_bar": [8, 8, 8, 4, 8, 6]}')
        argv = ["fit", "--input", str(rel), "--max-iter", "0", "--out", str(fitp)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "did not converge within its budget" in err
        assert "an estimate exists" in err and "does not exist" not in err
        assert json.loads(fitp.read_text())["status"] == "nonexistent_diverged"

    @pytest.mark.parametrize(
        "command, config, name",
        [
            ("simulate", {"n": 20, "q": 2.5}, "q"),
            ("simulate", {"n": 20.5, "q": 3}, "n"),
            ("simulate", {"n": 20, "q": 3, "reps": 4.5}, "reps"),
            ("simulate", {"n": 20, "q": True}, "q"),
            ("rate", {"n_list": [20, 30], "q": 2.5}, "q"),
            ("rate", {"n_list": [20, 30.5], "q": 3}, "n_list entry"),
            ("rate", {"n_list": [20, 30], "q": 3, "reps": 2.5}, "reps"),
            ("simulate", {"n": 20, "q": 3, "reps": 1, "seed": 2.7}, "seed"),
            ("simulate", {"n": 20, "q": 3, "reps": 1, "seed": True}, "seed"),
            ("rate", {"n_list": [20], "q": 3, "reps": 1, "seed": 2.7}, "seed"),
            ("simulate", {"n": 20, "q": 3, "reps": 1, "pairs": [[1.9, 2]]}, "pair entry"),
        ],
    )
    def test_non_integral_config_count_is_usage_error(
        self, tmp_path, capsys, command, config, name
    ):
        # rejected, not truncated: a config q of 2.5 must not run q=2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{name} must be an integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", ["simulate", "qq"])
    @pytest.mark.parametrize(
        "level, shown", [([0.9], "[0.9]"), ({"a": 1}, "{'a': 1}"), ("abc", "'abc'"),
                         (True, "True")],
        ids=["list", "object", "text", "bool"],
    )
    def test_non_numeric_config_level_is_named(
        self, tmp_path, capsys, command, level, shown
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "q": 3, "reps": 1, "level": level}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        assert main(argv + ["--pair", "1:2"] * (command == "qq")) == 1
        err = capsys.readouterr().err
        assert err == f"error: level must be a number, got {shown}.\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "argv, files, env, line",
        [
            (["generate", "--alpha", "0,x", "--q", "2"], {}, None,
             "error: cannot parse alpha list '0,x'."),
            (["generate", "--alpha", "0,0", "--L", "1", "--q", "2"], {}, None,
             "error: --alpha and --L are mutually exclusive."),
            (["generate", "--alpha", "0,0", "--n", "3", "--q", "2"], {}, None,
             "error: --n disagrees with the length of --alpha."),
            (["generate", "--q", "2"], {}, None,
             "error: --n is required unless --alpha is given."),
            (["generate", "--n", "5", "--q", "2"], {}, "x",
             "error: DPBETA_SEED='x' is not an integer."),
            (["generate", "--n", "-5", "--q", "2"], {}, None,
             "error: --n must be an integer >= 2, got -5."),
            (["generate", "--n", "1", "--q", "2"], {}, None,
             "error: --n must be an integer >= 2, got 1."),
            (["generate", "--n", "5", "--L", "1e308", "--q", "2"], {}, None,
             "error: --L must be finite, with n * L finite too, got 1e+308 at n=5."),
            (["generate", "--n", "5", "--L", "inf", "--q", "2"], {}, None,
             "error: --L must be finite, with n * L finite too, got inf at n=5."),
            (["generate", "--n", "5", "--L", "nan", "--q", "2"], {}, None,
             "error: --L must be finite, with n * L finite too, got nan at n=5."),
            (["simulate", "--n", "20", "--q", "3", "--pairs", "1-2"], {}, None,
             "error: pair '1-2' must look like i:j."),
            (["simulate", "--n", "20", "--q", "3", "--pairs", "a:2"], {}, None,
             "error: pair 'a:2' must be integers."),
            (["simulate", "--q", "3"], {}, None,
             "error: --n and --q are required (flag or config)."),
            (["qq", "--n", "20", "--q", "3", "--pair", "1:2,3:4"], {}, None,
             "error: --pair takes exactly one i:j pair."),
            (["rate", "--q", "3"], {}, None, "error: --n-list is required."),
            (["rate", "--config", "{cfg}"], {"cfg": '{"n_list": 5}'}, None,
             "error: n_list must be a list of sizes, got 5."),
            (["rate", "--n-list", "20"], {}, None, "error: --q is required."),
            (["simulate", "--n", "10", "--q", "3", "--reps", "5", "--config", "{cfg}"],
             {"cfg": '{"pairs": []}'}, None,
             "error: pairs must be a non-empty sequence of node pairs (i, j), got []."),
            (["simulate", "--n", "10", "--q", "3", "--reps", "5", "--config", "{cfg}"],
             {"cfg": '{"pairs": [[1, 2, 3]]}'}, None,
             "error: pairs must be a non-empty sequence of node pairs (i, j), "
             "got [[1, 2, 3]]."),
            # JSON faults in a config or release file: data errors
            (["simulate", "--config", "{cfg}"], {"cfg": "{x"}, None,
             "data error: config file {cfg}: Expecting property name enclosed "
             "in double quotes: line 1 column 2 (char 1)"),
            (["simulate", "--config", "{cfg}"], {"cfg": "[1]"}, None,
             "data error: config file {cfg} must hold a JSON object."),
            (["fit", "--input", "{rel}"], {"rel": "{x"}, None,
             "data error: release file {rel}: Expecting property name enclosed "
             "in double quotes: line 1 column 2 (char 1)"),
            (["fit", "--input", "{rel}"], {"rel": "[1]"}, None,
             "data error: release file {rel} lacks a d_bar field."),
            (["fit", "--input", "{rel}"], {"rel": '{"d_bar": [1, 2]}'}, None,
             "data error: release file lacks q; pass --q."),
        ],
        ids=[
            "alpha-list", "alpha-and-L", "n-and-alpha", "no-n-or-alpha", "seed-env",
            "generate-n-negative", "generate-n-one", "generate-L-overflow",
            "generate-L-inf", "generate-L-nan",
            "pair-shape", "pair-integers", "no-n", "qq-pairs", "no-n-list",
            "n-list-type", "rate-no-q", "config-pairs-empty", "config-pairs-triple",
            "config-json", "config-object",
            "release-json", "release-d_bar", "release-q",
        ],
    )
    def test_fault_is_one_stderr_line_and_its_exit_code(
        self, tmp_path, capsys, monkeypatch, argv, files, env, line
    ):
        paths = {name: str(tmp_path / f"{name}.json") for name in files}
        for name, text in files.items():
            Path(paths[name]).write_text(text)
        if env is None:
            monkeypatch.delenv("DPBETA_SEED", raising=False)
        else:
            monkeypatch.setenv("DPBETA_SEED", env)
        argv = [a.format_map(paths) for a in argv] + ["--out", str(tmp_path / "o")]
        code = 2 if line.startswith("data error") else 1
        assert main(argv) == code
        assert capsys.readouterr().err == line.format_map(paths) + "\n"
        assert sorted(map(str, tmp_path.iterdir())) == sorted(paths.values())

    @pytest.mark.parametrize("n_list", ["100,abc", "100,,200", "2.5"])
    def test_unreadable_rate_size_is_named(self, tmp_path, capsys, n_list):
        out = tmp_path / "rate.csv"
        assert main(["rate", "--n-list", n_list, "--q", "3", "--out", str(out)]) == 1
        bad = next(v for v in n_list.split(",") if not v.isdigit())
        assert capsys.readouterr().err == (
            f"error: n_list entry must be an integer, got {bad!r}.\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_negative_max_iter_is_usage_error(self, tmp_path, capsys):
        # -1 is no budget: the fit is not run, rather than reported diverged
        rel = tmp_path / "rel.json"
        rel.write_text('{"q": 3, "d_bar": [3, 4, 5, 4]}')
        fitp = tmp_path / "fit.json"
        argv = ["fit", "--input", str(rel), "--max-iter", "-1", "--out", str(fitp)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: max_iter must be an integer >= 0, got -1.\n"
        assert list(tmp_path.iterdir()) == [rel]

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_is_rejected(self, tmp_path, tol):
        with pytest.raises(ValueError, match="tol"):
            solve([2, 3, 4, 5], 3, tol=tol)
        rel = tmp_path / "rel.json"
        rel.write_text('{"q": 3, "d_bar": [2, 3, 4, 5]}')
        fitp = tmp_path / "fit.json"
        assert main(["fit", "--input", str(rel), f"--tol={tol}", "--out", str(fitp)]) == 1
        assert not fitp.exists()

    @pytest.mark.parametrize(
        "command, eps",
        [
            ("release", "nan"),
            ("release", "inf"),
            ("pipeline", "nan"),
            ("pipeline", "inf"),
            ("dpcheck", "nan"),
            ("simulate", "fixed:nan"),
            ("simulate", "fixed:inf"),
            ("rate", "fixed:nan"),
        ],
    )
    def test_non_finite_epsilon_is_usage_error(
        self, tmp_path, zebra_path, capsys, command, eps
    ):
        argv = {
            "release": ["--input", str(zebra_path), "--q", "3", "--out", str(tmp_path / "o")],
            "pipeline": ["--input", str(zebra_path), "--q", "3",
                         "--out-prefix", str(tmp_path / "o")],
            "dpcheck": [],
            "simulate": ["--n", "20", "--q", "3", "--reps", "1", "--out", str(tmp_path / "o")],
            "rate": ["--n-list", "20", "--q", "3", "--reps", "1", "--out", str(tmp_path / "o")],
        }[command]
        assert main([command, *argv, "--eps", eps]) == 1
        err = capsys.readouterr().err
        assert "epsilon must be finite" in err and "lam and mu" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "qq", "rate"])
    def test_non_numeric_fixed_epsilon_is_usage_error(self, tmp_path, capsys, command):
        argv = {
            "simulate": ["--n", "20", "--q", "3", "--reps", "1"],
            "qq": ["--n", "20", "--q", "3", "--reps", "1", "--pair", "1:2"],
            "rate": ["--n-list", "20", "--q", "3", "--reps", "1"],
        }[command]
        out = tmp_path / "o"
        assert main([command, *argv, "--eps", "fixed:abc", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "fixed epsilon must be a number, got 'abc'" in err
        assert "could not convert" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, source",
        [(c, s) for c in ("simulate", "rate") for s in ("flag", "config", "env")]
        + [(c, s) for c in ("generate", "pipeline") for s in ("flag", "env")],
    )
    def test_negative_seed_is_usage_error(
        self, tmp_path, zebra_path, capsys, monkeypatch, command, source
    ):
        argv = {
            "simulate": ["--n", "20", "--q", "3", "--reps", "1", "--out", str(tmp_path / "o")],
            "rate": ["--n-list", "20", "--q", "3", "--reps", "1", "--out", str(tmp_path / "o")],
            "generate": ["--n", "5", "--q", "3", "--out", str(tmp_path / "o")],
            "pipeline": ["--input", str(zebra_path), "--q", "3", "--eps", "1",
                         "--out-prefix", str(tmp_path / "o")],
        }[command]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"seed": -1}')
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv("DPBETA_SEED", "-1")
        assert main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert "must be an integer >= 0, got -1" in err
        assert ("DPBETA_SEED" if source == "env" else "seed must") in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "o_release.json").exists()

    def test_malformed_edge_list_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1 1\n")
        assert main(["release", "--input", str(bad), "--q", "3", "--eps", "1",
                     "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            b"1 99999999999999999999 1\n",  # beyond int64
            b"1 2 1\n# \xff\n",  # not UTF-8
            # ids above 3037000499: the row-major keys i*n + j of these two
            # pairs differ by exactly 2**64
            b"1 8589934592 1\n2147483649 8589934592 1\n",
        ],
        ids=["beyond-int64", "not-utf8", "key-overflow"],
    )
    def test_unreadable_edge_list_is_data_error(self, tmp_path, content, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        assert main(["pipeline", "--input", str(bad), "--q", "3", "--eps", "1",
                     "--out-prefix", str(tmp_path / "o")]) == 2
        assert "data error: line " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "release", "fit", "pipeline", "simulate"])
    def test_bad_q_flag_is_usage_error(self, tmp_path, zebra_path, capsys, command):
        # the same exit code whichever command is handed --q 1
        release = tmp_path / "rel.json"
        release.write_text('{"q": 3, "d_bar": [2, 3, 4, 5]}')
        argv = {
            "generate": ["--n", "5"],
            "release": ["--input", str(zebra_path), "--eps", "1"],
            "fit": ["--input", str(release)],
            "pipeline": ["--input", str(zebra_path), "--eps", "1"],
            "simulate": ["--n", "20", "--reps", "1"],
        }[command]
        out = ["--out-prefix" if command == "pipeline" else "--out", str(tmp_path / "o")]
        assert main([command, *argv, "--q", "1", *out]) == 1
        assert "q must be an integer >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [release]

    def test_out_of_range_n_flag_is_usage_error(self, tmp_path, zebra_path, capsys):
        out = tmp_path / "r.json"
        assert main(["release", "--input", str(zebra_path), "--q", "3", "--eps", "1",
                     "--n", "3037000500", "--out", str(out)]) == 1
        assert "error: n=3037000500 exceeds" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_level_is_usage_error_before_the_fit(self, tmp_path, capsys):
        # the fit on this file does not exist; the level is checked anyway
        p = tmp_path / "tiny.txt"
        p.write_text("1 2 1\n")
        code = main(["pipeline", "--input", str(p), "--q", "2", "--eps", "0.05",
                     "--seed", "1", "--level", "1.5", "--out-prefix", str(tmp_path / "t")])
        assert code == 1
        assert "level must lie strictly in (0, 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [p]

    def test_repeated_rate_sizes_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        assert main(["rate", "--n-list", "20,20", "--q", "3", "--reps", "1",
                     "--out", str(out)]) == 1
        assert "strictly increasing" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_skew_ratio_is_usage_error(self, tmp_path, zebra_path):
        assert main(["release", "--input", str(zebra_path), "--q", "3",
                     "--eps", "0.1", "--kind", "skew", "--skew-ratio", "50",
                     "--out", str(tmp_path / "o.json")]) == 1

    def test_nan_skew_ratio_is_usage_error(self, capsys):
        assert main(["dpcheck", "--eps", "2", "--kind", "skew",
                     "--skew-ratio", "nan"]) == 1
        assert "skew calibration needs skew_ratio > 0, got nan." in (
            capsys.readouterr().err
        )

    def test_pipeline_nonexistent_is_exit_three(self, tmp_path):
        # two nodes, one edge: noisy degree at q=2 can only be feasible at 1;
        # huge noise makes the release infeasible for this seed
        p = tmp_path / "tiny.txt"
        p.write_text("1 2 1\n")
        code = main(["pipeline", "--input", str(p), "--q", "2", "--eps", "0.05",
                     "--seed", "1", "--out-prefix", str(tmp_path / "t")])
        assert code == 3
        assert (tmp_path / "t_release.json").exists()
        assert not (tmp_path / "t_fit.csv").exists()

    def test_qq_too_few_converged_is_exit_three(self, tmp_path, capsys):
        # valid flags, but at this privacy level no estimate exists in any
        # of the 40 replications: a property of the data, not a usage error
        out = tmp_path / "qq.csv"
        code = main(["qq", "--n", "100", "--q", "3", "--L", "sqrtlog",
                     "--eps", "logn_over_n12", "--reps", "40", "--seed", "5",
                     "--pair", "50:51", "--out", str(out)])
        assert code == 3
        assert "0 of 40 replications converged" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
