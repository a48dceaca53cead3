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
from dpbeta.cli import main, pipeline_fit
from dpbeta.edgelist import (
    DataError,
    EdgeListError,
    parse_edge_list,
    prune_isolated,
    write_edge_list,
)
from dpbeta.estimator import solve
from dpbeta.model import WeightedGraph, sample_graph

from conftest import dense


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
        with pytest.raises(EdgeListError, match="3037000499"):
            parse_edge_list(p, q=2, n=3037000500)

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
        np.testing.assert_array_equal(dense(pruned.graph), dense(g))

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
    def test_negligible_noise_matches_noiseless_solve(self, tmp_path):
        g = sample_graph(np.array([0.4, -0.2, 0.1, -0.3]), 3, seed=50)
        assert g.degrees().min() > 0
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        out = pipeline_fit(p, q=3, epsilon=100.0, seed=1)  # lambda = e^-50
        assert out.fit.converged
        np.testing.assert_array_equal(out.release.d_bar, g.degrees())
        direct = solve(g.degrees(), 3)
        np.testing.assert_allclose(out.fit.alpha_hat, direct.alpha_hat, atol=1e-12)

    def test_zebra_run_is_monotone(self, zebra_path):
        out = pipeline_fit(zebra_path, q=3, epsilon=1.0, seed=11)
        assert out.fit.converged
        d_bar = out.release.d_bar
        alpha = out.fit.alpha_hat
        order = np.argsort(d_bar, kind="stable")
        sorted_alpha = alpha[order]
        assert np.all(np.diff(sorted_alpha) >= -1e-9)
        # ties in noisy degree give equal estimates
        for value in np.unique(d_bar):
            group = alpha[d_bar == value]
            assert np.max(group) - np.min(group) < 1e-8
        assert np.argmax(d_bar) in np.flatnonzero(alpha == alpha.max())

    def test_removed_labels_are_one_based(self, zebra_path):
        out = pipeline_fit(zebra_path, q=3, epsilon=1.0, seed=11)
        assert out.removed_count == 1 and out.removed_ranges == [(8, 8)]
        assert out.labels[0] == 1 and out.labels[7] == 9 and len(out.labels) == 27


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

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["release", "--input", str(tmp_path / "none.txt"),
                     "--q", "3", "--eps", "1",
                     "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_release_is_data_error(self, tmp_path, token, capsys):
        rel = tmp_path / "rel.json"
        rel.write_text('{"q": 2, "d_bar": [%s, 2, 2, 2, 2]}' % token)
        fitp = tmp_path / "fit.json"
        assert main(["fit", "--input", str(rel), "--out", str(fitp)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not fitp.exists()

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

    def test_bad_skew_ratio_is_usage_error(self, tmp_path, zebra_path):
        assert main(["release", "--input", str(zebra_path), "--q", "3",
                     "--eps", "0.1", "--kind", "skew", "--skew-ratio", "50",
                     "--out", str(tmp_path / "o.json")]) == 1

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
