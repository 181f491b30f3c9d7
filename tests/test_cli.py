import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nbhdrecon import closed_support, formats, miner, neighborhood_multiset
from nbhdrecon.cli import main
from nbhdrecon.formats import (
    family_to_json_dict,
    from_graph6,
    multiset_to_json_dict,
    to_graph6,
)

from helpers import (
    C4_LABELINGS,
    UNIQUE_WITH_C4,
    WORKED_EXAMPLE,
    oracle_mine_lines,
    oracle_verify_line,
    pg,
    random_graph,
)


# sha256 and line count of ``mine --n 7 --deep`` per kind: the bytes of each
# group's record dict written by ``dumps_canonical``, as the oracle builds it.
MINE_N7_OUTPUT = {
    "closed-multiset":
        ("525b4480bb8df69f08f162e0572028fcd63b5bf237d74c6d801485455aab0e0d", 54544),
    "closed-support":
        ("93ea4afdc2c0501a4b75a923f29850978ad51c9febb011aa84cd92bfcfe6af8b", 73990),
    "open-multiset":
        ("484bbbcf3b33b8eb3c9a185334971457bd0ad9b84ec243433f0d76d011136974", 54544),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jline(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH,
    for a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
    return env


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.fixture()
def worked_g6(tmp_path):
    path = tmp_path / "worked.g6"
    path.write_text(to_graph6(WORKED_EXAMPLE) + "\n")
    return str(path)


class TestNbhd:
    def test_closed_support(self, capsys, worked_g6):
        code, out, _ = run(capsys, "nbhd", "--closed", "--support", worked_g6)
        assert code == 0
        obj = jline(out)
        assert obj["universe"] == 8
        assert [[x + 1 for x in s] for s in obj["sets"]] == [
            [1, 5], [1, 2, 3, 6], [1, 3, 4, 7, 8],
            [1, 2, 3, 4, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8]]

    def test_multiset_default(self, capsys, worked_g6):
        code, out, _ = run(capsys, "nbhd", worked_g6)
        assert code == 0
        assert len(jline(out)["sets"]) == 8

    def test_open_flag(self, capsys, tmp_path):
        hexagon = pg(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        p = tmp_path / "h.g6"
        p.write_text(to_graph6(hexagon))
        code, out, _ = run(capsys, "nbhd", "--open", str(p))
        assert code == 0
        obj = jline(out)
        assert all(len(s) == 2 for s in obj["sets"])


class TestConvex:
    def test_enumeration_one_set_per_line(self, capsys, tmp_path):
        p = tmp_path / "p3.g6"
        p.write_text(to_graph6(pg(3, [(1, 2), (2, 3)])))
        code, out, _ = run(capsys, "convex", str(p))
        assert code == 0
        sets = [json.loads(ln) for ln in out.strip().splitlines()]
        assert sets == [[], [0], [2], [0, 1, 2]]

    def test_single_set_check(self, capsys, tmp_path):
        p = tmp_path / "p3.g6"
        p.write_text(to_graph6(pg(3, [(1, 2), (2, 3)])))
        code, out, _ = run(capsys, "convex", "--set", "[0]", str(p))
        assert code == 0
        obj = jline(out)
        assert obj["digitally_convex"] is True
        code, out, _ = run(capsys, "convex", "--set", "[1]", str(p))
        assert jline(out)["digitally_convex"] is False

    @pytest.mark.parametrize("bad", ["[-1]", '"ab"', "ab", "[1.5]", "[true]", "[3]",
                                     '{"0": 1}', "[1,1,2]"])
    def test_malformed_set_exit_one(self, capsys, tmp_path, bad):
        p = tmp_path / "p3.g6"
        p.write_text(to_graph6(pg(3, [(1, 2), (2, 3)])))
        assert_one_error_line(*run(capsys, "convex", "--set", bad, str(p)))

    def test_json_object_mode_feeds_reconstruct(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(UNIQUE_WITH_C4))
        code, out, _ = run(capsys, "convex", "--json", str(p))
        family = tmp_path / "dc.json"
        family.write_text(out)
        code, out, _ = run(capsys, "reconstruct", "--from", "dc", "--all", str(family))
        assert code == 0
        obj = jline(out)
        assert obj["verdict"] == "unique"
        assert from_graph6(obj["graphs"][0]["graph6"]) == \
            from_graph6(to_graph6(UNIQUE_WITH_C4))


class TestReconstruct:
    def test_unique_support_exit_zero(self, capsys, tmp_path):
        family = tmp_path / "fig6.json"
        family.write_text(json.dumps(
            family_to_json_dict(closed_support(UNIQUE_WITH_C4))))
        code, out, _ = run(capsys, "reconstruct", "--from", "support", str(family))
        assert code == 0
        obj = jline(out)
        assert obj["verdict"] == "unique"
        edges = {tuple(sorted((u + 1, v + 1))) for u, v in
                 (tuple(e) for e in obj["graphs"][0]["edges"])}
        assert edges == {(1, 2), (1, 4), (1, 5), (2, 3), (3, 4)}

    def test_ambiguous_multiset_exit_two(self, capsys, tmp_path):
        family = tmp_path / "c4.json"
        family.write_text(json.dumps(
            multiset_to_json_dict(neighborhood_multiset(C4_LABELINGS[0]))))
        code, out, _ = run(capsys, "reconstruct", "--from", "multiset", "--all", str(family))
        assert code == 2
        obj = jline(out)
        assert obj["verdict"] == "ambiguous"
        assert len(obj["graphs"]) == 3

    def test_infeasible_exit_three(self, capsys, tmp_path):
        family = tmp_path / "bad.json"
        family.write_text(json.dumps({"universe": 2, "sets": [[0], [0, 1]]}))
        code, out, _ = run(capsys, "reconstruct", "--from", "support", str(family))
        assert code == 3
        assert jline(out)["verdict"] == "infeasible"

    def test_count_mode(self, capsys, tmp_path):
        family = tmp_path / "c4.json"
        family.write_text(json.dumps(
            multiset_to_json_dict(neighborhood_multiset(C4_LABELINGS[0]))))
        code, out, _ = run(capsys, "reconstruct", "--from", "multiset",
                           "--count", str(family))
        assert code == 2
        obj = jline(out)
        assert obj["count"] == 3
        assert "graphs" not in obj

    def test_stdin_dash(self, capsys, tmp_path, monkeypatch):
        payload = json.dumps(family_to_json_dict(closed_support(WORKED_EXAMPLE)))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "reconstruct", "--from", "support", "-")
        assert code == 0
        assert jline(out)["verdict"] == "unique"

    @pytest.mark.parametrize("source,invariant", [
        ("multiset", lambda g: multiset_to_json_dict(neighborhood_multiset(g))),
        ("support", lambda g: family_to_json_dict(closed_support(g))),
    ], ids=["multiset", "support"])
    def test_default_certifies_c4_is_ambiguous(self, capsys, tmp_path, source, invariant):
        # C4 has three realizations, so the default search finds a second
        # one and may not call the first unique
        family = tmp_path / "c4.json"
        family.write_text(json.dumps(invariant(C4_LABELINGS[0])))
        code, out, _ = run(capsys, "reconstruct", "--from", source, str(family))
        obj = jline(out)
        assert (code, obj["verdict"], obj["truncated"], len(obj["graphs"])) == \
            (2, "ambiguous", True, 1)

    def test_default_certifies_a_dense_multiset_is_ambiguous(self, capsys, tmp_path):
        # graph 2 of the seeded G(24, 0.9) corpus has two realizations
        rng = random.Random(1)
        g = [random_graph(24, rng, 0.9) for _ in range(3)][2]
        family = tmp_path / "dense.json"
        family.write_text(json.dumps(multiset_to_json_dict(neighborhood_multiset(g))))
        code, out, _ = run(capsys, "reconstruct", "--from", "multiset", str(family))
        obj = jline(out)
        assert (code, obj["verdict"], obj["truncated"], len(obj["graphs"])) == \
            (2, "ambiguous", True, 1)

    def test_64_vertices_print_in_long_graph6(self, capsys, tmp_path):
        # 64 singletons are the closed neighborhoods of the edgeless graph
        family = tmp_path / "edgeless64.json"
        family.write_text(json.dumps({"universe": 64, "sets": [[v] for v in range(64)]}))
        code, out, _ = run(capsys, "reconstruct", "--from", "support", "--all", str(family))
        obj = jline(out)
        assert (code, obj["verdict"]) == (0, "unique")
        assert obj["graphs"][0]["graph6"].startswith("~")
        assert from_graph6(obj["graphs"][0]["graph6"]).edge_count() == 0

    def test_dot_flag_embeds_drawings(self, capsys, tmp_path):
        family = tmp_path / "fig6.json"
        family.write_text(json.dumps(
            family_to_json_dict(closed_support(UNIQUE_WITH_C4))))
        code, out, _ = run(capsys, "reconstruct", "--from", "support",
                           "--dot", str(family))
        assert code == 0
        dot = jline(out)["graphs"][0]["dot"]
        assert dot.startswith("graph g {") and "--" in dot


class TestMineAndVerify:
    def test_mine_n4_support_contains_c4_group(self, capsys):
        code, out, _ = run(capsys, "mine", "--n", "4", "--kind", "closed-support")
        assert code == 0
        records = [json.loads(ln) for ln in out.strip().splitlines()]
        want = sorted(to_graph6(g) for g in C4_LABELINGS)
        assert any(sorted(r["graphs"]) == want for r in records)

    def test_mine_multiset_records_have_checks(self, capsys):
        code, out, _ = run(capsys, "mine", "--n", "4")
        assert code == 0
        records = [json.loads(ln) for ln in out.strip().splitlines()]
        assert records
        for r in records:
            assert r["checks"]["both_contain_c4"] is True
            assert r["witness"] is not None

    def test_mine_ceiling_without_deep(self, capsys):
        code, _, err = run(capsys, "mine", "--n", "7")
        assert code == 1
        assert "deep" in err

    @pytest.mark.parametrize("kind", ["closed-multiset", "closed-support", "open-multiset"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_mine_output_matches_per_graph_reference(self, capsys, monkeypatch, n, kind):
        # A small prime puts block boundaries inside the output; the default
        # block holds more groups than n = 6 has.
        monkeypatch.setattr(formats, "MINE_BLOCK_GROUPS", 7)
        code, out, err = run(capsys, "mine", "--n", str(n), "--kind", kind)
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in oracle_mine_lines(n, kind))
        assert "\\\\" in out  # a graph6 backslash, escaped

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_collision_json_blocks_are_the_mine_output(self, capsys, n):
        # the blocks decide the record: a closed multiset's carry its checks
        blocks = "".join(formats.collision_json_blocks(miner.collision_arrays(n)))
        assert run(capsys, "mine", "--n", str(n)) == (0, blocks, "")
        assert '"checks":' in blocks

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_mine_pair_slabs_change_nothing(self, capsys, monkeypatch, n):
        # the first pairs are checked a slab at a time and the slabs joined
        _, want, _ = run(capsys, "mine", "--n", str(n))
        for slab in (1, 7):
            monkeypatch.setattr(miner, "_PAIR_SLAB", slab)
            assert run(capsys, "mine", "--n", str(n)) == (0, want, "")

    @pytest.mark.parametrize("kind", ["closed-multiset", "closed-support", "open-multiset"])
    def test_mine_n7_output_pinned(self, capsys, kind):
        digest, lines = MINE_N7_OUTPUT[kind]
        code, out, err = run(capsys, "mine", "--n", "7", "--deep", "--kind", kind)
        assert (code, err) == (0, "")
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["closed-multiset", "closed-support", "open-multiset"])
    def test_mine_n7_jobs_output_pinned(self, capsys, kind):
        digest, lines = MINE_N7_OUTPUT[kind]
        code, out, err = run(capsys, "mine", "--n", "7", "--deep", "--kind", kind,
                             "--jobs", "2")
        assert (code, err) == (0, "")
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["closed-multiset", "closed-support", "open-multiset"])
    def test_mine_jobs_output_matches_per_graph_reference(self, capsys, monkeypatch, kind):
        monkeypatch.setattr(miner, "_CHUNK_BITS", 13)  # four chunks, two workers
        code, out, _ = run(capsys, "mine", "--n", "6", "--kind", kind, "--jobs", "2")
        assert code == 0
        assert out == "".join(line + "\n" for line in oracle_mine_lines(6, kind))

    def test_mine_jobs_forks_no_process(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("mine --jobs forked a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(miner, "_CHUNK_BITS", 13)  # four chunks, two workers
        code, out, err = run(capsys, "mine", "--n", "6", "--jobs", "2")
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in oracle_mine_lines(6, "closed-multiset"))

    def test_no_tuple_built_per_group(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("fingerprint tuples built on the sweep path")

        monkeypatch.setattr(miner.CollisionArrays, "fingerprints", property(refuse))
        with pytest.raises(AssertionError):
            miner.collision_arrays(4).fingerprints
        # groups per kind, in the order of miner.KINDS
        for n, counts in ((5, (40, 50, 40)), (6, (1241, 1741, 1241))):
            for kind, groups in zip(miner.KINDS, counts):
                code, out, err = run(capsys, "mine", "--n", str(n), "--kind", kind)
                assert (code, err) == (0, "")
                assert out.count("\n") == groups
            code, out, err = run(capsys, "verify", "--n", str(n))
            assert (code, err) == (0, "")
            assert jline(out)["collision_groups"] == counts[0]

    def test_verify_n7_report_pinned(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "7", "--deep")
        assert (code, err) == (0, "")
        assert out == ('{"collision_groups":54544,"graphs_swept":2097152,"n":7,'
                       '"orbits_checked":327600,"pairs_checked":69300,"violations":[]}\n')

    def test_verify_output_matches_per_graph_reference(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 0
        assert out == oracle_verify_line(6) + "\n"
        assert jline(out)["pairs_checked"] == 1755

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_groups_below_four_vertices(self, capsys, n):
        for kind in ("closed-multiset", "closed-support", "open-multiset"):
            assert run(capsys, "mine", "--n", str(n), "--kind", kind) == (0, "", "")
        code, out, _ = run(capsys, "verify", "--n", str(n))
        assert code == 0
        assert jline(out) == {"n": n, "graphs_swept": 1 << (n * (n - 1) // 2),
                              "collision_groups": 0, "pairs_checked": 0,
                              "orbits_checked": 0, "violations": []}

    def test_verify_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4")
        assert code == 0
        obj = jline(out)
        assert obj["violations"] == []
        assert obj["graphs_swept"] == 64


class TestConvert:
    def test_g6_to_json_to_dot(self, capsys, tmp_path, worked_g6):
        code, out, _ = run(capsys, "convert", "--to", "json", worked_g6)
        assert code == 0
        as_json = tmp_path / "g.json"
        as_json.write_text(out)
        code, out2, _ = run(capsys, "convert", "--to", "g6", str(as_json))
        assert code == 0
        assert out2.strip() == to_graph6(WORKED_EXAMPLE)
        code, dot, _ = run(capsys, "convert", "--to", "dot", worked_g6)
        assert code == 0
        assert dot.startswith("graph g {") and "--" in dot

    def test_dot_escapes_labels(self, capsys, monkeypatch):
        payload = json.dumps({"n": 2, "labels": ['a"b', "c\\"], "edges": [[0, 1]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, dot, _ = run(capsys, "convert", "--to", "dot", "-")
        assert code == 0
        assert dot == 'graph g {\n  "a\\"b" -- "c\\\\";\n}\n'

    def test_roundtrip_identity(self, capsys, tmp_path):
        g = pg(5, [(1, 2), (3, 4)])
        p = tmp_path / "a.g6"
        p.write_text(to_graph6(g))
        code, out, _ = run(capsys, "convert", "--to", "g6", str(p))
        assert out.strip() == to_graph6(g)


class TestErrors:
    def test_malformed_graph6_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.g6"
        p.write_text("~~~~")
        code, _, err = run(capsys, "nbhd", str(p))
        assert code == 1
        assert "error" in err

    def test_malformed_json_positions(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code, _, err = run(capsys, "reconstruct", "--from", "support", str(p))
        assert code == 1
        assert "position" in err

    @pytest.mark.parametrize("command", [
        ["nbhd"], ["convex"], ["reconstruct", "--from", "support"], ["convert", "--to", "json"],
    ], ids=["nbhd", "convex", "reconstruct", "convert"])
    def test_non_utf8_file_exit_one(self, capsys, tmp_path, command):
        p = tmp_path / "bad.bin"
        p.write_bytes(b'{"n": 1,\xff')
        code, out, err = run(capsys, *command, str(p))
        assert_one_error_line(code, out, err)
        assert err == "error: input is not UTF-8: invalid start byte (at position 8)\n"

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "nbhd", "/nonexistent/file.g6")
        assert code == 1

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run(capsys, "reconstruct", "--from", "deck", "x.json")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_closed_pipe_exits_one_quietly(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["mine", "--n", "5"])
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (1, "")

    @pytest.mark.parametrize("args", [
        pytest.param(["mine", "--n", "4"], id="4"),
        pytest.param(["mine", "--n", "6"], id="6"),
        pytest.param(["convert", "--to", "json", "GRAPH"], id="convert-json"),
        pytest.param(["nbhd", "GRAPH"], id="nbhd"),
    ])
    def test_closed_pipe_in_a_process_exits_one_quietly(self, args, tmp_path):
        # The reader is gone before the first write.  Small outputs fit
        # stdout's buffer, so the pipe fails at main's flush and the output
        # stays buffered: the interpreter's last flush must not report it.
        # At n = 6 mine's first write fails.
        graph = tmp_path / "c4.g6"
        graph.write_text(to_graph6(C4_LABELINGS[0]) + "\n")
        args = [str(graph) if a == "GRAPH" else a for a in args]
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen([sys.executable, "-m", "nbhdrecon.cli", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")

    @pytest.mark.parametrize("sets,code,verdict", [
        pytest.param([[0, 1], [0, 1, 2], [1, 2]], 0, "unique", id="unique"),
        pytest.param([[0, 1], [1, 2]], 3, "infeasible", id="infeasible"),
    ])
    def test_package_runs_as_a_module(self, capsys, monkeypatch, sets, code, verdict):
        # ``python -m nbhdrecon`` exits with main's code and prints its answer
        text = json.dumps({"universe": 3, "sets": sets})
        proc = subprocess.run([sys.executable, "-m", "nbhdrecon", "reconstruct", "--from",
                               "support", "--all", "-"], input=text.encode(),
                              capture_output=True, env=src_env(), timeout=120)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        want_code, want_out, _ = run(capsys, "reconstruct", "--from", "support", "--all", "-")
        got, want = jline(proc.stdout.decode()), jline(want_out)
        del got["stats"]["elapsed_s"], want["stats"]["elapsed_s"]
        assert (proc.returncode, proc.stderr, got) == (want_code, b"", want)
        assert (want_code, want["verdict"]) == (code, verdict)

    def test_package_module_usage_error_exits_one(self):
        proc = subprocess.run([sys.executable, "-m", "nbhdrecon", "reconstruct", "--from",
                               "nope", "-"], capture_output=True, env=src_env(), timeout=120)
        assert proc.returncode == 1 and proc.stdout == b""
        assert b"invalid choice" in proc.stderr


class TestInputContracts:
    @pytest.mark.parametrize("source", ["multiset", "support", "dc"])
    def test_empty_universe_exit_one(self, capsys, tmp_path, source):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"universe": 0, "sets": []}))
        assert_one_error_line(*run(capsys, "reconstruct", "--from", source, str(p)))

    @pytest.mark.parametrize("source", ["multiset", "support", "dc"])
    def test_universe_past_ceiling_exit_one(self, capsys, tmp_path, source):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"universe": 10**8, "sets": [[10**8 - 1]]}))
        code, out, err = run(capsys, "reconstruct", "--from", source, str(p))
        assert_one_error_line(code, out, err)
        assert err == "error: universe must be in 0..64, got 100000000\n"

    @pytest.mark.parametrize("source", ["multiset", "support", "dc"])
    @pytest.mark.parametrize("sets", [[[0, 0], [0, 1]], [[1, 1]], [[0, 1], [1, 0, 1]]])
    def test_repeated_vertex_exit_one(self, capsys, tmp_path, source, sets):
        # a repeated id once carried into the next bit: [1, 1] read as {2}
        p = tmp_path / "dup.json"
        p.write_text(json.dumps({"universe": 3, "sets": sets}))
        code, out, err = run(capsys, "reconstruct", "--from", source, str(p))
        assert_one_error_line(code, out, err)
        assert "twice" in err

    @pytest.mark.parametrize("payload", [
        {"n": 3, "labels": 5, "edges": []},
        {"n": 3, "labels": [[1], [2], [3]], "edges": []},
        {"n": 3, "edges": 5},
        {"n": True, "edges": []},
        {"n": 3, "edges": [[True, 2]]},
        {"n": 2, "adjacency": [[True], [0]]},
    ])
    def test_malformed_graph_json_exit_one(self, capsys, tmp_path, payload):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(payload))
        assert_one_error_line(*run(capsys, "convert", "--to", "json", str(p)))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_one(self, capsys, jobs):
        assert_one_error_line(*run(capsys, "mine", "--n", "4", "--jobs", jobs))
