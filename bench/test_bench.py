"""Self-tests of the benchmark: run with ``python3 -m pytest bench``.

They run every workload in its tiny smoke configuration, check that the
printed metric and workload names match ``BENCHMARK.json``, that inputs are
a function of the seed, and that the benchmark's oracles agree with the
program on small cases.
"""

from __future__ import annotations

import collections
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.use_checkout_source() is not None, "nbhdrecon must come from this checkout"

import tracing  # noqa: E402
import workloads  # noqa: E402
from nbhdrecon import Graph, contains_induced_c4, digital_convexity  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_and_units_match_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_names_and_units_match_spec():
    produced = {k: unit for k, (_, unit) in tracing.layer_metrics([]).items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == produced


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    done = _run("--workload", name, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "sha256:" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "realize-dense", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _prefix(name: str, seed: int, count: int = 12) -> list[str]:
    stream = workloads.WORKLOADS[name](smoke=True).queries(seed)
    return [repr((q.kind, q.n, q.payload, q.planted, q.c4_free, q.reference))
            for q in (next(stream) for _ in range(count))]


@pytest.mark.parametrize("name", ["realize-dense", "dc-sparse", "roundtrip-small"])
def test_inputs_are_a_function_of_the_seed(name):
    assert _prefix(name, 11) == _prefix(name, 11)
    assert _prefix(name, 11) != _prefix(name, 12)


def test_perturbed_multisets_keep_size_and_degree_sum():
    rng = random.Random(5)
    for _ in range(50):
        closed = workloads.closed_masks(workloads.random_adjacency(9, 0.9, rng))
        moved = workloads.perturb(closed, rng)
        if moved is None:
            continue
        assert len(moved) == len(closed)
        assert sum(m.bit_count() for m in moved) == sum(m.bit_count() for m in closed)
        assert sorted(moved) != sorted(closed)


def test_oracles_agree_with_the_program():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(3, 9)
        adj = workloads.random_adjacency(n, rng.random(), rng)
        g = Graph.from_adjacency_masks(adj)
        assert workloads.has_induced_c4(adj) == contains_induced_c4(g)
        assert workloads.convex_sets(adj) == sorted(digital_convexity(g).masks)


def test_smoke_sweep_counts_match_brute_force():
    n = 5
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    closed_ms, supports, open_ms = (collections.Counter() for _ in range(3))
    for em in range(1 << len(pairs)):
        adj = [0] * n
        for k, (u, v) in enumerate(pairs):
            if em >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        closed = workloads.closed_masks(adj)
        closed_ms[tuple(sorted(closed))] += 1
        supports[frozenset(closed)] += 1
        open_ms[tuple(sorted(adj))] += 1

    def groups(counter):
        return sum(1 for c in counter.values() if c > 1)

    assert workloads.SWEEP_EXPECTED[n] == {
        "closed-multiset": groups(closed_ms), "closed-support": groups(supports),
        "open-multiset": groups(open_ms),
        "pairs": sum(c * (c - 1) // 2 for c in closed_ms.values())}
