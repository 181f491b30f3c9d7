"""The four benchmark workloads: seeded inputs, the calls a query makes, and
the ground-truth gate that checks every answer.

Inputs are built here from the seed alone, and the program under test only
receives the finished inputs (graphs, families, JSON text, CLI arguments).
The oracles below are plain bitmask code of the benchmark's own, so the
inputs and the gate do not lean on the layers being measured: they decide
closed neighbourhoods, induced 4-cycles and digital convexity (as the
complements of the sets N[S], the complement bridge of the paper).

Each workload has two ways to run a query: ``run`` makes exactly the calls a
user makes, for the end-to-end metrics; ``trace`` makes the same calls
inside spans and then re-calls the stage functions on the same inputs as
child spans, for the per-layer metrics.  Importing this module needs
``nbhdrecon`` on ``sys.path`` (``run.py`` puts the checkout's ``src`` there).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from nbhdrecon import (
    Graph,
    NeighborhoodMultiset,
    SetFamily,
    UnrealizableFamilyError,
    check_collision_pair,
    check_convexity_axioms,
    complement_family,
    contains_induced_c4,
    digital_convexity,
    equivalence_classes,
    find_collisions,
    from_digital_convexity,
    from_graph6,
    from_multiset,
    from_support,
    multiset_from_json_dict,
    family_from_json_dict,
    neighborhood_multiset,
    quotient_family,
    realizes,
    to_graph6,
    union_basis,
    witness_permutation,
)
from nbhdrecon import cli
from nbhdrecon.formats import dumps_canonical, parse_json

# Collision counts from exhaustive sweeps: n=7 as published for the miner,
# n=5 (the smoke size) from a brute-force count over all 1024 graphs, which
# the self-tests repeat.
SWEEP_EXPECTED = {
    5: {"closed-multiset": 40, "closed-support": 50, "open-multiset": 40, "pairs": 60},
    7: {"closed-multiset": 54544, "closed-support": 73990, "open-multiset": 54544,
        "pairs": 69300},
}

_EXIT_VERDICT = {0: "unique", 2: "ambiguous", 3: "infeasible"}
_KIND = {"multiset": "multiset", "support": "support", "dc": "convexity"}


# ---------------------------------------------------------------------------
# Independent oracles and samplers
# ---------------------------------------------------------------------------


def members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def random_adjacency(n: int, p: float, rng: random.Random) -> list[int]:
    """G(n, p) as one neighbour mask per vertex."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def closed_masks(adj: list[int]) -> list[int]:
    return [a | 1 << v for v, a in enumerate(adj)]


def has_induced_c4(adj: list[int]) -> bool:
    """A non-adjacent pair (a, c) with two non-adjacent common neighbours."""
    n = len(adj)
    for a in range(n):
        for c in range(a + 1, n):
            if adj[a] >> c & 1:
                continue
            common = members(adj[a] & adj[c])
            for i, b in enumerate(common):
                if any(not adj[b] >> d & 1 for d in common[i + 1:]):
                    return True
    return False


def c4_free_adjacency(n: int, rng: random.Random) -> list[int]:
    """Rejection sampling from the sparse/dense G(n, p) mix the tests use,
    without isolated vertices.

    Each isolated vertex doubles the convexity's member count and adds
    nothing to reconstruct; with them the member counts pile up on powers of
    two, and the latency quantiles jumped from seed to seed.
    """
    while True:
        p = rng.uniform(0.0, 2.6 / n) if rng.random() < 0.8 else rng.random()
        adj = random_adjacency(n, p, rng)
        if all(adj) and not has_induced_c4(adj):
            return adj


def convex_sets(adj: list[int]) -> list[int]:
    """All digitally convex sets: complements of the distinct N[S], S in 2^V."""
    reach = np.zeros(1, dtype=np.int64)
    for mask in closed_masks(adj):
        reach = np.concatenate((reach, reach | mask))
    full = (1 << len(adj)) - 1
    return sorted(full ^ int(r) for r in np.unique(reach))


def perturb(closed: list[int], rng: random.Random) -> list[int] | None:
    """Move one vertex x from member i to member j (x in M_i, x not in M_j).

    Total multiplicity and degree sum are kept, so only the search can
    refute the result.  Moves that leave an empty member or give back the
    same multiset are excluded; None when no move is left (complete graph).
    """
    moves = []
    for i, a in enumerate(closed):
        for j, b in enumerate(closed):
            if i == j:
                continue
            for x in members(a & ~b):
                a2, b2 = a & ~(1 << x), b | 1 << x
                if a2 and not (a2 == b and b2 == a):
                    moves.append((i, j, x))
    if not moves:
        return None
    i, j, x = rng.choice(moves)
    out = list(closed)
    out[i] &= ~(1 << x)
    out[j] |= 1 << x
    return out


# ---------------------------------------------------------------------------
# Queries and the in-process CLI
# ---------------------------------------------------------------------------


@dataclass
class Query:
    """One operation: ``kind`` selects the call, ``payload`` is its input."""

    kind: str
    n: int
    payload: object
    planted: Graph | None = None
    c4_free: bool = False
    reference: object = None


class _Sink(io.TextIOBase):
    """Stands in for stdout: hashes what the CLI prints and keeps the last line."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.last = ""
        self._tail = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += s.count("\n")
        self._tail += s
        if "\n" in self._tail:
            done, self._tail = self._tail.rsplit("\n", 1)
            self.last = done.rsplit("\n", 1)[-1]
        return len(s)


@dataclass
class CliOutput:
    code: int
    out: str
    err: str
    bytes: int = 0
    lines: int = 0
    digest: str = ""


def call_cli(argv: list[str], stdin_text: str = "", stream: bool = False) -> CliOutput:
    """``cli.main(argv)`` in process with stdin, stdout and stderr swapped.

    With ``stream`` the output is hashed as it is written and only its last
    line is kept, which is how the large ``mine`` outputs are checked.
    """
    sink = _Sink() if stream else io.StringIO()
    err = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    if stream:
        return CliOutput(code, sink.last, err.getvalue(), sink.bytes, sink.lines,
                         sink.sha.hexdigest())
    text = sink.getvalue()
    return CliOutput(code, text, err.getvalue(), len(text.encode("utf-8")), text.count("\n"))


# ---------------------------------------------------------------------------
# Reconstruction calls shared by the query workloads
# ---------------------------------------------------------------------------

RECONSTRUCT = {"multiset": from_multiset, "support": from_support,
               "dc": from_digital_convexity}


def traced_reconstruct(tr, source: str, inv, parent=None, main=False, refute=False):
    """One reconstruction call as a span, then its stages re-called as children.

    support: twin classes and quotient, then the realizer on the quotient;
    dc: axiom check and union basis of the complemented family, then the
    convexity re-verification of each answer; otherwise the neighbourhood
    re-verification of each answer.
    """
    fn = RECONSTRUCT[source]
    with tr.span(f"reconstruct.{fn.__name__}", parent=parent, main=main,
                 refute=refute) as call:
        result = fn(inv, "all")
    call["counts"].update(nodes=result.nodes_explored, solutions=result.solution_count)
    if source == "support":
        try:
            with tr.span("reconstruct.equivalence_classes", parent=call):
                classes = equivalence_classes(inv)
            with tr.span("reconstruct.quotient_family", parent=call):
                quotient = quotient_family(inv, classes)
            with tr.span("reconstruct.from_multiset", parent=call):
                from_multiset(NeighborhoodMultiset(len(classes.blocks), quotient.masks), "all")
        except UnrealizableFamilyError:
            pass
    if source == "dc":
        with tr.span("convexity.check_convexity_axioms", parent=call):
            check_convexity_axioms(inv)
        with tr.span("families.union_basis", parent=call):
            union_basis(complement_family(inv))
        with tr.span("convexity.digital_convexity", parent=call):
            for h in result.graphs:
                digital_convexity(h)
    else:
        with tr.span("families.neighborhood_multiset", parent=call) as ext:
            for h in result.graphs:
                neighborhood_multiset(h)
        ext["counts"]["calls"] = len(result.graphs)
    return result


def emit_graph6(tr, graphs) -> None:
    with tr.span("formats.emit") as emit:
        emit["counts"]["bytes"] = sum(len(to_graph6(h)) + 1 for h in graphs)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: a seeded query stream, the two ways to run a query, the gate."""

    name = ""
    min_queries = 100
    pass_size = 1
    warm_up = True
    #: sample the calibration kernel inside each query (see run.Calibration)
    sample_inside = False
    #: traced queries per second of ``--seconds``; a fixed count per
    #: (seed, seconds) makes the per-layer counts repeat exactly
    trace_rate = 0.0

    def __init__(self, smoke: bool = False):
        if smoke:
            self.min_queries = min(self.min_queries, 10)
        self.verified = 0
        self.verify_s = 0.0
        self.recovered = 0

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def trace_queries(self, seconds: float) -> int:
        n = max(self.min_queries, round(self.trace_rate * seconds))
        return -(-n // self.pass_size) * self.pass_size

    def sizes(self) -> dict:
        raise NotImplementedError

    def queries(self, seed: int):
        raise NotImplementedError

    def run(self, q: Query):
        raise NotImplementedError

    def trace(self, q: Query, tr):
        raise NotImplementedError

    def check(self, q: Query, out) -> list[str]:
        raise NotImplementedError

    def canonical(self, q: Query, out) -> str:
        raise NotImplementedError

    def rates(self, records, verify_s: float) -> tuple[float, float]:
        """(verify_graphs_per_s, mine_graphs_per_s) from ``(kind, latency)``
        records and the scaled time of the gate's ``realizes`` calls.

        Query workloads: returned graphs confirmed per second of ``realizes``,
        and planted graphs recovered (found in their query's answer) per
        second of query time.
        """
        verify = self.verified / verify_s if verify_s else 0.0
        return verify, self.recovered / sum(t for _, t in records)

    def verify(self, g: Graph, reference, kind: str) -> bool:
        """``realizes`` through the public API, timed for verify_graphs_per_s."""
        t0 = time.perf_counter()
        ok = realizes(g, reference, kind)
        self.verify_s += time.perf_counter() - t0
        self.verified += 1
        return ok

    def check_answers(self, q: Query, verdict: str, truncated: bool, graphs) -> list[str]:
        """The planted-graph and re-verification gate shared by the query workloads."""
        problems = []
        kind = _KIND.get(q.kind, "multiset")
        for h in graphs:
            if not self.verify(h, q.reference, kind):
                problems.append(f"returned graph {to_graph6(h)} does not realize the input")
        if q.planted is None:
            return problems
        if q.planted in graphs:
            self.recovered += 1
        if verdict == "infeasible":
            problems.append("planted input reported infeasible")
        elif not truncated and q.planted not in graphs:
            problems.append("planted graph missing from a complete answer")
        if q.c4_free and (verdict != "unique" or list(graphs) != [q.planted]):
            problems.append(f"C4-free planted graph gave {verdict}, not itself")
        return problems


def _result_line(q: Query, verdict: str, truncated: bool, graph6s: list[str]) -> str:
    # A truncated answer holds whichever graphs the search met first, so only
    # its verdict and size are part of the canonical output.
    listed = "-" if truncated else ",".join(sorted(graph6s))
    return f"{q.kind} {q.n} {verdict} {int(truncated)} {len(graph6s)} {listed}"


class RealizeDense(Workload):
    name = "realize-dense"
    trace_rate = 200.0
    p = 0.9

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.ns = (7, 8) if smoke else (12, 13, 14)

    def sizes(self) -> dict:
        return {"n": [min(self.ns), max(self.ns)], "p": self.p,
                "queries_per_graph": ["multiset", "support", "perturbed"]}

    def queries(self, seed: int):
        rng = self.rng(seed)
        i = 0
        while True:
            n = self.ns[i % len(self.ns)]
            i += 1
            adj = random_adjacency(n, self.p, rng)
            closed = closed_masks(adj)
            moved = perturb(closed, rng)
            if moved is None:
                continue
            g = Graph.from_adjacency_masks(adj)
            c4_free = not has_induced_c4(adj)
            m = NeighborhoodMultiset(n, closed)
            f = SetFamily(n, closed)
            pm = NeighborhoodMultiset(n, moved)
            yield Query("multiset", n, m, g, c4_free, m)
            yield Query("support", n, f, g, c4_free, f)
            yield Query("perturbed", n, pm, None, False, pm)

    def run(self, q: Query):
        if q.kind == "support":
            return from_support(q.payload, "all")
        return from_multiset(q.payload, "all")

    def trace(self, q: Query, tr):
        source = "support" if q.kind == "support" else "multiset"
        result = traced_reconstruct(tr, source, q.payload, main=True,
                                    refute=q.kind == "perturbed")
        emit_graph6(tr, result.graphs)
        return result

    def check(self, q: Query, out) -> list[str]:
        return self.check_answers(q, out.verdict, out.truncated, out.graphs)

    def canonical(self, q: Query, out) -> str:
        return _result_line(q, out.verdict, out.truncated, [to_graph6(h) for h in out.graphs])


class DcSparse(Workload):
    name = "dc-sparse"
    trace_rate = 7.0

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.ns = (7, 8) if smoke else (12, 13, 14)
        self.band = (16, 120) if smoke else (200, 800)

    def sizes(self) -> dict:
        return {"n": [min(self.ns), max(self.ns)], "members": list(self.band),
                "min_degree": 1}

    def queries(self, seed: int):
        rng = self.rng(seed)
        lo, hi = self.band
        while True:
            n = rng.choice(self.ns)
            adj = c4_free_adjacency(n, rng)
            convex = convex_sets(adj)
            if lo <= len(convex) < hi:
                g = Graph.from_adjacency_masks(adj)
                yield Query("dc", n, g, g, True, SetFamily(n, convex))

    def run(self, q: Query):
        d = digital_convexity(q.payload)
        return d, from_digital_convexity(d, "all")

    def trace(self, q: Query, tr):
        with tr.span("convexity.digital_convexity", main=True) as enum:
            d = digital_convexity(q.payload)
        enum["counts"]["members"] = len(d)
        result = traced_reconstruct(tr, "dc", d, main=True)
        emit_graph6(tr, result.graphs)
        return d, result

    def check(self, q: Query, out) -> list[str]:
        d, result = out
        if d != q.reference:
            return [f"digital_convexity gave {len(d)} sets, oracle {len(q.reference)}"]
        return self.check_answers(q, result.verdict, result.truncated, result.graphs)

    def canonical(self, q: Query, out) -> str:
        d, result = out
        return (f"members {len(d)} "
                + _result_line(q, result.verdict, result.truncated,
                               [to_graph6(h) for h in result.graphs]))


class RoundtripSmall(Workload):
    name = "roundtrip-small"
    trace_rate = 300.0

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.n_range = (4, 6) if smoke else (4, 10)

    def sizes(self) -> dict:
        return {"n": list(self.n_range), "c4_free_share": 0.8, "min_degree": 1,
                "sources": ["multiset", "support", "dc"]}

    def queries(self, seed: int):
        # Source, size and graph family follow a fixed cycle (3 x 7 x 5
        # queries) so every run holds the same mix; only the graphs are random.
        rng = self.rng(seed)
        lo, hi = self.n_range
        for i in itertools.count():
            source = ("multiset", "support", "dc")[i % 3]
            n = lo + (i // 3) % (hi - lo + 1)
            if i % 5 < 4:
                adj = c4_free_adjacency(n, rng)
            else:  # G(n, p), also without isolated vertices
                adj = [0]
                while not all(adj):
                    adj = random_adjacency(n, rng.random(), rng)
            closed = closed_masks(adj)
            if source == "multiset":
                sets, ref = closed, NeighborhoodMultiset(n, closed)
            elif source == "support":
                sets, ref = sorted(set(closed)), SetFamily(n, closed)
            else:
                sets = convex_sets(adj)
                ref = SetFamily(n, sets)
            text = json.dumps({"universe": n, "sets": [members(m) for m in sets]})
            yield Query(source, n, text, Graph.from_adjacency_masks(adj),
                        not has_induced_c4(adj), ref)

    @staticmethod
    def argv(q: Query) -> list[str]:
        return ["reconstruct", "--from", q.kind, "--all", "-"]

    def run(self, q: Query):
        return call_cli(self.argv(q), q.payload)

    def trace(self, q: Query, tr):
        with tr.span("cli.main", main=True) as main:
            out = self.run(q)
        main["counts"]["exit"] = out.code
        with tr.span("formats.parse", parent=main):
            obj = parse_json(q.payload)
            inv = (multiset_from_json_dict(obj) if q.kind == "multiset"
                   else family_from_json_dict(obj))
        result = traced_reconstruct(tr, q.kind, inv, parent=main)
        with tr.span("formats.emit", parent=main) as emit:
            dumps_canonical({"verdict": result.verdict,
                             "graphs": [to_graph6(h) for h in result.graphs]})
        emit["counts"]["bytes"] = out.bytes
        return out

    def _parsed(self, out: CliOutput):
        record = json.loads(out.out)
        return record, [r["graph6"] for r in record["graphs"]]

    def check(self, q: Query, out) -> list[str]:
        if out.code not in _EXIT_VERDICT:
            return [f"exit {out.code}: {out.err.strip()}"]
        record, graph6s = self._parsed(out)
        if record["verdict"] != _EXIT_VERDICT[out.code]:
            return [f"exit {out.code} with verdict {record['verdict']}"]
        return self.check_answers(q, record["verdict"], record["truncated"],
                                  [from_graph6(s) for s in graph6s])

    def canonical(self, q: Query, out) -> str:
        if out.code not in _EXIT_VERDICT:
            return f"{q.kind} {q.n} exit {out.code}"
        record, graph6s = self._parsed(out)
        return f"exit {out.code} " + _result_line(q, record["verdict"], record["truncated"],
                                                  graph6s)


class SweepN7(Workload):
    name = "sweep-n7"
    min_queries = 3
    pass_size = 3
    warm_up = False
    # A command runs for seconds, long enough for the host's speed to change.
    sample_inside = True
    trace_rate = 0.0

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.n = 5 if smoke else 7
        self.expected = SWEEP_EXPECTED[self.n]
        self.graphs = 1 << (self.n * (self.n - 1) // 2)

    def sizes(self) -> dict:
        return {"n": self.n, "labeled_graphs": self.graphs,
                "commands": [" ".join(q.payload) for q in self._pass()]}

    def _pass(self) -> list[Query]:
        n = str(self.n)
        return [Query("verify", self.n, ["verify", "--n", n, "--deep"]),
                Query("closed-support", self.n,
                      ["mine", "--n", n, "--deep", "--kind", "closed-support", "--jobs", "2"]),
                Query("open-multiset", self.n,
                      ["mine", "--n", n, "--deep", "--kind", "open-multiset"])]

    def queries(self, seed: int):
        # The sweep is exhaustive, so the seed changes nothing here.
        while True:
            yield from self._pass()

    def run(self, q: Query):
        return call_cli(q.payload, stream=True)

    def trace(self, q: Query, tr):
        with tr.span("cli.main", main=True) as main:
            out = self.run(q)
        main["counts"]["exit"] = out.code
        kind = "closed-multiset" if q.kind == "verify" else q.kind
        jobs = 2 if "--jobs" in q.payload else 1
        with tr.span("miner.find_collisions", parent=main, kind=kind) as find:
            groups = find_collisions(self.n, kind, allow_large=True, jobs=jobs)
        graphs = [g for grp in groups for g in grp.graphs]
        find["counts"].update(groups=len(groups), members=len(graphs))
        masks = [_edge_mask(g) for g in graphs]
        with tr.span("graphs.from_edge_mask", parent=find):
            for em in masks:
                Graph.from_edge_mask(self.n, em)
        if q.kind == "verify":
            pairs = [(a, b) for grp in groups for i, a in enumerate(grp.graphs)
                     for b in grp.graphs[i + 1:]]
            orbits = 0
            with tr.span("miner.check_collision_pair", parent=main) as checks:
                for g, h in pairs:
                    w = check_collision_pair(g, h).witness
                    orbits += len(w.orbits) if w else 0
            checks["counts"].update(pairs=len(pairs), orbits=orbits)
            with tr.span("miner.witness_permutation", parent=checks) as witness:
                for g, h in pairs:
                    witness_permutation(g, h)
            with tr.span("families.neighborhood_multiset", parent=witness) as ext:
                for g, h in pairs:
                    neighborhood_multiset(g)
                    neighborhood_multiset(h)
            ext["counts"]["calls"] = 2 * len(pairs)
            with tr.span("graphs.contains_induced_c4", parent=checks):
                for g, h in pairs:
                    contains_induced_c4(g)
                    contains_induced_c4(h)
        else:
            with tr.span("formats.emit", parent=main) as emit:
                for g in graphs:
                    to_graph6(g)
            emit["counts"]["bytes"] = out.bytes
        return out

    def rates(self, records, verify_s: float) -> tuple[float, float]:
        """Labeled graphs swept per second by ``verify`` and by the two mines."""
        verify = [t for kind, t in records if kind == "verify"]
        mine = [t for kind, t in records if kind != "verify"]
        return self.graphs * len(verify) / sum(verify), self.graphs * len(mine) / sum(mine)

    def check(self, q: Query, out) -> list[str]:
        if out.code != 0:
            return [f"{q.kind}: exit {out.code}: {out.err.strip()[:200]}"]
        if q.kind == "verify":
            report = json.loads(out.out)
            want = {"graphs_swept": self.graphs, "violations": [],
                    "collision_groups": self.expected["closed-multiset"],
                    "pairs_checked": self.expected["pairs"]}
            return [f"verify {k} = {report.get(k)!r}, expected {v!r}"
                    for k, v in want.items() if report.get(k) != v]
        if out.lines != self.expected[q.kind]:
            return [f"mine {q.kind}: {out.lines} groups, expected {self.expected[q.kind]}"]
        return []

    def canonical(self, q: Query, out) -> str:
        return f"{q.kind} exit {out.code} lines {out.lines} sha256 {out.digest}"


def _edge_mask(g: Graph) -> int:
    """Inverse of ``Graph.from_edge_mask``: pairs (u, v), u < v, in lexicographic order."""
    em = 0
    k = 0
    for u in range(g.n):
        row = g.adjacency_mask(u)
        for v in range(u + 1, g.n):
            if row >> v & 1:
                em |= 1 << k
            k += 1
    return em


WORKLOADS = {cls.name: cls for cls in (RealizeDense, DcSparse, RoundtripSmall, SweepN7)}
