"""In-memory spans for the traced pass, and the per-layer metrics built from them.

A span records one call the benchmark makes into a layer: its name (the
layer, a dot, the function), start, end, parent span and query id, plus the
counts observed at that boundary.  Stage spans are re-calls made after the
call they split, so they are attached to it as children by ``parent`` and a
layer's self time is its span's duration minus its children's durations.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("graphs", "families", "convexity", "reconstruct", "miner", "formats", "cli")


class Tracer:
    """Collects spans; ``query`` is the id stamped on every span opened."""

    def __init__(self):
        self.spans: list[dict] = []
        self.query: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, parent: dict | None = None, **tags):
        """Time the body as one span; yields the span so counts can be added.

        ``parent`` attaches the span to an already closed span, which is how
        stage re-calls become children of the call they split.
        """
        if parent is not None:
            parent_id = parent["id"]
        else:
            parent_id = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent_id,
               "query": self.query, "start": 0.0, "end": 0.0,
               "tags": tags, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _total(spans, name: str, **tags) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name
               and all(s["tags"].get(k) == v for k, v in tags.items()))


def _count(spans, key: str, prefix: str = "", **tags) -> int:
    return sum(s["counts"].get(key, 0) for s in spans if s["name"].startswith(prefix)
               and all(s["tags"].get(k) == v for k, v in tags.items()))


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from one traced pass."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)

    def self_time(s):
        return _dur(s) - child_time.get(s["id"], 0.0)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(self_time(s) for s in spans
                                      if s["name"].split(".")[0] == layer), "s")

    out["graphs.materialize_s"] = (_total(spans, "graphs.from_edge_mask"), "s")
    out["graphs.c4_s"] = (_total(spans, "graphs.contains_induced_c4"), "s")

    out["families.extract_s"] = (_total(spans, "families.neighborhood_multiset"), "s")
    out["families.calls"] = (_count(spans, "calls", "families.neighborhood_multiset"), "count")
    out["families.basis_s"] = (_total(spans, "families.union_basis"), "s")

    out["convexity.enumerate_s"] = (_total(spans, "convexity.digital_convexity"), "s")
    out["convexity.members"] = (_count(spans, "members", "convexity.digital_convexity"), "count")
    out["convexity.axioms_s"] = (_total(spans, "convexity.check_convexity_axioms"), "s")

    # Only the call that answers a query carries nodes and solutions; stage
    # re-calls of the realizer do not, so nothing is counted twice.
    nodes = _count(spans, "nodes", "reconstruct.")
    solutions = _count(spans, "solutions", "reconstruct.")
    out["reconstruct.realize_s"] = (_total(spans, "reconstruct.from_multiset"), "s")
    out["reconstruct.nodes"] = (nodes, "count")
    out["reconstruct.solutions"] = (solutions, "count")
    out["reconstruct.yield"] = (solutions / nodes if nodes else 0.0, "solutions/node")
    out["reconstruct.refute_nodes"] = (_count(spans, "nodes", "reconstruct.",
                                              refute=True), "count")
    out["reconstruct.support_stages_s"] = (_total(spans, "reconstruct.equivalence_classes")
                                           + _total(spans, "reconstruct.quotient_family"), "s")
    out["reconstruct.dc_self_s"] = (sum(self_time(s) for s in spans
                                        if s["name"] == "reconstruct.from_digital_convexity"),
                                    "s")

    for kind in ("closed-multiset", "closed-support", "open-multiset"):
        key = "miner.find_" + kind.replace("-", "_") + "_s"
        out[key] = (_total(spans, "miner.find_collisions", kind=kind), "s")
    out["miner.groups"] = (_count(spans, "groups", "miner.find_collisions"), "count")
    out["miner.group_members"] = (_count(spans, "members", "miner.find_collisions"), "count")
    out["miner.pair_checks_s"] = (_total(spans, "miner.check_collision_pair"), "s")
    out["miner.witness_s"] = (_total(spans, "miner.witness_permutation"), "s")
    out["miner.pairs"] = (_count(spans, "pairs", "miner.check_collision_pair"), "count")
    out["miner.orbits"] = (_count(spans, "orbits", "miner.check_collision_pair"), "count")

    out["formats.parse_s"] = (_total(spans, "formats.parse"), "s")
    out["formats.emit_s"] = (_total(spans, "formats.emit"), "s")
    out["formats.bytes_out"] = (_count(spans, "bytes", "formats.emit"), "count")

    cli_spans = [s for s in spans if s["name"] == "cli.main"]
    out["cli.main_s"] = (sum(_dur(s) for s in cli_spans), "s")
    out["cli.overhead_s"] = (sum(self_time(s) for s in cli_spans), "s")
    for code in range(4):
        out[f"cli.exit_{code}"] = (sum(1 for s in cli_spans
                                       if s["counts"].get("exit") == code), "count")

    queries = [s for s in spans if s["name"] == "bench.query"]
    main = sum(_dur(s) for s in spans if s["tags"].get("main"))
    traced = sum(_dur(s) for s in queries)
    n = max(1, len(queries))
    out["trace.queries"] = (len(queries), "count")
    out["trace.spans"] = (len(spans), "count")
    out["trace.query_ms"] = (1e3 * traced / n, "ms")
    out["trace.overhead_ms"] = (1e3 * (traced - main) / n, "ms")
    return out
