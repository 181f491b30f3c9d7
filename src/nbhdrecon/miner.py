"""Exhaustive sweeps over labeled graphs: collision mining and auditing.

A collision is a pair of distinct labeled graphs on the same vertex set that
share a neighborhood invariant (closed multiset, closed support, or open
multiset).  The miner enumerates every labeled graph at a given size, groups
them by a canonical fingerprint of the chosen invariant, and exposes the
groups plus per-pair structural checks: matching permutations, orbit
cliques, edge-count equality, edge transit, and induced-C4 containment.

Sweeps are vectorized over the edge-mask range and can be partitioned across
worker processes; per-graph logic stays in plain Python for auditability and
is cross-checked against the vectorized path in the test suite.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError, VerificationError
from .graphs import Graph, VertexSet, contains_induced_c4

#: Sweeps are free up to here; larger sizes must be requested explicitly.
DEFAULT_ENUMERATION_CEILING = 6

#: Hard ceiling: 2^(n choose 2) graphs; n=8 is already 268M graphs and is
#: documented as an hours-and-gigabytes run.
MAX_ENUMERATION_SIZE = 8

KINDS = ("closed-multiset", "closed-support", "open-multiset")

_CHUNK = 1 << 20


def _check_size(n: int, allow_large: bool) -> int:
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    if n > MAX_ENUMERATION_SIZE:
        raise ResourceLimitError(
            f"exhaustive enumeration is capped at {MAX_ENUMERATION_SIZE} vertices"
        )
    if n > DEFAULT_ENUMERATION_CEILING and not allow_large:
        raise ResourceLimitError(
            f"enumeration at n={n} sweeps 2^{n * (n - 1) // 2} graphs; "
            f"pass allow_large=True (CLI: --deep) to run it"
        )
    return 1 << (n * (n - 1) // 2)


def enumerate_labeled_graphs(n: int, allow_large: bool = False) -> Iterator[Graph]:
    """Every labeled simple graph on {0..n-1}, exactly once, in edge-mask order.

    Edge bit k corresponds to the k-th pair (u, v), u < v, in lexicographic
    order.
    """
    total = _check_size(n, allow_large)
    for em in range(total):
        yield Graph.from_edge_mask(n, em)


def invariant_fingerprint(g: Graph, kind: str) -> tuple[int, ...]:
    """Canonical serialization of the chosen invariant as a mask tuple."""
    if kind == "closed-multiset":
        return tuple(sorted(g.closed_mask(v) for v in range(g.n)))
    if kind == "closed-support":
        return tuple(sorted({g.closed_mask(v) for v in range(g.n)}))
    if kind == "open-multiset":
        return tuple(sorted(g.adjacency_mask(v) for v in range(g.n)))
    raise InputError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True, slots=True)
class CollisionGroup:
    """Two or more distinct labeled graphs sharing one invariant value."""

    kind: str
    n: int
    fingerprint: tuple[int, ...]
    graphs: tuple[Graph, ...]


def _fingerprint_keys_chunk(n: int, kind: str, lo: int, hi: int) -> np.ndarray:
    """Packed invariant keys for edge masks in [lo, hi); one uint64 per graph.

    Neighborhood masks fit n bits and there are n of them, so the sorted
    mask vector packs into n*n <= 64 bits, zero-padded in the support case
    (closed masks are never zero).
    """
    ems = np.arange(lo, hi, dtype=np.uint64)
    cols = np.zeros((hi - lo, n), dtype=np.uint64)
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            bit = (ems >> np.uint64(k)) & np.uint64(1)
            cols[:, u] |= bit << np.uint64(v)
            cols[:, v] |= bit << np.uint64(u)
            k += 1
    if kind in ("closed-multiset", "closed-support"):
        for v in range(n):
            cols[:, v] |= np.uint64(1 << v)
    elif kind != "open-multiset":
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    cols.sort(axis=1)
    if kind == "closed-support":
        dup = np.zeros(cols.shape, dtype=bool)
        dup[:, 1:] = cols[:, 1:] == cols[:, :-1]
        cols[dup] = 0
        cols.sort(axis=1)
    keys = np.zeros(hi - lo, dtype=np.uint64)
    for i in range(n):
        keys |= cols[:, i] << np.uint64(n * i)
    return keys


def find_collisions(n: int, kind: str = "closed-multiset",
                    allow_large: bool = False, jobs: int = 1) -> list[CollisionGroup]:
    """All collision groups of the chosen invariant at size ``n``.

    Groups are confirmed by exact fingerprint equality and returned in
    ascending fingerprint order; members are in edge-mask order.  ``jobs``
    partitions the edge-mask range across worker processes, never more than
    there are chunks or CPUs.
    """
    total = _check_size(n, allow_large)
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    if jobs < 1:
        raise InputError(f"jobs must be positive, got {jobs}")
    chunks = [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_find_collisions_worker,
                                  [(n, kind, lo, hi) for lo, hi in chunks]))
    else:
        parts = [_fingerprint_keys_chunk(n, kind, lo, hi) for lo, hi in chunks]
    keys = parts[0] if len(parts) == 1 else np.concatenate(parts)

    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_keys)]))

    groups = []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        members = tuple(Graph.from_edge_mask(n, int(em)) for em in order[s:e])
        fp = invariant_fingerprint(members[0], kind)
        groups.append(CollisionGroup(kind, n, fp, members))
    groups.sort(key=lambda grp: grp.fingerprint)
    return groups


def _find_collisions_worker(args: tuple) -> np.ndarray:
    return _fingerprint_keys_chunk(*args)


# ---------------------------------------------------------------------------
# Matching permutations between graphs with equal closed multisets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PermutationWitness:
    """A permutation sigma with N_G[v] = N_H[sigma(v)], plus its orbits."""

    sigma: tuple[int, ...]
    orbits: tuple[VertexSet, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise InputError("sigma is not a bijection on 0..n-1")
        seen = 0
        for orbit in self.orbits:
            if orbit.universe != n or not orbit or orbit.bits & seen:
                raise InputError("orbits must be nonempty and disjoint")
            seen |= orbit.bits
            for v in orbit:
                if self.sigma[v] not in orbit:
                    raise InputError(f"orbit {orbit!r} is not closed under sigma")
        if seen != (1 << n) - 1:
            raise InputError("orbits must cover the vertex set")

    @classmethod
    def from_sigma(cls, sigma: tuple[int, ...]) -> "PermutationWitness":
        n = len(sigma)
        unseen = set(range(n))
        orbits = []
        while unseen:
            v = min(unseen)
            cyc = 0
            w = v
            while w in unseen:
                unseen.remove(w)
                cyc |= 1 << w
                w = sigma[w]
            orbits.append(VertexSet(cyc, n))
        return cls(tuple(sigma), tuple(orbits))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its minimum element."""
        out = []
        for orbit in self.orbits:
            start = min(orbit.members())
            cyc = [start]
            w = self.sigma[start]
            while w != start:
                cyc.append(w)
                w = self.sigma[w]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_notation(self) -> str:
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "()"


def witness_permutation(g: Graph, h: Graph) -> PermutationWitness | None:
    """Find sigma with N_g[v] = N_h[sigma(v)] for all v, or None.

    A bucket match: the vertices of ``h`` are bucketed by closed
    neighborhood, and each v of ``g`` in turn takes the smallest unused u
    from the bucket of N_g[v].  Any unused u in that bucket extends to a
    full bijection, so this greedy choice gives the lexicographically least
    sigma.  A bucket runs dry exactly when the closed multisets differ, and
    the result is then None.
    """
    if g.n != h.n:
        raise InputError("graphs must share a vertex universe")
    buckets: dict[int, list[int]] = {}
    for u in reversed(range(h.n)):
        buckets.setdefault(h.closed_mask(u), []).append(u)
    sigma = []
    for v in range(g.n):
        bucket = buckets.get(g.closed_mask(v))
        if not bucket:
            return None
        sigma.append(bucket.pop())
    return PermutationWitness.from_sigma(tuple(sigma))


# ---------------------------------------------------------------------------
# Structural checks over every collision pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PairChecks:
    """Per-pair outcomes of the structural checks on a collision pair."""

    witness: PermutationWitness | None
    equal_edge_count: bool
    orbits_are_cliques: bool
    edge_transit: bool
    both_contain_c4: bool

    @property
    def all_ok(self) -> bool:
        return (self.witness is not None and self.equal_edge_count
                and self.orbits_are_cliques and self.edge_transit
                and self.both_contain_c4)


def check_collision_pair(g: Graph, h: Graph) -> PairChecks:
    """Run the structural checks on one closed-multiset collision pair."""
    w = witness_permutation(g, h)
    equal_edges = g.edge_count() == h.edge_count()
    orbits_ok = True
    transit_ok = True
    if w is not None:
        for orbit in w.orbits:
            for a in orbit:
                inside = orbit.bits & ~(1 << a)
                if (g.adjacency_mask(a) & inside) != inside:
                    orbits_ok = False
                if (h.adjacency_mask(a) & inside) != inside:
                    orbits_ok = False
        for b in range(g.n):
            # a in N_g[b] implies a in N_h[sigma(b)], and the inverse direction.
            if g.closed_mask(b) & ~h.closed_mask(w.sigma[b]):
                transit_ok = False
            if h.closed_mask(w.sigma[b]) & ~g.closed_mask(b):
                transit_ok = False
    c4 = contains_induced_c4(g) and contains_induced_c4(h)
    return PairChecks(w, equal_edges, orbits_ok, transit_ok, c4)


@dataclass(frozen=True, slots=True)
class CollisionAuditReport:
    """Counts from an exhaustive closed-multiset collision verification."""

    n: int
    graphs_swept: int
    collision_groups: int
    pairs_checked: int
    orbits_checked: int
    violations: tuple[str, ...] = ()


def verify_collisions(n: int, allow_large: bool = False) -> CollisionAuditReport:
    """Check every closed-multiset collision pair at size ``n``.

    For each pair: a matching permutation exists, edge counts agree, every
    orbit induces a clique in both graphs, edge transit holds in both
    directions, and both graphs contain an induced C4.  Any violation raises
    :class:`~nbhdrecon.errors.VerificationError` naming the pair.
    """
    total = _check_size(n, allow_large)
    groups = find_collisions(n, "closed-multiset", allow_large=allow_large)
    pairs = 0
    orbits = 0
    for group in groups:
        members = group.graphs
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                g, h = members[i], members[j]
                checks = check_collision_pair(g, h)
                pairs += 1
                if checks.witness is None:
                    raise VerificationError(
                        f"no matching permutation for pair {g!r} / {h!r}")
                orbits += len(checks.witness.orbits)
                if not checks.equal_edge_count:
                    raise VerificationError(f"edge counts differ: {g!r} / {h!r}")
                if not checks.orbits_are_cliques:
                    raise VerificationError(f"orbit not a clique: {g!r} / {h!r}")
                if not checks.edge_transit:
                    raise VerificationError(f"edge transit fails: {g!r} / {h!r}")
                if not checks.both_contain_c4:
                    raise VerificationError(
                        f"collision pair without induced C4: {g!r} / {h!r}")
    return CollisionAuditReport(n, total, len(groups), pairs, orbits)
