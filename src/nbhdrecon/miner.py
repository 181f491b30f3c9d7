"""Exhaustive sweeps over labeled graphs: collision mining and auditing.

A collision is a pair of distinct labeled graphs on the same vertex set that
share a neighborhood invariant (closed multiset, closed support, or open
multiset).  The miner enumerates every labeled graph at a given size, groups
them by a canonical fingerprint of the chosen invariant, and exposes the
groups plus per-pair structural checks: matching permutations, orbit
cliques, edge-count equality, edge transit, and induced-C4 containment.

A sweep stays in arrays from the key to the output.  A graph is its edge
mask (bit k is the k-th pair (u, v), u < v, in lexicographic order); sweeps
stop at n = 8, so an edge mask fits a uint32 and a neighborhood one byte.

* ``_neighborhood_rows`` turns edge masks into an (n, N) uint8 array whose
  row v holds every graph's closed or open neighborhood of v.
* ``_canonical_rows`` sorts those rows in place with a compare-exchange
  network (minimum-comparator for 6 to 8 rows) into each graph's
  fingerprint masks; ``_keys_from_rows`` packs them into one uint64 key per
  graph, the smallest mask most significant, so key order is fingerprint
  order.
* The sweep keeps no key per graph.  ``_chunk_hashes`` ORs one table of rows
  per sweep with each chunk's high bits, taken from plain ints, and
  ``_row_hashes`` hashes the sorted rows straight to one uint32 per graph:
  each row times its own odd multiplier, summed mod 2^32, then a finalizer.
  Only the hashes are stored.
* ``_collision_candidates`` sorts a copy of the hashes; the graphs whose
  hash's top bits match a repeated hash's are the candidates, a superset of
  the graphs whose key repeats.
* ``collision_arrays`` computes the keys of the candidates alone from
  their edge masks, sorts them and keeps each run of two or more equal keys:
  the members' edge masks in group order, offsets, and each group's
  fingerprint as one uint8 row of ``fields``.
* ``pair_checks`` makes every structural check on many closed-multiset
  pairs at once; ``_induced_c4`` is its induced-C4 flag.
  ``verify_collisions`` and ``first_pair_checks`` (for ``mine``) run it on
  slabs of ``_PAIR_SLAB`` pairs.

The per-graph functions are the definition oracles of these kernels, kept
in plain Python for auditability and checked against them in the test
suite: ``contains_induced_c4`` for the C4 flag, and
``check_collision_pair`` with ``witness_permutation`` for the pair checks.
The keys are checked against a per-graph fingerprint kept with the tests.
``find_collisions`` hands groups out as ``Graph`` objects with fingerprint
tuples (``CollisionArrays.fingerprints``).  The ``mine`` and ``verify``
commands build neither, per member or per group: ``mine`` writes its JSON
lines, graph6 and pair checks included, from these arrays with
``formats.collision_json_blocks``.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import combinations

import numpy as np

from .errors import InputError, ResourceLimitError, VerificationError
from .graphs import _POPCOUNT8, Graph, VertexSet, _edge_pairs, contains_induced_c4

#: Sweeps are free up to here; larger sizes must be requested explicitly.
DEFAULT_ENUMERATION_CEILING = 6

#: Hard ceiling: 2^(n choose 2) graphs; n=8 is already 268M graphs, about
#: half a minute and 2.4 GiB a sweep (README, "Scale and limits").
MAX_ENUMERATION_SIZE = 8

KINDS = ("closed-multiset", "closed-support", "open-multiset")

_CHUNK_BITS = 16  # 2^16 edge masks a chunk: its rows and hashes stay in cache

#: ``verify_collisions`` checks pairs in slabs of this many, so its pair
#: arrays stay a few MiB at any n.
_PAIR_SLAB = 1 << 14

#: Minimum-comparator sorting networks for 6, 7 and 8 rows, of 12, 16 and
#: 19 compare-exchanges (Knuth, TAOCP vol. 3, section 5.3.4); the insertion
#: network needs 15, 21 and 28.
_NETWORKS = {
    6: [(0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3),
        (4, 5), (1, 2), (3, 4)],
    7: [(0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5), (3, 4),
        (1, 2), (4, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6)],
    8: [(0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 1),
        (2, 3), (4, 5), (6, 7), (2, 4), (3, 5), (1, 4), (3, 6), (1, 2), (3, 4),
        (5, 6)],
}

#: Multipliers of the row hash, one odd constant per sorted neighborhood row,
#: and of its finalizer: the primes of xxHash32 and the multipliers of
#: MurmurHash3 (its 0xE6546B64 made odd).
_ROW_MIX = tuple(map(np.uint32, (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F,
                                 0x165667B1, 0xCC9E2D51, 0x1B873593, 0xE6546B65)))
_HASH_FINAL = np.uint32(0x85EBCA6B)


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


@dataclass(frozen=True, slots=True)
class CollisionGroup:
    """Two or more distinct labeled graphs sharing one invariant value."""

    kind: str
    n: int
    fingerprint: tuple[int, ...]
    graphs: tuple[Graph, ...]


def _neighborhood_rows(n: int, edge_masks: np.ndarray, closed: bool) -> np.ndarray:
    """(n, N) uint8 array: row v holds N[v] (or N(v) if not ``closed``) of
    every graph in the uint32 array ``edge_masks``."""
    rows = np.zeros((n, len(edge_masks)), dtype=np.uint8)
    for k, (u, v) in enumerate(_edge_pairs(n)):
        bit = (edge_masks >> k).astype(np.uint8) & 1
        rows[u] |= bit << v
        rows[v] |= bit << u
    if closed:
        for v in range(n):
            rows[v] |= 1 << v
    return rows


def _sort_rows(rows: np.ndarray) -> None:
    """Sort every column of ``rows`` in place with a fixed network of
    compare-exchanges between whole rows: a minimum-comparator network for
    6, 7 or 8 rows, the insertion network for fewer."""
    k = len(rows)
    network = _NETWORKS.get(k) or [(j - 1, j) for i in range(1, k) for j in range(i, 0, -1)]
    for a, b in network:
        low = np.minimum(rows[a], rows[b])
        np.maximum(rows[a], rows[b], out=rows[b])
        rows[a] = low


def _canonical_rows(n: int, kind: str, rows: np.ndarray) -> np.ndarray:
    """Sort ``rows``, a graph's closed (or, for ``open-multiset``, open)
    neighborhoods per column, in place into its fingerprint's masks, and
    return it: ascending, and for the support with each repeated mask zeroed
    and moved to the back (closed masks are never zero)."""
    _sort_rows(rows)
    if kind == "closed-support":
        for i in range(n - 1, 0, -1):
            rows[i] *= rows[i] != rows[i - 1]
        rows -= 1  # a zeroed repeat wraps to 255 and sorts last
        _sort_rows(rows)
        rows += 1
    return rows


def _keys_from_rows(n: int, kind: str, rows: np.ndarray) -> np.ndarray:
    """One packed uint64 invariant key per column of ``rows``; sorts ``rows``
    in place by :func:`_canonical_rows`.

    Mask i of the fingerprint goes to bits n*(n-1-i) and up, the smallest
    mask most significant, so n masks of n bits fill at most 64 bits.  A
    support that is a proper prefix of another has the smaller key, as its
    padding zeros sit at the back.  Key order is therefore the order of the
    fingerprints as sorted mask tuples.
    """
    _canonical_rows(n, kind, rows)
    keys = np.zeros(rows.shape[1], dtype=np.uint64)
    for i in range(n):
        keys |= rows[i].astype(np.uint64) << (n * (n - 1 - i))
    return keys


def _row_hashes(rows: np.ndarray, out: np.ndarray) -> None:
    """Write into the uint32 array ``out`` one hash per column of ``rows``,
    the output of :func:`_canonical_rows`: row i times ``_ROW_MIX[i]``,
    summed mod 2^32, then one xorshift and a multiply by ``_HASH_FINAL``,
    which bring every bit into the top bits that the candidates read (a
    multiply first would only scale the row multipliers).

    Equal fingerprints have equal columns, so equal hashes.  The products
    are taken in uint32 and every scalar is an ``np.uint32``, so no
    promotion rule widens the result.  The hashes go straight into ``out``,
    a slice of the sweep's array: a chunk's one temporary as wide as its
    hashes is a single term.
    """
    term = np.empty_like(out)
    np.multiply(rows[0], _ROW_MIX[0], out=out, dtype=np.uint32)
    for row, mix in zip(rows[1:], _ROW_MIX[1:]):
        np.multiply(row, mix, out=term, dtype=np.uint32)
        out += term
    np.right_shift(out, np.uint32(16), out=term)
    out ^= term
    out *= _HASH_FINAL


def _chunk_hashes(n: int, kind: str, table: np.ndarray, chunk: int, out: np.ndarray) -> None:
    """Row hashes of the edge masks chunk*W .. chunk*W + W-1 into ``out``,
    ``table`` being the (n, W) rows of 0 .. W-1: W is a power of two, so the
    chunk's masks share their high bits, which add the same neighbors to
    every column."""
    first = chunk * table.shape[1]
    high = [0] * n
    for k, (u, v) in enumerate(_edge_pairs(n)):
        if first >> k & 1:
            high[u] |= 1 << v
            high[v] |= 1 << u
    _row_hashes(_canonical_rows(n, kind, table | np.array(high, dtype=np.uint8)[:, None]), out)


def _collision_candidates(hashes: np.ndarray, bits: int) -> np.ndarray:
    """Ascending edge masks (uint32) of the graphs whose hash, one uint32 per
    graph in edge-mask order, repeats, and of the few others whose hash's
    top ``bits`` bits equal a repeated hash's.

    Equal keys have equal hashes, so the candidates hold every repeated key.
    The slots are read one chunk of graphs at a time, so no temporary as
    wide as ``hashes`` is made besides its sorted copy.
    """
    ordered = np.sort(hashes)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    del ordered
    shift = np.uint32(32 - bits)
    marked = np.zeros(1 << bits, dtype=bool)
    marked[repeated >> shift] = True
    del repeated
    width = 1 << _CHUNK_BITS
    parts = []
    for start in range(0, len(hashes), width):
        # an intp index takes numpy's fast gather; a uint32 one is cast first
        slots = (hashes[start:start + width] >> shift).astype(np.intp)
        parts.append((start + np.flatnonzero(marked.take(slots))).astype(np.uint32))
    return np.concatenate(parts)


@dataclass(frozen=True, slots=True, eq=False)
class CollisionArrays:
    """The collision groups of one sweep, as arrays.

    Group i has members ``edge_masks[offsets[i]:offsets[i + 1]]`` (uint32,
    in edge-mask order) and its fingerprint's masks in row ``fields[i]``
    (uint8, ascending; a closed support's row ends in zeros, its padding).
    Groups ascend by fingerprint.
    """

    kind: str
    n: int
    fields: np.ndarray
    edge_masks: np.ndarray
    offsets: np.ndarray

    @property
    def _zero_is_padding(self) -> bool:
        """Whether a zero field is padding rather than an empty mask: true
        for a closed kind, as no closed neighborhood is empty; open kinds
        have no padding."""
        return self.kind != "open-multiset"

    @property
    def fingerprints(self) -> tuple[tuple[int, ...], ...]:
        """Each group's fingerprint as a mask tuple, padding dropped: one
        tuple per group, which the sweep commands never build."""
        rows = self.fields.tolist()
        if self._zero_is_padding:
            return tuple(tuple(filter(None, row)) for row in rows)
        return tuple(map(tuple, rows))

    def first_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge masks of each group's first two members."""
        first = self.offsets[:-1]
        return self.edge_masks[first], self.edge_masks[first + 1]

    def all_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge masks of every pair of members within a group: groups in
        order, and within a group (i, j), i < j, lexicographically."""
        sizes = np.diff(self.offsets)
        pair_offsets = np.concatenate(([0], np.cumsum(sizes * (sizes - 1) // 2)))
        first = np.empty(pair_offsets[-1], dtype=np.int64)
        second = np.empty_like(first)
        for size in np.unique(sizes):
            groups = np.flatnonzero(sizes == size)
            i, j = np.triu_indices(size, 1)
            at = pair_offsets[groups][:, None] + np.arange(len(i))
            first[at] = self.offsets[groups][:, None] + i
            second[at] = self.offsets[groups][:, None] + j
        return self.edge_masks[first], self.edge_masks[second]


def collision_arrays(n: int, kind: str = "closed-multiset",
                     allow_large: bool = False, jobs: int = 1) -> CollisionArrays:
    """All collision groups of the chosen invariant at size ``n``, as arrays.

    The key pass keeps one uint32 hash per graph, and only the candidates
    get their uint64 keys; at n = 8 the hashes and their sorted copy
    (1 GiB each) are most of the peak.  ``jobs`` spreads the key pass, in
    chunks of 2^16 edge masks, over worker threads, never more than there
    are chunks or CPUs.
    """
    total = _check_size(n, allow_large)
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    if jobs < 1:
        raise InputError(f"jobs must be positive, got {jobs}")
    bits = min(_CHUNK_BITS, n * (n - 1) // 2)
    closed = kind != "open-multiset"
    table = _neighborhood_rows(n, np.arange(1 << bits, dtype=np.uint32), closed)
    hashes = np.empty(total, dtype=np.uint32)

    def fill(chunk: int) -> None:
        _chunk_hashes(n, kind, table, chunk, hashes[chunk << bits:(chunk + 1) << bits])

    chunks = range(total >> bits)
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, chunks))
    else:
        list(map(fill, chunks))

    # Only the candidates get keys.  A graph is in a group exactly
    # when its key equals a neighbour's in key order, and keys ascend in
    # fingerprint order; one sort of (group, edge mask) then puts the members
    # of each group in edge-mask order.
    candidates = _collision_candidates(hashes, n * (n - 1) // 2)
    del hashes  # one uint32 per graph: 1 GiB at n = 8
    keys = _keys_from_rows(n, kind, _neighborhood_rows(n, candidates, closed))
    order = np.argsort(keys)
    keys = keys[order]
    same = keys[1:] == keys[:-1]
    grouped = np.zeros(len(keys), dtype=bool)
    grouped[1:] = same
    grouped[:-1] |= same
    members = candidates[order[grouped]]
    keys = keys[grouped]
    del candidates, order, same, grouped  # at n = 8 each holds millions of entries
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(opens)
    packed = (np.cumsum(opens, dtype=np.uint64) << np.uint64(32)) | members
    packed.sort()
    edge_masks = packed.astype(np.uint32)  # the low half: the edge mask

    shifts = n * np.arange(n - 1, -1, -1, dtype=np.uint64)
    fields = (keys[starts, None] >> shifts).astype(np.uint8) & np.uint8((1 << n) - 1)
    return CollisionArrays(kind, n, fields, edge_masks, np.append(starts, len(keys)))


def find_collisions(n: int, kind: str = "closed-multiset",
                    allow_large: bool = False, jobs: int = 1) -> list[CollisionGroup]:
    """All collision groups of the chosen invariant at size ``n``.

    Groups are confirmed by exact fingerprint equality and returned in
    ascending fingerprint order; members are in edge-mask order.  ``jobs``
    spreads the key computation over worker threads, as in
    :func:`collision_arrays`.
    """
    arrays = collision_arrays(n, kind, allow_large, jobs)
    adjacency = _neighborhood_rows(n, arrays.edge_masks, closed=False).T.tolist()
    graphs = [Graph._from_adj_unchecked(n, tuple(adj)) for adj in adjacency]
    bounds = arrays.offsets.tolist()
    return [CollisionGroup(kind, n, fp, tuple(graphs[lo:hi]))
            for fp, lo, hi in zip(arrays.fingerprints, bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Matching permutations between graphs with equal closed multisets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PermutationWitness:
    """A permutation sigma with N_G[v] = N_H[sigma(v)]; ``orbits`` holds the
    vertex sets of its cycles, in order of their least vertex."""

    sigma: tuple[int, ...]
    orbits: tuple[VertexSet, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise InputError("sigma is not a bijection on 0..n-1")
        unseen = set(range(n))
        orbits = []
        while unseen:
            v = min(unseen)
            cyc = 0
            w = v
            while w in unseen:
                unseen.remove(w)
                cyc |= 1 << w
                w = self.sigma[w]
            orbits.append(VertexSet(cyc, n))
        object.__setattr__(self, "orbits", tuple(orbits))

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
    return PermutationWitness(tuple(sigma))


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


@cache
def _c4_patterns(n: int) -> tuple[tuple[int, int], ...]:
    """(pairs, cycle) edge masks, one per 4-cycle on four of the n vertices:
    ``pairs`` holds all six pairs of the four, ``cycle`` its four edges.
    Built once per size: ``pair_checks`` reads them on every slab."""
    index = {pair: k for k, pair in enumerate(_edge_pairs(n))}

    def edges(*pairs):
        return sum(1 << index[min(p), max(p)] for p in pairs)

    out = []
    for a, b, c, d in combinations(range(n), 4):
        for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            cycle = edges((w, x), (x, y), (y, z), (z, w))
            out.append((cycle | edges((w, y), (x, z)), cycle))
    return tuple(out)


def _edge_counts(edge_masks: np.ndarray) -> np.ndarray:
    """Per graph: the number of edges, a popcount of the uint32 edge mask
    taken byte by byte."""
    octets = np.ascontiguousarray(edge_masks, dtype=np.uint32).view(np.uint8)
    return _POPCOUNT8.take(octets).reshape(-1, 4).sum(axis=1)


def _induced_c4(n: int, edge_masks: np.ndarray) -> np.ndarray:
    """Per graph: do four vertices induce exactly a 4-cycle?"""
    found = np.zeros(len(edge_masks), dtype=bool)
    for pairs, cycle in _c4_patterns(n):
        found |= (edge_masks & pairs) == cycle
    return found


@dataclass(frozen=True, slots=True, eq=False)
class PairArrays:
    """:class:`PairChecks` of many pairs at once; entry i is pair i.

    ``sigma[i]`` is the least witness and ``orbit_counts[i]`` its number of
    orbits where ``has_witness[i]``; elsewhere they carry no meaning, and
    the orbit and transit flags read true, as in :func:`check_collision_pair`.
    ``sigma`` is uint8, so the joined checks that ``mine`` holds for every
    group take n bytes a group for the witnesses.
    """

    sigma: np.ndarray
    has_witness: np.ndarray
    orbit_counts: np.ndarray
    equal_edge_count: np.ndarray
    orbits_are_cliques: np.ndarray
    edge_transit: np.ndarray
    both_contain_c4: np.ndarray

    def all_ok(self) -> np.ndarray:
        return (self.has_witness & self.equal_edge_count & self.orbits_are_cliques
                & self.edge_transit & self.both_contain_c4)

    def witness_index(self) -> tuple[list[str | None], np.ndarray]:
        """The distinct :meth:`PermutationWitness.cycle_notation` of the
        witnesses, then None, and per pair the index of its own entry in that
        list: a pair without a witness points at the None."""
        _, first, which = np.unique(_witness_codes(self.sigma), return_index=True,
                                    return_inverse=True)
        notations = [PermutationWitness(tuple(sigma)).cycle_notation()
                     for sigma in self.sigma[first].tolist()]
        return notations + [None], np.where(self.has_witness, which.ravel(), len(notations))


def _witness_codes(sigma: np.ndarray) -> np.ndarray:
    """Each row of ``sigma`` (a witness on n <= 8 vertices) read as 3-bit
    digits: one integer per witness, so a 1-D sort finds the distinct ones."""
    return (sigma << 3 * np.arange(sigma.shape[1])).sum(axis=1)


def pair_checks(n: int, g: np.ndarray, h: np.ndarray) -> PairArrays:
    """:func:`check_collision_pair` on the pairs of uint32 edge masks (g[i], h[i]).

    Tagging each closed neighborhood with its vertex id in the low three bits
    and sorting by that puts each graph's vertices in (N[v], v) order; the
    i-th of g then maps to the i-th of h, which is the bucket match of
    :func:`witness_permutation`.
    """
    ng = _neighborhood_rows(n, g, closed=True)
    nh = _neighborhood_rows(n, h, closed=True)
    ids = np.arange(n)[:, None]
    tagged_g = ng.astype(np.uint16) << 3 | ids
    tagged_h = nh.astype(np.uint16) << 3 | ids
    _sort_rows(tagged_g)
    _sort_rows(tagged_h)
    has_witness = ((tagged_g >> 3) == (tagged_h >> 3)).all(axis=0)
    sigma = np.empty(ng.shape, dtype=np.intp)
    np.put_along_axis(sigma, (tagged_g & 7).astype(np.intp),
                      (tagged_h & 7).astype(np.intp), axis=0)

    # orbit[a] collects a, sigma(a), ..., sigma^(n-1)(a): the whole orbit of
    # a.  At most n! witnesses are distinct, so the walk runs on those alone.
    _, first, inverse = np.unique(_witness_codes(sigma.T), return_index=True,
                                  return_inverse=True)
    distinct = sigma[:, first]
    vertex_bit = (1 << np.arange(n)).astype(np.uint8)
    image = np.broadcast_to(ids, distinct.shape)
    orbit = vertex_bit[image]
    for _ in range(n - 1):
        image = np.take_along_axis(distinct, image, axis=0)
        orbit |= vertex_bit[image]
    inverse = inverse.ravel()
    orbit_counts = ((orbit & (vertex_bit[:, None] - 1)) == 0).sum(axis=0)[inverse]
    orbit = orbit[:, inverse]
    del inverse
    cliques = (((ng & orbit) == orbit) & ((nh & orbit) == orbit)).all(axis=0)
    transit = (ng == np.take_along_axis(nh, sigma, axis=0)).all(axis=0)
    return PairArrays(
        sigma=sigma.T.astype(np.uint8),
        has_witness=has_witness,
        orbit_counts=np.where(has_witness, orbit_counts, 0),
        equal_edge_count=_edge_counts(g) == _edge_counts(h),
        orbits_are_cliques=cliques | ~has_witness,
        edge_transit=transit | ~has_witness,
        both_contain_c4=_induced_c4(n, g) & _induced_c4(n, h),
    )


def _pair_slabs(n: int, g: np.ndarray,
                h: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, PairArrays]]:
    """:func:`pair_checks` on slabs of ``_PAIR_SLAB`` of the pairs (g[i], h[i]),
    in order: each slab's edge masks and checks.  No pairs make one empty
    slab, so a join of the slabs keeps its shapes."""
    for start in range(0, max(len(g), 1), _PAIR_SLAB):
        g_slab, h_slab = g[start:start + _PAIR_SLAB], h[start:start + _PAIR_SLAB]
        yield g_slab, h_slab, pair_checks(n, g_slab, h_slab)


def first_pair_checks(groups: CollisionArrays) -> PairArrays:
    """:func:`pair_checks` on each group's first two members, run in slabs
    and joined, so that only the results are held for every group."""
    slabs = [checks for _, _, checks in _pair_slabs(groups.n, *groups.first_pairs())]
    return PairArrays(**{f.name: np.concatenate([getattr(checks, f.name) for checks in slabs])
                         for f in fields(PairArrays)})


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
    :class:`~nbhdrecon.errors.VerificationError` naming the first failing
    pair in group order.
    """
    total = _check_size(n, allow_large)
    groups = collision_arrays(n, "closed-multiset", allow_large=allow_large)
    g, h = groups.all_pairs()
    orbits = 0
    for g_slab, h_slab, checks in _pair_slabs(n, g, h):
        failing = np.flatnonzero(~checks.all_ok())
        if len(failing):
            i = failing[0]
            pair = (f"{Graph.from_edge_mask(n, int(g_slab[i]))!r} / "
                    f"{Graph.from_edge_mask(n, int(h_slab[i]))!r}")
            if not checks.has_witness[i]:
                raise VerificationError(f"no matching permutation for pair {pair}")
            if not checks.equal_edge_count[i]:
                raise VerificationError(f"edge counts differ: {pair}")
            if not checks.orbits_are_cliques[i]:
                raise VerificationError(f"orbit not a clique: {pair}")
            if not checks.edge_transit[i]:
                raise VerificationError(f"edge transit fails: {pair}")
            raise VerificationError(f"collision pair without induced C4: {pair}")
        orbits += int(checks.orbit_counts.sum())
    return CollisionAuditReport(n, total, len(groups.offsets) - 1, len(g), orbits)
