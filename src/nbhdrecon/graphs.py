"""Labeled simple graphs on a small vertex universe, stored as bitmasks.

Vertices are ids 0..n-1 and every vertex subset is an int bitmask, so all
neighborhood algebra reduces to word operations.  ``VertexSet`` wraps a mask
together with its ambient universe size; ``Graph`` keeps one adjacency mask
per vertex.  Both are immutable, hence freely shareable.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import InputError, UnsupportedSizeError

#: Largest supported vertex universe.  Masks then fit one machine word on
#: typical builds, and desk-scale verification never needs more.
MAX_UNIVERSE = 64

#: Brute-force isomorphism is factorial; refuse anything past this.
ISOMORPHISM_CEILING = 10

#: Marker returned by :func:`girth` for acyclic graphs.
INFINITE_GIRTH = math.inf


def mask_members(mask: int) -> tuple[int, ...]:
    """Return the set bit positions of ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def as_int(x, what: str) -> int:
    """``x`` as an int: numpy integers pass, bools and non-integers raise."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return int(x)


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with a bit set for every listed vertex."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Immutable subset of ``{0, ..., universe - 1}``.

    Set algebra (``|``, ``&``, ``-``, ``~``, ``<=``) is closed over a fixed
    universe; mixing universes raises :class:`InputError`.
    """

    bits: int
    universe: int

    def __post_init__(self):
        if type(self.bits) is not int or type(self.universe) is not int:
            object.__setattr__(self, "bits", as_int(self.bits, "bitmask"))
            object.__setattr__(self, "universe", as_int(self.universe, "universe"))
        if not 0 <= self.universe <= MAX_UNIVERSE:
            raise InputError(f"universe must be in 0..{MAX_UNIVERSE}, got {self.universe}")
        if self.bits < 0 or self.bits >> self.universe:
            raise InputError(
                f"bitmask 0x{self.bits:x} has members outside universe {self.universe}"
            )

    @classmethod
    def from_members(cls, members: Iterable[int], universe: int) -> "VertexSet":
        return cls(mask_of(members), universe)

    @classmethod
    def empty(cls, universe: int) -> "VertexSet":
        return cls(0, universe)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
        return cls((1 << universe) - 1, universe)

    def members(self) -> tuple[int, ...]:
        return mask_members(self.bits)

    def _check_same_universe(self, other: "VertexSet") -> None:
        if not isinstance(other, VertexSet):
            raise InputError(f"expected a VertexSet, got {type(other).__name__}")
        if other.universe != self.universe:
            raise InputError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.bits | other.bits, self.universe)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.bits & other.bits, self.universe)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.bits & ~other.bits, self.universe)

    def __invert__(self) -> "VertexSet":
        return VertexSet(((1 << self.universe) - 1) & ~self.bits, self.universe)

    def __le__(self, other: "VertexSet") -> bool:
        self._check_same_universe(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "VertexSet") -> bool:
        return self <= other and self.bits != other.bits

    def __repr__(self) -> str:
        inner = "{" + ",".join(map(str, self.members())) + "}"
        return f"VertexSet({inner}, universe={self.universe})"


class Graph:
    """A labeled simple graph on vertex ids ``0..n-1``.

    Adjacency is one bitmask per vertex, symmetric and irreflexive by
    construction.  ``labels`` attaches an optional external name to each id
    (defaults to the ids themselves); labels are presentation metadata and
    are ignored by equality and hashing, which compare ``(n, adjacency)``.
    """

    __slots__ = ("n", "_adj", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 labels: Sequence[Hashable] | None = None):
        n = as_int(n, "vertex count")
        if not 1 <= n <= MAX_UNIVERSE:
            raise InputError(f"vertex count must be in 1..{MAX_UNIVERSE}, got {n}")
        adj = [0] * n
        for u, v in edges:
            u, v = as_int(u, "edge end"), as_int(v, "edge end")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u} not allowed in a simple graph")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._init_labels(labels)

    def _init_labels(self, labels: Sequence[Hashable] | None) -> None:
        if labels is None:
            labels = tuple(range(self.n))
        else:
            try:
                labels = tuple(labels)
                distinct = len(set(labels))
            except TypeError:
                raise InputError("labels must be an iterable of hashable values") from None
            if len(labels) != self.n:
                raise InputError(f"expected {self.n} labels, got {len(labels)}")
            if distinct != self.n:
                raise InputError("labels must be distinct")
        self.labels = labels

    @classmethod
    def from_adjacency_masks(cls, masks: Sequence[int],
                             labels: Sequence[Hashable] | None = None) -> "Graph":
        """Build a graph from per-vertex neighbor masks, validating symmetry."""
        n = len(masks)
        if not 1 <= n <= MAX_UNIVERSE:
            raise InputError(f"vertex count must be in 1..{MAX_UNIVERSE}, got {n}")
        for v in range(n):
            if masks[v] < 0 or masks[v] >> n:
                raise InputError(f"adjacency of vertex {v} leaves the universe")
            if (masks[v] >> v) & 1:
                raise InputError(f"vertex {v} is adjacent to itself")
        for u in range(n):
            for v in mask_members(masks[u]):
                if not (masks[v] >> u) & 1:
                    raise InputError(f"adjacency not symmetric on pair ({u},{v})")
        return cls._from_adj_unchecked(n, tuple(masks), labels)

    @classmethod
    def _from_adj_unchecked(cls, n: int, adj: tuple[int, ...],
                            labels: Sequence[Hashable] | None = None) -> "Graph":
        # Internal fast path; callers guarantee symmetry and irreflexivity.
        g = cls.__new__(cls)
        g.n = n
        g._adj = adj
        g._init_labels(labels)
        return g

    @classmethod
    def from_edge_mask(cls, n: int, edge_mask: int,
                       labels: Sequence[Hashable] | None = None) -> "Graph":
        """Decode an edge bitmask over pairs (u,v), u<v, in lexicographic order."""
        adj = [0] * n
        k = 0
        for u in range(n):
            for v in range(u + 1, n):
                if (edge_mask >> k) & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                k += 1
        if edge_mask >> k:
            raise InputError(f"edge mask 0x{edge_mask:x} too wide for n={n}")
        return cls._from_adj_unchecked(n, tuple(adj), labels)

    # -- vertex / label bookkeeping -------------------------------------

    def id_of(self, label: Hashable) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown label {label!r}") from None

    def subset(self, vertices: Iterable[int]) -> VertexSet:
        """VertexSet over this graph's universe from vertex ids."""
        return VertexSet.from_members(vertices, self.n)

    def vertex_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InputError(f"vertex id {v} out of range for n={self.n}")

    # -- neighborhoods ---------------------------------------------------

    def adjacency_mask(self, v: int) -> int:
        """Raw neighbor bitmask of ``v`` (open neighborhood)."""
        self._check_vertex(v)
        return self._adj[v]

    def closed_mask(self, v: int) -> int:
        """Raw bitmask of the closed neighborhood of ``v``."""
        self._check_vertex(v)
        return self._adj[v] | (1 << v)

    def open_neighborhood(self, v: int) -> VertexSet:
        """The vertices adjacent to ``v``."""
        return VertexSet(self.adjacency_mask(v), self.n)

    def closed_neighborhood(self, v: int) -> VertexSet:
        """``v`` together with its neighbors."""
        return VertexSet(self.closed_mask(v), self.n)

    def closed_neighborhood_of_set(self, s: VertexSet) -> VertexSet:
        """Union of closed neighborhoods over the members of ``s``.

        The empty set maps to the empty set.
        """
        if s.universe != self.n:
            raise InputError(f"universe mismatch: set on {s.universe}, graph on {self.n}")
        return VertexSet(self.closed_mask_of_set(s.bits), self.n)

    def closed_mask_of_set(self, bits: int) -> int:
        """Raw-mask variant of :meth:`closed_neighborhood_of_set`."""
        out = 0
        for v in mask_members(bits):
            out |= self._adj[v] | (1 << v)
        return out

    # -- edges -----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self._adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adjacency_mask(v).bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            for d in mask_members(rest):
                out.append((u, u + 1 + d))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def edges_by_label(self) -> frozenset[frozenset]:
        """Edge set written with labels; handy for comparing relabeled graphs."""
        return frozenset(frozenset((self.labels[u], self.labels[v]))
                         for u, v in self.edges())

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self._adj))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


# ---------------------------------------------------------------------------
# Substructure tests and transformations
# ---------------------------------------------------------------------------


def contains_induced_c4(g: Graph) -> bool:
    """True iff four distinct vertices induce a chordless 4-cycle.

    An induced 4-cycle is exactly a non-adjacent pair with two common
    neighbors that are themselves non-adjacent.
    """
    n, adj = g.n, g._adj
    for u in range(n):
        au = adj[u]
        for w in range(u + 1, n):
            if (au >> w) & 1:
                continue
            common = au & adj[w]
            if common.bit_count() < 2:
                continue
            rest = common
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                rest ^= low
                if common & ~adj[x] & ~low:
                    return True
    return False


def girth(g: Graph):
    """Length of a shortest cycle, or :data:`INFINITE_GIRTH` for forests.

    BFS from every vertex; a non-tree edge (v, w) seen from root r closes a
    cycle of length dist[v] + dist[w] + 1, and the minimum over all roots is
    exact.
    """
    n, adj = g.n, g._adj
    best = INFINITE_GIRTH
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in mask_members(adj[v]):
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                    elif w != parent[v]:
                        cycle = dist[v] + dist[w] + 1
                        if cycle < best:
                            best = cycle
            frontier = nxt
    return best


def blow_up(g: Graph, v: int, new_labels: Sequence[Hashable]) -> Graph:
    """Replace vertex ``v`` by a clique of ``len(new_labels)`` vertices.

    Each clique vertex inherits the open neighborhood of ``v``.  Surviving
    vertices keep their relative order and labels; the clique vertices are
    appended with ``new_labels``, which must be distinct and must not collide
    with surviving labels.
    """
    g._check_vertex(v)
    k = len(new_labels)
    if k < 1:
        raise InputError("blow_up needs at least one replacement label")
    if len(set(new_labels)) != k:
        raise InputError("replacement labels must be distinct")
    survivors = [u for u in range(g.n) if u != v]
    surviving_labels = [g.labels[u] for u in survivors]
    clash = set(new_labels) & set(surviving_labels)
    if clash:
        raise InputError(f"replacement labels already in use: {sorted(map(repr, clash))}")

    n2 = g.n - 1 + k
    if n2 > MAX_UNIVERSE:
        raise InputError(f"blow_up result would have {n2} > {MAX_UNIVERSE} vertices")
    new_id = {u: i for i, u in enumerate(survivors)}
    clique_ids = list(range(g.n - 1, n2))
    clique_mask = mask_of(clique_ids)

    adj = [0] * n2
    for u in survivors:
        m = 0
        for w in mask_members(g._adj[u] & ~(1 << v)):
            m |= 1 << new_id[w]
        if g.has_edge(u, v):
            m |= clique_mask
        adj[new_id[u]] = m
    anchor_mask = mask_of(new_id[w] for w in mask_members(g._adj[v]))
    for c in clique_ids:
        adj[c] = anchor_mask | (clique_mask & ~(1 << c))
    labels = tuple(surviving_labels) + tuple(new_labels)
    return Graph._from_adj_unchecked(n2, tuple(adj), labels)


def induced_subgraph(g: Graph, s: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``s`` with compacted ids.

    Returns ``(h, id_map)`` where ``id_map[i]`` is the original id of the
    subgraph's vertex ``i`` (ascending original order).  Labels carry over.
    """
    if s.universe != g.n:
        raise InputError(f"universe mismatch: set on {s.universe}, graph on {g.n}")
    if not s:
        raise InputError("induced subgraph on the empty set is not defined")
    keep = s.members()
    pos = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for i, v in enumerate(keep):
        m = 0
        for w in mask_members(g._adj[v] & s.bits):
            m |= 1 << pos[w]
        adj[i] = m
    labels = tuple(g.labels[v] for v in keep)
    return Graph._from_adj_unchecked(len(keep), tuple(adj), labels), keep


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by pruned permutation search.

    Brute force with a degree-sequence prefilter; only intended for small
    witnesses, so graphs past :data:`ISOMORPHISM_CEILING` vertices are
    rejected.
    """
    if max(g.n, h.n) > ISOMORPHISM_CEILING:
        raise UnsupportedSizeError(
            f"isomorphism search is limited to {ISOMORPHISM_CEILING} vertices"
        )
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    n = g.n
    gdeg = [g.degree(v) for v in range(n)]
    hdeg = [h.degree(v) for v in range(n)]
    mapping = [-1] * n
    used = 0

    def extend(v: int) -> bool:
        nonlocal used
        if v == n:
            return True
        gm = g._adj[v]
        for u in range(n):
            if (used >> u) & 1 or gdeg[v] != hdeg[u]:
                continue
            ok = True
            for w in range(v):
                if ((gm >> w) & 1) != ((h._adj[u] >> mapping[w]) & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used |= 1 << u
                if extend(v + 1):
                    return True
                used &= ~(1 << u)
                mapping[v] = -1
        return False

    return extend(0)
