"""Algebra of vertex-set families: supports, union closure, bases.

A :class:`SetFamily` is a deduplicated, canonically ordered collection of
vertex subsets over one universe.  A :class:`NeighborhoodMultiset` keeps
multiplicities and represents the closed (or open) neighborhoods of a graph.

The inclusion and equality tests ``cn_subset`` / ``cn_equal`` decide
``N[A] <= N[B]`` and ``N[A] == N[B]`` from a family alone: the containment
holds iff every family member meeting A also meets B.  Because meeting a
union splits over its parts, evaluating the test on any generating family is
equivalent to evaluating it on the full union closure, so the closure never
has to be materialized.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError
from .graphs import Graph, VertexSet, as_int, mask_members

#: Default cap on union-closure size; past this the instance is out of desk
#: scale and we fail loudly rather than thrash.
UNION_CLOSURE_CEILING = 1 << 20


def _canonical_mask_key(mask: int) -> tuple:
    return (mask.bit_count(), mask_members(mask))


def _coerce_mask(member, universe: int) -> int:
    if isinstance(member, VertexSet):
        if member.universe != universe:
            raise InputError(
                f"member universe {member.universe} != family universe {universe}"
            )
        return member.bits
    mask = as_int(member, "family member")
    if mask < 0 or mask >> universe:
        raise InputError(f"mask 0x{mask:x} outside universe {universe}")
    return mask


class SetFamily:
    """Finite set of vertex subsets over one universe, without multiplicity.

    Members are stored canonically ordered by (size, lexicographic members)
    so iteration and serialization are deterministic.
    """

    __slots__ = ("universe", "masks", "_mask_set")

    def __init__(self, universe: int, members: Iterable = ()):
        universe = as_int(universe, "universe")
        if not 0 <= universe <= 64:
            raise InputError(f"universe must be in 0..64, got {universe}")
        self.universe = universe
        masks = {_coerce_mask(m, universe) for m in members}
        self.masks = tuple(sorted(masks, key=_canonical_mask_key))
        self._mask_set = frozenset(masks)

    @property
    def members(self) -> tuple[VertexSet, ...]:
        return tuple(VertexSet(m, self.universe) for m in self.masks)

    def contains_mask(self, mask: int) -> bool:
        return mask in self._mask_set

    def __contains__(self, s: VertexSet) -> bool:
        if not isinstance(s, VertexSet) or s.universe != self.universe:
            return False
        return s.bits in self._mask_set

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.universe == other.universe and self._mask_set == other._mask_set

    def __hash__(self) -> int:
        return hash((self.universe, self._mask_set))

    def __repr__(self) -> str:
        sets = ", ".join("{" + ",".join(map(str, mask_members(m))) + "}"
                         for m in self.masks)
        return f"SetFamily(universe={self.universe}, sets=[{sets}])"


class NeighborhoodMultiset:
    """Multiset of vertex subsets with positive multiplicities."""

    __slots__ = ("universe", "entries")

    def __init__(self, universe: int, members: Iterable = ()):
        """``members`` is an iterable of sets (repeats encode multiplicity)
        or of ``(set, multiplicity)`` pairs."""
        universe = as_int(universe, "universe")
        if not 0 <= universe <= 64:
            raise InputError(f"universe must be in 0..64, got {universe}")
        counts: dict[int, int] = {}
        for item in members:
            if isinstance(item, tuple) and len(item) == 2:
                member, mult = item[0], as_int(item[1], "multiplicity")
                if mult < 1:
                    raise InputError(f"multiplicity must be >= 1, got {mult}")
            else:
                member, mult = item, 1
            mask = _coerce_mask(member, universe)
            counts[mask] = counts.get(mask, 0) + mult
        self.universe = universe
        self.entries = tuple(sorted(counts.items(),
                                    key=lambda kv: _canonical_mask_key(kv[0])))

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.entries)

    def support(self) -> SetFamily:
        """Distinct members, multiplicities dropped."""
        return SetFamily(self.universe, (m for m, _ in self.entries))

    def expanded_masks(self) -> tuple[int, ...]:
        """Members with repeats, canonically ordered."""
        out = []
        for m, mult in self.entries:
            out.extend([m] * mult)
        return tuple(out)

    def __len__(self) -> int:
        return self.total_multiplicity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighborhoodMultiset):
            return NotImplemented
        return self.universe == other.universe and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.universe, self.entries))

    def __repr__(self) -> str:
        parts = ", ".join(
            "{" + ",".join(map(str, mask_members(m))) + "}" + (f"*{k}" if k > 1 else "")
            for m, k in self.entries)
        return f"NeighborhoodMultiset(universe={self.universe}, [{parts}])"


# ---------------------------------------------------------------------------
# Construction from graphs
# ---------------------------------------------------------------------------


def neighborhood_multiset(g: Graph, closed: bool = True) -> NeighborhoodMultiset:
    """The multiset of closed (default) or open neighborhoods of ``g``."""
    if closed:
        masks = (g.closed_mask(v) for v in range(g.n))
    else:
        masks = (g.adjacency_mask(v) for v in range(g.n))
    return NeighborhoodMultiset(g.n, masks)


def closed_support(g: Graph) -> SetFamily:
    """Shorthand for the set of distinct closed neighborhoods of ``g``."""
    return neighborhood_multiset(g, closed=True).support()


# ---------------------------------------------------------------------------
# Union closure and tests over generating families
# ---------------------------------------------------------------------------


def union_closure(f: SetFamily, max_members: int = UNION_CLOSURE_CEILING) -> SetFamily:
    """All unions of subfamilies of ``f``, including the empty union.

    The empty set is always a member (union over the empty subfamily), which
    keeps the correspondence with digital convexity exact: the full vertex
    set is digitally convex and its complement is empty.  Idempotent.
    """
    closure = {0}
    for m in f.masks:
        closure |= {c | m for c in closure}
        if len(closure) > max_members:
            raise ResourceLimitError(
                f"union closure exceeds the configured ceiling of {max_members} members"
            )
    return SetFamily(f.universe, closure)


def cn_subset(a: VertexSet, b: VertexSet, gen: SetFamily) -> bool:
    """Decide ``N[A] <= N[B]`` from a family generating the neighborhood unions.

    True iff every member of ``gen`` that meets ``a`` also meets ``b``.
    ``gen`` may be the full closure or any family with the same span; the
    test distributes over unions, so generators suffice.
    """
    if a.universe != gen.universe or b.universe != gen.universe:
        raise InputError("vertex sets and family must share a universe")
    abits, bbits = a.bits, b.bits
    for m in gen.masks:
        if abits & m and not bbits & m:
            return False
    return True


def cn_equal(a: VertexSet, b: VertexSet, gen: SetFamily) -> bool:
    """Decide ``N[A] == N[B]``: each member meets ``a`` iff it meets ``b``."""
    if a.universe != gen.universe or b.universe != gen.universe:
        raise InputError("vertex sets and family must share a universe")
    abits, bbits = a.bits, b.bits
    for m in gen.masks:
        if bool(abits & m) != bool(bbits & m):
            return False
    return True


# ---------------------------------------------------------------------------
# Subset-lattice kernel
# ---------------------------------------------------------------------------

#: Largest universe whose 2^n subset lattice is materialized (a 4 MB uint32
#: table at 20); larger universes always take the pairwise sweeps.
LATTICE_CEILING = 20


def or_zeta(table: np.ndarray, n: int) -> None:
    """In-place OR-zeta transform over the subset lattice of ``n`` bits.

    Afterwards ``table[X]`` is the OR of the old ``table[Y]`` over all
    ``Y <= X``.  One pass per bit: every index with the bit set absorbs the
    index without it.
    """
    for i in range(n):
        v = table.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= v[:, 0, :]


def member_lattice(masks: np.ndarray, n: int) -> np.ndarray:
    """``table[X]`` = union of the members of ``masks`` contained in ``X``."""
    table = np.zeros(1 << n, dtype=np.uint32)
    table[masks] = masks
    or_zeta(table, n)
    return table


def lattice_pays(k: int, n: int) -> bool:
    """True when the 2^n lattice beats a sweep over the k^2 member pairs.

    Measured on a 2-core Xeon at 2.0 GHz (Python 3.11, numpy 2.4): both pair
    sweeps cost about 85 ns a pair (the Python one in
    :func:`irreducible_members`, the searchsorted one in the axiom check),
    and a lattice pass about 1.3 ns per n * 2^n cell plus ~170 us of fixed
    numpy set-up.  Hence pairs win while k^2 < n * 2^n / 64 + 2048.  The
    measured crossovers: k ~ 45 at n = 8 and 10, ~ 55 at n = 12, ~ 72 at
    n = 14, ~ 128 at n = 16 (irreducibles: 1.56 ms pairs vs 1.48 ms lattice
    at k = 128); the formula gives 45, 47, 53, 78 and 135.
    """
    return n <= LATTICE_CEILING and k * k > ((n << n) >> 6) + 2048


def irreducible_members(masks: Iterable[int], universe: int) -> list[int]:
    """Distinct nonempty members that are not unions of strictly smaller ones.

    Over the member lattice, the union of the members strictly below m is
    the OR of ``table[m ^ bit]`` over the bits of m, since every proper
    subset of m misses at least one of them.
    """
    distinct = set(masks)
    if not lattice_pays(len(distinct), universe):
        out = []
        for m in distinct:
            below = 0
            for other in distinct:
                if other != m and other & ~m == 0:
                    below |= other
            if below != m:
                out.append(m)
        return out
    arr = np.fromiter(distinct, dtype=np.uint32, count=len(distinct))
    table = member_lattice(arr, universe)
    below = np.zeros_like(arr)
    for b in range(universe):
        bit = np.uint32(1 << b)
        below |= np.where(arr & bit, table[arr ^ bit], 0)
    return arr[below != arr].tolist()


# ---------------------------------------------------------------------------
# Union basis and base vertices
# ---------------------------------------------------------------------------


def union_basis(f) -> SetFamily:
    """The unique minimal subfamily whose unions span ``f``.

    A member is redundant exactly when it equals the union of the members
    properly contained in it, so the basis is the set of union-irreducible
    members; that characterization is independent of iteration order.
    Accepts a :class:`SetFamily` or any iterable of :class:`VertexSet`.
    """
    if isinstance(f, SetFamily):
        universe = f.universe
        masks = f.masks
    else:
        members = list(f)
        if not members:
            raise InputError("cannot infer a universe from an empty iterable")
        universe = members[0].universe
        masks = [_coerce_mask(m, universe) for m in members]
    return SetFamily(universe, irreducible_members(masks, universe))


def spans(candidate: SetFamily, f: SetFamily) -> bool:
    """True iff every member of ``f`` is a union of members of ``candidate``."""
    if candidate.universe != f.universe:
        raise InputError("families must share a universe")
    for m in f.masks:
        covered = 0
        for b in candidate.masks:
            if b & ~m == 0:
                covered |= b
        if covered != m:
            return False
    return True


def incidence_signatures(gen: SetFamily, verts_mask: int | None = None) -> dict[int, int]:
    """Per-vertex bitmask over family members: bit i set iff member i holds v.

    Signatures turn the membership tests behind ``cn_subset`` / ``cn_equal``
    into single word operations: ``sig(u) subset-of sig(v)`` is exactly
    ``cn_subset({u}, {v}, gen)``, and OR-ing signatures handles vertex sets.
    """
    if verts_mask is None:
        verts_mask = (1 << gen.universe) - 1
    sig = {v: 0 for v in mask_members(verts_mask)}
    for i, m in enumerate(gen.masks):
        for v in mask_members(m & verts_mask):
            sig[v] |= 1 << i
    return sig


def _base_vertices_from_signatures(sig: dict[int, int], verts: Sequence[int]) -> list[int]:
    """Greedy removal pass over ``verts``; survivors carry the union basis.

    Vertices are dropped from the highest id down, so the lowest id in each
    group of interchangeable vertices survives.  A vertex v is removable when
    the canonical candidate A* = {u alive : sig(u) subset-of sig(v)} satisfies
    sig(A*) == sig(v); A* is the largest candidate, so it witnesses
    removability whenever any subset does.  Removals only shrink the pool of
    candidates, hence one descending pass reaches the fixpoint.
    """
    alive = set(verts)
    for v in sorted(verts, reverse=True):
        target = sig[v]
        acc = 0
        for u in alive:
            if u != v and sig[u] & ~target == 0:
                acc |= sig[u]
        if acc == target:
            alive.remove(v)
    return sorted(alive)


def base_vertices(gen: SetFamily) -> VertexSet:
    """A vertex set whose closed neighborhoods form the union basis.

    ``gen`` must generate the neighborhood unions of some graph on its
    universe.  The returned set is the deterministic one in which the lowest
    usable ids survive; other valid choices exist, but the basis they carry
    is the same.
    """
    verts = list(range(gen.universe))
    sig = incidence_signatures(gen)
    return VertexSet.from_members(_base_vertices_from_signatures(sig, verts),
                                  gen.universe)
