"""Algebra of vertex-set families: supports, union closure, bases.

A :class:`SetFamily` is a deduplicated, canonically ordered collection of
vertex subsets over one universe.  A :class:`NeighborhoodMultiset` keeps
multiplicities and represents the closed (or open) neighborhoods of a graph.
The canonical order is by size, then by the sorted member tuples; both
classes get it from one numpy kernel, :func:`_canonical_order`, over a uint64
array of the masks (see there for why the bit reversal gives that order).

The inclusion and equality tests ``cn_subset`` / ``cn_equal`` decide
``N[A] <= N[B]`` and ``N[A] == N[B]`` from a family alone: the containment
holds iff every family member meeting A also meets B.  Because meeting a
union splits over its parts, evaluating the test on any generating family is
equivalent to evaluating it on the full union closure, so the closure never
has to be materialized.  A vertex's signature packs those tests into one
int over a family's members, bit i set when member i holds it: the
signatures are the transpose of the member masks
(:func:`~nbhdrecon.graphs._transpose`).  The support path's twin classes
are the vertices of equal signature.  :func:`base_vertices` and the
convexity path (over the union-irreducible members alone) compare them
through containment caps, in :func:`_base_and_caps`: cap(u),
the AND of the members holding u, holds v exactly when sig(u) is a subset of
sig(v), so every containment among signatures is read off n caps, with no
pair compared.  The cap of a base vertex b is the set of vertices v with
N[b] inside N[v], its owners in the convexity path's blow-up.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError
from .graphs import (
    MAX_UNIVERSE, Graph, VertexSet, _POPCOUNT8, _transpose, as_int, mask_members)

#: Default cap on union-closure size; past this the instance is out of desk
#: scale and we fail loudly rather than thrash.
UNION_CLOSURE_CEILING = 1 << 20


#: Per-byte complemented bit reversal table.
_FLIP8 = np.array([255 - int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
_BYTE_SUM = np.uint64(0x0101010101010101)
_LE64 = np.dtype("<u8")
#: Offset of the most significant byte in a native uint64.
_TOP_BYTE = 7 if sys.byteorder == "little" else 0


def _canonical_order(masks: np.ndarray) -> np.ndarray:
    """Indices that sort distinct uint64 masks by (size, sorted members).

    Of two sets of one size, the one holding the smallest element of their
    symmetric difference has the smaller member tuple.  Reversing the 64
    bits turns that element into the highest differing bit, so within a
    size the order is the complemented reversed masks, ascending.  The
    masks are distinct, so one ``argsort`` over those keys has no ties;
    a stable ``argsort`` over the uint8 sizes, which numpy runs as a radix
    sort, then groups them by size and keeps that order inside each group.

    Popcount and complemented reversal go byte by byte through lookup
    tables.  Reversing the little-endian bytes of the whole array reverses
    each word's bytes and the order of the words; reading the words back in
    reverse restores their order.  The eight byte popcounts, read back as
    one word, are summed by a single multiply: times 0x0101010101010101 the
    top byte collects every byte, and the sum, at most 64, cannot carry out
    of it, so that byte is the size.
    """
    octets = masks.astype(_LE64, copy=False).view(np.uint8)
    size = (_POPCOUNT8.take(octets).view(_LE64) * _BYTE_SUM).view(np.uint8)[_TOP_BYTE::8]
    order = _FLIP8.take(octets[::-1]).view(_LE64)[::-1].argsort()
    return order[size[order].argsort(kind="stable")]


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


def _distinct_masks(members, universe: int) -> np.ndarray:
    """The distinct member masks as a uint64 array, each checked against
    ``universe`` by :func:`_coerce_mask`."""
    masks = {_coerce_mask(m, universe) for m in members}
    return np.fromiter(masks, dtype=np.uint64, count=len(masks))


class SetFamily:
    """Finite set of vertex subsets over one universe, without multiplicity.

    Members are stored canonically ordered by (size, lexicographic members)
    so iteration and serialization are deterministic.  ``masks`` holds them
    as ints and ``mask_array`` as a read-only uint64 array, in that order.
    Equal families have equal ``masks``, so equality and hashing read that
    tuple.  The member set behind :meth:`contains_mask` and ``in`` is built
    by ``__getattr__`` on its first read; later reads find it in its slot.

    The public constructor validates and deduplicates its members.  Families
    the library derives from one it already holds (``digital_convexity``,
    ``complement_family``, ``union_basis``) come from the private
    :meth:`_from_distinct`, which only sorts: their members are distinct and
    inside the universe by construction, so the check could never fail.
    """

    __slots__ = ("universe", "masks", "mask_array", "_mask_set")

    def __init__(self, universe: int, members: Iterable = ()):
        universe = as_int(universe, "universe")
        if not 0 <= universe <= MAX_UNIVERSE:
            raise InputError(f"universe must be in 0..{MAX_UNIVERSE}, got {universe}")
        self._store(universe, _distinct_masks(members, universe))

    @classmethod
    def _from_distinct(cls, universe: int, masks: np.ndarray) -> "SetFamily":
        """The family of ``masks``, a 1-D integer array that the caller
        guarantees to hold distinct masks inside ``universe`` (0..64).

        Only the canonical sort runs; the dedupe and the range check are
        skipped.  Every caller passes complements, within the universe, of
        distinct in-range masks, or a subset of a family's members, so the
        result equals the family the public constructor builds from them.
        """
        f = cls.__new__(cls)
        f._store(universe, masks.astype(np.uint64, copy=False))
        return f

    def _store(self, universe: int, arr: np.ndarray) -> None:
        """Set the slots from distinct uint64 masks, sorted canonically."""
        self.universe = universe
        arr = arr[_canonical_order(arr)]
        arr.flags.writeable = False
        self.mask_array = arr
        self.masks = tuple(arr.tolist())

    def __getattr__(self, name: str):
        # called only while a slot is unset: builds the member set once
        if name != "_mask_set":
            raise AttributeError(f"'SetFamily' object has no attribute {name!r}")
        self._mask_set = frozenset(self.masks)
        return self._mask_set

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
        return self.universe == other.universe and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.universe, self.masks))

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
        if not 0 <= universe <= MAX_UNIVERSE:
            raise InputError(f"universe must be in 0..{MAX_UNIVERSE}, got {universe}")
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
        masks = np.fromiter(counts, dtype=np.uint64, count=len(counts))
        self.entries = tuple((m, counts[m])
                             for m in masks[_canonical_order(masks)].tolist())

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

    Each member's new unions are counted as they are found, so the error
    comes at the first union past ``max_members``, before the closure can
    double past the ceiling.
    """
    closure = {0}
    for m in f.masks:
        grown = set()
        for c in closure:
            u = c | m
            if u not in closure:
                grown.add(u)
                if len(closure) + len(grown) > max_members:
                    raise ResourceLimitError(
                        f"union closure exceeds the configured ceiling of {max_members} members"
                    )
        closure |= grown
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

#: Largest universe whose 2^n subset lattice is materialized; larger
#: universes always take the pairwise sweeps.  A table cell holds an n-bit
#: mask in the narrowest unsigned dtype that fits it: uint8 up to n = 8,
#: uint16 up to 16 and uint32 up to 20 (a 4 MB table at 20).
LATTICE_CEILING = 20


def or_zeta(table: np.ndarray, n: int) -> None:
    """In-place OR-zeta transform over the subset lattice of ``n`` bits.

    Afterwards ``table[X]`` is the OR of the old ``table[Y]`` over all
    ``Y <= X``.  One pass per bit: every index with the bit set absorbs the
    index without it.  The passes commute, and the lowest ``min(5, n // 2)``
    bits, whose strides are short, run on a transposed copy where they are highest.
    """
    low = min(5, n // 2)
    for i in range(low, n):
        v = table.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= v[:, 0, :]
    flipped = table.reshape(-1, 1 << low).T.copy()  # low bits now on top
    for i in range(n - low, n):
        v = flipped.reshape(-1, 2, 1 << i)
        v[:, 1, :] |= v[:, 0, :]
    table.reshape(-1, 1 << low)[:] = flipped.T


def member_lattice(masks: np.ndarray, n: int) -> np.ndarray:
    """``table[X]`` = union of the members of ``masks`` contained in ``X``.

    The table's dtype is the narrowest unsigned one that holds n bits
    (uint8 up to n = 8, uint16 up to 16, uint32 above), so the OR-zeta
    passes move a quarter or half of the bytes of a uint32 table; readers
    take the dtype from the table.  ``masks`` should be intp: numpy indexes
    with any other integer type through a cast on a slower path.
    """
    table = np.zeros(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    table[masks] = masks
    or_zeta(table, n)
    return table


def lattice_pays(k: int, n: int) -> bool:
    """True when the 2^n lattice beats a sweep over the k^2 member pairs.

    Pairs win while k^2 <= n * 2^n / 128 + 300.  Measured on a 2-core Xeon
    at 2.0 GHz (Python 3.11, numpy 2.4) over the convexity path's two
    reads, the axiom check and the irreducible members: the pair sweeps
    take about 10 us plus 60-160 ns per k^2 together; the lattice, in its
    narrowest dtype, takes 23-46 us at n = 4 to 10, nearly whatever k, and
    0.3-0.7 ns per n * 2^n cell at n = 18 to 20 (1.5, 4.2 and 14 ms on the
    smallest families).  So at n <= 10 the two meet near k = 17 (k = 10-19:
    17-36 us on the pairs against 26-56 us on the lattice; k = 20-29: 50-65
    against 31-43 us).  Over the 700 convexities of the first
    ``roundtrip-small`` benchmark queries at each of two seeds, offsets of
    200 to 500 came within 1 % of each other's total and 2048 took a third
    longer.  On dense G(n, 0.9) at n = 18 to 20 (k = 16-30) the pairs take
    under 0.1 ms and the lattice 1.5-17 ms.
    """
    return n <= LATTICE_CEILING and k * k > ((n << n) >> 7) + 300


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
    arr = np.fromiter(distinct, dtype=np.intp, count=len(distinct))
    return _lattice_irreducible(member_lattice(arr, universe), arr, universe).tolist()


#: Cells (bits x members) in one slab of the gather in
#: :func:`_lattice_irreducible`: 1 MB per intp temporary, whatever the
#: family's size.
_IRREDUCIBLE_SLAB = 1 << 17


def _lattice_irreducible(table: np.ndarray, arr: np.ndarray, n: int) -> np.ndarray:
    """The members in ``arr`` (distinct masks, intp for the fast gather;
    ``table`` their member lattice) that differ from the union of the
    members strictly below them.

    One gather per slab of members reads ``table[m ^ bit]`` for every bit;
    the flip of a bit outside m reads m itself, so it is zeroed before the
    OR-reduction over the bits.
    """
    bits = np.intp(1) << np.arange(n, dtype=np.intp)[:, None]
    block = max(1, _IRREDUCIBLE_SLAB // max(n, 1))
    below = np.empty(len(arr), dtype=table.dtype)
    for i0 in range(0, len(arr), block):
        rows = arr[i0:i0 + block]
        flips = rows & bits  # row b: bit b of each member
        held = flips != 0
        flips ^= rows  # now m ^ bit, or m where the bit is outside m
        gathered = table[flips]
        gathered *= held
        np.bitwise_or.reduce(gathered, axis=0, out=below[i0:i0 + block])
    return arr[below != arr]


def _fixed_points(table: np.ndarray) -> int:
    """How many X have ``table[X] == X``: in a member lattice, the unions."""
    return np.count_nonzero(table == np.arange(table.size, dtype=table.dtype))


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
    irreducible = irreducible_members(masks, universe)
    return SetFamily._from_distinct(universe, np.array(irreducible, dtype=np.uint64))


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


def _base_and_caps(masks: Sequence[int], n: int) -> tuple[list[int], list[int], list[int]]:
    """The base vertices of the family ``masks`` generates, ascending,
    their caps and their signatures.

    sig, one int per vertex with bit i set when member i holds it, is the
    transpose of ``masks``.  cap[u], the AND of the members holding u (all
    of the universe when none does), holds v exactly when sig(u) is a
    subset of sig(v), so no pair of signatures is ever compared: below[v],
    the transpose of the caps, is the set of u with sig(u) subset-of sig(v).
    The cap of base vertex b is then the mask of the vertices that own b:
    those whose signatures contain sig(b).

    Vertices are dropped from the highest id down, so the lowest id in each
    group of interchangeable vertices survives.  A vertex v is removable when
    the canonical candidate A* = {u alive, u != v : sig(u) subset-of sig(v)}
    satisfies sig(A*) == sig(v); A* is the largest candidate, so it
    witnesses removability whenever any subset does.  Removals only shrink
    the pool of candidates, hence one descending pass reaches the fixpoint.
    """
    full = (1 << n) - 1
    sig = _transpose(masks, n)
    cap = []
    for s in sig:
        c = full
        while s:
            low = s & -s
            c &= masks[low.bit_length() - 1]
            s ^= low
        cap.append(c)
    below = _transpose(cap, n)
    alive = full
    for v in reversed(range(n)):
        pool = below[v] & alive & ~(1 << v)
        acc = 0
        while pool:
            low = pool & -pool
            acc |= sig[low.bit_length() - 1]
            pool ^= low
        if acc == sig[v]:
            alive ^= 1 << v
    base = [v for v in range(n) if alive >> v & 1]
    return base, [cap[b] for b in base], [sig[b] for b in base]


def base_vertices(gen: SetFamily) -> VertexSet:
    """A vertex set whose closed neighborhoods form the union basis.

    ``gen`` must generate the neighborhood unions of some graph on its
    universe.  The returned set is the deterministic one in which the lowest
    usable ids survive; other valid choices exist, but the basis they carry
    is the same.
    """
    base, _, _ = _base_and_caps(gen.masks, gen.universe)
    return VertexSet.from_members(base, gen.universe)
