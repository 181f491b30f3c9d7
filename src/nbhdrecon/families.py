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
through containment caps, in :func:`_base_and_cans`: cap(u),
the AND of the members holding u, holds v exactly when sig(u) is a subset of
sig(v), so every containment among signatures is read off n caps, with no
pair compared.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError
from .graphs import Graph, VertexSet, _transpose, as_int, mask_members

#: Default cap on union-closure size; past this the instance is out of desk
#: scale and we fail loudly rather than thrash.
UNION_CLOSURE_CEILING = 1 << 20


#: Per-byte popcount and bit reversal tables (``np.bitwise_count`` needs
#: numpy 2.0; the declared floor is 1.24).
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_REVERSE8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
_BYTE_SUM = np.uint64(0x0101010101010101)


def _canonical_order(masks: np.ndarray) -> np.ndarray:
    """Indices that sort distinct uint64 masks by (size, sorted members).

    Of two sets of one size, the one holding the smallest element of their
    symmetric difference has the smaller member tuple.  Reversing the 64
    bits turns that element into the highest differing bit, so within a
    size the order is the reversed masks, descending.  Popcount and reversal
    go byte by byte through lookup tables; reversing the little-endian byte
    order and the bits of each byte reverses the word.  The eight byte
    popcounts, read back as one word, are summed by a single multiply: times
    0x0101010101010101 the top byte collects every byte, and the sum, at
    most 64, cannot carry out of it.
    """
    octets = masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    size = _POPCOUNT8.take(octets).view("<u8").ravel() * _BYTE_SUM >> np.uint64(56)
    reversed_ = _REVERSE8.take(octets[:, ::-1]).view("<u8").ravel()
    return np.lexsort((~reversed_, size))


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
        if not 0 <= universe <= 64:
            raise InputError(f"universe must be in 0..64, got {universe}")
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

    ``masks`` should be intp: numpy indexes with any other integer type
    through a cast on a slower path.
    """
    table = np.zeros(1 << n, dtype=np.uint32)
    table[masks] = masks
    or_zeta(table, n)
    return table


def lattice_pays(k: int, n: int) -> bool:
    """True when the 2^n lattice beats a sweep over the k^2 member pairs.

    Pairs win while k^2 < n * 2^n / 128 + 2048.  Measured on a 2-core Xeon
    at 2.0 GHz (Python 3.11, numpy 2.4) over the convexity path's two
    reads, the axiom check and the irreducible members: the pair sweeps
    take about 120 ns per k^2 together; the lattice takes 0.4-0.8 ns per
    n * 2^n cell at n = 18 to 20 (2.1, 6.1 and 16 ms) and 30-80 us at
    n = 4 to 10, nearly whatever k.  So the pairs win at small k (13-35 us
    against 28-49 us at n = 4 to 6, k <= 32), but from k ~ 20-30 at n = 6 to
    10 the lattice does, below the formula's crossover of k ~ 45 (at n = 8,
    k = 30-44: 60 us against 131-186 us).  On dense G(n, 0.9) at n = 18 to
    20 (k = 16-44) the pairs take 0.07-0.17 ms and a forced lattice 2-16 ms.
    """
    return n <= LATTICE_CEILING and k * k > ((n << n) >> 7) + 2048


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
    below = np.empty(len(arr), dtype=np.uint32)
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
    return np.count_nonzero(table == np.arange(table.size, dtype=np.uint32))


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


def _base_and_cans(masks: Sequence[int], n: int) -> tuple[list[int], list[int], list[int]]:
    """The base vertices of the family ``masks`` generates, ascending,
    can(v) for every vertex v, the mask of the indices i with
    sig(base[i]) subset-of sig(v), and the base vertices' signatures.

    sig, one int per vertex with bit i set when member i holds it, is the
    transpose of ``masks``.  cap[u], the AND of the members holding u (all
    of the universe when none does), holds v exactly when sig(u) is a
    subset of sig(v), so no pair of signatures is ever compared: below[v],
    the transpose of the caps, is the set of u with sig(u) subset-of sig(v),
    and can() is the transpose of the base vertices' caps.

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
    return base, _transpose([cap[b] for b in base], n), [sig[b] for b in base]


def base_vertices(gen: SetFamily) -> VertexSet:
    """A vertex set whose closed neighborhoods form the union basis.

    ``gen`` must generate the neighborhood unions of some graph on its
    universe.  The returned set is the deterministic one in which the lowest
    usable ids survive; other valid choices exist, but the basis they carry
    is the same.
    """
    base, _, _ = _base_and_cans(gen.masks, gen.universe)
    return VertexSet.from_members(base, gen.universe)
