"""Digital convexity: membership tests, full enumeration, complement bridge.

A vertex set S is digitally convex when every outside vertex v keeps a
private neighbor, i.e. some x in N[v] that N[S] does not reach.  Membership
(:func:`is_digitally_convex`, :func:`convexity_witness`) is checked straight
from that definition and stays independent of the family algebra, so it can
cross-check the rest.  Enumeration and the axiom check instead work on the
2^n subset lattice through the complement bridge: the convex sets are
exactly the complements of the sets N[A], A <= V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .families import LATTICE_CEILING, SetFamily, lattice_pays, member_lattice
from .graphs import Graph, VertexSet, mask_members

#: The enumeration builds a 2^n lattice table of uint32 masks, so it shares
#: the lattice ceiling; past it the instance is out of desk scale.
CONVEXITY_ENUMERATION_CEILING = LATTICE_CEILING


def is_digitally_convex(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside ``s`` has a private neighbor."""
    return convexity_witness(g, s).convex


@dataclass(frozen=True, slots=True)
class ConvexityWitness:
    """Outcome of a convexity check with certificates.

    When convex, ``private_neighbors`` maps each outside vertex to one
    private neighbor.  Otherwise ``violator`` is an outside vertex whose
    closed neighborhood is fully covered.
    """

    convex: bool
    private_neighbors: dict | None
    violator: int | None

    def __bool__(self) -> bool:
        return self.convex


def convexity_witness(g: Graph, s: VertexSet) -> ConvexityWitness:
    """Like :func:`is_digitally_convex`, but returns certificates."""
    if s.universe != g.n:
        raise InputError(f"universe mismatch: set on {s.universe}, graph on {g.n}")
    reach = g.closed_mask_of_set(s.bits)
    outside = ((1 << g.n) - 1) & ~s.bits
    private = {}
    for v in mask_members(outside):
        free = g.closed_mask(v) & ~reach
        if free == 0:
            return ConvexityWitness(False, None, v)
        private[v] = (free & -free).bit_length() - 1
    return ConvexityWitness(True, private, None)


def digital_convexity(g: Graph) -> SetFamily:
    """All digitally convex sets of ``g``; always contains the empty set and V.

    By the complement bridge the convex sets are exactly the complements of
    the sets N[A], A <= V.  The table of all N[A] is built by doubling, one
    vertex at a time, and the distinct values are complemented.
    """
    n = g.n
    if n > CONVEXITY_ENUMERATION_CEILING:
        raise ResourceLimitError(
            f"digital convexity enumeration is capped at "
            f"{CONVEXITY_ENUMERATION_CEILING} vertices (got {n})"
        )
    reach = np.zeros(1 << n, dtype=np.uint32)  # reach[A] = N[A]
    for v in range(n):
        reach[1 << v:2 << v] = reach[:1 << v] | g.closed_mask(v)
    seen = np.zeros(1 << n, dtype=bool)
    seen[reach] = True
    full = (1 << n) - 1
    return SetFamily(n, (full ^ np.flatnonzero(seen)).tolist())


def complement_family(f: SetFamily) -> SetFamily:
    """Member-wise complement within the universe; involutive."""
    full = (1 << f.universe) - 1
    return SetFamily(f.universe, (full & ~m for m in f.masks))


@dataclass(frozen=True, slots=True)
class AxiomReport:
    """Result of a convexity-axiom check, with the first violation found."""

    ok: bool
    missing_empty: bool = False
    missing_universe: bool = False
    violating_pair: tuple[VertexSet, VertexSet] | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "family satisfies the convexity axioms"
        if self.missing_empty:
            return "the empty set is missing"
        if self.missing_universe:
            return "the full vertex set is missing"
        a, b = self.violating_pair
        return f"not intersection-closed: {a!r} and {b!r} meet outside the family"


def check_convexity_axioms(f: SetFamily) -> AxiomReport:
    """Check that ``f`` contains the empty set and V and is intersection-closed.

    F is intersection-closed iff the complement family C is union-closed.
    Over the lattice of C's members (``table[X]`` = union of the members of
    C inside X) the fixed points ``table[X] == X`` are exactly the unions of
    members, so C is union-closed iff there are |F| of them.  Only when that
    test fails, when the family is small, or when the universe is too large
    for the lattice does the pairwise sweep run, and it reports the first
    violating pair in canonical member order.
    """
    full = (1 << f.universe) - 1
    if not f.contains_mask(0):
        return AxiomReport(False, missing_empty=True)
    if not f.contains_mask(full):
        return AxiomReport(False, missing_universe=True)
    k = len(f.masks)
    if k <= 2:
        return AxiomReport(True)
    n = f.universe
    if lattice_pays(k, n):
        comp = np.uint32(full) ^ np.array(f.masks, dtype=np.uint32)
        table = member_lattice(comp, n)
        if np.count_nonzero(table == np.arange(1 << n, dtype=np.uint32)) == k:
            return AxiomReport(True)
    return _pairwise_axiom_check(f)


def _pairwise_axiom_check(f: SetFamily) -> AxiomReport:
    """Vectorized sweep over member pairs for the first missing intersection."""
    masks = f.masks
    k = len(masks)
    arr = np.array(masks, dtype=np.uint64)
    sorted_masks = np.sort(arr)
    block = max(1, (1 << 22) // k)  # keep each pairwise slab around 32 MB
    for i0 in range(0, k, block):
        rows = arr[i0:i0 + block]
        inter = (rows[:, None] & arr[None, :]).ravel()
        pos = np.searchsorted(sorted_masks, inter)
        pos[pos >= k] = k - 1
        missing = sorted_masks[pos] != inter
        if missing.any():
            flat = int(np.flatnonzero(missing)[0])
            i = i0 + flat // k
            j = flat % k
            if j < i:  # report with canonical (i <= j) orientation
                i, j = j, i
            return AxiomReport(
                False,
                violating_pair=(VertexSet(masks[i], f.universe),
                                VertexSet(masks[j], f.universe)),
            )
    return AxiomReport(True)
