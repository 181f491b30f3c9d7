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
from .families import (
    LATTICE_CEILING,
    SetFamily,
    _fixed_points,
    _lattice_irreducible,
    irreducible_members,
    lattice_pays,
    member_lattice,
)
from .graphs import Graph, VertexSet, mask_members

#: The enumeration builds 2^n tables indexed by vertex sets, so it shares
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
    the sets N[A], A <= V, which :func:`_neighborhood_unions` marks.
    """
    return SetFamily._from_distinct(
        g.n, ((1 << g.n) - 1) ^ np.flatnonzero(_neighborhood_unions(g)))


def _neighborhood_unions(g: Graph) -> np.ndarray:
    """2^n bools, True exactly at the sets N[A], A <= V, built by doubling.

    The doubling table ``reach[A] = N[A]`` is intp although a mask of at
    most 20 bits fits in uint32: it is the index of the scatter into the
    bools, and numpy takes any other integer index through a cast on a
    slower path (about twice the time at n = 13).
    """
    n = g.n
    if n > CONVEXITY_ENUMERATION_CEILING:
        raise ResourceLimitError(
            f"digital convexity enumeration is capped at "
            f"{CONVEXITY_ENUMERATION_CEILING} vertices (got {n})"
        )
    reach = np.empty(1 << n, dtype=np.intp)  # reach[A] = N[A]
    reach[0] = 0
    for v in range(n):  # the loop's own ids: no per-step validation
        np.bitwise_or(reach[:1 << v], g._adj[v] | 1 << v, out=reach[1 << v:2 << v])
    seen = np.zeros(1 << n, dtype=bool)
    seen[reach] = True
    return seen


def complement_family(f: SetFamily) -> SetFamily:
    """Member-wise complement within the universe; involutive."""
    return SetFamily._from_distinct(f.universe, np.uint64((1 << f.universe) - 1) ^ f.mask_array)


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
    violating pair in canonical member order.  That sweep has no bound but
    k^2: on the power set minus one (n-2)-set, whose one violating pair
    sits among the last members, it took 0.6 s at n = 12 and 12 s at
    n = 14 (2-core 2.0 GHz Xeon), and it grows 16-fold per two vertices.
    """
    full = (1 << f.universe) - 1
    masks = f.masks  # canonical: the empty set first, V last
    if not masks or masks[0] != 0:
        return AxiomReport(False, missing_empty=True)
    if masks[-1] != full:
        return AxiomReport(False, missing_universe=True)
    k = len(masks)
    if k <= 2:
        return AxiomReport(True)
    n = f.universe
    if lattice_pays(k, n):
        comp = full ^ f.mask_array.view(np.int64)  # intp indices, < 2^20
        if _fixed_points(member_lattice(comp, n)) == k:
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
            return AxiomReport(
                False,
                violating_pair=(VertexSet(masks[i], f.universe),
                                VertexSet(masks[j], f.universe)),
            )
    return AxiomReport(True)


def _convexity_basis(d: SetFamily) -> list[int] | None:
    """The union-irreducible members of U, the complements of the members
    of ``d`` (at most 20 vertices), or None when ``d`` fails the convexity
    axioms.

    When it pays, one member lattice of U answers both: ``d`` passes the
    axioms iff U holds V (the canonical order puts the empty set first in
    ``d``) and is union-closed, and the same table gives U's irreducibles.
    Otherwise both take the pair sweeps.
    """
    n = d.universe
    u = ((1 << n) - 1) ^ d.mask_array.view(np.int64)  # intp indices, < 2^20
    if not lattice_pays(len(d), n):
        return irreducible_members(u.tolist(), n) if check_convexity_axioms(d) else None
    table = member_lattice(u, n)
    if d.masks[0] != 0 or _fixed_points(table) != len(d):
        return None
    return _lattice_irreducible(table, u, n).tolist()
