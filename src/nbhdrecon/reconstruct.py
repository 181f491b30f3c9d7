"""Reconstruction of labeled graphs from neighborhood data.

Three entry points, one per invariant:

* :func:`from_multiset`  - from the multiset of closed neighborhoods;
* :func:`from_support`   - from the set of closed neighborhoods, reduced
  onto the lowest vertex of each twin class;
* :func:`from_digital_convexity` - from the family of digitally convex sets,
  by complementing into neighborhood unions and reducing them once, onto
  the closed neighborhoods of the base vertices.

One private exact search, :func:`_realize`, sits under all three.  Both
set-family paths read per-vertex signatures through one bit transpose, cut
their masks down to base vertices as the transpose of the base vertices'
signatures, realize the cuts and blow each realization up to the whole
universe through the owners of each base vertex (its twin block, or its
containment cap) in :func:`_realize_on_base`.
The convexity reduction suffices: with S the base vertices, the graph
induced on S is twin-free and none of its closed neighborhoods is a union of
the others, so the union basis cut down to S is its closed-neighborhood
multiset with every multiplicity one; every other N[v] is the union of the
N[b], b in S, that it contains, so every realization of that multiset lifts
to a graph with the same convexity, and re-verification rejects none.

Input is validated once, at the public entry point; the masks the library
derives from it are not re-validated.  All three return a
:class:`ReconstructionResult` whose verdict is one of ``unique`` /
``ambiguous`` / ``infeasible``.  Inputs are untrusted: each returned graph
is re-verified once, against the caller's input, and unrealizable families
yield the infeasible verdict rather than an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .convexity import CONVEXITY_ENUMERATION_CEILING, _convexity_basis, _neighborhood_unions
from .errors import InputError, ResourceLimitError, UnrealizableFamilyError
from .families import NeighborhoodMultiset, SetFamily, _base_and_caps, _canonical_order
from .graphs import Graph, VertexSet, _transpose, as_int, mask_members

#: Default cap on the number of realizations collected in ``all`` mode.
DEFAULT_SOLUTION_LIMIT = 64

_MODES = ("all", "count")


@dataclass(frozen=True, slots=True)
class EquivalenceClasses:
    """Partition of the universe into classes of equal closed neighborhoods."""

    universe: int
    blocks: tuple[VertexSet, ...]
    representatives: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ReconstructionResult:
    """Outcome of a reconstruction query.

    ``graphs`` lists the realizations found, sorted by their tuples of
    adjacency masks.  ``truncated`` means the search stopped at the limit
    with more realizations left; the verdict then stays ``ambiguous`` even
    for a single graph.  The search always looks one realization past the
    limit, so ``unique`` certifies that no second realization exists, at
    any limit.  An ``infeasible`` verdict with ``truncated`` set means the
    search hit the limit before anything verified, so infeasibility is not
    certified either; rerun with a higher limit.
    """

    verdict: str
    graphs: tuple[Graph, ...] = ()
    truncated: bool = False
    nodes_explored: int = 0
    elapsed: float = 0.0

    @property
    def solution_count(self) -> int:
        return len(self.graphs)

    @property
    def graph(self) -> Graph:
        if self.verdict != "unique":
            raise InputError(f"no unique graph: verdict is {self.verdict!r}")
        return self.graphs[0]

    def __bool__(self) -> bool:
        return self.verdict != "infeasible"


def _verdict(limit: int, candidates: list[Graph], nodes: int, t0: float,
             reference, kind: str) -> ReconstructionResult:
    """The tail shared by the three entry points: re-verify the first
    ``limit`` candidates once against the caller's ``reference``, sort them
    and name the verdict.  The search stops one candidate past ``limit``,
    so reaching it means more realizations exist than are returned."""
    graphs = [h for h in candidates[:limit] if realizes(h, reference, kind)]
    truncated = len(candidates) > limit
    elapsed = time.perf_counter() - t0
    if not graphs:
        return ReconstructionResult("infeasible", (), truncated, nodes, elapsed)
    # canonical order, so that answers do not depend on the search order
    graphs = tuple(sorted(graphs, key=lambda h: h._adj))
    if len(graphs) == 1 and not truncated:
        return ReconstructionResult("unique", graphs, False, nodes, elapsed)
    return ReconstructionResult("ambiguous", graphs, truncated, nodes, elapsed)


def _check_mode(mode: str, limit: int, universe: int) -> int:
    """Validate the shared arguments; return how many solutions the search
    looks for (one past ``limit``, so that reaching it proves truncation)."""
    if mode not in _MODES:
        raise InputError(f"mode must be one of {_MODES}, got {mode!r}")
    if as_int(limit, "limit") < 1:
        raise InputError(f"limit must be positive, got {limit}")
    if universe < 1:
        raise InputError("reconstruction needs a nonempty universe")
    return limit + 1


# ---------------------------------------------------------------------------
# Twin classes and the quotient family
# ---------------------------------------------------------------------------


def equivalence_classes(gen: SetFamily) -> EquivalenceClasses:
    """Group vertices whose closed neighborhoods agree, judged from ``gen``.

    Two vertices are twins exactly when they lie in the same members of the
    generating family.  The representative of each block is its minimum id.
    """
    n = gen.universe
    _, blocks = _twin_classes(gen)
    return EquivalenceClasses(n, tuple(VertexSet(b, n) for b in blocks),
                              tuple((b & -b).bit_length() - 1 for b in blocks))


def _twin_classes(gen: SetFamily) -> tuple[list[int], list[int]]:
    """The distinct signatures of ``gen`` in the order of their lowest
    vertex, and the twin block of each: the mask of the vertices with that
    signature."""
    blocks: dict[int, int] = {}
    for v, s in enumerate(_transpose(gen.masks, gen.universe)):
        blocks[s] = blocks.get(s, 0) | 1 << v
    return list(blocks), list(blocks.values())


def quotient_family(gen: SetFamily, classes: EquivalenceClasses) -> SetFamily:
    """Rewrite each member over the quotient universe of twin classes.

    Member A maps to the set of class indices whose blocks A contains.  A
    member that splits a block cannot be a closed neighborhood of any graph
    with these twin classes, so that raises
    :class:`~nbhdrecon.errors.UnrealizableFamilyError`.
    """
    if classes.universe != gen.universe:
        raise InputError("family and partition universes differ")
    m = len(classes.blocks)
    out = []
    for a in gen.masks:
        q = 0
        covered = 0
        for i, block in enumerate(classes.blocks):
            inter = block.bits & a
            if inter == block.bits:
                q |= 1 << i
                covered |= block.bits
            elif inter:
                raise UnrealizableFamilyError(
                    f"member {mask_members(a)} splits class {block.members()}"
                )
        if covered != a:
            raise UnrealizableFamilyError(
                f"member {mask_members(a)} is not a union of classes"
            )
        out.append(q)
    return SetFamily(m, out)


# ---------------------------------------------------------------------------
# Exact realizer for the closed-neighborhood multiset
# ---------------------------------------------------------------------------


def _realize(n: int, entries, cap: int) -> tuple[list[tuple[int, ...]], int]:
    """Up to ``cap`` graphs on n vertices whose closed neighborhoods are the
    canonically ordered ``(mask, multiplicity)`` ``entries``, as adjacency
    tuples in search order, and the number of nodes explored.

    Each vertex v takes one entry M_v that contains v, respecting
    multiplicities; the choice pins N[v] = M_v, so u~v needs u in M_v
    exactly when v in M_u.  The search is forward checking with the
    fewest-candidates-first rule (Haralick & Elliott 1980): every unplaced
    vertex u keeps a domain, the bitmask of entries it can still take,
    starting as ``inc[u]``, the entries that contain u.  Placing v on M
    narrows each domain to the entries that contain v when u is in M and to
    those that miss v otherwise; an entry whose multiplicity runs out leaves
    every domain, and an empty domain prunes the branch.  The next vertex
    placed is the one with the smallest domain, the lowest id on ties.  The
    node count is the placements that survive this check.  Completed
    assignments are realizations by construction; the caller re-verifies
    the ones it returns.

    Before any node, a count refutes: v lies in exactly |N[v]| entries,
    counted with multiplicity, so the entry sizes, each repeated by its
    multiplicity, must equal the vertices' incidence counts once both are
    sorted (which also fixes the total multiplicity at n).  The degree sum
    must be even and every vertex must lie in some entry; neither follows
    from the count.
    """
    entry_masks = [mask for mask, _ in entries]
    remaining = [mult for _, mult in entries]
    inc = _transpose(entry_masks, n)
    sizes = list(map(int.bit_count, entry_masks))
    counts = list(map(int.bit_count, inc))
    if max(remaining, default=1) > 1:  # an entry of multiplicity k counts k times
        for mask, mult in entries:
            if mult > 1:
                sizes += [mask.bit_count()] * (mult - 1)
                for x in mask_members(mask):
                    counts[x] += mult - 1
    sizes.sort()
    counts.sort()
    if sizes != counts or (sum(sizes) - n) % 2 or not all(inc):
        return [], 0

    nodes = 0
    assigned = [0] * n
    found: list[tuple[int, ...]] = []

    def walk(free: tuple[int, ...], doms: list[int]) -> bool:
        """Depth-first over the unplaced vertices ``free`` (ascending) and
        their domains; True means the cap cut the search."""
        nonlocal nodes
        if not free:
            found.append(tuple(assigned[v] & ~(1 << v) for v in range(n)))
            return len(found) >= cap
        k = doms.index(min(doms, key=int.bit_count))
        v, dom = free[k], doms[k]
        free, doms = free[:k] + free[k + 1:], doms[:k] + doms[k + 1:]
        # dom lies inside inc[v], so ~inc[v] already drops the entry taken
        inc_v = inc[v]
        keep_out = ~inc_v
        while dom:
            low = dom & -dom
            dom ^= low
            j = low.bit_length() - 1
            mask = entry_masks[j]
            remaining[j] -= 1
            keep_in = inc_v if remaining[j] else inc_v ^ low
            narrowed = [d & (keep_in if (mask >> u) & 1 else keep_out)
                        for u, d in zip(free, doms)]
            if 0 not in narrowed:
                nodes += 1
                assigned[v] = mask
                if walk(free, narrowed):
                    return True
            remaining[j] += 1
        return False

    walk(tuple(range(n)), inc)
    del walk  # it holds itself through its closure cell: a cycle per call
    return found, nodes


def from_multiset(m: NeighborhoodMultiset, mode: str = "all",
                  limit: int = DEFAULT_SOLUTION_LIMIT) -> ReconstructionResult:
    """Find labeled graphs whose closed-neighborhood multiset equals ``m``,
    by the exact search :func:`_realize` over its entries."""
    t0 = time.perf_counter()
    cap = _check_mode(mode, limit, m.universe)
    found, nodes = _realize(m.universe, m.entries, cap)
    candidates = [Graph._from_adj_unchecked(m.universe, adj) for adj in found]
    return _verdict(limit, candidates, nodes, t0, m, "multiset")


# ---------------------------------------------------------------------------
# The step both set-family paths share, and reconstruction from the support
# ---------------------------------------------------------------------------


def _realize_on_base(sigs: list[int], members: int, owners: list[int], n: int,
                     cap: int) -> tuple[list[Graph], int]:
    """Realize a family of ``members`` masks cut down to the base vertices,
    each cut once, and blow every realization q up to ``n`` vertices
    through ``owners``; return up to ``cap`` graphs and the nodes explored.

    ``sigs[i]`` is the signature of the base vertex with index i: bit j is
    set when member j holds it.  The cut of member j, bit i for base index
    i, is bit j of every signature, so the cuts are the transpose of
    ``sigs``; they must be distinct.  ``owners[r]`` is the mask of the
    vertices that own base index r, and N[v] is the union of the closed
    neighborhoods of the base indices v owns: w is adjacent to v exactly
    when w owns a base index in N_q[r] for a base index r that v owns,
    which is symmetric because q is.
    """
    cut = np.array(_transpose(sigs, members), dtype=np.uint64)
    entries = [(c, 1) for c in cut[_canonical_order(cut)].tolist()]
    found, nodes = _realize(len(sigs), entries, cap)
    graphs = []
    for q in found:
        adj = [0] * n
        for r, row_q in enumerate(q):
            row_q |= 1 << r
            row = 0  # the vertices owning a base index in N_q[r]
            while row_q:
                low = row_q & -row_q
                row |= owners[low.bit_length() - 1]
                row_q ^= low
            own = owners[r]
            while own:
                low = own & -own
                adj[low.bit_length() - 1] |= row
                own ^= low
        graphs.append(Graph._from_adj_unchecked(
            n, tuple(row & ~(1 << v) for v, row in enumerate(adj))))
    return graphs, nodes


def from_support(f: SetFamily, mode: str = "all",
                 limit: int = DEFAULT_SOLUTION_LIMIT) -> ReconstructionResult:
    """Find labeled graphs whose set of closed neighborhoods equals ``f``.

    Twins lie in the same members of f, so cut down to the lowest vertex of
    each twin class the members are the closed neighborhoods of the quotient
    graph, each once; blowing each class up into a clique of twins gives
    every candidate.  Before it searches, the realizer rejects a vertex in
    no member, a member count other than the class count and cut sizes that
    fail its count.
    """
    t0 = time.perf_counter()
    cap = _check_mode(mode, limit, f.universe)
    sigs, blocks = _twin_classes(f)
    candidates, nodes = _realize_on_base(sigs, len(f), blocks, f.universe, cap)
    return _verdict(limit, candidates, nodes, t0, f, "support")


# ---------------------------------------------------------------------------
# Reconstruction from the digital convexity
# ---------------------------------------------------------------------------


def from_digital_convexity(d: SetFamily, mode: str = "all",
                           limit: int = DEFAULT_SOLUTION_LIMIT) -> ReconstructionResult:
    """Find labeled graphs whose digital convexity equals ``d``.

    The family must satisfy the convexity axioms (contain the empty set and
    the universe, be intersection-closed).  Complementing its members gives
    U, the family of closed neighborhoods of vertex subsets.  With S the
    base vertices of U, every N[v] is the union of the N[b], b in S, that
    it holds; v owns those b.  So the whole graph is fixed by G[S]: v ~ w
    exactly when w owns a base vertex in N[b] for a b that v owns.  G[S]
    is twin-free and none of its closed neighborhoods is a union of the
    others, so the union-irreducible members of U, cut down to S, are its
    closed neighborhoods, each once.  One realizer call on them and one
    blow-up through the owners give every candidate.

    S and the owners are read from per-vertex signatures over those
    irreducible members alone (at most n of them for a graph's convexity),
    not over all of U.  The irreducibles generate U, so a member of U
    holding u holds an irreducible that holds u: every containment and
    every OR-equality of signatures comes out as over all of U, as in
    :func:`~nbhdrecon.families.cn_subset`.  The containments come from
    caps, not from pairs of signatures: the AND of the irreducibles holding
    b is the set of v whose signatures contain b's, the owners of b
    (:func:`~nbhdrecon.families._base_and_caps`).
    """
    t0 = time.perf_counter()
    cap = _check_mode(mode, limit, d.universe)
    n = d.universe
    if n > CONVEXITY_ENUMERATION_CEILING:
        # every candidate is re-verified through its 2^n table of sets N[A]
        raise ResourceLimitError(
            f"convexity reconstruction is capped at "
            f"{CONVEXITY_ENUMERATION_CEILING} vertices (got {n})"
        )
    # its lattice is freed on return, before the re-verification builds its own
    # 2^n table
    irreducible = _convexity_basis(d)
    if irreducible is None:
        return _verdict(limit, [], 0, t0, d, "convexity")
    _, owners, sigs = _base_and_caps(irreducible, n)  # base nonempty: V is in U
    # the cuts are distinct, since no two members of U agree on S
    candidates, nodes = _realize_on_base(sigs, len(irreducible), owners, n, cap)
    return _verdict(limit, candidates, nodes, t0, d, "convexity")


# ---------------------------------------------------------------------------
# Closing-the-loop verifier
# ---------------------------------------------------------------------------


def realizes(g: Graph, reference, kind: str) -> bool:
    """Check that ``g`` realizes ``reference`` under the tagged invariant.

    ``kind`` is one of ``multiset`` (closed neighborhoods with multiplicity),
    ``support`` (distinct closed neighborhoods) or ``convexity`` (digitally
    convex sets).  Universes must match.

    ``support`` compares the set of g's closed neighborhoods with the
    reference's member set.  ``convexity`` rebuilds N[A] for every A <= V
    from g (:func:`~nbhdrecon.convexity._neighborhood_unions`) and checks
    that the reference has as many members as there are distinct N[A], and
    that the complement of each member is one of them; with the counts
    equal, that is equality of the two families.  That table has 2^n
    cells, so ``convexity`` raises
    :class:`~nbhdrecon.errors.ResourceLimitError` past 20 vertices
    (``CONVEXITY_ENUMERATION_CEILING``).
    """
    if kind == "multiset":
        if not isinstance(reference, NeighborhoodMultiset):
            raise InputError("kind 'multiset' expects a NeighborhoodMultiset")
        if reference.universe != g.n:
            raise InputError("graph and reference universes differ")
        counts: dict[int, int] = {}
        for v, row in enumerate(g._adj):
            mask = row | (1 << v)
            counts[mask] = counts.get(mask, 0) + 1
        return counts == dict(reference.entries)
    if not isinstance(reference, SetFamily):
        raise InputError(f"kind {kind!r} expects a SetFamily")
    if reference.universe != g.n:
        raise InputError("graph and reference universes differ")
    if kind == "support":
        return {row | (1 << v) for v, row in enumerate(g._adj)} == reference._mask_set
    if kind == "convexity":
        seen = _neighborhood_unions(g)  # g's sets N[A], the complements of its convex sets
        # seen[::-1][m] is seen[full - m], the complement of m; the members
        # are below 2^20, so their int64 view indexes without a copy
        return (np.count_nonzero(seen) == len(reference)
                and bool(seen[::-1][reference.mask_array.view(np.int64)].all()))
    raise InputError(f"unknown invariant kind {kind!r}")
