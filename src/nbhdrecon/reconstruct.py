"""Reconstruction of labeled graphs from neighborhood data.

Three entry points, one per invariant:

* :func:`from_multiset`  - from the multiset of closed neighborhoods, by an
  exact backtracking realizer;
* :func:`from_support`   - from the set of closed neighborhoods, by the
  quotient-and-blow-up pipeline over twin classes;
* :func:`from_digital_convexity` - from the family of digitally convex sets,
  by complementing into neighborhood unions and recursing on base vertices.

All three return a :class:`ReconstructionResult` whose verdict is one of
``unique`` / ``ambiguous`` / ``infeasible``.  Inputs are untrusted: every
graph is re-verified against the input invariant before it is returned, and
unrealizable families yield the infeasible verdict rather than an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .convexity import (
    CONVEXITY_ENUMERATION_CEILING,
    check_convexity_axioms,
    complement_family,
    digital_convexity,
)
from .errors import InputError, ResourceLimitError, UnrealizableFamilyError
from .families import (
    NeighborhoodMultiset,
    SetFamily,
    closed_support,
    incidence_signatures,
    irreducible_members,
    neighborhood_multiset,
    _base_vertices_from_signatures,
)
from .graphs import Graph, VertexSet, mask_members, mask_of

#: Default cap on the number of realizations collected in ``all`` mode.
DEFAULT_SOLUTION_LIMIT = 64

_MODES = ("first", "all", "count")


@dataclass(frozen=True, slots=True)
class EquivalenceClasses:
    """Partition of the universe into classes of equal closed neighborhoods."""

    universe: int
    blocks: tuple[VertexSet, ...]
    representatives: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ReconstructionResult:
    """Outcome of a reconstruction query.

    ``graphs`` lists the realizations found (possibly cut off at the search
    limit, in which case ``truncated`` is set and the verdict stays
    ``ambiguous`` even for a single graph).  In ``first`` mode a lone
    solution is reported as ``unique`` without certifying uniqueness; use
    ``all`` mode when the input is not known to be uniquely realizable.
    An ``infeasible`` verdict with ``truncated`` set means the search hit
    the limit before anything verified, so infeasibility is not certified
    either; rerun with a higher limit.
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


def _verdict(mode: str, graphs: list[Graph], truncated: bool,
             nodes: int, t0: float) -> ReconstructionResult:
    elapsed = time.perf_counter() - t0
    if not graphs:
        return ReconstructionResult("infeasible", (), truncated, nodes, elapsed)
    if mode == "first":
        return ReconstructionResult("unique", (graphs[0],), truncated, nodes, elapsed)
    if len(graphs) == 1 and not truncated:
        return ReconstructionResult("unique", tuple(graphs), False, nodes, elapsed)
    return ReconstructionResult("ambiguous", tuple(graphs), truncated, nodes, elapsed)


def _check_mode(mode: str, limit: int, universe: int) -> int:
    if mode not in _MODES:
        raise InputError(f"mode must be one of {_MODES}, got {mode!r}")
    if limit < 1:
        raise InputError(f"limit must be positive, got {limit}")
    if universe < 1:
        raise InputError("reconstruction needs a nonempty universe")
    return 1 if mode == "first" else limit


# ---------------------------------------------------------------------------
# Twin classes and the quotient family
# ---------------------------------------------------------------------------


def equivalence_classes(gen: SetFamily) -> EquivalenceClasses:
    """Group vertices whose closed neighborhoods agree, judged from ``gen``.

    Two vertices are twins exactly when they lie in the same members of the
    generating family.  The representative of each block is its minimum id.
    """
    n = gen.universe
    sig = incidence_signatures(gen)
    by_sig: dict[int, int] = {}
    blocks: list[int] = []
    for v in range(n):
        s = sig[v]
        if s in by_sig:
            blocks[by_sig[s]] |= 1 << v
        else:
            by_sig[s] = len(blocks)
            blocks.append(1 << v)
    blocks.sort(key=lambda b: (b & -b))
    return EquivalenceClasses(
        n,
        tuple(VertexSet(b, n) for b in blocks),
        tuple((b & -b).bit_length() - 1 for b in blocks),
    )


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


def from_multiset(m: NeighborhoodMultiset, mode: str = "all",
                  limit: int = DEFAULT_SOLUTION_LIMIT) -> ReconstructionResult:
    """Find labeled graphs whose closed-neighborhood multiset equals ``m``.

    Backtracking assignment: each vertex v picks one member containing v,
    respecting multiplicities; the choice M_v pins deg(v) = |M_v| - 1 and
    forces adjacency u~v iff u in M_v and v in M_u.  A partial assignment is
    extended only while membership stays mutual (u in M_v iff v in M_u), so
    completed assignments are realizations by construction; they are still
    re-verified before being returned.
    """
    t0 = time.perf_counter()
    cap = _check_mode(mode, limit, m.universe)
    n = m.universe
    nodes = 0

    if m.total_multiplicity != n:
        return _verdict(mode, [], False, nodes, t0)
    degree_sum = sum(mult * (mask.bit_count() - 1) for mask, mult in m.entries)
    if degree_sum % 2:
        return _verdict(mode, [], False, nodes, t0)

    entry_masks = [mask for mask, _ in m.entries]
    remaining = [mult for _, mult in m.entries]
    candidates: list[tuple[int, ...]] = []
    for v in range(n):
        cand = tuple(i for i, mask in enumerate(entry_masks) if (mask >> v) & 1)
        if not cand:
            return _verdict(mode, [], False, nodes, t0)
        candidates.append(cand)

    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    assigned = [0] * n
    placed: list[int] = []
    solutions: list[Graph] = []
    truncated = False

    def walk(i: int) -> bool:
        """Depth-first over assignments; True means the cap cut the search."""
        nonlocal nodes, truncated
        if i == n:
            adj = tuple(assigned[v] & ~(1 << v) for v in range(n))
            h = Graph._from_adj_unchecked(n, adj)
            if realizes(h, m, "multiset"):
                solutions.append(h)
                if len(solutions) >= cap:
                    truncated = True
                    return True
            return False
        v = order[i]
        vbit = 1 << v
        for j in candidates[v]:
            if remaining[j] == 0:
                continue
            mask = entry_masks[j]
            ok = True
            for u in placed:
                if bool((mask >> u) & 1) != bool(assigned[u] & vbit):
                    ok = False
                    break
            if not ok:
                continue
            nodes += 1
            assigned[v] = mask
            remaining[j] -= 1
            placed.append(v)
            stop = walk(i + 1)
            placed.pop()
            remaining[j] += 1
            assigned[v] = 0
            if stop:
                return True
        return False

    walk(0)
    if len(solutions) < cap:
        truncated = False  # search ran to completion
    return _verdict(mode, solutions, truncated, nodes, t0)


# ---------------------------------------------------------------------------
# Reconstruction from the support (set) of closed neighborhoods
# ---------------------------------------------------------------------------


def _expand_blocks(quotient: Graph, classes: EquivalenceClasses) -> Graph:
    """Blow every quotient vertex back up into its block of twins."""
    n = classes.universe
    block_of = [0] * n
    for i, block in enumerate(classes.blocks):
        for v in block:
            block_of[v] = i
    adj = [0] * n
    for v in range(n):
        i = block_of[v]
        row = classes.blocks[i].bits & ~(1 << v)  # twins form a clique
        for j in mask_members(quotient.adjacency_mask(i)):
            row |= classes.blocks[j].bits
        adj[v] = row
    return Graph._from_adj_unchecked(n, tuple(adj))


def from_support(f: SetFamily, mode: str = "all",
                 limit: int = DEFAULT_SOLUTION_LIMIT) -> ReconstructionResult:
    """Find labeled graphs whose set of closed neighborhoods equals ``f``.

    Pipeline: twin classes from the family, quotient family over the class
    universe (one closed neighborhood per class, all multiplicities one),
    exact realization of the quotient, then blow-up of each class.  Every
    candidate is re-verified against ``f``.  The classes come from f's own
    signatures, so the quotient cannot fail; the realizer rejects a vertex
    in no member and a member count other than the class count.
    """
    t0 = time.perf_counter()
    _check_mode(mode, limit, f.universe)
    classes = equivalence_classes(f)
    quotient = quotient_family(f, classes)
    sub = from_multiset(NeighborhoodMultiset(len(classes.blocks), quotient.masks),
                        mode, limit)
    graphs = []
    for q in sub.graphs:
        h = _expand_blocks(q, classes)
        if realizes(h, f, "support"):
            graphs.append(h)
    return _verdict(mode, graphs, sub.truncated, sub.nodes_explored, t0)


# ---------------------------------------------------------------------------
# Reconstruction from the digital convexity
# ---------------------------------------------------------------------------


def _dc_realize(u: SetFamily, verts: int,
                limit: int) -> tuple[list[dict[int, int]], bool, int]:
    """Realize a family of neighborhood unions restricted to ``verts``.

    Returns adjacency maps keyed by original vertex ids (only bits inside
    ``verts`` are used), a truncation flag and the realizer's node count.
    Recursion: find base vertices S from the union family; if S is
    everything, the irreducible members are the distinct closed
    neighborhoods of a twin-free graph (the removal pass drops the higher
    of two twins and every vertex in no member), which the multiset
    realizer finishes; otherwise realize the restriction to S and extend,
    writing each removed vertex's neighborhood as the neighborhood of its
    canonical base-vertex set.  The extension keeps the sub-realization on
    S, so no graph comes out twice.
    """
    vlist = mask_members(verts)
    if len(vlist) == 1:
        return [{vlist[0]: 0}], False, 0

    sig = incidence_signatures(u, verts)
    base = _base_vertices_from_signatures(sig, vlist)
    if not base:
        return [], False, 0
    s_mask = mask_of(base)

    if s_mask == verts:
        irr = irreducible_members(u.masks, u.universe)
        pos = {v: i for i, v in enumerate(vlist)}
        compacted = []
        for m in irr:
            cm = 0
            for v in mask_members(m & verts):
                cm |= 1 << pos[v]
            compacted.append(cm)
        # always enumerate here: a lone candidate chosen by a first-fit
        # search could fail the caller's re-verification while another
        # candidate would pass
        sub = from_multiset(NeighborhoodMultiset(len(vlist), compacted), "all", limit)
        out = []
        for h in sub.graphs:
            out.append({v: mask_of(vlist[w] for w in mask_members(h.adjacency_mask(i)))
                        for i, v in enumerate(vlist)})
        return out, sub.truncated, sub.nodes_explored

    u_restricted = SetFamily(u.universe, (m & s_mask for m in u.masks))
    sub_adjs, truncated, nodes = _dc_realize(u_restricted, s_mask, limit)

    canonical: dict[int, int] = {}
    for v in vlist:
        if v in base:
            canonical[v] = 1 << v
        else:
            a = 0
            for b in base:
                if sig[b] & ~sig[v] == 0:
                    a |= 1 << b
            canonical[v] = a

    out = []
    for adj_s in sub_adjs:
        closed_s = {b: adj_s[b] | (1 << b) for b in base}
        reach = {}
        for v in vlist:
            r = 0
            for b in mask_members(canonical[v]):
                r |= closed_s[b]
            reach[v] = r
        adj = {}
        for v in vlist:
            row = 0
            for w in vlist:
                if w != v and canonical[w] & reach[v]:
                    row |= 1 << w
            adj[v] = row
        out.append(adj)
    return out, truncated, nodes


def from_digital_convexity(d: SetFamily, mode: str = "all",
                           limit: int = DEFAULT_SOLUTION_LIMIT) -> ReconstructionResult:
    """Find labeled graphs whose digital convexity equals ``d``.

    The family must satisfy the convexity axioms (contain the empty set and
    the universe, be intersection-closed).  Complementing its members gives
    the family of closed neighborhoods of vertex subsets, which the recursive
    realizer consumes; each candidate's convexity is recomputed and compared
    before it is returned.
    """
    t0 = time.perf_counter()
    _check_mode(mode, limit, d.universe)
    n = d.universe
    if n > CONVEXITY_ENUMERATION_CEILING:
        # every candidate is re-verified by enumerating its convexity
        raise ResourceLimitError(
            f"convexity reconstruction is capped at "
            f"{CONVEXITY_ENUMERATION_CEILING} vertices (got {n})"
        )
    if not check_convexity_axioms(d):
        return _verdict(mode, [], False, 0, t0)

    adjs, truncated, nodes = _dc_realize(complement_family(d), (1 << n) - 1, limit)

    graphs = []
    for adj_map in adjs:
        h = Graph._from_adj_unchecked(n, tuple(adj_map[v] for v in range(n)))
        if realizes(h, d, "convexity"):
            graphs.append(h)
            if mode == "first":
                break
    return _verdict(mode, graphs, truncated, nodes, t0)


# ---------------------------------------------------------------------------
# Closing-the-loop verifier
# ---------------------------------------------------------------------------


def realizes(g: Graph, reference, kind: str) -> bool:
    """Check that ``g`` realizes ``reference`` under the tagged invariant.

    ``kind`` is one of ``multiset`` (closed neighborhoods with multiplicity),
    ``support`` (distinct closed neighborhoods) or ``convexity`` (digitally
    convex sets).  Universes must match.
    """
    if kind == "multiset":
        if not isinstance(reference, NeighborhoodMultiset):
            raise InputError("kind 'multiset' expects a NeighborhoodMultiset")
        if reference.universe != g.n:
            raise InputError("graph and reference universes differ")
        return neighborhood_multiset(g, closed=True) == reference
    if not isinstance(reference, SetFamily):
        raise InputError(f"kind {kind!r} expects a SetFamily")
    if reference.universe != g.n:
        raise InputError("graph and reference universes differ")
    if kind == "support":
        return closed_support(g) == reference
    if kind == "convexity":
        return digital_convexity(g) == reference
    raise InputError(f"unknown invariant kind {kind!r}")
