"""Shared test fixtures and independent oracles.

The oracles deliberately avoid the bitmask code paths they are used to
check: they work on plain Python sets and dicts, or enumerate by brute
force, so agreement is meaningful.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import numpy as np

from nbhdrecon import Graph, SetFamily, VertexSet, contains_induced_c4, digital_convexity
from nbhdrecon.families import _POPCOUNT8
from nbhdrecon.graphs import mask_members


# ---------------------------------------------------------------------------
# Named graph fixtures (1-based vertex names)
# ---------------------------------------------------------------------------


def pg(n: int, pairs) -> Graph:
    """Graph from 1-based edge pairs, labeled 1..n."""
    return Graph(n, [(u - 1, v - 1) for u, v in pairs], labels=tuple(range(1, n + 1)))


def vs1(universe: int, *names) -> VertexSet:
    """VertexSet from 1-based vertex names."""
    return VertexSet.from_members((x - 1 for x in names), universe)


def sets1(family) -> set[tuple[int, ...]]:
    """Family members as 1-based sorted tuples, for eyeball-friendly asserts."""
    return {tuple(x + 1 for x in mask_members(m)) for m in family.masks}


HEXAGON = pg(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
TWO_TRIANGLES = pg(6, [(1, 3), (3, 5), (1, 5), (2, 4), (4, 6), (2, 6)])
K33 = pg(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
PRISM = pg(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)])

# The 8-vertex C4-free worked example: vertex 1 dominates, twins {2,6} and
# {4,7,8}, pendant 5.
WORKED_EXAMPLE = pg(8, [(1, 5), (1, 2), (1, 6), (1, 3), (1, 4), (1, 7), (1, 8),
                        (2, 6), (2, 3), (3, 6), (3, 4), (3, 7), (3, 8),
                        (4, 7), (4, 8), (7, 8)])
WORKED_EXAMPLE_EDGES = {(1, 5), (1, 2), (1, 6), (1, 3), (1, 4), (1, 7), (1, 8),
                        (2, 6), (2, 3), (3, 6), (3, 4), (3, 7), (3, 8),
                        (4, 7), (4, 8), (7, 8)}
WORKED_EXAMPLE_SUPPORT = {(1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 6),
                          (1, 2, 3, 4, 6, 7, 8), (1, 3, 4, 7, 8), (1, 5)}

# 5-vertex graph that contains an induced C4 yet is uniquely determined by
# its set of closed neighborhoods.
UNIQUE_WITH_C4 = pg(5, [(1, 2), (1, 4), (1, 5), (2, 3), (3, 4)])
UNIQUE_WITH_C4_SUPPORT = {(1, 2, 4, 5), (1, 2, 3), (2, 3, 4), (1, 3, 4), (1, 5)}

# The three labeled 4-cycles on {1,2,3,4}; all share the same set of closed
# neighborhoods.
C4_LABELINGS = (
    pg(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    pg(4, [(1, 2), (2, 4), (3, 4), (1, 3)]),
    pg(4, [(1, 3), (2, 3), (2, 4), (1, 4)]),
)

P3 = Graph(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# Set-based oracles (independent of the bitmask implementations)
# ---------------------------------------------------------------------------


def nbhd_sets(g: Graph, closed: bool = True) -> dict[int, frozenset]:
    """Per-vertex neighborhoods as plain frozensets, built from the edge list."""
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    if closed:
        return {v: frozenset(adj[v] | {v}) for v in range(g.n)}
    return {v: frozenset(adj[v]) for v in range(g.n)}


def closed_nbhd_of_set(g: Graph, members) -> frozenset:
    nb = nbhd_sets(g)
    out: set = set()
    for v in members:
        out |= nb[v]
    return frozenset(out)


def oracle_is_convex(g: Graph, members) -> bool:
    """Definition check on plain sets: each outside vertex keeps a private
    neighbor."""
    s = set(members)
    reach = closed_nbhd_of_set(g, s)
    nb = nbhd_sets(g)
    for v in range(g.n):
        if v in s:
            continue
        if not (nb[v] - reach):
            return False
    return True


def oracle_support(g: Graph) -> frozenset:
    """Distinct closed neighborhoods as a frozenset of frozensets."""
    return frozenset(nbhd_sets(g).values())


def oracle_members(mask: int) -> tuple[int, ...]:
    """Set bits of ``mask``, ascending, by testing every position."""
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def oracle_canonical_order(masks) -> list[int]:
    """Distinct masks in the canonical order by its definition: size, then
    the ascending member tuples compared lexicographically."""
    return sorted(set(masks), key=lambda m: (len(oracle_members(m)), oracle_members(m)))


def oracle_incidence_signatures(masks, verts) -> dict[int, int]:
    """Per-vertex signature from the definition: bit i set iff the i-th
    member (in the given order) contains the vertex."""
    sets = [set(oracle_members(m)) for m in masks]
    return {v: sum(1 << i for i, s in enumerate(sets) if v in s) for v in verts}


def oracle_convexity(g: Graph) -> frozenset:
    """Every digitally convex set, by the definition over all subsets."""
    nb = nbhd_sets(g)
    out = set()
    for pick in range(1 << g.n):
        s = {v for v in range(g.n) if (pick >> v) & 1}
        reach = frozenset().union(*(nb[v] for v in s))
        if all(nb[v] - reach for v in range(g.n) if v not in s):
            out.add(frozenset(s))
    return frozenset(out)


def oracle_union_closure(members: list[frozenset]) -> set[frozenset]:
    """All unions of subfamilies, via explicit subset enumeration."""
    out = set()
    k = len(members)
    for pick in range(1 << k):
        u: frozenset = frozenset()
        for i in range(k):
            if (pick >> i) & 1:
                u |= members[i]
        out.add(u)
    return out


def oracle_spans(candidate: list[frozenset], family: list[frozenset]) -> bool:
    closure = oracle_union_closure(candidate)
    return all(f in closure for f in family)


def oracle_union_basis(members: list[frozenset]) -> set[frozenset]:
    """All minimal spanning subfamilies by brute force; asserts uniqueness."""
    distinct = sorted(set(members), key=lambda s: (len(s), sorted(s)))
    k = len(distinct)
    spanning = []
    for pick in range(1 << k):
        chosen = [distinct[i] for i in range(k) if (pick >> i) & 1]
        if oracle_spans(chosen, distinct):
            spanning.append(frozenset(chosen))
    minimal = [s for s in spanning if not any(t < s for t in spanning)]
    assert len(minimal) == 1, f"expected a unique minimal spanning subfamily, got {minimal}"
    return set(minimal[0])


def oracle_irreducible(members) -> set[frozenset]:
    """Nonempty members that differ from the union of the members strictly
    inside them; quadratic, for families too large for the basis oracle."""
    distinct = set(members)
    return {m for m in distinct
            if m and frozenset().union(*(o for o in distinct if o < m)) != m}


def oracle_base_vertices(sig: list[int]) -> list[int]:
    """Base vertices from per-vertex signatures by the all-pairs greedy pass.

    Vertices are dropped from the highest id down; v is removable when the
    OR of the signatures of the other alive vertices u with
    sig(u) subset-of sig(v) equals sig(v).  Every pair is compared directly,
    with no containment caps."""
    alive = set(range(len(sig)))
    for v in reversed(range(len(sig))):
        target = sig[v]
        acc = 0
        for u in alive:
            if u != v and sig[u] & ~target == 0:
                acc |= sig[u]
        if acc == target:
            alive.remove(v)
    return sorted(alive)


def oracle_convexity_base(d) -> tuple[list[int], list[int]]:
    """Base vertices and can() of the convexity ``d`` from the signatures
    over every member of U, the complements of its members: ``d``'s
    incidence signatures complemented within ``len(d)`` bits.  can(v) is the
    mask of the indices i with N[base[i]] inside N[v].  This is the formula
    the library's caps over U's irreducible members replaced."""
    full = (1 << len(d)) - 1
    sig = [full ^ s for s in oracle_incidence_signatures(d.masks, range(d.universe)).values()]
    base = oracle_base_vertices(sig)
    canon = [sum(1 << i for i, b in enumerate(base) if sig[b] & ~sig[v] == 0)
             for v in range(d.universe)]
    return base, canon


def lattice_corpus():
    """``(g, d, dropped)`` for 60 seeded C4-free graphs g at n = 12-14 whose
    convexity d has 200-799 members; ``dropped`` is d with one member other
    than the empty set and V dropped."""
    rng = random.Random(1414)
    kept = 0
    while kept < 60:
        n = rng.choice((12, 13, 14))
        g = random_c4_free_graph(n, rng)
        d = digital_convexity(g)
        if not 200 <= len(d) < 800:
            continue
        kept += 1
        drop = rng.choice(d.masks[1:-1])
        yield g, d, SetFamily(n, [m for m in d.masks if m != drop])


def oracle_first_unclosed_pair(members):
    """First pair (i <= j) in canonical member order whose intersection is
    missing from the family, as a pair of sorted tuples, or None."""
    order = sorted({frozenset(m) for m in members}, key=lambda s: (len(s), sorted(s)))
    present = set(order)
    for i, a in enumerate(order):
        for b in order[i:]:
            if a & b not in present:
                return tuple(sorted(a)), tuple(sorted(b))
    return None


def oracle_base_vertex_set(g: Graph, base_members) -> bool:
    """Check the defining property of a base-vertex set directly on ``g``:

    the closed neighborhoods of the base equal the unique minimal spanning
    subfamily of the support, and every outside vertex's closed neighborhood
    is the closed neighborhood of some subset of the base (enumerated).
    """
    base = sorted(base_members)
    nb = nbhd_sets(g)
    support = list({nb[v] for v in range(g.n)})
    if {nb[v] for v in base} != oracle_union_basis(support):
        return False
    for v in range(g.n):
        if v in base:
            continue
        found = False
        for r in range(len(base) + 1):
            for sub in combinations(base, r):
                if closed_nbhd_of_set(g, sub) == nb[v]:
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


def oracle_least_witness(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Lexicographically least sigma with N_g[v] = N_h[sigma(v)] for all v,
    by trying every permutation in lexicographic order; None if none fits."""
    ng, nh = nbhd_sets(g), nbhd_sets(h)
    for sigma in permutations(range(g.n)):
        if all(ng[v] == nh[sigma[v]] for v in range(g.n)):
            return sigma
    return None


def brute_force_multiset_realizations(m) -> list[Graph]:
    """All labeled graphs with the given closed multiset, by full enumeration."""
    from nbhdrecon import neighborhood_multiset
    from nbhdrecon.miner import enumerate_labeled_graphs

    n = m.universe
    assert n <= 5, "oracle is exponential; keep it tiny"
    return [g for g in enumerate_labeled_graphs(n)
            if neighborhood_multiset(g) == m]


# ---------------------------------------------------------------------------
# Random graph samplers
# ---------------------------------------------------------------------------


def random_graph(n: int, rng: random.Random, p: float | None = None) -> Graph:
    if p is None:
        p = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if rng.random() < p])


def random_c4_free_graph(n: int, rng: random.Random) -> Graph:
    """Rejection sampling from a sparse/dense mixture of G(n, p) proposals."""
    while True:
        p = rng.uniform(0.0, 2.6 / n) if rng.random() < 0.8 else rng.random()
        g = random_graph(n, rng, p)
        if not contains_induced_c4(g):
            return g


def random_girth5_graph(n: int, rng: random.Random) -> Graph:
    """Rejection sampling of graphs with girth at least five (forests count)."""
    from nbhdrecon import girth

    while True:
        g = random_graph(n, rng, rng.uniform(0.0, 2.2 / n))
        if girth(g) >= 5:
            return g


def with_closed_twins(g: Graph, extra: int, rng: random.Random) -> Graph:
    """Append ``extra`` closed twins of random vertices (preserves C4-freeness)."""
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    n = g.n
    for _ in range(extra):
        v = rng.randrange(n)
        new = n
        row = adj[v] | (1 << v)
        adj.append(row)
        for w in mask_members(row):
            adj[w] |= 1 << new
        n += 1
    return Graph.from_adjacency_masks(adj)


# ---------------------------------------------------------------------------
# Vectorized sweep: all n-vertex graphs with girth >= 5 (forests included)
# ---------------------------------------------------------------------------


def girth5_edge_masks(n: int) -> np.ndarray:
    """Edge masks of every labeled graph on n vertices without triangles or
    4-cycles, i.e. exactly those with girth at least five or no cycle at all.

    Independent of the BFS girth implementation: a graph has girth <= 4 iff
    it has an edge whose ends share a neighbor (triangle) or a vertex pair
    with two common neighbors (4-cycle).
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    total = 1 << len(pairs)
    ems = np.arange(total, dtype=np.uint64)
    cols = np.zeros((total, n), dtype=np.uint64)
    for k, (u, v) in enumerate(pairs):
        bit = (ems >> np.uint64(k)) & np.uint64(1)
        cols[:, u] |= bit << np.uint64(v)
        cols[:, v] |= bit << np.uint64(u)
    bad = np.zeros(total, dtype=bool)
    for k, (u, v) in enumerate(pairs):
        common = cols[:, u] & cols[:, v]
        edge = ((ems >> np.uint64(k)) & np.uint64(1)).astype(bool)
        bad |= edge & (common != 0)                      # triangle
        popcount = _POPCOUNT8.take(common.view(np.uint8)).reshape(-1, 8).sum(axis=1)
        bad |= popcount >= 2                             # 4-cycle
    return ems[~bad]


# ---------------------------------------------------------------------------
# Per-graph reference for the mine and verify commands
# ---------------------------------------------------------------------------


def oracle_mine_lines(n: int, kind: str, jobs: int = 1) -> list[str]:
    """``mine`` output built one Graph at a time: the groups of
    ``find_collisions``, ``to_graph6`` per member and ``check_collision_pair``
    on each closed-multiset group's first pair."""
    from nbhdrecon.formats import dumps_canonical, to_graph6
    from nbhdrecon.miner import check_collision_pair, find_collisions

    lines = []
    for group in find_collisions(n, kind, jobs=jobs):
        record = {
            "kind": group.kind,
            "n": group.n,
            "fingerprint": [list(mask_members(m)) for m in group.fingerprint],
            "graphs": [to_graph6(g) for g in group.graphs],
        }
        if group.kind == "closed-multiset":
            checks = check_collision_pair(group.graphs[0], group.graphs[1])
            record["witness"] = (checks.witness.cycle_notation()
                                 if checks.witness else None)
            record["checks"] = {
                "equal_edge_count": checks.equal_edge_count,
                "orbits_are_cliques": checks.orbits_are_cliques,
                "edge_transit": checks.edge_transit,
                "both_contain_c4": checks.both_contain_c4,
            }
        lines.append(dumps_canonical(record))
    return lines


def oracle_collision_pairs(n: int) -> list[tuple[Graph, Graph]]:
    """Every pair (g, h) of members of a closed-multiset group, groups in
    order and (i, j), i < j, within a group."""
    from nbhdrecon.miner import find_collisions

    return [(grp.graphs[i], grp.graphs[j]) for grp in find_collisions(n)
            for i, j in combinations(range(len(grp.graphs)), 2)]


def oracle_verify_line(n: int) -> str:
    """``verify`` output from ``check_collision_pair`` on every pair."""
    from nbhdrecon.formats import dumps_canonical
    from nbhdrecon.miner import check_collision_pair, find_collisions

    checks = [check_collision_pair(g, h) for g, h in oracle_collision_pairs(n)]
    assert all(c.all_ok for c in checks)
    return dumps_canonical({
        "n": n,
        "graphs_swept": 1 << (n * (n - 1) // 2),
        "collision_groups": len(find_collisions(n)),
        "pairs_checked": len(checks),
        "orbits_checked": sum(len(c.witness.orbits) for c in checks),
        "violations": [],
    })
