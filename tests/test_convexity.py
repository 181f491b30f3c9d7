import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbhdrecon import (
    Graph,
    ResourceLimitError,
    SetFamily,
    VertexSet,
    check_convexity_axioms,
    closed_support,
    complement_family,
    contains_induced_c4,
    convexity_witness,
    digital_convexity,
    from_digital_convexity,
    is_digitally_convex,
    realizes,
    union_closure,
)
from nbhdrecon.families import lattice_pays

from helpers import (
    P3,
    WORKED_EXAMPLE,
    enumerate_labeled_graphs,
    oracle_first_unclosed_pair,
    oracle_is_convex,
    random_c4_free_graph,
    random_graph,
    vs1,
)


def fam(universe, *sets):
    return SetFamily(universe, [VertexSet.from_members(s, universe) for s in sets])


class TestMembership:
    def test_complete_graph_rejects_proper_nonempty(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        for bits in range(1, 15):
            assert not is_digitally_convex(k4, VertexSet(bits, 4))
        assert is_digitally_convex(k4, VertexSet.empty(4))
        assert is_digitally_convex(k4, VertexSet.full(4))

    def test_path_endpoint(self):
        assert is_digitally_convex(P3, P3.subset([0]))
        assert not is_digitally_convex(P3, P3.subset([1]))

    def test_worked_example_pendant(self):
        assert is_digitally_convex(WORKED_EXAMPLE, vs1(8, 5))

    def test_full_set_vacuous(self):
        g = random_graph(6, random.Random(5))
        assert is_digitally_convex(g, g.vertex_set())

    def test_witness_private_neighbors(self):
        w = convexity_witness(P3, P3.subset([0]))
        assert w.convex
        # outside vertices 1 and 2 both keep 2 as a private neighbor
        assert w.private_neighbors == {1: 2, 2: 2}

    def test_witness_violator(self):
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        w = convexity_witness(k3, k3.subset([0]))
        assert not w.convex and w.violator in (1, 2)

    def test_agrees_with_set_oracle(self):
        rng = random.Random(88)
        for _ in range(80):
            n = rng.randint(1, 7)
            g = random_graph(n, rng)
            bits = rng.getrandbits(n)
            assert is_digitally_convex(g, VertexSet(bits, n)) == \
                oracle_is_convex(g, VertexSet(bits, n).members())


class TestEnumeration:
    def test_k1(self):
        assert digital_convexity(Graph(1)) == fam(1, [], [0])

    def test_complete_graphs(self):
        for n in (2, 3, 5):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            assert digital_convexity(g) == SetFamily(n, [0, (1 << n) - 1])

    def test_p3(self):
        assert digital_convexity(P3) == fam(3, [], [0], [2], [0, 1, 2])

    def test_collision_pair_same_convexity(self, k33, prism):
        assert digital_convexity(k33) == digital_convexity(prism)

    def test_always_contains_empty_and_full(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng.randint(1, 6), rng)
            d = digital_convexity(g)
            assert VertexSet.empty(g.n) in d
            assert VertexSet.full(g.n) in d

    def test_matches_membership_predicate(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 6)
            g = random_graph(n, rng)
            d = digital_convexity(g)
            for bits in range(1 << n):
                assert (VertexSet(bits, n) in d) == is_digitally_convex(g, VertexSet(bits, n))

    def test_matches_membership_predicate_n7_to_12(self):
        rng = random.Random(713)
        for n in range(7, 13):
            for g in (random_graph(n, rng), random_c4_free_graph(n, rng)):
                want = [bits for bits in range(1 << n)
                        if is_digitally_convex(g, VertexSet(bits, n))]
                assert digital_convexity(g) == SetFamily(n, want)

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            digital_convexity(Graph(21))


def _ceiling_graph(kind: str, n: int) -> Graph:
    if kind == "sparse":
        return random_graph(n, random.Random(n), 1.5 / n)
    if kind == "edgeless":
        return Graph(n)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestTablesAtTheCeiling:
    """The 2^n kernels up to the enumeration ceiling, against the definition
    on sampled subsets: a sparse G(n, 1.5/n), the edgeless graph (every
    subset convex) and the complete graph (only the empty set and V)."""

    @pytest.mark.parametrize("kind", ["sparse", "edgeless", "complete"])
    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_enumeration_and_reverification(self, n, kind):
        g = _ceiling_graph(kind, n)
        d = digital_convexity(g)
        full = (1 << n) - 1
        if kind == "edgeless":
            assert len(d) == 1 << n
        if kind == "complete":
            assert d.masks == (0, full)
        rng = random.Random(n * 7 + len(kind))
        drawn = [rng.getrandbits(n) for _ in range(300)]
        drawn += [rng.choice(d.masks) for _ in range(100)]
        nonconvex = None
        for bits in drawn:
            convex = is_digitally_convex(g, VertexSet(bits, n))
            assert d.contains_mask(bits) == convex
            if not convex:
                nonconvex = bits
        assert (nonconvex is None) == (kind == "edgeless")

        assert realizes(g, d, "convexity")
        drop = rng.randrange(1, len(d) - 1) if len(d) > 2 else 1
        rest = np.delete(d.mask_array, drop)
        assert not realizes(g, SetFamily(n, rest), "convexity")
        if nonconvex is not None:
            swapped = SetFamily(n, np.append(rest, np.uint64(nonconvex)))
            assert len(swapped) == len(d)
            assert not realizes(g, swapped, "convexity")


class TestComplementBridge:
    @given(st.integers(1, 8), st.data())
    def test_involution(self, u, data):
        masks = data.draw(st.lists(st.integers(0, (1 << u) - 1), max_size=6))
        f = SetFamily(u, masks)
        assert complement_family(complement_family(f)) == f

    def test_p3_bridge(self):
        d = digital_convexity(P3)
        assert complement_family(d) == union_closure(closed_support(P3))

    def test_empty_full_swap(self):
        f = SetFamily(3, [0, 0b111])
        assert complement_family(f) == f

    def test_complements_equal_union_closure_small(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_graph(rng.randint(1, 7), rng)
            assert complement_family(digital_convexity(g)) == \
                union_closure(closed_support(g))

    def test_witness_construction_from_complement(self):
        # when S is convex, A = V minus N[S] satisfies N[A] = V minus S
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(n, rng)
            s = VertexSet(rng.getrandbits(n), n)
            if not is_digitally_convex(g, s):
                continue
            a = ~g.closed_neighborhood_of_set(s)
            assert g.closed_neighborhood_of_set(a) == ~s


class TestAxioms:
    def test_digital_convexity_always_passes(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng.randint(1, 6), rng)
            assert check_convexity_axioms(digital_convexity(g)).ok

    def test_missing_universe_reported(self):
        report = check_convexity_axioms(fam(3, [], [0]))
        assert not report.ok and report.missing_universe
        assert "full vertex set" in report.describe()

    def test_missing_empty_reported(self):
        report = check_convexity_axioms(fam(2, [0, 1]))
        assert not report.ok and report.missing_empty

    def test_intersection_closed_accepts(self):
        assert check_convexity_axioms(fam(3, [], [0], [1], [0, 1, 2])).ok

    def test_violating_pair_reported(self):
        report = check_convexity_axioms(fam(3, [], [0, 1], [1, 2], [0, 1, 2]))
        assert not report.ok
        a, b = report.violating_pair
        assert (a.members(), b.members()) == ((0, 1), (1, 2))

    def test_matches_quadratic_reference(self):
        rng = random.Random(99)
        for _ in range(60):
            u = rng.randint(1, 5)
            masks = {0, (1 << u) - 1}
            masks |= {rng.getrandbits(u) for _ in range(rng.randint(0, 6))}
            f = SetFamily(u, masks)
            closed = all(f.contains_mask(x & y) for x in f.masks for y in f.masks)
            assert check_convexity_axioms(f).ok == closed


def _intersection_closure(masks):
    while True:
        grown = masks | {a & b for a in masks for b in masks}
        if grown == masks:
            return masks
        masks = grown


def _assert_axioms_match_oracle(f) -> bool:
    want = oracle_first_unclosed_pair(m.members() for m in f)
    report = check_convexity_axioms(f)
    assert report.ok == (want is None)
    if want is not None:
        assert tuple(v.members() for v in report.violating_pair) == want
    return report.ok


class TestAxiomKernel:
    def test_matches_pairwise_oracle_on_both_sides(self, lattice_side):
        rng = random.Random(4242)
        closed = 0
        for _ in range(80):
            u = rng.randint(1, 9)
            masks = {0, (1 << u) - 1}
            masks |= {rng.getrandbits(u) for _ in range(rng.randint(0, 8))}
            if rng.random() < 0.5:
                masks = _intersection_closure(masks)
            closed += _assert_axioms_match_oracle(SetFamily(u, masks))
        assert 0 < closed < 80

    def test_natural_cutover_on_convexities(self):
        # convexities are closed; adding or dropping a member may break that
        rng = random.Random(4243)
        sides = set()
        checked = 0
        while checked < 30:
            n = rng.randint(6, 12)
            g = random_c4_free_graph(n, rng) if rng.random() < 0.5 else random_graph(n, rng)
            masks = set(digital_convexity(g).masks)
            if len(masks) > 400:  # keep the quadratic oracle cheap
                continue
            roll = rng.random()
            if roll < 0.35:
                masks.add(rng.getrandbits(n))
            elif roll < 0.7 and len(masks) > 2:
                masks.discard(rng.choice(sorted(masks - {0, (1 << n) - 1})))
            f = SetFamily(n, masks)
            sides.add(lattice_pays(len(f), n))
            _assert_axioms_match_oracle(f)
            checked += 1
        assert sides == {False, True}


class TestLatticeDtypeBoundaries:
    """The axiom check and reconstruction from the convexity on each side of
    the member lattice's dtype boundaries (uint8 up to n = 8, uint16 up to
    16, uint32 above), on both sides of the pair / lattice cut-over."""

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 20])
    def test_axioms_and_reconstruction(self, n, lattice_side):
        rng = random.Random(n)
        graphs = [random_graph(n, rng, 0.9)]
        if n <= 9:  # larger convexities, still cheap for the quadratic oracle
            graphs.append(random_c4_free_graph(n, rng))
        for g in graphs:
            d = digital_convexity(g)
            assert _assert_axioms_match_oracle(d)
            assert g in from_digital_convexity(d, "all").graphs
            dropped = SetFamily(n, [m for m in d.masks if m != d.masks[len(d) // 2]])
            _assert_axioms_match_oracle(dropped)
            for h in from_digital_convexity(dropped, "all").graphs:
                assert digital_convexity(h) == dropped


class TestSupportAgainstConvexity:
    def test_convexity_merges_supports_only_around_c4_n6(self):
        # The convexity is a function of the support (its complements are
        # the unions of closed neighborhoods), but not the other way round
        # for labeled graphs: at n = 6 some convexities are shared by graphs
        # whose supports differ, and every such graph holds an induced C4.
        supports = set()
        by_convexity = defaultdict(list)
        for g in enumerate_labeled_graphs(6):
            support = closed_support(g)
            supports.add(support)
            by_convexity[digital_convexity(g)].append((g, support))
        merged = [group for group in by_convexity.values()
                  if len({support for _, support in group}) > 1]
        assert (len(supports), len(by_convexity)) == (30674, 30434)
        assert len(merged) == 120
        assert all(len({support for _, support in group}) == len(group) == 3
                   for group in merged)
        assert all(contains_induced_c4(g) for group in merged for g, _ in group)
