import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbhdrecon import (
    Graph,
    InputError,
    NeighborhoodMultiset,
    ResourceLimitError,
    SetFamily,
    VertexSet,
    base_vertices,
    closed_support,
    cn_equal,
    complement_family,
    digital_convexity,
    cn_subset,
    neighborhood_multiset,
    spans,
    union_basis,
    union_closure,
)
from nbhdrecon import families
from nbhdrecon.convexity import _neighborhood_unions
from nbhdrecon.graphs import _transpose
from nbhdrecon.families import (
    _canonical_order,
    _fixed_points,
    _lattice_irreducible,
    irreducible_members,
    lattice_pays,
    member_lattice,
    or_zeta,
)

from helpers import (
    P3,
    WORKED_EXAMPLE,
    WORKED_EXAMPLE_SUPPORT,
    enumerate_labeled_graphs,
    lattice_corpus,
    nbhd_sets,
    oracle_base_vertex_set,
    oracle_base_vertices,
    oracle_canonical_order,
    oracle_incidence_signatures,
    oracle_irreducible,
    oracle_members,
    oracle_union_basis,
    oracle_union_closure,
    random_graph,
    sets1,
    vs1,
)


def fam(universe, *sets):
    return SetFamily(universe, [VertexSet.from_members(s, universe) for s in sets])


class TestMultisetAndSupport:
    def test_k2_closed(self):
        m = neighborhood_multiset(Graph(2, [(0, 1)]))
        assert m.entries == ((0b11, 2),)
        assert m.total_multiplicity == 2
        assert len(m.support()) == 1

    def test_c4_first_labeling(self, c4_labelings):
        m = neighborhood_multiset(c4_labelings[0])
        assert sets1(m.support()) == {(1, 2, 4), (1, 2, 3), (2, 3, 4), (1, 3, 4)}
        assert all(mult == 1 for _, mult in m.entries)

    def test_open_multisets_of_collision_pair(self, hexagon, two_triangles):
        assert neighborhood_multiset(hexagon, closed=False) == \
            neighborhood_multiset(two_triangles, closed=False)

    def test_worked_example_support(self):
        assert sets1(closed_support(WORKED_EXAMPLE)) == WORKED_EXAMPLE_SUPPORT

    def test_support_of_distinct_entries_keeps_size(self):
        m = neighborhood_multiset(P3)
        assert len(m.support()) == 3 == m.total_multiplicity

    def test_multiset_against_set_oracle(self):
        rng = random.Random(4242)
        for _ in range(50):
            g = random_graph(rng.randint(1, 7), rng)
            m = neighborhood_multiset(g)
            expected = {}
            for v, nb in nbhd_sets(g).items():
                mask = sum(1 << x for x in nb)
                expected[mask] = expected.get(mask, 0) + 1
            assert dict(m.entries) == expected

    def test_multiplicities_validated(self):
        with pytest.raises(InputError):
            NeighborhoodMultiset(3, [(VertexSet.full(3), 0)])


class TestUnionClosure:
    def test_two_singletons(self):
        f = fam(2, [0], [1])
        assert union_closure(f) == fam(2, [], [0], [1], [0, 1])

    def test_p3_support(self):
        closure = union_closure(closed_support(P3))
        assert closure == fam(3, [], [0, 1], [1, 2], [0, 1, 2])

    def test_matches_enumeration_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            u = rng.randint(1, 6)
            members = [frozenset(v for v in range(u) if rng.random() < 0.5)
                       for _ in range(rng.randint(0, 5))]
            f = SetFamily(u, [VertexSet.from_members(s, u) for s in members])
            got = {frozenset(m.members()) for m in union_closure(f)}
            assert got == oracle_union_closure(list({frozenset(s) for s in members}))

    @given(st.integers(1, 6), st.data())
    def test_idempotent(self, u, data):
        masks = data.draw(st.lists(st.integers(0, (1 << u) - 1), max_size=5))
        f = SetFamily(u, masks)
        once = union_closure(f)
        assert union_closure(once) == once

    def test_ceiling_is_enforced_and_named(self):
        f = fam(12, *[[v] for v in range(12)])
        with pytest.raises(ResourceLimitError, match="128"):
            union_closure(f, max_members=128)

    def test_closure_of_exactly_the_ceiling_succeeds_and_one_more_raises(self):
        rng = random.Random(13)
        for _ in range(20):
            u = rng.randint(3, 10)
            f = SetFamily(u, [rng.getrandbits(u) for _ in range(rng.randint(1, 8))])
            closure = union_closure(f)
            assert union_closure(f, max_members=len(closure)) == closure
            with pytest.raises(ResourceLimitError, match=str(len(closure) - 1)):
                union_closure(f, max_members=len(closure) - 1)

    def test_stops_at_the_ceiling_before_doubling(self):
        # 21 singletons close to 2^21 sets.  The error must come at the first
        # union past the ceiling: doubling the closure first peaked at about
        # 255 bytes per allowed member, stopping at the ceiling at about 97
        f = fam(21, *[[v] for v in range(21)])
        ceiling = 1 << 14
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                union_closure(f, max_members=ceiling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * ceiling


class TestInclusionTests:
    def test_p3_endpoint_inside_center(self):
        supp = closed_support(P3)
        assert cn_subset(P3.subset([0]), P3.subset([1]), supp)
        assert not cn_subset(P3.subset([1]), P3.subset([0]), supp)

    def test_worked_example_pendant_not_under_twin(self):
        supp = closed_support(WORKED_EXAMPLE)
        assert not cn_subset(vs1(8, 5), vs1(8, 2), supp)

    def test_reflexive(self):
        supp = closed_support(WORKED_EXAMPLE)
        for v in range(8):
            s = WORKED_EXAMPLE.subset([v])
            assert cn_subset(s, s, supp)

    def test_cn_equal_examples(self):
        supp3 = closed_support(P3)
        assert cn_equal(P3.subset([1]), P3.subset([0, 2]), supp3)
        supp8 = closed_support(WORKED_EXAMPLE)
        assert cn_equal(vs1(8, 2), vs1(8, 6), supp8)
        k2 = Graph(2, [(0, 1)])
        assert cn_equal(k2.subset([0]), k2.subset([1]), closed_support(k2))

    def test_agrees_with_direct_neighborhoods(self):
        rng = random.Random(202)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = random_graph(n, rng)
            supp = closed_support(g)
            for _ in range(20):
                a = VertexSet(rng.getrandbits(n), n)
                b = VertexSet(rng.getrandbits(n), n)
                na = g.closed_neighborhood_of_set(a)
                nb = g.closed_neighborhood_of_set(b)
                assert cn_subset(a, b, supp) == (na <= nb)
                assert cn_equal(a, b, supp) == (na == nb)

    def test_generator_reduction(self):
        # evaluating over the support equals evaluating over its full closure
        rng = random.Random(303)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_graph(n, rng)
            supp = closed_support(g)
            closure = union_closure(supp)
            for _ in range(12):
                a = VertexSet(rng.getrandbits(n), n)
                b = VertexSet(rng.getrandbits(n), n)
                assert cn_subset(a, b, supp) == cn_subset(a, b, closure)
                assert cn_equal(a, b, supp) == cn_equal(a, b, closure)


class TestUnionBasis:
    def test_pair_plus_union(self):
        f = fam(2, [0], [1], [0, 1])
        assert union_basis(f) == fam(2, [0], [1])

    def test_worked_example_basis(self):
        basis = union_basis(closed_support(WORKED_EXAMPLE))
        assert sets1(basis) == {(1, 2, 3, 6), (1, 3, 4, 7, 8), (1, 5)}
        # and the brute-force minimal spanning subfamily agrees
        members = [frozenset(m.members()) for m in closed_support(WORKED_EXAMPLE)]
        assert {frozenset(m.members()) for m in basis} == oracle_union_basis(members)

    def test_nonempty_singleton(self):
        f = fam(3, [0, 2])
        assert union_basis(f) == f

    def test_empty_set_never_in_basis(self):
        f = fam(3, [], [0], [1])
        assert union_basis(f) == fam(3, [0], [1])

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            u = rng.randint(1, 6)
            members = [frozenset(v for v in range(u) if rng.random() < 0.5)
                       for _ in range(rng.randint(1, 6))]
            f = SetFamily(u, [VertexSet.from_members(s, u) for s in members])
            got = {frozenset(m.members()) for m in union_basis(f)}
            assert got == oracle_union_basis(list({frozenset(s) for s in members}))

    def test_matches_bruteforce_oracle_on_both_sides(self, lattice_side):
        # members are random unions of a few atoms, so many are reducible;
        # universes 21..24 are past the lattice ceiling and take the pairs
        rng = random.Random(19)
        for _ in range(40):
            u = rng.randint(1, 8) if rng.random() < 0.6 else rng.randint(21, 24)
            atoms = [frozenset(v for v in range(u) if rng.random() < 0.3)
                     for _ in range(rng.randint(1, 4))]
            members = {frozenset().union(*(a for a in atoms if rng.random() < 0.5))
                       for _ in range(rng.randint(1, 7))}
            f = SetFamily(u, [VertexSet.from_members(s, u) for s in members])
            got = {frozenset(m.members()) for m in union_basis(f)}
            assert got == oracle_union_basis(list(members))

    def test_natural_cutover_against_irreducible_oracle(self):
        rng = random.Random(29)
        sides = set()
        checked = 0
        while checked < 30:
            n = rng.randint(4, 12)
            f = union_closure(closed_support(random_graph(n, rng)))
            if len(f) > 600:  # keep the quadratic oracle cheap
                continue
            sides.add(lattice_pays(len(f), n))
            want = oracle_irreducible(frozenset(m.members()) for m in f)
            assert {frozenset(m.members()) for m in union_basis(f)} == want
            checked += 1
        assert sides == {False, True}

    def test_order_invariance_and_minimality(self):
        rng = random.Random(23)
        for _ in range(50):
            u = rng.randint(1, 10)
            members = [VertexSet(rng.getrandbits(u), u) for _ in range(rng.randint(1, 10))]
            f = SetFamily(u, members)
            basis = union_basis(f)
            assert spans(basis, f)
            for _ in range(10):
                shuffled = list(members)
                rng.shuffle(shuffled)
                assert union_basis(shuffled) == basis
            for drop in basis.masks:
                rest = SetFamily(u, [m for m in basis.masks if m != drop])
                assert not spans(rest, f)


class TestLatticeIrreducible:
    """The slab-bounded gather against the quadratic oracle, with slabs of
    1-3 members so that several run."""

    @staticmethod
    def families_to_check():
        yield 1, {0}
        yield 1, {1}
        yield 1, {0, 1}
        rng = random.Random(43)
        for trial in range(150):
            n = rng.randint(1, 12)
            atoms = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
            members = {0} if trial % 3 == 0 else set()
            if trial % 2:  # union-closed, so the empty set is a member
                members |= set(union_closure(SetFamily(n, atoms)).masks)
            else:  # random unions of the atoms, many of them reducible
                for _ in range(rng.randint(1, 12)):
                    union = 0
                    for a in atoms:
                        if rng.random() < 0.5:
                            union |= a
                    members.add(union)
            yield n, members

    def test_small_slabs_match_oracle(self, monkeypatch):
        rng = random.Random(47)
        for n, members in self.families_to_check():
            monkeypatch.setattr(families, "_IRREDUCIBLE_SLAB", rng.randint(1, 3) * n)
            arr = np.fromiter(members, dtype=np.uint32, count=len(members))
            got = _lattice_irreducible(member_lattice(arr, n), arr, n).tolist()
            want = oracle_irreducible(frozenset(oracle_members(m)) for m in members)
            assert len(got) == len(want)
            assert {frozenset(oracle_members(m)) for m in got} == want


class TestLatticeDtypeBoundaries:
    """The member lattice is uint8 up to n = 8, uint16 up to 16 and uint32
    above.  On each side of each boundary the kernels agree with definition
    oracles, on families that use the top bit, and the public readers agree
    with them on both sides of the pair / lattice cut-over."""

    DTYPES = {8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32, 20: np.uint32}

    @staticmethod
    def family(n):
        """Seven atoms, the top bit one of them, and unions of two or three."""
        rng = random.Random(n)
        atoms = [rng.getrandbits(n) for _ in range(6)] + [1 << (n - 1)]
        members = set(atoms)
        for _ in range(12):
            union = 0
            for a in rng.sample(atoms, rng.randint(2, 3)):
                union |= a
            members.add(union)
        return atoms, sorted(members)

    @pytest.mark.parametrize("n", sorted(DTYPES))
    def test_kernels_against_oracles(self, n, lattice_side):
        atoms, members = self.family(n)
        arr = np.array(members, dtype=np.intp)
        table = member_lattice(arr, n)
        assert table.dtype == self.DTYPES[n]
        xs = np.arange(1 << n)
        want = np.zeros(1 << n, dtype=np.int64)
        for m in members:  # table[X]: the union of the members inside X
            want[(xs & m) == m] |= m
        assert np.array_equal(table, want)
        # the members are unions of the atoms and hold them: same closure
        assert _fixed_points(table) == len(oracle_union_closure(
            [frozenset(oracle_members(a)) for a in atoms]))
        irreducible = oracle_irreducible(frozenset(oracle_members(m)) for m in members)
        got = _lattice_irreducible(table, arr, n).tolist()
        assert {frozenset(oracle_members(m)) for m in got} == irreducible
        assert {frozenset(oracle_members(m))
                for m in irreducible_members(members, n)} == irreducible
        f = SetFamily(n, members)
        assert {frozenset(m.members()) for m in union_basis(f)} == irreducible


class TestBaseVertices:
    def test_p3_endpoints(self):
        assert base_vertices(closed_support(P3)) == P3.subset([0, 2])

    def test_complete_graph_keeps_lowest_id(self):
        for n in (2, 3, 5):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            assert base_vertices(closed_support(g)) == g.subset([0])

    def test_worked_example_base(self):
        got = base_vertices(closed_support(WORKED_EXAMPLE))
        assert got == vs1(8, 2, 4, 5)
        assert oracle_base_vertex_set(WORKED_EXAMPLE, got.members())

    def test_output_is_valid_base_vertex_set(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng.randint(1, 6), rng)
            supp = closed_support(g)
            s = base_vertices(supp)
            assert oracle_base_vertex_set(g, s.members())
            # the carried neighborhoods are exactly the union basis
            carried = SetFamily(g.n, [g.closed_mask(v) for v in s])
            assert carried == union_basis(supp)
            # every removed vertex is recovered by its canonical subset of s
            for v in range(g.n):
                if v in s:
                    continue
                astar = VertexSet.from_members(
                    (u for u in s if cn_subset(g.subset([u]), g.subset([v]), supp)),
                    g.n)
                assert cn_equal(g.subset([v]), astar, supp)

    def test_works_over_the_closure_too(self):
        supp = closed_support(WORKED_EXAMPLE)
        assert base_vertices(union_closure(supp)) == base_vertices(supp)


    def test_against_all_pairs_greedy(self):
        rng = random.Random(4242)
        fams = [closed_support(g) for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
        fams += [closed_support(random_graph(rng.randint(6, 16), rng)) for _ in range(100)]
        # generating families of no graph: vertices in no member, empty members
        fams += [SetFamily(n, [rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))])
                 for n in (rng.randint(1, 14) for _ in range(300))]
        for f in fams:
            sig = list(oracle_incidence_signatures(f.masks, range(f.universe)).values())
            assert base_vertices(f).members() == tuple(oracle_base_vertices(sig))


class TestDerivedFamilies:
    """``digital_convexity``, ``complement_family`` and ``union_basis`` build
    their families through ``SetFamily._from_distinct``, which skips the
    dedupe and the range check; each must equal the family the validated
    constructor builds from the same members."""

    @staticmethod
    def graphs():
        yield from (g for n in range(1, 6) for g in enumerate_labeled_graphs(n))
        yield from (g for g, _, _ in lattice_corpus())

    @staticmethod
    def assert_same(got, want):
        assert got.universe == want.universe and got.masks == want.masks
        assert got.mask_array.dtype == np.uint64 and not got.mask_array.flags.writeable
        assert got.mask_array.tolist() == list(want.masks)
        assert got == want and want == got and hash(got) == hash(want)
        table = {want: "validated"}
        assert table[got] == "validated"
        table[got] = "derived"
        assert len(table) == 1
        assert all(got.contains_mask(m) for m in want.masks)

    def test_against_validated_constructor(self):
        for g in self.graphs():
            n, full = g.n, (1 << g.n) - 1
            d = digital_convexity(g)
            want = SetFamily(n, [full ^ int(m) for m in np.flatnonzero(_neighborhood_unions(g))])
            self.assert_same(d, want)
            c = complement_family(d)
            self.assert_same(c, SetFamily(n, [full ^ m for m in d.masks]))
            self.assert_same(union_basis(c), SetFamily(n, irreducible_members(c.masks, n)))
            self.assert_same(union_basis(d), SetFamily(n, irreducible_members(d.masks, n)))

    def test_empty_and_singleton_results(self):
        self.assert_same(union_basis(SetFamily(3, [0])), SetFamily(3, []))
        self.assert_same(complement_family(SetFamily(0, [0])), SetFamily(0, [0]))
        self.assert_same(complement_family(SetFamily(4, [])), SetFamily(4, []))


class TestCanonicalOrdering:
    def test_members_sorted_by_size_then_lexicographic(self):
        f = fam(4, [1, 2], [0, 3], [2], [0, 1, 2, 3], [])
        assert [m.members() for m in f] == [(), (2,), (0, 3), (1, 2), (0, 1, 2, 3)]

    def test_duplicates_collapse(self):
        f = SetFamily(3, [0b101, 0b101, 0b011])
        assert len(f) == 2

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    def test_every_mask_up_to_width_12(self, as_array):
        rng = random.Random(12)
        for width in range(13):
            masks = list(range(1 << width))
            rng.shuffle(masks)
            f = SetFamily(width, np.array(masks, dtype=np.int64) if as_array else masks)
            assert list(f.masks) == oracle_canonical_order(masks)
            assert f.mask_array.tolist() == list(f.masks)

    @pytest.mark.parametrize("universe,size", [(16, 1), (16, 8), (16, 15),
                                               (64, 1), (64, 2), (64, 63)])
    def test_every_mask_of_one_size(self, universe, size):
        # every size ties, so the order comes from the reversed masks alone
        masks = [sum(1 << v for v in pick)
                 for pick in itertools.combinations(range(universe), size)]
        random.Random(universe + size).shuffle(masks)
        arr = np.array(masks, dtype=np.uint64)
        assert arr[_canonical_order(arr)].tolist() == oracle_canonical_order(masks)

    def test_every_mask_at_universe_16(self):
        masks = list(range(1 << 16))
        random.Random(16).shuffle(masks)
        arr = np.array(masks, dtype=np.uint64)
        assert arr[_canonical_order(arr)].tolist() == oracle_canonical_order(masks)

    def test_random_masks_at_universe_64(self):
        rng = random.Random(64)
        masks = [rng.getrandbits(64) for _ in range(2000)]
        masks += [1 << 63, (1 << 64) - 1, (1 << 63) | 1, 0, 1, 2]
        masks += [m | (1 << 63) for m in masks[:500]]
        expected = oracle_canonical_order(masks)
        assert list(SetFamily(64, masks).masks) == expected
        assert list(SetFamily(64, np.array(masks, dtype=np.uint64)).masks) == expected

    def test_empty_family(self):
        for universe in (0, 5, 64):
            f = SetFamily(universe, [])
            assert f.masks == () and f.mask_array.shape == (0,)
            assert NeighborhoodMultiset(universe, []).entries == ()

    @pytest.mark.parametrize("universe", [10, 64])
    def test_multiset_entries_with_multiplicities(self, universe):
        rng = random.Random(universe)
        distinct = [rng.getrandbits(universe) for _ in range(300)]
        drawn = [rng.choice(distinct) for _ in range(900)]
        m = NeighborhoodMultiset(universe, drawn)
        assert m.entries == tuple((mask, drawn.count(mask))
                                  for mask in oracle_canonical_order(drawn))


class TestMemberSet:
    """Equality and hashing read the canonical tuple; the member set behind
    ``contains_mask`` and ``in`` is built on first use."""

    @staticmethod
    def builds(universe, masks, rng):
        shuffled = list(masks)
        rng.shuffle(shuffled)
        return [
            SetFamily(universe, list(masks)),
            SetFamily(universe, shuffled),
            SetFamily(universe, list(reversed(masks)) + masks[:3]),
            SetFamily(universe, np.array(masks, dtype=np.uint64)),
            SetFamily(universe, np.array(shuffled, dtype=np.uint64 if universe == 64
                                         else np.int64)),
            SetFamily(universe, [VertexSet(m, universe) for m in shuffled]),
        ]

    @pytest.mark.parametrize("universe", [3, 9, 20, 64])
    def test_equal_and_hash_equal_before_and_after_lookups(self, universe):
        rng = random.Random(universe)
        # odd masks, so that the empty set is absent
        masks = list(dict.fromkeys(rng.getrandbits(universe) | 1 for _ in range(40)))
        fams = self.builds(universe, masks, rng)
        for f in fams:
            assert f == fams[0] and hash(f) == hash(fams[0])
        for i, f in enumerate(fams):  # probe every other one, each way
            if i % 2 == 0:
                continue
            assert f.contains_mask(masks[0])
            assert VertexSet(masks[1], universe) in f
        for f in fams:
            assert f == fams[0] and hash(f) == hash(fams[0])
            assert f.contains_mask(masks[-1]) and VertexSet(masks[2], universe) in f
        assert not fams[0].contains_mask(0) and VertexSet(0, universe) not in fams[0]
        assert VertexSet(1, universe - 1) not in fams[0]
        other = SetFamily(universe, masks[1:] + [0])
        assert len(other) == len(fams[0]) and other != fams[0]

    def test_family_as_dict_key(self):
        rng = random.Random(5)
        masks = rng.sample(range(1 << 12), 30)
        fams = self.builds(12, masks, rng)
        table = {fams[0]: "first"}
        assert all(table[f] == "first" for f in fams)
        fams[1].contains_mask(masks[0])
        table[fams[1]] = "second"
        assert len(table) == 1 and table[fams[2]] == "second"
        assert SetFamily(12, masks[1:]) not in table
        assert SetFamily(13, masks) not in table

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            SetFamily(3, [1]).no_such_attribute


class TestIncidenceSignatures:
    """A family's signatures are the transpose of its member masks."""

    @pytest.mark.parametrize("universe,k", [(10, 300), (20, 70), (64, 150), (6, 0)])
    def test_against_definition(self, universe, k):
        rng = random.Random(universe * 1000 + k)
        f = SetFamily(universe, [rng.getrandbits(universe) for _ in range(k)])
        assert _transpose(f.masks, universe) == \
            list(oracle_incidence_signatures(f.masks, range(universe)).values())

    def test_signatures_span_several_bytes(self):
        f = SetFamily(12, range(1 << 12))
        sig = _transpose(f.masks, 12)
        assert sig == list(oracle_incidence_signatures(f.masks, range(12)).values())
        assert sig[11].bit_length() > 64


class TestOrZeta:
    """The transposed kernel against the plain transform and the definition."""

    @pytest.mark.parametrize("n", range(21))
    def test_matches_per_bit_reference(self, n):
        table = np.random.default_rng(n).integers(0, 1 << 32, 1 << n, dtype=np.uint32)
        want = table.copy()
        for i in range(n):  # one pass per bit, lowest first
            v = want.reshape(-1, 2, 1 << i)
            v[:, 1, :] |= v[:, 0, :]
        or_zeta(table, n)
        assert np.array_equal(table, want)

    def test_matches_subset_definition(self):
        rng = random.Random(31)
        for n in range(7):
            old = [rng.getrandbits(32) for _ in range(1 << n)]
            table = np.array(old, dtype=np.uint32)
            or_zeta(table, n)
            for x in range(1 << n):
                want = 0
                for y in range(1 << n):
                    if y & ~x == 0:
                        want |= old[y]
                assert int(table[x]) == want


class TestMemberArrays:
    """Integer arrays are checked member by member, with the same contract
    as any other input."""

    @pytest.mark.parametrize("universe,members", [
        (4, np.array([1, -1], dtype=np.int64)),
        (4, np.array([0b10000], dtype=np.int64)),
        (4, np.array([1 << 63], dtype=np.uint64)),
        (0, np.array([1], dtype=np.uint8)),
        (64, np.array([-1], dtype=np.int64)),
        (64, np.array([1 << 64], dtype=object)),
        (3, np.array([1.0])),
        (3, np.array([True, False])),
    ], ids=["negative", "out-of-range", "bit-63-at-4", "universe-0", "negative-at-64",
            "past-64-bits", "float", "bool"])
    def test_bad_members_rejected(self, universe, members):
        with pytest.raises(InputError):
            SetFamily(universe, members)

    def test_arrays_match_lists(self):
        rng = random.Random(7)
        for universe in (1, 7, 20, 63, 64):
            masks = [rng.getrandbits(universe) for _ in range(50)]
            expected = SetFamily(universe, masks)
            for dtype in (np.uint64, np.int64) if universe < 64 else (np.uint64,):
                assert SetFamily(universe, np.array(masks, dtype=dtype)).masks == \
                    expected.masks
        assert SetFamily(64, np.array([1 << 63], dtype=np.uint64)).masks == (1 << 63,)
