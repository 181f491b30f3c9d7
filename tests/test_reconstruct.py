import gc
import hashlib
import random
import time
import tracemalloc
from collections import Counter, defaultdict

import pytest

from nbhdrecon import (
    Graph,
    InputError,
    NeighborhoodMultiset,
    ResourceLimitError,
    SetFamily,
    UnrealizableFamilyError,
    VertexSet,
    closed_support,
    complement_family,
    digital_convexity,
    from_digital_convexity,
    from_multiset,
    from_support,
    neighborhood_multiset,
    realizes,
    union_basis,
)
from nbhdrecon import reconstruct as reconstruct_module
from nbhdrecon.families import lattice_pays
from nbhdrecon.graphs import mask_members, mask_of
from nbhdrecon.miner import enumerate_labeled_graphs
from nbhdrecon.reconstruct import EquivalenceClasses, equivalence_classes, quotient_family

from helpers import (
    C4_LABELINGS,
    P3,
    WORKED_EXAMPLE,
    WORKED_EXAMPLE_EDGES,
    brute_force_multiset_realizations,
    lattice_corpus,
    nbhd_sets,
    oracle_canonical_order,
    oracle_convexity,
    oracle_convexity_base,
    oracle_support,
    random_c4_free_graph,
    random_graph,
    sets1,
    with_closed_twins,
)


def edges1(g):
    return {tuple(sorted((u + 1, v + 1))) for u, v in g.edges()}


@pytest.fixture(scope="module")
def oracle_groups():
    """Every labeled graph at n <= 5 grouped by the set-based oracles:
    ``kind -> {(n, invariant): graphs}`` for the support and the convexity."""
    groups = {"support": defaultdict(set), "convexity": defaultdict(set)}
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            groups["support"][n, oracle_support(g)].add(g)
            groups["convexity"][n, oracle_convexity(g)].add(g)
    return groups


RECONSTRUCT = {"support": from_support, "convexity": from_digital_convexity}


def oracle_multiset_key(n, sets):
    """The multiset of ``sets`` in the grouping's key form."""
    return n, frozenset(Counter(sets).items())


@pytest.fixture(scope="module")
def multiset_groups():
    """Every labeled graph at n <= 6 grouped by its closed neighborhoods as
    plain frozensets, counted with multiplicity."""
    groups = defaultdict(set)
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            groups[oracle_multiset_key(n, nbhd_sets(g).values())].add(g)
    return groups


def reconstruct_group(kind, n, key, group):
    """Reconstruct the family ``key`` and check that ``all`` gives exactly
    ``group``, untruncated and without duplicates, and that ``first`` gives
    one graph of it, truncated, or an untruncated infeasible verdict."""
    family = SetFamily(n, map(mask_of, key))
    first = RECONSTRUCT[kind](family, "first")
    if group:
        assert first.verdict == "unique" and first.truncated
        assert first.graph in group
    else:
        assert first.verdict == "infeasible" and not first.truncated
    result = RECONSTRUCT[kind](family, "all", 1024)
    assert not result.truncated
    assert len(set(result.graphs)) == len(result.graphs)
    assert set(result.graphs) == group
    return result


SUPPORT_MODES = (("first", 1), ("all", 1), ("all", 4), ("count", 64))


def random_supports():
    """``(family, modes)`` pairs for the support path past n = 4.  First
    3,000 families of 1..n+1 random masks at n = 1..9, each mask holding one
    random vertex, so some vertices lie in no member and member counts
    differ from class counts; then the closed supports of 200 G(n, p)
    graphs at n = 10..16 with p uniform, which are rich in twins."""
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 9)
        masks = [rng.getrandbits(n) | 1 << rng.randrange(n)
                 for _ in range(rng.randint(1, n + 1))]
        yield SetFamily(n, masks), SUPPORT_MODES
    for _ in range(200):
        yield closed_support(random_graph(rng.randint(10, 16), rng)), (("all", 16),)


class TestEquivalenceClasses:
    def test_worked_example_classes(self, worked_example_support):
        classes = equivalence_classes(worked_example_support)
        got = [tuple(x + 1 for x in b.members()) for b in classes.blocks]
        assert got == [(1,), (2, 6), (3,), (4, 7, 8), (5,)]
        assert classes.representatives == (0, 1, 2, 3, 4)

    def test_k2_single_block(self):
        classes = equivalence_classes(closed_support(Graph(2, [(0, 1)])))
        assert len(classes.blocks) == 1
        assert classes.blocks[0] == VertexSet.full(2)

    def test_edgeless_all_singletons(self):
        classes = equivalence_classes(closed_support(Graph(4)))
        assert len(classes.blocks) == 4

    def test_blocks_partition_and_match_neighborhoods(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng.randint(1, 7), rng)
            classes = equivalence_classes(closed_support(g))
            seen = 0
            for block in classes.blocks:
                assert block.bits and not (block.bits & seen)
                seen |= block.bits
                nbs = {g.closed_mask(v) for v in block}
                assert len(nbs) == 1
            assert seen == (1 << g.n) - 1
            # blocks in order of their lowest vertex, which represents them
            assert classes.representatives == tuple(
                sorted(block.members()[0] for block in classes.blocks))


class TestQuotientFamily:
    def test_worked_example_quotient(self, worked_example_support):
        classes = equivalence_classes(worked_example_support)
        q = quotient_family(worked_example_support, classes)
        assert sets1(q) == {(1, 2, 3, 4, 5), (1, 2, 3), (1, 2, 3, 4), (1, 3, 4), (1, 5)}

    def test_single_block_universe(self):
        f = closed_support(Graph(2, [(0, 1)]))
        q = quotient_family(f, equivalence_classes(f))
        assert q.universe == 1 and q.masks == (0b1,)

    def test_splitting_member_rejected(self):
        # the partition derived from {{0,1}} has one joint block, which the
        # member {0} then splits
        f_bad = SetFamily(2, [0b01, 0b11])
        classes_joint = equivalence_classes(SetFamily(2, [0b11]))
        with pytest.raises(UnrealizableFamilyError):
            quotient_family(f_bad, classes_joint)

    def test_member_not_a_union_of_classes_rejected(self):
        # a hand-built partition whose one block {0} leaves vertex 1 out:
        # {0,1} splits no block, yet no union of blocks gives it
        classes = EquivalenceClasses(2, (VertexSet(1, 2),), (0,))
        with pytest.raises(UnrealizableFamilyError, match="not a union of classes"):
            quotient_family(SetFamily(2, [0b11]), classes)

    def test_quotient_soundness_exhaustive(self):
        # the quotient family equals the closed multiset of the graph induced
        # on class representatives (all multiplicities 1)
        from nbhdrecon import induced_subgraph
        from nbhdrecon.miner import enumerate_labeled_graphs

        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                supp = closed_support(g)
                classes = equivalence_classes(supp)
                q = quotient_family(supp, classes)
                reps = g.subset(classes.representatives)
                sub, _ = induced_subgraph(g, reps)
                assert neighborhood_multiset(sub) == NeighborhoodMultiset(q.universe, q.masks)


class TestFromMultiset:
    def test_p3_unique_and_matches_bruteforce(self):
        m = neighborhood_multiset(P3)
        result = from_multiset(m, "all", 8)
        assert result.verdict == "unique"
        assert result.graph == P3
        assert brute_force_multiset_realizations(m) == [P3]

    def test_c4_has_exactly_three_realizations(self, c4_labelings):
        m = neighborhood_multiset(c4_labelings[0])
        result = from_multiset(m, "all", 16)
        assert result.verdict == "ambiguous"
        assert not result.truncated
        assert set(result.graphs) == {Graph(4, g.edges()) for g in c4_labelings}
        assert len(brute_force_multiset_realizations(m)) == 3

    def test_collision_pair_both_found(self, k33, prism):
        m = neighborhood_multiset(k33)
        result = from_multiset(m, "all", 32)
        assert result.verdict == "ambiguous"
        assert Graph(6, k33.edges()) in result.graphs
        assert Graph(6, prism.edges()) in result.graphs

    def test_total_multiplicity_mismatch_infeasible(self):
        m = NeighborhoodMultiset(3, [0b111])
        assert from_multiset(m).verdict == "infeasible"

    def test_parity_pruning(self):
        # one vertex of degree 1, two isolated: odd degree sum
        m = NeighborhoodMultiset(3, [0b011, 0b001, 0b100])
        assert from_multiset(m, "all").verdict == "infeasible"

    def test_member_without_its_vertex_infeasible(self):
        # no member contains vertex 2
        m = NeighborhoodMultiset(3, [0b011, 0b011, 0b001])
        assert from_multiset(m, "all").verdict == "infeasible"

    def test_first_mode_returns_quickly(self, c4_labelings):
        m = neighborhood_multiset(c4_labelings[0])
        result = from_multiset(m, "first")
        assert result.verdict == "unique"
        assert result.solution_count == 1
        assert neighborhood_multiset(result.graphs[0]) == m

    def test_truncation_flag(self, c4_labelings):
        m = neighborhood_multiset(c4_labelings[0])
        result = from_multiset(m, "all", limit=2)
        assert result.verdict == "ambiguous"
        assert result.truncated
        assert result.solution_count == 2

    def test_all_mode_with_limit_one_never_claims_uniqueness(self, c4_labelings):
        m = neighborhood_multiset(c4_labelings[0])
        result = from_multiset(m, "all", limit=1)
        assert result.verdict == "ambiguous"
        assert result.truncated and result.solution_count == 1

    @pytest.mark.parametrize("g", [P3, Graph(1)], ids=["P3", "K1"])
    def test_limit_one_certifies_unique(self, g):
        # the search looks one solution past the limit, so a lone
        # realization found with limit 1 is certified
        result = from_multiset(neighborhood_multiset(g), "all", 1)
        assert (result.verdict, result.truncated, result.graphs) == ("unique", False, (g,))

    def test_exactly_limit_realizations_is_complete(self, c4_labelings):
        result = from_multiset(neighborhood_multiset(c4_labelings[0]), "all", 3)
        assert result.verdict == "ambiguous"
        assert not result.truncated
        assert set(result.graphs) == {Graph(4, g.edges()) for g in c4_labelings}

    def test_random_multisets_give_their_group(self, multiset_groups):
        # perturbed closed multisets (one vertex moved from one member to
        # another, which keeps the size and the degree sum) and uniform
        # random ones, against the brute-force grouping at n <= 6
        rng = random.Random(606)
        verdicts = Counter()
        for i in range(1500):
            n = rng.randint(1, 6)
            if i % 2:
                masks = [rng.getrandbits(n) for _ in range(n)]
            else:
                g = random_graph(n, rng)
                masks = [g.closed_mask(v) for v in range(n)]
                if n > 1:
                    a, b = rng.sample(range(n), 2)
                    movable = mask_members(masks[a] & ~masks[b])
                    if movable:
                        x = rng.choice(movable)
                        masks[a] ^= 1 << x
                        masks[b] |= 1 << x
            key = oracle_multiset_key(
                n, (frozenset(mask_members(mask)) for mask in masks))
            group = multiset_groups.get(key, set())
            result = from_multiset(NeighborhoodMultiset(n, masks), "all", 1024)
            assert not result.truncated
            assert set(result.graphs) == group
            assert result.verdict == {0: "infeasible", 1: "unique"}.get(len(group), "ambiguous")
            verdicts[result.verdict] += 1
        assert len(verdicts) == 3  # every verdict is exercised

    @pytest.mark.parametrize("n", [24, 40])
    def test_dense_all_mode_time_bound(self, n):
        # the static-order search needed 9 s at n=24 and did not finish
        # within minutes at n=40
        g = random_graph(n, random.Random(1), 0.9)
        t0 = time.perf_counter()
        result = from_multiset(neighborhood_multiset(g), "all")
        elapsed = time.perf_counter() - t0
        assert not result.truncated and g in result.graphs
        assert elapsed < 5.0, f"G({n}, 0.9) took {elapsed:.2f}s"

    def test_every_returned_graph_realizes_fuzzed_inputs(self):
        rng = random.Random(303)
        feasible = infeasible = 0
        for _ in range(150):
            n = rng.randint(1, 5)
            masks = [rng.getrandbits(n) | (1 << rng.randrange(n)) for _ in range(n)]
            m = NeighborhoodMultiset(n, masks)
            result = from_multiset(m, "all", 16)
            if result.verdict == "infeasible":
                infeasible += 1
                assert not brute_force_multiset_realizations(m)
            else:
                feasible += 1
                assert len(set(result.graphs)) == len(result.graphs)
                for h in result.graphs:
                    assert neighborhood_multiset(h) == m
                if not result.truncated:
                    assert set(result.graphs) == set(brute_force_multiset_realizations(m))
        assert feasible and infeasible  # the fuzz hit both outcomes

    def test_exhaustive_agreement_with_bruteforce_n4(self):
        from nbhdrecon.miner import enumerate_labeled_graphs

        seen = set()
        for g in enumerate_labeled_graphs(4):
            m = neighborhood_multiset(g)
            if m in seen:
                continue
            seen.add(m)
            result = from_multiset(m, "all", 64)
            assert set(result.graphs) == set(brute_force_multiset_realizations(m))


class TestFromSupport:
    def test_worked_example(self, worked_example_support):
        result = from_support(worked_example_support, "all", 8)
        assert result.verdict == "unique"
        assert edges1(result.graph) == {tuple(sorted(e)) for e in WORKED_EXAMPLE_EDGES}

    def test_unique_despite_induced_c4(self, unique_with_c4):
        f = closed_support(unique_with_c4)
        assert sets1(f) == {(1, 2, 4, 5), (1, 2, 3), (2, 3, 4), (1, 3, 4), (1, 5)}
        result = from_support(f, "all", 8)
        assert result.verdict == "unique"
        assert edges1(result.graph) == {(1, 2), (1, 4), (1, 5), (2, 3), (3, 4)}

    def test_pendant_contradiction_infeasible(self):
        # N[0]={0} forces 0 isolated, contradicting membership in {0,1}
        f = SetFamily(2, [0b01, 0b11])
        assert from_support(f, "all").verdict == "infeasible"

    def test_single_pair_block(self):
        f = SetFamily(2, [0b11])
        result = from_support(f, "all")
        assert result.verdict == "unique"
        assert result.graph == Graph(2, [(0, 1)])

    def test_uncovered_vertex_infeasible(self):
        f = SetFamily(3, [0b011])
        assert from_support(f, "all").verdict == "infeasible"

    def test_c4_support_three_realizations(self, c4_labelings):
        f = closed_support(c4_labelings[0])
        result = from_support(f, "all", 16)
        assert result.verdict == "ambiguous"
        assert set(result.graphs) == {Graph(4, g.edges()) for g in c4_labelings}

    @pytest.mark.parametrize("f", [
        SetFamily(3, [0b011]),
        SetFamily(4, [0b0001, 0b0010, 0b0101, 0b0110]),
        SetFamily(2, [0b01, 0b10, 0b11]),
        SetFamily(3, [0b011, 0b110]),
    ], ids=["uncovered-vertex", "uncovered-vertex-counts-agree",
            "more-members-than-classes", "fewer-members-than-classes"])
    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_malformed_family_rejected_before_search(self, f, mode):
        result = from_support(f, mode)
        assert (result.verdict, result.truncated, result.nodes_explored) == \
            ("infeasible", False, 0)

    def test_twin_rich_roundtrips(self):
        rng = random.Random(404)
        for _ in range(30):
            base = random_c4_free_graph(rng.randint(1, 5), rng)
            g = with_closed_twins(base, rng.randint(1, 3), rng)
            result = from_support(closed_support(g), "all", 8)
            assert result.verdict == "unique"
            assert result.graph == g


    def test_realizer_gets_the_quotient_family(self, monkeypatch):
        # the cut onto the lowest vertex of each twin class hands the realizer
        # exactly the public quotient over the public twin classes
        families = {closed_support(g) for n in range(1, 6) for g in enumerate_labeled_graphs(n)}
        families.update(f for f, _ in random_supports())
        expected = {}
        for f in families:
            classes = equivalence_classes(f)
            expected[f] = (len(classes.blocks),
                           [(q, 1) for q in quotient_family(f, classes).masks])
        calls = []
        realize = reconstruct_module._realize

        def spy(n, entries, cap):
            calls.append((n, list(entries)))
            return realize(n, entries, cap)

        def unused(*args):
            raise AssertionError("from_support must not build the public quotient")

        monkeypatch.setattr(reconstruct_module, "_realize", spy)
        monkeypatch.setattr(reconstruct_module, "equivalence_classes", unused)
        monkeypatch.setattr(reconstruct_module, "quotient_family", unused)
        for f in families:
            calls.clear()
            from_support(f, "first")
            assert calls == [expected[f]]


class TestFromDigitalConvexity:
    def test_trivial_family_gives_complete_graph(self):
        for n in (1, 2, 4, 6):
            d = SetFamily(n, [0, (1 << n) - 1])
            result = from_digital_convexity(d, "all", 8)
            assert result.verdict == "unique"
            assert result.graph.edge_count() == n * (n - 1) // 2
            # one base vertex, placed once, as from the support
            clique = from_support(closed_support(result.graph), "all")
            assert result.nodes_explored == clique.nodes_explored == 1

    def test_p3_family(self):
        d = SetFamily(3, [0b000, 0b001, 0b100, 0b111])
        result = from_digital_convexity(d, "all", 8)
        assert result.verdict == "unique"
        assert result.graph == P3

    def test_worked_example_roundtrip(self):
        d = digital_convexity(WORKED_EXAMPLE)
        result = from_digital_convexity(d, "all", 8)
        assert result.verdict == "unique"
        assert result.graph == Graph(8, WORKED_EXAMPLE.edges())

    def test_axiom_failure_is_infeasible(self):
        # missing the full set
        assert from_digital_convexity(SetFamily(3, [0])).verdict == "infeasible"
        # not intersection closed
        d = SetFamily(3, [0b000, 0b011, 0b110, 0b111])
        assert from_digital_convexity(d).verdict == "infeasible"
        # missing the empty set on the lattice side: the sets holding vertex
        # 7 hold V and are intersection-closed; no search may run
        d = SetFamily(8, [m for m in range(256) if m >> 7])
        assert lattice_pays(len(d), 8)
        result = from_digital_convexity(d)
        assert result.verdict == "infeasible" and result.nodes_explored == 0

    def test_collision_family_is_ambiguous(self, k33, prism):
        result = from_digital_convexity(digital_convexity(k33), "all", 32)
        assert result.verdict == "ambiguous"
        assert Graph(6, k33.edges()) in result.graphs
        assert Graph(6, prism.edges()) in result.graphs
        for h in result.graphs:
            assert digital_convexity(h) == digital_convexity(k33)

    def test_first_mode_returns_a_verified_realization(self, k33):
        d = digital_convexity(k33)
        result = from_digital_convexity(d, "first")
        assert result.verdict == "unique"
        assert digital_convexity(result.graphs[0]) == d

    def test_unrealizable_convexity_infeasible(self):
        # a legal convexity that no graph attains: on 2 vertices only
        # {0,V} and the power set arise; {0,{0},V} would need N[1] != {1}
        # covering 1 without 0... build a 3-vertex axiom-passing family
        d = SetFamily(2, [0b00, 0b01, 0b11])
        result = from_digital_convexity(d, "all", 8)
        assert result.verdict == "infeasible"

    def test_roundtrip_random_c4_free(self):
        rng = random.Random(505)
        for _ in range(40):
            g = random_c4_free_graph(rng.randint(1, 7), rng)
            result = from_digital_convexity(digital_convexity(g), "all", 4)
            assert result.verdict == "unique"
            assert result.graph == g

    @staticmethod
    def record_base(monkeypatch) -> list:
        """Record the base vertices and can() each call hands the realizer.

        The realizer gets the base vertices' signatures, not their ids.  The
        base vertex of index i is read back as the lowest vertex whose can()
        is {j : sigs[j] subset-of sigs[i]}, the can() of a vertex with
        signature sigs[i]; only the lowest of such vertices is a base vertex.
        """
        seen = []
        realize_on_base = reconstruct_module._realize_on_base

        def spy(sigs, members, canon, cap):
            cans = [sum(1 << j for j, t in enumerate(sigs) if t & ~s == 0) for s in sigs]
            seen.append(([canon.index(c) for c in cans], canon))
            return realize_on_base(sigs, members, canon, cap)

        monkeypatch.setattr(reconstruct_module, "_realize_on_base", spy)
        return seen

    def test_basis_signatures_agree_with_full_family_on_small_graphs(
            self, monkeypatch, lattice_side):
        seen = self.record_base(monkeypatch)
        rng = random.Random(612)
        graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
        graphs += [random_c4_free_graph(rng.randint(6, 10), rng) for _ in range(60)]
        graphs += [random_graph(rng.randint(6, 12), rng) for _ in range(60)]
        for g in graphs:
            d = digital_convexity(g)
            seen.clear()
            from_digital_convexity(d, "first")
            assert seen == [oracle_convexity_base(d)]

    def test_basis_signatures_agree_with_full_family_on_lattice_corpus(
            self, monkeypatch, lattice_side):
        seen = self.record_base(monkeypatch)
        for _, d, _ in lattice_corpus():
            seen.clear()
            from_digital_convexity(d, "first")
            assert seen == [oracle_convexity_base(d)]

    def test_size_ceiling_checked_before_any_work(self):
        # not intersection-closed, so the axiom check alone would say
        # infeasible; the ceiling must fire first
        d = SetFamily(21, [0, 0b11, 0b110, (1 << 21) - 1])
        with pytest.raises(ResourceLimitError):
            from_digital_convexity(d)

    def test_n16_roundtrip_time_bound(self):
        g = random_c4_free_graph(16, random.Random(16))
        t0 = time.perf_counter()
        d = digital_convexity(g)
        result = from_digital_convexity(d, "all")
        elapsed = time.perf_counter() - t0
        assert len(d) == 5632
        assert result.verdict == "unique" and result.graph == g
        assert elapsed < 2.0, f"n=16 round trip took {elapsed:.2f}s"

    def test_edgeless_n20_memory_bound(self):
        # 2^20 convex sets: U as intp indices (8 MiB), its member lattice
        # (4 MiB), the irreducibles' slabs, then the re-verification's
        # 2^20-entry table of sets N[A], after the lattice is freed
        d = digital_convexity(Graph(20))
        tracemalloc.start()
        try:
            result = from_digital_convexity(d, "all")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "unique" and result.graph == Graph(20)
        assert peak <= 24 << 20


class TestIdentityCut:
    """The realizer's entries are the masks cut down to the base vertices.
    When every vertex is a base vertex, each cut is its mask, so the
    entries, answers and node counts must equal those of the multiset
    search on the masks themselves."""

    @staticmethod
    def record_entries(monkeypatch) -> list:
        seen = []
        realize = reconstruct_module._realize

        def spy(n, entries, cap):
            seen.append((n, list(entries)))
            return realize(n, entries, cap)

        monkeypatch.setattr(reconstruct_module, "_realize", spy)
        return seen

    @staticmethod
    def cut_entries(masks, base) -> tuple[int, list]:
        """The entries by the definition of the cut, bit i for base[i]."""
        cuts = [sum(1 << i for i, b in enumerate(base) if m >> b & 1) for m in masks]
        return len(base), [(c, 1) for c in oracle_canonical_order(cuts)]

    def test_support(self, monkeypatch):
        seen = self.record_entries(monkeypatch)
        rng = random.Random(99)
        graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
        graphs += [g for g, _, _ in lattice_corpus()]
        graphs += [with_closed_twins(random_c4_free_graph(8, rng), 2, rng) for _ in range(30)]
        identity = 0
        for g in graphs:
            f = closed_support(g)
            base = list(equivalence_classes(f).representatives)
            seen.clear()
            result = from_support(f, "all")
            assert seen == [self.cut_entries(f.masks, base)]
            if len(base) == g.n:
                identity += 1
                ref = from_multiset(NeighborhoodMultiset(g.n, f.masks), "all")
                assert result.verdict == ref.verdict and result.graphs == ref.graphs
                assert result.nodes_explored == ref.nodes_explored
        assert 0 < identity < len(graphs)

    def test_convexity(self, monkeypatch, lattice_side):
        seen = self.record_entries(monkeypatch)
        graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
        if lattice_side == "lattice":  # the pair sweeps take seconds on these
            graphs += [g for g, _, _ in lattice_corpus()]
        identity = 0
        for g in graphs:
            d = digital_convexity(g)
            base, _ = oracle_convexity_base(d)
            irreducible = union_basis(complement_family(d)).masks
            seen.clear()
            result = from_digital_convexity(d, "all")
            assert seen == [self.cut_entries(irreducible, base)]
            if len(base) == g.n:
                identity += 1
                # the irreducibles are then g's closed neighborhoods, each once
                ref = from_multiset(NeighborhoodMultiset(g.n, irreducible), "all")
                assert result.verdict == ref.verdict and result.graphs == ref.graphs
                assert result.nodes_explored == ref.nodes_explored
        assert 0 < identity < len(graphs)


class TestExhaustiveOracles:
    """Both set-family paths against brute force over every labeled graph."""

    @pytest.mark.parametrize("kind", ["support", "convexity"])
    def test_every_invariant_gives_its_group(self, oracle_groups, kind):
        groups = oracle_groups[kind]
        assert sum(1 for n, _ in groups if n == 5) == 954
        for (n, key), group in groups.items():
            result = reconstruct_group(kind, n, key, group)
            assert result.verdict == ("unique" if len(group) == 1 else "ambiguous")

    def test_random_families(self, oracle_groups):
        # raw random families for the support; for the convexity their
        # intersection closure with the empty set and V, so that most pass
        # the axiom check and reach the realizer
        rng = random.Random(2000)
        infeasible = dict.fromkeys(RECONSTRUCT, 0)
        for _ in range(2000):
            n = rng.randint(1, 4)
            picks = [frozenset(v for v in range(n) if (m >> v) & 1)
                     for m in rng.sample(range(1 << n), rng.randint(0, n + 1))]
            closed = {frozenset(), frozenset(range(n)), *picks}
            while (meets := {a & b for a in closed for b in closed} - closed):
                closed |= meets
            for kind, key in (("support", frozenset(picks)), ("convexity", frozenset(closed))):
                group = oracle_groups[kind].get((n, key), set())
                reconstruct_group(kind, n, key, group)
                infeasible[kind] += not group
        # about 1800 and 900 of them: both verdicts are exercised
        assert all(0 < count < 2000 for count in infeasible.values())


class TestRealizes:
    def test_worked_example_support_tag(self, worked_example_support):
        g = Graph(8, WORKED_EXAMPLE.edges())
        assert realizes(g, worked_example_support, "support")

    def test_collision_multiset_tag(self, k33, prism):
        assert realizes(Graph(6, prism.edges()), neighborhood_multiset(k33), "multiset")

    def test_convexity_tag_mismatch(self):
        c3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert not realizes(P3, digital_convexity(c3), "convexity")

    def test_universe_mismatch_rejected(self):
        with pytest.raises(InputError):
            realizes(P3, closed_support(Graph(4)), "support")

    def test_convexity_errors(self):
        with pytest.raises(InputError, match="universes differ"):
            realizes(P3, digital_convexity(Graph(4)), "convexity")
        with pytest.raises(ResourceLimitError, match="capped at 20 vertices"):
            realizes(Graph(21), SetFamily(21, [0, (1 << 21) - 1]), "convexity")

    def test_convexity_near_misses(self):
        # one member added, removed or swapped for another of the same size
        rng = random.Random(77)
        hits = Counter()
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_c4_free_graph(n, rng) if rng.random() < 0.7 else random_graph(n, rng)
            h = rng.choice([g, random_graph(n, rng)])
            masks = set(digital_convexity(h).masks)
            outside = sorted(set(range(1 << n)) - masks)
            inner = sorted(masks)
            for kind in ("same", "added", "removed", "swapped"):
                near = set(masks)
                if kind == "added" and outside:
                    near.add(rng.choice(outside))
                elif kind == "removed":
                    near.discard(rng.choice(inner))
                elif kind == "swapped":
                    gone = rng.choice(inner)
                    same_size = [m for m in outside if m.bit_count() == gone.bit_count()]
                    if same_size:
                        near = near - {gone} | {rng.choice(same_size)}
                d = SetFamily(n, near)
                want = digital_convexity(g) == d
                assert realizes(g, d, "convexity") == want
                hits[kind, want] += 1
        assert {("same", True), ("same", False), ("added", False), ("removed", False),
                ("swapped", False)} <= set(hits)

    def test_support_near_misses(self):
        # the path 0-1-2-3 has four distinct closed neighborhoods
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        closed = set(closed_support(p4).masks)
        assert realizes(p4, SetFamily(4, closed), "support")
        for x in set(range(1, 16)) - closed:
            # one of the family's members is missing from the graph
            assert not realizes(p4, SetFamily(4, closed | {x}), "support")
            for y in closed:  # same count, one member different
                assert not realizes(p4, SetFamily(4, closed - {y} | {x}), "support")
        for y in closed:  # the graph has one the family lacks
            assert not realizes(p4, SetFamily(4, closed - {y}), "support")
        # 3 and 4 closed twins: five closed neighborhoods, one repeated, so
        # no five-member family matches, whatever its fifth member
        twin = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
        closed = set(closed_support(twin).masks)
        assert len(closed) == 4 and realizes(twin, SetFamily(5, closed), "support")
        for x in set(range(1, 32)) - closed:
            assert not realizes(twin, SetFamily(5, closed | {x}), "support")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            realizes(P3, closed_support(P3), "deck")

    def test_multiset_and_support_agree_with_equality(self):
        rng = random.Random(66)
        pairs = [(g, h) for n in (1, 2, 3) for g in enumerate_labeled_graphs(n)
                 for h in enumerate_labeled_graphs(n)]
        # at n = 5 ten supports first carry more than one multiset
        by_support = defaultdict(list)
        for g in enumerate_labeled_graphs(5):
            by_support[oracle_support(g)].append(g)
        pairs += [(g, h) for group in by_support.values() for g in group for h in group]
        for _ in range(2000):
            n = rng.randint(4, 6)
            g = random_graph(n, rng)
            h = rng.choice([g, random_graph(n, rng),
                            Graph(n, [(u, v) for u, v in g.edges() if rng.random() < 0.9])])
            pairs.append((g, h))
        hits = Counter()
        for g, h in pairs:
            same_multiset = neighborhood_multiset(g) == neighborhood_multiset(h)
            same_support = closed_support(g) == closed_support(h)
            assert same_multiset == (Counter(nbhd_sets(g).values())
                                     == Counter(nbhd_sets(h).values()))
            assert same_support == (oracle_support(g) == oracle_support(h))
            assert realizes(g, neighborhood_multiset(h), "multiset") == same_multiset
            assert realizes(g, closed_support(h), "support") == same_support
            hits[same_multiset, same_support] += 1
        # equal and unequal invariants, and equal supports of unequal multisets
        assert {(True, True), (False, False), (False, True)} <= set(hits)


class TestResultContract:
    def test_modes_validated(self):
        m = neighborhood_multiset(P3)
        with pytest.raises(InputError):
            from_multiset(m, "some")
        with pytest.raises(InputError):
            from_multiset(m, "all", 0)

    def test_unique_graph_accessor(self):
        result = from_multiset(neighborhood_multiset(P3), "all", 4)
        assert result.graph == P3
        ambiguous = from_multiset(
            neighborhood_multiset(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])), "all", 8)
        with pytest.raises(InputError):
            _ = ambiguous.graph

    @pytest.mark.parametrize("reconstruct,invariant", [
        (from_multiset, neighborhood_multiset),
        (from_support, closed_support),
        (from_digital_convexity, digital_convexity),
    ])
    def test_call_leaves_no_reference_cycle(self, reconstruct, invariant):
        inv = invariant(WORKED_EXAMPLE)
        reconstruct(inv)
        gc.disable()
        try:
            gc.collect()
            reconstruct(inv)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_stats_populated(self):
        result = from_support(closed_support(WORKED_EXAMPLE), "all", 4)
        assert result.nodes_explored > 0
        assert result.elapsed >= 0.0

    @pytest.mark.parametrize("reconstruct,inv", [
        (from_multiset, neighborhood_multiset(P3)),
        (from_support, closed_support(P3)),
        (from_digital_convexity, digital_convexity(P3)),
    ])
    @pytest.mark.parametrize("limit", [True, 1.5], ids=["bool", "float"])
    def test_non_integer_limit_rejected(self, reconstruct, inv, limit):
        with pytest.raises(InputError, match="limit"):
            reconstruct(inv, "all", limit)

    @pytest.mark.parametrize("reconstruct,inv", [
        (from_multiset, neighborhood_multiset(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))),
        (from_multiset, neighborhood_multiset(Graph(6, [(0, 3), (1, 4), (2, 5), (0, 4),
                                                        (1, 5), (2, 3), (0, 5), (1, 3),
                                                        (2, 4)]))),
        (from_support, closed_support(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))),
        (from_digital_convexity, digital_convexity(Graph(6, [(0, 3), (1, 4), (2, 5),
                                                             (0, 4), (1, 5), (2, 3),
                                                             (0, 5), (1, 3), (2, 4)]))),
    ], ids=["c4-multiset", "k33-multiset", "c4-support", "k33-convexity"])
    def test_graphs_in_canonical_order(self, reconstruct, inv):
        result = reconstruct(inv, "all", 1024)
        assert not result.truncated and result.solution_count > 1
        keys = [tuple(h.adjacency_mask(v) for v in range(h.n)) for h in result.graphs]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("reconstruct,empty", [
        (from_multiset, NeighborhoodMultiset(0)),
        (from_support, SetFamily(0)),
        (from_digital_convexity, SetFamily(0, [0])),
    ])
    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_empty_universe_rejected(self, reconstruct, empty, mode):
        # no graph has zero vertices, so every entry point refuses alike
        with pytest.raises(InputError, match="nonempty universe"):
            reconstruct(empty, mode)

    # sha256 of (verdict, adjacency tuples in order, truncated, nodes_explored)
    # on every labeled graph with n <= 4, through all three paths, in the
    # modes below.  It pins which graph ``first`` picks, what a truncated
    # ``all`` keeps and how many nodes each search takes.
    ANSWERS_SHA256 = "895b69b9adba7ea483991cd305f1685adf319a83eeacf6653c03f5c66b79e30f"

    def test_answers_pinned_on_every_small_graph(self):
        digest = hashlib.sha256()
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                for reconstruct, inv in ((from_multiset, neighborhood_multiset(g)),
                                         (from_support, closed_support(g)),
                                         (from_digital_convexity, digital_convexity(g))):
                    for mode, limit in (("first", 1), ("all", 1), ("all", 2),
                                        ("all", 4), ("count", 64)):
                        r = reconstruct(inv, mode, limit)
                        adj = [tuple(h.adjacency_mask(v) for v in range(h.n))
                               for h in r.graphs]
                        digest.update(repr((r.verdict, adj, r.truncated,
                                            r.nodes_explored)).encode())
        assert digest.hexdigest() == self.ANSWERS_SHA256

    # The same answer tuples from ``from_support`` on the ``random_supports``
    # corpus, 12,200 calls, which pins the path past the realizable n <= 4.
    SUPPORT_ANSWERS_SHA256 = "7d340044a65574830e9ff598749dd3d14e237ae6cc280cc8085fe616cf537b62"

    def test_support_answers_pinned_on_random_families(self):
        digest = hashlib.sha256()
        for f, modes in random_supports():
            for mode, limit in modes:
                r = from_support(f, mode, limit)
                adj = [tuple(h.adjacency_mask(v) for v in range(h.n)) for h in r.graphs]
                digest.update(repr((r.verdict, adj, r.truncated, r.nodes_explored)).encode())
        assert digest.hexdigest() == self.SUPPORT_ANSWERS_SHA256

    # The same answer tuples from ``from_digital_convexity`` in ``all`` and
    # ``first`` mode on 60 seeded C4-free graphs at n = 12-14 whose
    # convexity has 200-799 members, each followed by its family with one
    # member other than the empty set and V dropped.  These families are
    # large enough for the member lattice, which no family at n <= 4
    # reaches.  ``first`` mode pins the entry order the realizer is handed.
    LATTICE_ANSWERS_SHA256 = "ca4f143c3f71eeb385f1c4771b55a4a66d0763a1ebd0f93ce4c6fe9258cf2039"

    def test_lattice_branch_answers_pinned(self):
        digest = hashlib.sha256()
        for g, d, dropped in lattice_corpus():
            assert lattice_pays(len(d), g.n)
            result, refuted = from_digital_convexity(d, "all"), from_digital_convexity(dropped, "all")
            assert g in result.graphs and refuted.verdict == "infeasible"
            for r in (result, refuted, from_digital_convexity(d, "first")):
                adj = [tuple(h.adjacency_mask(v) for v in range(h.n)) for h in r.graphs]
                digest.update(repr((r.verdict, adj, r.truncated, r.nodes_explored)).encode())
        assert digest.hexdigest() == self.LATTICE_ANSWERS_SHA256

    # The same answer tuples in ``all`` and ``first`` mode on every labeled
    # graph with n <= 5, each followed by its convexity with the middle
    # member dropped; one digest for both sides of the pair / lattice
    # cut-over.  Without the empty set or V a family fails the axioms
    # before any search.
    SMALL_CONVEXITY_ANSWERS_SHA256 = (
        "30f0c28307ad142d312ddb65968edba6644cff1fc28afcff35a513d8ca897d33")

    def test_small_convexity_answers_pinned_on_both_sides(self, lattice_side):
        digest = hashlib.sha256()
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                d = digital_convexity(g)
                result = from_digital_convexity(d, "all")
                assert g in result.graphs
                dropped = SetFamily(n, d.masks[:len(d) // 2] + d.masks[len(d) // 2 + 1:])
                for r in (result, from_digital_convexity(d, "first"),
                          from_digital_convexity(dropped, "all")):
                    adj = [tuple(h.adjacency_mask(v) for v in range(h.n)) for h in r.graphs]
                    digest.update(repr((r.verdict, adj, r.truncated,
                                        r.nodes_explored)).encode())
                for gone in (0, (1 << n) - 1):
                    r = from_digital_convexity(SetFamily(n, set(d.masks) - {gone}), "all")
                    assert (r.verdict, r.nodes_explored) == ("infeasible", 0)
        assert digest.hexdigest() == self.SMALL_CONVEXITY_ANSWERS_SHA256


PATHS = pytest.mark.parametrize("reconstruct,invariant", [
    (from_multiset, neighborhood_multiset),
    (from_support, closed_support),
    (from_digital_convexity, digital_convexity),
], ids=["multiset", "support", "convexity"])


class TestReverification:
    @PATHS
    def test_each_returned_graph_verified_once(self, monkeypatch, reconstruct, invariant):
        calls = []

        def spy(g, reference, kind):
            calls.append(g)
            return realizes(g, reference, kind)

        monkeypatch.setattr(reconstruct_module, "realizes", spy)
        for g in (*C4_LABELINGS, WORKED_EXAMPLE):
            calls.clear()
            result = reconstruct(invariant(g), "all")
            assert Graph(g.n, g.edges()) in result.graphs
            assert Counter(calls) == Counter(result.graphs)

    @PATHS
    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_rejected_candidates_are_never_returned(self, monkeypatch, reconstruct,
                                                    invariant, mode):
        monkeypatch.setattr(reconstruct_module, "realizes", lambda g, reference, kind: False)
        for g in (*C4_LABELINGS, WORKED_EXAMPLE):
            result = reconstruct(invariant(g), mode)
            assert (result.verdict, result.graphs) == ("infeasible", ())
