import random
import time

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
    digital_convexity,
    from_digital_convexity,
    from_multiset,
    from_support,
    neighborhood_multiset,
    realizes,
)
from nbhdrecon.reconstruct import equivalence_classes, quotient_family

from helpers import (
    P3,
    WORKED_EXAMPLE,
    WORKED_EXAMPLE_EDGES,
    brute_force_multiset_realizations,
    random_c4_free_graph,
    random_graph,
    sets1,
    with_closed_twins,
)


def edges1(g):
    return {tuple(sorted((u + 1, v + 1))) for u, v in g.edges()}


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

    def test_twin_rich_roundtrips(self):
        rng = random.Random(404)
        for _ in range(30):
            base = random_c4_free_graph(rng.randint(1, 5), rng)
            g = with_closed_twins(base, rng.randint(1, 3), rng)
            result = from_support(closed_support(g), "all", 8)
            assert result.verdict == "unique"
            assert result.graph == g


class TestFromDigitalConvexity:
    def test_trivial_family_gives_complete_graph(self):
        for n in (1, 2, 4, 6):
            d = SetFamily(n, [0, (1 << n) - 1])
            result = from_digital_convexity(d, "all", 8)
            assert result.verdict == "unique"
            assert result.graph.edge_count() == n * (n - 1) // 2

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

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            realizes(P3, closed_support(P3), "deck")


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

    def test_stats_populated(self):
        result = from_support(closed_support(WORKED_EXAMPLE), "all", 4)
        assert result.nodes_explored > 0
        assert result.elapsed >= 0.0

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
