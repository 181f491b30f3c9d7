import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbhdrecon import (
    Graph,
    INFINITE_GIRTH,
    InputError,
    NeighborhoodMultiset,
    SetFamily,
    UnsupportedSizeError,
    VertexSet,
    blow_up,
    contains_induced_c4,
    girth,
    induced_subgraph,
    is_isomorphic,
)
from nbhdrecon.miner import enumerate_labeled_graphs

from helpers import P3, UNIQUE_WITH_C4, WORKED_EXAMPLE, girth5_edge_masks, pg, random_graph, vs1


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestVertexSet:
    def test_members_roundtrip(self):
        s = VertexSet.from_members([0, 3, 5], 8)
        assert s.members() == (0, 3, 5)
        assert 3 in s and 4 not in s
        assert len(s) == 3

    def test_algebra(self):
        a = VertexSet.from_members([0, 1], 4)
        b = VertexSet.from_members([1, 2], 4)
        assert (a | b).members() == (0, 1, 2)
        assert (a & b).members() == (1,)
        assert (a - b).members() == (0,)
        assert (~a).members() == (2, 3)
        assert a <= (a | b)
        assert not (a <= b)

    def test_universe_mismatch_rejected(self):
        a = VertexSet.from_members([0], 4)
        b = VertexSet.from_members([0], 5)
        with pytest.raises(InputError):
            _ = a | b

    def test_out_of_universe_bits_rejected(self):
        with pytest.raises(InputError):
            VertexSet(1 << 5, 5)

    @given(st.integers(1, 16), st.data())
    def test_complement_involution(self, n, data):
        bits = data.draw(st.integers(0, (1 << n) - 1))
        s = VertexSet(bits, n)
        assert ~(~s) == s
        assert (s | ~s) == VertexSet.full(n)
        assert not (s & ~s)


class TestNeighborhoods:
    def test_closed_neighborhood_examples(self):
        # pendant vertex of the 8-vertex example
        assert WORKED_EXAMPLE.closed_neighborhood(WORKED_EXAMPLE.id_of(5)) == vs1(8, 1, 5)
        k3 = complete(3)
        assert k3.closed_neighborhood(0) == VertexSet.full(3)
        edgeless = Graph(4)
        assert edgeless.closed_neighborhood(2) == VertexSet.from_members([2], 4)

    def test_closed_neighborhood_out_of_range(self):
        with pytest.raises(InputError):
            P3.closed_neighborhood(3)

    def test_closed_neighborhood_of_set(self):
        assert P3.closed_neighborhood_of_set(P3.subset([0, 2])) == VertexSet.full(3)
        assert P3.closed_neighborhood_of_set(VertexSet.empty(3)) == VertexSet.empty(3)
        got = WORKED_EXAMPLE.closed_neighborhood_of_set(vs1(8, 2, 4))
        assert got == vs1(8, 1, 2, 3, 4, 6, 7, 8)

    def test_open_neighborhood_examples(self, hexagon, two_triangles):
        assert hexagon.open_neighborhood(hexagon.id_of(1)) == vs1(6, 2, 6)
        assert two_triangles.open_neighborhood(two_triangles.id_of(1)) == vs1(6, 3, 5)
        assert Graph(1).open_neighborhood(0) == VertexSet.empty(1)

    @given(st.integers(1, 8), st.data())
    def test_closed_equals_open_plus_self(self, n, data):
        g = random_graph(n, random.Random(data.draw(st.integers(0, 10 ** 6))))
        for v in range(n):
            assert g.closed_neighborhood(v) == \
                g.open_neighborhood(v) | VertexSet.from_members([v], n)

    @given(st.integers(1, 7), st.data())
    def test_neighborhood_union_homomorphism(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        g = random_graph(n, rng)
        a = VertexSet(rng.getrandbits(n), n)
        b = VertexSet(rng.getrandbits(n), n)
        assert g.closed_neighborhood_of_set(a | b) == \
            g.closed_neighborhood_of_set(a) | g.closed_neighborhood_of_set(b)


class TestInducedC4:
    def test_plain_c4(self):
        assert contains_induced_c4(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))

    def test_five_vertex_example_has_one(self):
        assert contains_induced_c4(UNIQUE_WITH_C4)

    def test_worked_example_is_free(self):
        assert not contains_induced_c4(WORKED_EXAMPLE)

    def test_k4_is_free(self):
        assert not contains_induced_c4(complete(4))

    def test_girth_five_implies_c4_free_exhaustive(self):
        # n <= 6 via the BFS girth directly; n = 7 is covered in the
        # acceptance module with the vectorized sweep.
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                if girth(g) >= 5:
                    assert not contains_induced_c4(g)

    def test_vectorized_girth5_sweep_matches_bfs_girth(self):
        # validates the helper the acceptance suite leans on at n = 7
        for n in (2, 3, 4, 5):
            expected = {em for em, g in enumerate(enumerate_labeled_graphs(n))
                        if girth(g) >= 5}
            assert set(int(x) for x in girth5_edge_masks(n)) == expected


class TestGirth:
    def test_figure_pair_girths(self, k33, prism):
        assert girth(k33) == 4
        assert girth(prism) == 3

    def test_trees_have_infinite_girth(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        path = Graph(5, [(i, i + 1) for i in range(4)])
        assert girth(star) == INFINITE_GIRTH
        assert girth(path) == INFINITE_GIRTH
        assert math.isinf(girth(Graph(1)))

    def test_small_cycles(self):
        for k in (3, 4, 5, 6, 7):
            ring = Graph(k, [(i, (i + 1) % k) for i in range(k)])
            assert girth(ring) == k

    def test_girth_matches_bruteforce_under_enumeration(self):
        # cross-check BFS girth against shortest-cycle-by-edge-subsets
        from itertools import combinations

        def brute_girth(g):
            best = INFINITE_GIRTH
            for k in range(3, g.n + 1):
                for cyc in combinations(range(g.n), k):
                    # try all cyclic orders of the chosen vertex set
                    import itertools as it
                    for perm in it.permutations(cyc[1:]):
                        ring = (cyc[0],) + perm
                        if all(g.has_edge(ring[i], ring[(i + 1) % k])
                               for i in range(k)):
                            best = min(best, k)
                            break
                    if best == k:
                        break
                if best < INFINITE_GIRTH:
                    return best
            return best

        rng = random.Random(1311)
        for _ in range(60):
            g = random_graph(rng.randint(3, 6), rng)
            assert girth(g) == brute_girth(g)


class TestBlowUp:
    def test_single_vertex_to_triangle(self):
        g = blow_up(Graph(1), 0, ["a", "b", "c"])
        assert g.n == 3 and g.edge_count() == 3

    def test_edge_endpoint_to_triangle(self):
        g = Graph(2, [(0, 1)], labels=["a", "b"])
        h = blow_up(g, g.id_of("a"), ["a1", "a2"])
        assert h.edges_by_label() == {frozenset(p) for p in
                                      [("a1", "a2"), ("a1", "b"), ("a2", "b")]}

    def test_worked_example_rebuilt_from_quotient(self):
        # quotient graph on class representatives, then blow both nontrivial
        # classes back up
        q = pg(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4)])
        step1 = blow_up(q, q.id_of(2), [2, 6])
        step2 = blow_up(step1, step1.id_of(4), [4, 7, 8])
        assert step2.edges_by_label() == WORKED_EXAMPLE.edges_by_label()

    def test_label_collision_rejected(self):
        g = Graph(2, [(0, 1)], labels=["a", "b"])
        with pytest.raises(InputError):
            blow_up(g, 0, ["b"])
        with pytest.raises(InputError):
            blow_up(g, 0, ["x", "x"])
        with pytest.raises(InputError):
            blow_up(g, 0, [])

    def test_blow_up_then_contract_is_isomorphic(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = random_graph(n, rng)
            v = rng.randrange(n)
            k = rng.randint(1, 3)
            blown = blow_up(g, v, [f"w{i}" for i in range(k)])
            # survivors are ids 0..n-2; keep those plus one clique member
            contracted, _ = induced_subgraph(blown, blown.subset(range(n)))
            assert is_isomorphic(contracted, g)

    def test_clique_vertices_share_anchor_neighborhood(self):
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        h = blow_up(g, 0, ["x", "y", "z"])
        xs = [h.id_of(t) for t in ("x", "y", "z")]
        for a in xs:
            for b in xs:
                if a != b:
                    assert h.has_edge(a, b)
        anchors = {h.labels[w] for w in h.open_neighborhood(xs[0]).members()} - {"x", "y", "z"}
        assert anchors == {1, 2}


class TestInducedSubgraph:
    def test_path_endpoints(self):
        sub, idmap = induced_subgraph(P3, P3.subset([0, 2]))
        assert sub.n == 2 and sub.edge_count() == 0
        assert idmap == (0, 2)

    def test_k33_slice_is_path(self, k33):
        sub, _ = induced_subgraph(k33, vs1(6, 1, 2, 4))
        # edges 1-4 and 2-4 survive: a path through 4
        assert sub.edge_count() == 2
        assert sorted(sub.degree(v) for v in range(3)) == [1, 1, 2]

    def test_identity(self):
        sub, idmap = induced_subgraph(WORKED_EXAMPLE, WORKED_EXAMPLE.vertex_set())
        assert sub == WORKED_EXAMPLE
        assert idmap == tuple(range(8))

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            induced_subgraph(P3, VertexSet.empty(3))


class TestIsomorphism:
    def test_figure_pairs_not_isomorphic(self, hexagon, two_triangles, k33, prism):
        assert not is_isomorphic(hexagon, two_triangles)
        assert not is_isomorphic(k33, prism)

    def test_self_isomorphic(self):
        assert is_isomorphic(WORKED_EXAMPLE, WORKED_EXAMPLE)

    def test_relabeled_cycle(self):
        a = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        sigma = [2, 4, 1, 3, 0]
        b = Graph(5, [(sigma[u], sigma[v]) for u, v in a.edges()])
        assert is_isomorphic(a, b)

    def test_ceiling_enforced(self):
        g = Graph(11)
        with pytest.raises(UnsupportedSizeError):
            is_isomorphic(g, g)


class TestConstructionInvariants:
    @given(st.integers(1, 8), st.data())
    def test_symmetry_and_irreflexivity(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        g = random_graph(n, rng)
        for v in range(n):
            assert not g.has_edge(v, v)
            for w in g.open_neighborhood(v):
                assert g.has_edge(w, v)

    def test_loops_rejected(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 1)])

    def test_asymmetric_masks_rejected(self):
        with pytest.raises(InputError):
            Graph.from_adjacency_masks([0b010, 0b000, 0b000])

    def test_labels_must_be_distinct(self):
        with pytest.raises(InputError):
            Graph(2, [], labels=["a", "a"])

    def test_vertex_count_bounds(self):
        with pytest.raises(InputError):
            Graph(0)
        with pytest.raises(InputError):
            Graph(65)

    @pytest.mark.parametrize("build", [
        lambda: SetFamily(3, [True]),
        lambda: SetFamily(3, [2.9]),
        lambda: SetFamily(8, ["5"]),
        lambda: SetFamily(True, [1]),
        lambda: NeighborhoodMultiset(3, [(1, True)]),
        lambda: Graph(True),
        lambda: Graph(3, [(True, 2)]),
        lambda: Graph(3, [(0, 1.0)]),
        lambda: Graph(3, labels=5),
        lambda: Graph(3, labels=[[1], [2], [3]]),
        lambda: VertexSet(1, True),
        lambda: VertexSet(1.5, 3),
        lambda: VertexSet(np.True_, 3),
    ], ids=["family-bool", "family-float", "family-str", "family-universe-bool",
            "multiplicity-bool", "n-bool", "edge-bool", "edge-float", "labels-int",
            "labels-unhashable", "universe-bool", "bits-float", "bits-numpy-bool"])
    def test_bools_and_non_integers_rejected(self, build):
        with pytest.raises(InputError):
            build()

    def test_numpy_integers_accepted(self):
        one, three = np.int64(1), np.uint8(3)
        assert SetFamily(three, [np.uint32(5), one]) == SetFamily(3, [5, 1])
        assert NeighborhoodMultiset(3, [(one, np.int32(2))]) == NeighborhoodMultiset(3, [1, 1])
        assert Graph(three, [(np.int64(0), np.int16(2))]) == Graph(3, [(0, 2)])
        assert VertexSet(np.int64(5), three).members() == (0, 2)
