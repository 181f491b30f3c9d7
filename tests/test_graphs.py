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
    contains_induced_c4,
    girth,
    induced_subgraph,
    is_isomorphic,
)
from nbhdrecon.graphs import _transpose, mask_members

from helpers import (
    P3, UNIQUE_WITH_C4, WORKED_EXAMPLE, enumerate_labeled_graphs, girth5_edge_masks,
    random_graph, vs1)


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestTranspose:
    @staticmethod
    def by_member_tuples(rows, width):
        out = [0] * width
        for i, row in enumerate(rows):
            for j in mask_members(row):
                out[j] |= 1 << i
        return out

    @pytest.mark.parametrize("width", [0, 1, 2, 13, 63, 64])
    def test_against_member_tuples(self, width):
        rng = random.Random(width)
        full = (1 << width) - 1
        for k in (0, 1, 2, 7, 64, 65):
            rows = [rng.getrandbits(width) for _ in range(k)]
            if k >= 2:
                rows[0], rows[-1] = 0, full  # an empty and a full row
            got = _transpose(rows, width)
            assert got == self.by_member_tuples(rows, width)
            assert _transpose(got, k) == rows

    @pytest.mark.parametrize("width", [1, 63, 64])
    def test_single_bits(self, width):
        rows = [1 << j for j in range(width)]
        assert _transpose(rows, width) == rows
        assert _transpose([1 << (width - 1)], width) == [0] * (width - 1) + [1]


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
        lambda: VertexSet.from_members([True], 2),
        lambda: VertexSet.from_members([-1], 2),
        lambda: Graph.from_edge_mask(True, 0),
        lambda: Graph.from_edge_mask(3, 1.0),
        lambda: Graph.from_adjacency_masks([2.0, 1]),
        lambda: Graph(3).has_edge(0, 1.5),
        lambda: Graph(3).has_edge(True, 2),
    ], ids=["family-bool", "family-float", "family-str", "family-universe-bool",
            "multiplicity-bool", "n-bool", "edge-bool", "edge-float", "labels-int",
            "labels-unhashable", "universe-bool", "bits-float", "bits-numpy-bool",
            "member-bool", "member-negative", "edge-mask-n-bool", "edge-mask-float",
            "adjacency-float", "vertex-float", "vertex-bool"])
    def test_bools_and_non_integers_rejected(self, build):
        with pytest.raises(InputError):
            build()

    def test_numpy_integers_accepted(self):
        one, three = np.int64(1), np.uint8(3)
        assert SetFamily(three, [np.uint32(5), one]) == SetFamily(3, [5, 1])
        assert NeighborhoodMultiset(3, [(one, np.int32(2))]) == NeighborhoodMultiset(3, [1, 1])
        assert Graph(three, [(np.int64(0), np.int16(2))]) == Graph(3, [(0, 2)])
        assert VertexSet(np.int64(5), three).members() == (0, 2)
        assert VertexSet.from_members([np.int64(2)], three) == VertexSet(4, 3)
        assert Graph.from_edge_mask(three, np.uint64(1)) == Graph(3, [(0, 1)])
        assert Graph.from_adjacency_masks([np.int64(2), one]) == Graph(2, [(0, 1)])
        assert Graph(3, [(0, 1)]).has_edge(np.int64(0), np.uint8(1))
