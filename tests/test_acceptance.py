"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names themselves carry the criterion numbers.
"""

import json
import random
import time

from nbhdrecon import (
    Graph,
    VertexSet,
    closed_support,
    cn_subset,
    contains_induced_c4,
    digital_convexity,
    from_digital_convexity,
    from_multiset,
    from_support,
    girth,
    is_digitally_convex,
    is_isomorphic,
    neighborhood_multiset,
    spans,
    union_basis,
    union_closure,
)
from nbhdrecon.cli import main as cli_main
from nbhdrecon.formats import multiset_to_json_dict
from nbhdrecon.miner import find_collisions

from helpers import (
    C4_LABELINGS,
    HEXAGON,
    K33,
    PRISM,
    TWO_TRIANGLES,
    UNIQUE_WITH_C4,
    WORKED_EXAMPLE,
    enumerate_labeled_graphs,
    girth5_edge_masks,
    random_c4_free_graph,
    random_graph,
)


def edges1(g):
    return {tuple(sorted((u + 1, v + 1))) for u, v in g.edges()}


def test_criterion_01_worked_example_reconstruction():
    support = closed_support(WORKED_EXAMPLE)
    assert len(support) == 5
    result = from_support(support, "all", 8)
    assert result.verdict == "unique"
    assert edges1(result.graph) == {
        (1, 5), (1, 2), (1, 6), (1, 3), (1, 4), (1, 7), (1, 8),
        (2, 6), (2, 3), (3, 6), (3, 4), (3, 7), (3, 8),
        (4, 7), (4, 8), (7, 8)}
    assert result.elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: worked example unique, 16 edges, "
          f"{result.elapsed:.4f}s")


def test_criterion_02_unique_reconstruction_despite_induced_c4():
    support = closed_support(UNIQUE_WITH_C4)
    result = from_support(support, "all", 8)
    assert result.verdict == "unique"
    assert edges1(result.graph) == {(1, 2), (1, 4), (1, 5), (2, 3), (3, 4)}
    assert contains_induced_c4(result.graph)
    print("\nACCEPTANCE 2 PASS: five-set family unique with an induced C4")


def test_criterion_03_three_c4_labelings(tmp_path, capsys):
    expected = {Graph(4, g.edges()) for g in C4_LABELINGS}
    m = neighborhood_multiset(C4_LABELINGS[0])

    rm = from_multiset(m, "all", 16)
    assert rm.verdict == "ambiguous" and not rm.truncated
    assert set(rm.graphs) == expected

    rs = from_support(m.support(), "all", 16)
    assert rs.verdict == "ambiguous" and not rs.truncated
    assert set(rs.graphs) == expected

    payload = tmp_path / "c4_multiset.json"
    payload.write_text(json.dumps(multiset_to_json_dict(m)))
    code = cli_main(["reconstruct", "--from", "multiset", "--all", str(payload)])
    out = capsys.readouterr().out
    assert code == 2
    assert len(json.loads(out)["graphs"]) == 3
    print("\nACCEPTANCE 3 PASS: exactly 3 labeled 4-cycles from multiset and "
          "support, CLI exit 2")


def test_criterion_04_closed_multiset_collision_pair():
    assert neighborhood_multiset(K33) == neighborhood_multiset(PRISM)
    assert not is_isomorphic(K33, PRISM)
    assert girth(K33) == 4
    assert girth(PRISM) == 3
    assert digital_convexity(K33) == digital_convexity(PRISM)
    assert K33.edge_count() == PRISM.edge_count() == 9
    print("\nACCEPTANCE 4 PASS: equal closed multisets and convexities, "
          "non-isomorphic, girths 4/3, 9 edges each")


def test_criterion_05_open_multiset_collision_pair():
    assert neighborhood_multiset(HEXAGON, closed=False) == \
        neighborhood_multiset(TWO_TRIANGLES, closed=False)
    assert not is_isomorphic(HEXAGON, TWO_TRIANGLES)
    print("\nACCEPTANCE 5 PASS: 6-cycle and two triangles share open "
          "neighborhoods, non-isomorphic")


def test_criterion_06_collision_pairs_contain_c4_n6():
    t0 = time.perf_counter()
    violations = 0
    pairs = 0
    for kind in ("closed-multiset", "closed-support"):
        for group in find_collisions(6, kind):
            c4 = [contains_induced_c4(g) for g in group.graphs]
            k = len(group.graphs)
            pairs += k * (k - 1) // 2
            if not all(c4):
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 PASS: every member of every collision group on 6 "
          f"vertices contains an induced C4 ({pairs} pairs, {elapsed:.1f}s)")


def test_criterion_07_roundtrips():
    failures = 0
    exhaustive = 0
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            if contains_induced_c4(g):
                continue
            exhaustive += 1
            if from_multiset(neighborhood_multiset(g), "all", 4).graphs != (g,):
                failures += 1
            if from_support(closed_support(g), "all", 4).graphs != (g,):
                failures += 1
            if from_digital_convexity(digital_convexity(g), "all", 4).graphs != (g,):
                failures += 1

    rng = random.Random(624190)
    sampled = 0
    for n in (7, 8, 9, 10):
        for _ in range(500):
            g = random_c4_free_graph(n, rng)
            sampled += 1
            r1 = from_multiset(neighborhood_multiset(g), "all", 4)
            r2 = from_support(closed_support(g), "all", 4)
            r3 = from_digital_convexity(digital_convexity(g), "all", 4)
            for r in (r1, r2, r3):
                if r.verdict != "unique" or r.graph != g:
                    failures += 1
    assert failures == 0
    print(f"\nACCEPTANCE 7 PASS: {exhaustive} exhaustive C4-free graphs "
          f"(n<=6) and {sampled} sampled (n=7..10) round-trip uniquely "
          f"through all three invariants")


def test_criterion_08_convexity_complement_equivalence():
    checked = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            closure = union_closure(closed_support(g))
            for bits in range(1 << n):
                s = VertexSet(bits, n)
                checked += 1
                assert is_digitally_convex(g, s) == ((~s) in closure)

    rng = random.Random(8911)
    for n in range(6, 13):
        for _ in range(30):
            g = random_graph(n, rng)
            closure = union_closure(closed_support(g))
            for _ in range(40):
                s = VertexSet(rng.getrandbits(n), n)
                checked += 1
                assert is_digitally_convex(g, s) == ((~s) in closure)
    print(f"\nACCEPTANCE 8 PASS: convexity matches complement-in-closure on "
          f"{checked} (graph, set) pairs")


def test_criterion_09_union_basis_uniqueness_and_minimality():
    rng = random.Random(93)
    for _ in range(1000):
        universe = rng.randint(1, 12)
        members = [VertexSet(rng.getrandbits(universe), universe)
                   for _ in range(rng.randint(1, 12))]
        family_members = list(members)
        basis = union_basis(family_members)
        for _ in range(100):
            rng.shuffle(family_members)
            assert union_basis(family_members) == basis
        from nbhdrecon import SetFamily
        f = SetFamily(universe, members)
        assert spans(basis, f)
        for drop in basis.masks:
            rest = SetFamily(universe, [m for m in basis.masks if m != drop])
            assert not spans(rest, f)
    print("\nACCEPTANCE 9 PASS: 1000 random families, basis invariant under "
          "100 shuffles each and minimal in every case")


def test_criterion_10_generator_reduction_soundness():
    checked = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            supp = closed_support(g)
            reach = [g.closed_neighborhood_of_set(VertexSet(bits, n))
                     for bits in range(1 << n)]
            for abits in range(1 << n):
                for bbits in range(1 << n):
                    got = cn_subset(VertexSet(abits, n), VertexSet(bbits, n), supp)
                    assert got == (reach[abits] <= reach[bbits])
                    checked += 1
    print(f"\nACCEPTANCE 10 PASS: inclusion test over the support agrees with "
          f"direct neighborhoods on {checked} (A, B) pairs")


def test_criterion_11_girth_five_reconstruction():
    count = 0
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            if girth(g) < 5:
                continue
            count += 1
            result = from_digital_convexity(digital_convexity(g), "all", 4)
            assert result.verdict == "unique"
            assert result.graph == g
            assert girth(result.graph) == girth(g)

    # n = 7: the vectorized sweep yields every triangle- and 4-cycle-free
    # graph; all of them must be C4-free, and a sample must round-trip.
    masks7 = girth5_edge_masks(7)
    rng = random.Random(1553)
    survivors = [Graph.from_edge_mask(7, int(em)) for em in masks7]
    for g in survivors:
        assert not contains_induced_c4(g)
    sample = rng.sample(survivors, 300)
    for g in sample:
        assert girth(g) >= 5
        result = from_digital_convexity(digital_convexity(g), "all", 4)
        assert result.verdict == "unique"
        assert result.graph == g
        assert girth(result.graph) == girth(g)
    print(f"\nACCEPTANCE 11 PASS: girth>=5 graphs reconstruct uniquely from "
          f"convexity ({count} exhaustive n<=6, 300 sampled of "
          f"{len(survivors)} at n=7) with girth recovered")
