#!/usr/bin/env python3
"""Digital convexity and reconstruction from it.

A vertex set S is digitally convex when every outside vertex keeps a private
neighbor that N[S] does not reach.  The complements of the convex sets are
exactly the closed neighborhoods of vertex subsets, so the set of closed
neighborhoods fixes the family of convex sets.  The converse fails for some
labeled graphs with an induced 4-cycle, where different sets of closed
neighborhoods give one convexity; this script enumerates convex sets,
checks that bridge, and reconstructs graphs from their convexity alone.
"""

from nbhdrecon import (
    Graph,
    check_convexity_axioms,
    closed_support,
    complement_family,
    convexity_witness,
    digital_convexity,
    from_digital_convexity,
    girth,
    union_closure,
)
from nbhdrecon.graphs import mask_members


def pretty(family):
    return [set(mask_members(m)) for m in family.masks]


def main():
    p3 = Graph(3, [(0, 1), (1, 2)])
    print("path a-b-c, all digitally convex sets:")
    d = digital_convexity(p3)
    print("  ", pretty(d))
    print("axioms hold?", check_convexity_axioms(d).ok)

    w = convexity_witness(p3, p3.subset([0]))
    print("witness for {0}: private neighbors of outside vertices:",
          w.private_neighbors)

    print("\ncomplement bridge: complements of convex sets == all unions of")
    print("closed neighborhoods:",
          complement_family(d) == union_closure(closed_support(p3)))

    print("\nreconstruction from convexity alone:")
    res = from_digital_convexity(d, "all", 8)
    print("  verdict:", res.verdict, "edges:", sorted(res.graph.edges()))

    print("\nthe trivial convexity {empty, V} pins down the complete graph:")
    from nbhdrecon import SetFamily
    res = from_digital_convexity(SetFamily(5, [0, 0b11111]), "all", 8)
    print("  verdict:", res.verdict,
          f"edges={res.graph.edge_count()} (K5 has 10)")

    print("\ngirth at least five guarantees a unique answer, girth included:")
    ring = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    res = from_digital_convexity(digital_convexity(ring), "all", 8)
    print(f"  7-cycle: verdict={res.verdict}, girth={girth(res.graph)}")

    print("\nbut with induced 4-cycles girth can be lost:")
    k33 = Graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    prism = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                      (0, 3), (1, 4), (2, 5)])
    print("  K_{3,3} and the prism share a convexity:",
          digital_convexity(k33) == digital_convexity(prism),
          f"(girths {girth(k33)} and {girth(prism)})")
    res = from_digital_convexity(digital_convexity(k33), "all", 16)
    print(f"  reconstruction verdict: {res.verdict} "
          f"({res.solution_count} realizations)")


if __name__ == "__main__":
    main()
