#!/usr/bin/env python3
"""Neighborhood invariants and why labeled graphs can share them.

Walks through open/closed neighborhoods on small graphs, then shows two
classic coincidences: a 6-cycle and two disjoint triangles with identical
open neighborhoods, and K_{3,3} and the triangular prism with identical
closed neighborhoods.
"""

from nbhdrecon import (
    Graph,
    girth,
    is_isomorphic,
    neighborhood_multiset,
    witness_permutation,
)


def show(title, g):
    print(f"\n{title}: n={g.n}, edges={sorted(g.edges())}")
    for v in range(g.n):
        print(f"  N[{v}] = {set(g.closed_neighborhood(v).members())}")


def main():
    print("=" * 64)
    print("Closed neighborhoods of a path")
    print("=" * 64)
    p3 = Graph(3, [(0, 1), (1, 2)])
    show("path a-b-c", p3)
    print("support (distinct sets):",
          [set(m.members()) for m in neighborhood_multiset(p3).support()])

    print()
    print("=" * 64)
    print("Open neighborhoods do not pin down the graph")
    print("=" * 64)
    hexagon = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    triangles = Graph(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    same_open = (neighborhood_multiset(hexagon, closed=False)
                 == neighborhood_multiset(triangles, closed=False))
    print("6-cycle vs two triangles:")
    print("  same open neighborhoods?", same_open)
    print("  isomorphic?", is_isomorphic(hexagon, triangles))

    print()
    print("=" * 64)
    print("Closed neighborhoods do not pin it down either")
    print("=" * 64)
    k33 = Graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    prism = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                      (0, 3), (1, 4), (2, 5)])
    print("K_{3,3} vs triangular prism:")
    print("  same closed neighborhoods?",
          neighborhood_multiset(k33) == neighborhood_multiset(prism))
    print("  isomorphic?", is_isomorphic(k33, prism))
    print("  girths:", girth(k33), "vs", girth(prism))
    print("  edge counts:", k33.edge_count(), "vs", prism.edge_count(),
          "(equal multisets force equal edge counts)")

    w = witness_permutation(k33, prism)
    print("  matching permutation sigma:", w.cycle_notation())
    print("  orbits:", [set(o.members()) for o in w.orbits],
          "(each orbit induces a clique in both graphs)")


if __name__ == "__main__":
    main()
