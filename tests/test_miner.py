import random
from collections import Counter, defaultdict

import pytest

from nbhdrecon import (
    Graph,
    InputError,
    ResourceLimitError,
    contains_induced_c4,
)
from nbhdrecon import miner
from nbhdrecon.miner import (
    PermutationWitness,
    check_collision_pair,
    enumerate_labeled_graphs,
    find_collisions,
    invariant_fingerprint,
    verify_collisions,
    witness_permutation,
)

from helpers import nbhd_sets, oracle_least_witness, random_graph


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64), (6, 32768)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_labeled_graphs(n)) == count

    def test_exactly_once(self):
        seen = set(enumerate_labeled_graphs(4))
        assert len(seen) == 64

    def test_large_sizes_need_opt_in(self):
        with pytest.raises(ResourceLimitError):
            next(enumerate_labeled_graphs(7))
        with pytest.raises(ResourceLimitError):
            next(enumerate_labeled_graphs(9, allow_large=True))
        g = next(enumerate_labeled_graphs(7, allow_large=True))
        assert g.n == 7


class TestFindCollisions:
    def test_c4_support_group(self, c4_labelings):
        groups = find_collisions(4, "closed-support")
        want = {Graph(4, g.edges()) for g in c4_labelings}
        matches = [grp for grp in groups if set(grp.graphs) == want]
        assert len(matches) == 1

    def test_collision_pair_groups_at_n6(self, k33, prism):
        groups = find_collisions(6, "closed-multiset")
        k33_plain, prism_plain = Graph(6, k33.edges()), Graph(6, prism.edges())
        joint = [grp for grp in groups
                 if k33_plain in grp.graphs and prism_plain in grp.graphs]
        assert len(joint) == 1

    def test_open_multiset_group_contains_hexagon_pair(self, hexagon, two_triangles):
        groups = find_collisions(6, "open-multiset")
        a, b = Graph(6, hexagon.edges()), Graph(6, two_triangles.edges())
        assert any(a in grp.graphs and b in grp.graphs for grp in groups)

    @pytest.mark.parametrize("kind", ["closed-multiset", "closed-support", "open-multiset"])
    def test_groups_match_pure_python_reference(self, kind):
        # the vectorized sweep must agree with a dict-of-fingerprints sweep
        for n in (2, 3, 4, 5):
            reference = defaultdict(list)
            for g in enumerate_labeled_graphs(n):
                reference[invariant_fingerprint(g, kind)].append(g)
            expected = {fp: tuple(gs) for fp, gs in reference.items() if len(gs) >= 2}
            got = {grp.fingerprint: grp.graphs for grp in find_collisions(n, kind)}
            assert got == expected

    def test_group_members_share_fingerprint(self):
        for grp in find_collisions(5, "closed-multiset"):
            fps = {invariant_fingerprint(g, "closed-multiset") for g in grp.graphs}
            assert fps == {grp.fingerprint}
            assert len(set(grp.graphs)) == len(grp.graphs) >= 2

    def test_jobs_partitioning_agrees(self):
        serial = find_collisions(5, "closed-support")
        parallel = find_collisions(5, "closed-support", jobs=2)
        assert [(g.fingerprint, g.graphs) for g in serial] == \
            [(g.fingerprint, g.graphs) for g in parallel]

    def test_bad_kind_rejected(self):
        with pytest.raises(InputError):
            find_collisions(3, "degree-sequence")

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(InputError):
            find_collisions(3, jobs=jobs)

    @pytest.mark.parametrize("jobs,chunk,cpus,workers", [
        (100_000, 64, 4, 4),      # capped by the CPU count
        (100_000, 512, 4, 2),     # capped by the number of chunks
        (3, 64, 4, 3),
        (2, 64, None, None),      # unknown CPU count: serial, no pool
        (100_000, 1024, 4, None),  # a single chunk: serial, no pool
    ])
    def test_worker_count_clamped(self, monkeypatch, jobs, chunk, cpus, workers):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(miner, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(miner, "_CHUNK", chunk)
        monkeypatch.setattr(miner.os, "cpu_count", lambda: cpus)
        groups = find_collisions(5, "closed-multiset", jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(groups) == 40


class TestWitnessPermutation:
    def test_identity_on_equal_graphs(self):
        g = random_graph(5, random.Random(1))
        w = witness_permutation(g, g)
        assert w.sigma == tuple(range(5))
        assert all(len(o) == 1 for o in w.orbits)

    def test_collision_pair_witness(self, k33, prism):
        w = witness_permutation(k33, prism)
        assert w.sigma == (3, 4, 5, 0, 1, 2)
        assert [o.members() for o in w.orbits] == [(0, 3), (1, 4), (2, 5)]
        assert w.cycle_notation() == "(0 3)(1 4)(2 5)"

    def test_different_degree_sequences_give_none(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(0, 1), (1, 2)])
        assert witness_permutation(a, b) is None

    def test_witness_property_holds(self):
        rng = random.Random(2)
        pairs_checked = 0
        for grp in find_collisions(5, "closed-multiset"):
            g, h = grp.graphs[0], grp.graphs[1]
            w = witness_permutation(g, h)
            assert w is not None
            for v in range(5):
                assert g.closed_mask(v) == h.closed_mask(w.sigma[v])
            pairs_checked += 1
        assert pairs_checked > 0

    def test_orbit_cycle_symmetry(self):
        # orbits of sigma equal orbits of sigma inverse
        rng = random.Random(3)
        for grp in find_collisions(4, "closed-multiset")[:20]:
            w = witness_permutation(grp.graphs[0], grp.graphs[1])
            inv = [0] * len(w.sigma)
            for v, u in enumerate(w.sigma):
                inv[u] = v
            w_inv = PermutationWitness.from_sigma(tuple(inv))
            assert set(w.orbits) == set(w_inv.orbits)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(InputError):
            witness_permutation(Graph(3), Graph(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_least_sigma_on_every_collision_pair(self, n):
        pairs = 0
        for grp in find_collisions(n, "closed-multiset"):
            for g in grp.graphs:
                for h in grp.graphs:
                    if g != h:
                        assert witness_permutation(g, h).sigma == \
                            oracle_least_witness(g, h)
                        pairs += 1
        assert pairs == {4: 6, 5: 120}.get(n, 0)  # both orders

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_least_sigma_on_random_pairs(self, n):
        rng = random.Random(n)
        matched = 0
        for _ in range(150):
            g = random_graph(n, rng)
            h = g if rng.random() < 0.2 else random_graph(n, rng)
            w = witness_permutation(g, h)
            same = Counter(nbhd_sets(g).values()) == Counter(nbhd_sets(h).values())
            assert (w is not None) == same
            assert (w.sigma if w else None) == oracle_least_witness(g, h)
            matched += same
        assert matched > 0


class TestVerify:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_small_sizes_zero_violations(self, n):
        report = verify_collisions(n)
        assert report.violations == ()
        assert report.graphs_swept == 1 << (n * (n - 1) // 2)
        if n >= 4:
            assert report.pairs_checked > 0

    def test_no_collisions_below_four_vertices(self):
        assert verify_collisions(2).pairs_checked == 0
        assert verify_collisions(3).pairs_checked == 0

    def test_pair_checks_on_collision_pair(self, k33, prism):
        checks = check_collision_pair(k33, prism)
        assert checks.all_ok
        assert checks.equal_edge_count
        assert checks.orbits_are_cliques
        assert checks.edge_transit
        assert checks.both_contain_c4

    def test_c4_free_support_fingerprint_injective_small(self):
        # no two distinct C4-free labeled graphs share a closed support
        for n in (2, 3, 4, 5, 6):
            for grp in find_collisions(n, "closed-support"):
                c4_free = [g for g in grp.graphs if not contains_induced_c4(g)]
                assert len(c4_free) == 0
