import dataclasses
import json
import random
import sys
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from nbhdrecon import (
    Graph,
    InputError,
    NeighborhoodMultiset,
    ResourceLimitError,
    VerificationError,
    contains_induced_c4,
    from_multiset,
)
from nbhdrecon import formats, miner
from nbhdrecon.miner import (
    PermutationWitness,
    check_collision_pair,
    find_collisions,
    verify_collisions,
    witness_permutation,
)

from nbhdrecon.formats import collision_json_blocks, to_graph6

from helpers import (
    enumerate_labeled_graphs,
    invariant_fingerprint,
    nbhd_sets,
    oracle_collision_pairs,
    oracle_least_witness,
    random_graph,
)


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_open_groups_are_complement_images_of_closed_groups(self, n):
        # N_G[v] = V minus the open neighborhood of v in the complement of G
        def complement(g):
            return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if not g.has_edge(u, v)])
        closed = {frozenset(map(complement, grp.graphs))
                  for grp in find_collisions(n, "closed-multiset")}
        opened = {frozenset(grp.graphs) for grp in find_collisions(n, "open-multiset")}
        assert closed == opened

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_groups_are_realizer_solution_sets(self, n):
        for grp in find_collisions(n, "closed-multiset"):
            result = from_multiset(NeighborhoodMultiset(n, grp.fingerprint), "all",
                                   len(grp.graphs) + 1)
            assert result.verdict == "ambiguous" and not result.truncated
            assert Counter(result.graphs) == Counter(grp.graphs)

    def test_group_members_share_fingerprint(self):
        for grp in find_collisions(5, "closed-multiset"):
            fps = {invariant_fingerprint(g, "closed-multiset") for g in grp.graphs}
            assert fps == {grp.fingerprint}
            assert len(set(grp.graphs)) == len(grp.graphs) >= 2

    def test_jobs_partitioning_agrees(self, monkeypatch):
        monkeypatch.setattr(miner, "_CHUNK_BITS", 6)  # sixteen chunks
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

        monkeypatch.setattr(miner, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(miner, "_CHUNK_BITS", chunk.bit_length() - 1)
        monkeypatch.setattr(miner.os, "cpu_count", lambda: cpus)
        groups = find_collisions(5, "closed-multiset", jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(groups) == 40

    @pytest.mark.parametrize("kind", miner.KINDS)
    def test_threads_under_fast_switching(self, monkeypatch, kind):
        # more workers than cores, each switch a chance to lose a chunk's keys
        monkeypatch.setattr(miner, "_CHUNK_BITS", 7)  # 256 chunks at n = 6
        monkeypatch.setattr(miner.os, "cpu_count", lambda: 8)
        serial = miner.collision_arrays(6, kind)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = miner.collision_arrays(6, kind, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert_same_arrays(threaded, serial)

    @pytest.mark.parametrize("kind", miner.KINDS)
    def test_one_slot_hash_table_changes_nothing(self, monkeypatch, kind):
        # with one slot every graph is a candidate, as in a sort of all keys
        real = miner._collision_candidates
        default = [miner.collision_arrays(n, kind) for n in range(1, 7)]
        monkeypatch.setattr(miner, "_collision_candidates",
                            lambda hashes, bits: real(hashes, 0))
        for n, want in enumerate(default, 1):
            got = miner.collision_arrays(n, kind)
            assert_same_arrays(got, want)
            assert (len(got.fingerprints) > 0) == (n >= 4)

    @pytest.mark.parametrize("kind", miner.KINDS)
    def test_one_shared_hash_changes_nothing(self, monkeypatch, kind):
        # zero multipliers hash every graph to 0, so every graph collides in
        # the hash and all graphs are candidates
        default = [miner.collision_arrays(n, kind) for n in range(1, 7)]
        real = miner._collision_candidates
        counts = []

        def counting(hashes, bits):
            candidates = real(hashes, bits)
            counts.append(len(candidates))
            return candidates

        monkeypatch.setattr(miner, "_ROW_MIX", (np.uint32(0),) * 8)
        monkeypatch.setattr(miner, "_collision_candidates", counting)
        for n, want in enumerate(default, 1):
            assert_same_arrays(miner.collision_arrays(n, kind), want)
        # one graph at n = 1 has no hash to share
        assert counts == [0] + [1 << (n * (n - 1) // 2) for n in range(2, 7)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_candidates_hold_every_repeated_key(self, n):
        rows = miner._neighborhood_rows(n, all_edge_masks(n), closed=True)
        keys = miner._keys_from_rows(n, "closed-multiset", rows)
        candidates = miner._collision_candidates(row_hashes(rows), n * (n - 1) // 2)
        counts = Counter(keys.tolist())
        repeated = [i for i, key in enumerate(keys.tolist()) if counts[key] > 1]
        assert set(repeated) <= set(candidates.tolist())
        assert candidates.tolist() == sorted(set(candidates.tolist()))
        assert len(candidates) < len(keys)

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_recomputed_candidate_keys_equal_chunk_keys(self, monkeypatch, n, kind):
        # candidates are gathered one chunk at a time, many chunks here; their
        # keys, recomputed from their edge masks, are the keys of the rows
        # the sweep hashed there
        monkeypatch.setattr(miner, "_CHUNK_BITS", 2)
        edge_bits = n * (n - 1) // 2
        bits = min(2, edge_bits)
        hashes = table_hashes(n, kind, bits, range(1 << (edge_bits - bits)))
        keys = miner._keys_from_rows(n, kind, row_keys_input(n, kind, 0, 1 << edge_bits))
        candidates = miner._collision_candidates(hashes, edge_bits)
        shift = np.uint32(32 - edge_bits)
        repeated = [h for h, count in Counter(hashes.tolist()).items() if count > 1]
        marked = np.isin(hashes >> shift, np.array(repeated, dtype=np.uint32) >> shift)
        assert candidates.tolist() == np.flatnonzero(marked).tolist()
        recomputed = miner._keys_from_rows(n, kind, miner._neighborhood_rows(
            n, candidates, closed=kind != "open-multiset"))
        assert recomputed.tolist() == keys[candidates].tolist()

    def test_sweep_holds_no_key_per_graph(self):
        # one uint32 hash and its sorted copy per graph, not a uint64 key:
        # 12 bytes a graph
        tracemalloc.start()
        try:
            miner.collision_arrays(7, "closed-support", allow_large=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 << 21


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
            w_inv = PermutationWitness(tuple(inv))
            assert set(w.orbits) == set(w_inv.orbits)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(InputError):
            witness_permutation(Graph(3), Graph(4))

    @pytest.mark.parametrize("sigma", [(0, 0, 2), (1, 2), (0, 1, 3), (-1, 0)])
    def test_non_bijection_rejected(self, sigma):
        with pytest.raises(InputError):
            PermutationWitness(sigma)

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

    @pytest.mark.parametrize("slab", [1, 7])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_pair_slabs_change_nothing(self, monkeypatch, n, slab):
        want = verify_collisions(n)
        monkeypatch.setattr(miner, "_PAIR_SLAB", slab)
        assert verify_collisions(n) == want

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


def assert_same_arrays(got, want):
    assert got.fingerprints == want.fingerprints
    assert got.fields.dtype == want.fields.dtype
    assert got.fields.tolist() == want.fields.tolist()
    assert got.edge_masks.dtype == want.edge_masks.dtype
    assert got.edge_masks.tolist() == want.edge_masks.tolist()
    assert got.offsets.tolist() == want.offsets.tolist()


def row_keys_input(n, kind, lo, hi):
    """The rows the key kernel reads for the edge masks lo .. hi-1."""
    return miner._neighborhood_rows(n, np.arange(lo, hi, dtype=np.uint32),
                                    closed=kind != "open-multiset")


def row_hashes(rows):
    """:func:`miner._row_hashes` into a new array."""
    out = np.empty(rows.shape[1], dtype=np.uint32)
    miner._row_hashes(rows, out)
    return out


def table_hashes(n, kind, bits, chunks):
    """The sweep's hashes of the given chunks of 2^bits edge masks, in order."""
    table = row_keys_input(n, kind, 0, 1 << bits)
    out = np.empty((len(chunks), 1 << bits), dtype=np.uint32)
    for slot, c in zip(out, chunks):
        miner._chunk_hashes(n, kind, table, c, slot)
    return out.ravel()


def reference_row_hash(fingerprint):
    """:func:`miner._row_hashes` of one graph in plain Python, from its
    padded fingerprint."""
    h = sum(m * int(mix) for m, mix in zip(fingerprint, miner._ROW_MIX)) % (1 << 32)
    h ^= h >> 16
    return h * int(miner._HASH_FINAL) % (1 << 32)


def assert_equal_keys_equal_hashes(keys, hashes):
    """Keys are a function's arguments and hashes its values; some repeat."""
    hash_of = {}
    for key, h in zip(keys.tolist(), hashes.tolist()):
        assert hash_of.setdefault(key, h) == h
    assert len(hash_of) < len(keys)


def all_edge_masks(n):
    return np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)


def seeded_edge_masks(n, count, seed):
    rng = random.Random(seed)
    return np.array([rng.getrandbits(n * (n - 1) // 2) for _ in range(count)],
                    dtype=np.uint32)


class TestArrayKernels:
    """Each array kernel against the per-graph function it replaces."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_against_graph(self, n):
        ems = all_edge_masks(n)
        closed = miner._neighborhood_rows(n, ems, closed=True).T.tolist()
        opened = miner._neighborhood_rows(n, ems, closed=False).T.tolist()
        for em, c, o in zip(ems.tolist(), closed, opened):
            g = Graph.from_edge_mask(n, em)
            assert c == [g.closed_mask(v) for v in range(n)]
            assert o == [g.adjacency_mask(v) for v in range(n)]

    @staticmethod
    def check_keys(n, kind, lo, hi):
        # mask i of the sorted invariant sits at bits n*(n-1-i); a support is
        # zero-padded at the back; sorting the keys sorts the fingerprints
        keys = miner._keys_from_rows(n, kind, row_keys_input(n, kind, lo, hi))
        fps = [invariant_fingerprint(Graph.from_edge_mask(n, em), kind)
               for em in range(lo, hi)]
        for key, fp in zip(keys.tolist(), fps):
            fp = fp + (0,) * (n - len(fp))
            assert key == sum(m << (n * (n - 1 - i)) for i, m in enumerate(fp))
        assert [fps[i] for i in np.argsort(keys, kind="stable")] == sorted(fps)
        return keys

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_keys_pack_invariant_fingerprint(self, n, kind):
        self.check_keys(n, kind, 0, 1 << (n * (n - 1) // 2))

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("lo", [0, (1 << 28) - 2000])
    def test_keys_pack_at_n8(self, lo, kind):
        # the top chunk ends at K8: every key bit and the closed mask 0xFF occur
        keys = self.check_keys(8, kind, lo, lo + 2000)
        if kind == "closed-multiset" and lo:
            assert keys[-1] == np.uint64((1 << 64) - 1)

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_keys_equal_row_keys(self, n, kind):
        # one chunk, then chunks of half the edge bits: the high bits vary
        edge_bits = n * (n - 1) // 2
        want = row_hashes(miner._canonical_rows(
            n, kind, row_keys_input(n, kind, 0, 1 << edge_bits)))
        for bits in sorted({edge_bits, edge_bits // 2}):
            got = table_hashes(n, kind, bits, range(1 << (edge_bits - bits)))
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("n", [7, 8])
    def test_table_keys_first_middle_last_chunk(self, n, kind):
        width = 1 << miner._CHUNK_BITS
        chunks = (1 << (n * (n - 1) // 2)) // width
        for c in (0, chunks // 2 + 1, chunks - 1):
            want = row_hashes(miner._canonical_rows(n, kind, row_keys_input(
                n, kind, c * width, (c + 1) * width)))
            assert table_hashes(n, kind, miner._CHUNK_BITS, [c]).tolist() == want.tolist()

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_keys_equal_hashes_every_graph(self, n, kind):
        edge_bits = n * (n - 1) // 2
        keys = miner._keys_from_rows(n, kind, row_keys_input(n, kind, 0, 1 << edge_bits))
        hashes = table_hashes(n, kind, edge_bits // 2, range(1 << (edge_bits - edge_bits // 2)))
        if n >= 4:  # keys repeat from n = 4 on
            assert_equal_keys_equal_hashes(keys, hashes)
        assert len(set(hashes.tolist())) == len(set(keys.tolist()))  # no false collision

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("n", [7, 8])
    def test_equal_keys_equal_hashes_chunk_slices(self, n, kind):
        # first, middle and last chunk and one drawn by a seeded generator
        width = 1 << miner._CHUNK_BITS
        chunks = (1 << (n * (n - 1) // 2)) // width
        picked = [0, chunks // 2 + 1, chunks - 1, random.Random(n).randrange(chunks)]
        keys = np.concatenate([miner._keys_from_rows(n, kind, row_keys_input(
            n, kind, c * width, (c + 1) * width)) for c in picked])
        assert_equal_keys_equal_hashes(keys, table_hashes(n, kind, miner._CHUNK_BITS, picked))

    @pytest.mark.parametrize("kind", miner.KINDS)
    @pytest.mark.parametrize("n,seed", [(1, 1), (2, 2), (4, 4), (6, 6), (7, 7), (8, 8)])
    def test_row_hash_against_reference(self, n, kind, seed):
        ems = seeded_edge_masks(n, 300, seed)
        got = row_hashes(miner._canonical_rows(n, kind, miner._neighborhood_rows(
            n, ems, closed=kind != "open-multiset")))
        want = []
        for em in ems.tolist():
            fp = invariant_fingerprint(Graph.from_edge_mask(n, em), kind)
            want.append(reference_row_hash(fp + (0,) * (n - len(fp))))
        assert got.tolist() == want

    def test_row_hash_pinned(self):
        assert all(type(mix) is np.uint32 for mix in miner._ROW_MIX + (miner._HASH_FINAL,))
        # the empty graph and K8: closed multiset, then closed support
        rows = miner._neighborhood_rows(8, np.array([0, (1 << 28) - 1], dtype=np.uint32), True)
        support = rows.copy()
        multiset = row_hashes(miner._canonical_rows(8, "closed-multiset", rows))
        assert multiset.dtype == np.uint32
        assert multiset.tolist() == [4244666841, 219858126] == \
            [reference_row_hash([1 << v for v in range(8)]), reference_row_hash([255] * 8)]
        assert row_hashes(miner._canonical_rows(8, "closed-support", support)).tolist() == \
            [4244666841, 857997679] == [multiset[0], reference_row_hash([255] + [0] * 7)]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sort_networks_sort_every_zero_one_input(self, k):
        # a comparator network sorts every input if it sorts every 0-1 input
        rows = ((np.arange(1 << k) >> np.arange(k)[:, None]) & 1).astype(np.uint8)
        ones = rows.sum(axis=0)
        miner._sort_rows(rows)
        assert (rows == (np.arange(k)[:, None] >= k - ones)).all()
        assert len(miner._NETWORKS.get(k, ())) == {6: 12, 7: 16, 8: 19}.get(k, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_graph6_every_graph(self, n):
        ems = all_edge_masks(n)
        assert graph6_strings(n, ems) == \
            [to_graph6(Graph.from_edge_mask(n, em)) for em in ems.tolist()]

    @pytest.mark.parametrize("n,seed", [(7, 7), (8, 8)])
    def test_graph6_seeded(self, n, seed):
        ems = seeded_edge_masks(n, 2000, seed)
        assert graph6_strings(n, ems) == \
            [to_graph6(Graph.from_edge_mask(n, em)) for em in ems.tolist()]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_c4_flag_every_graph(self, n):
        ems = all_edge_masks(n)
        flags = miner._induced_c4(n, ems).tolist()
        assert miner._c4_patterns(n) is miner._c4_patterns(n)  # built once per size
        assert flags == [contains_induced_c4(Graph.from_edge_mask(n, em))
                         for em in ems.tolist()]
        assert any(flags) == (n >= 4)

    @staticmethod
    def assert_pair_kernel_matches(n, pairs):
        g = np.array([edge_mask(a) for a, _ in pairs], dtype=np.uint32)
        h = np.array([edge_mask(b) for _, b in pairs], dtype=np.uint32)
        got = miner.pair_checks(n, g, h)
        assert got.sigma.dtype == np.uint8
        distinct, which = got.witness_index()
        notations = [distinct[i] for i in which.tolist()]
        for i, (a, b) in enumerate(pairs):
            ref = check_collision_pair(a, b)
            assert bool(got.has_witness[i]) == (ref.witness is not None)
            if ref.witness is not None:
                assert tuple(got.sigma[i].tolist()) == ref.witness.sigma
                assert got.orbit_counts[i] == len(ref.witness.orbits)
                assert notations[i] == ref.witness.cycle_notation()
            else:
                assert notations[i] is None
            assert got.equal_edge_count[i] == ref.equal_edge_count
            assert got.orbits_are_cliques[i] == ref.orbits_are_cliques
            assert got.edge_transit[i] == ref.edge_transit
            assert got.both_contain_c4[i] == ref.both_contain_c4
            assert bool(got.all_ok()[i]) == ref.all_ok
        return got

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pair_kernel_every_collision_pair(self, n):
        pairs = oracle_collision_pairs(n)
        assert len(pairs) == {4: 3, 5: 60, 6: 1755}.get(n, 0)
        got = self.assert_pair_kernel_matches(n, pairs)
        assert got.all_ok().all()

    def test_pair_kernel_seeded_random_pairs(self):
        rng = random.Random(2000)
        by_n = defaultdict(list)
        for _ in range(2000):
            n = rng.randint(1, 8)
            g = random_graph(n, rng)
            by_n[n].append((g, g if rng.random() < 0.2 else random_graph(n, rng)))
        seen = Counter()
        for n, pairs in sorted(by_n.items()):
            got = self.assert_pair_kernel_matches(n, pairs)
            seen.update(("witness", bool(x)) for x in got.has_witness.tolist())
            seen.update(("edges", bool(x)) for x in got.equal_edge_count.tolist())
            seen.update(("c4", bool(x)) for x in got.both_contain_c4.tolist())
        assert all(seen[key, flag] for key in ("witness", "edges", "c4")
                   for flag in (False, True))

    def test_no_graph_built_per_member(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Graph built on the array path")

        monkeypatch.setattr(miner.Graph, "from_edge_mask", refuse)
        monkeypatch.setattr(miner.Graph, "_from_adj_unchecked", refuse)
        groups = miner.collision_arrays(5, "closed-multiset")
        graph6 = graph6_strings(5, groups.edge_masks)
        bounds = groups.offsets.tolist()
        assert len(groups.fingerprints) == 40
        assert len([graph6[lo:hi] for lo, hi in zip(bounds, bounds[1:])]) == 40
        assert miner.pair_checks(5, *groups.all_pairs()).all_ok().all()
        assert verify_collisions(5).pairs_checked == 60

    @pytest.mark.parametrize("kind", miner.KINDS)
    def test_fields_are_padded_fingerprints(self, kind):
        groups = miner.collision_arrays(6, kind)
        firsts = groups.edge_masks[groups.offsets[:-1]].tolist()
        want = [invariant_fingerprint(Graph.from_edge_mask(6, em), kind) for em in firsts]
        assert groups.fields.dtype == np.uint8
        assert groups.fields.shape == (len(groups.offsets) - 1, 6)
        # a support's padding zeros sit at the back; other rows have no padding
        assert groups.fields.tolist() == [list(fp) + [0] * (6 - len(fp)) for fp in want]
        assert groups.fingerprints == tuple(want)
        assert (groups.fields == 0).any() == (kind != "closed-multiset")

    def test_empty_open_neighborhoods_printed(self):
        # an empty open neighborhood is a zero field that is no padding
        groups = miner.collision_arrays(6, "open-multiset")
        empty = (groups.fields == 0).sum(axis=1).tolist()
        lines = "".join(collision_json_blocks(groups)).splitlines()
        assert len(lines) == len(empty) and sum(k >= 2 for k in empty) == 15
        for line, k in zip(lines, empty):
            assert json.loads(line)["fingerprint"].count([]) == k

    @pytest.mark.parametrize("n,ems", [(6, all_edge_masks(6)),
                                       (8, seeded_edge_masks(8, 2000, 28))])
    def test_edge_counts(self, n, ems):
        assert miner._edge_counts(ems).tolist() == \
            [Graph.from_edge_mask(n, em).edge_count() for em in ems.tolist()]

    def test_no_numpy2_popcount(self, monkeypatch):
        # np.bitwise_count arrived in numpy 2.0; the declared floor is 1.24
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        groups = miner.collision_arrays(5, "closed-multiset")
        graph6 = graph6_strings(5, groups.edge_masks)
        bounds = groups.offsets.tolist()
        assert len([graph6[lo:hi] for lo, hi in zip(bounds, bounds[1:])]) == 40
        assert miner.pair_checks(5, *groups.first_pairs()).all_ok().all()
        assert verify_collisions(5).pairs_checked == 60


class TestVerifyErrors:
    """A doctored kernel flag makes verify name the first failing pair."""

    MESSAGES = {
        "has_witness": "no matching permutation for pair",
        "equal_edge_count": "edge counts differ:",
        "orbits_are_cliques": "orbit not a clique:",
        "edge_transit": "edge transit fails:",
        "both_contain_c4": "collision pair without induced C4:",
    }

    def test_c4_flag_cleared_for_one_graph(self, monkeypatch):
        pairs = oracle_collision_pairs(5)
        doctored = edge_mask(pairs[7][1])
        first = next((g, h) for g, h in pairs if doctored in (edge_mask(g), edge_mask(h)))
        real = miner._induced_c4
        monkeypatch.setattr(miner, "_induced_c4",
                            lambda n, ems: real(n, ems) & (ems != doctored))
        with pytest.raises(VerificationError) as exc:
            verify_collisions(5)
        assert str(exc.value) == \
            f"collision pair without induced C4: {first[0]!r} / {first[1]!r}"

    @pytest.mark.parametrize("cleared", [
        ("both_contain_c4",), ("edge_transit",), ("orbits_are_cliques",),
        ("equal_edge_count",), ("has_witness",),
        ("both_contain_c4", "equal_edge_count", "edge_transit"),
    ])
    def test_first_failing_check_named(self, monkeypatch, cleared):
        at = [11, 40]
        real = miner.pair_checks

        def doctored(n, g, h):
            got = real(n, g, h)
            changes = {}
            for name in cleared:
                flags = getattr(got, name).copy()
                flags[at] = False
                changes[name] = flags
            return dataclasses.replace(got, **changes)

        monkeypatch.setattr(miner, "pair_checks", doctored)
        g, h = oracle_collision_pairs(5)[at[0]]
        first = min(cleared, key=list(self.MESSAGES).index)
        with pytest.raises(VerificationError) as exc:
            verify_collisions(5)
        assert str(exc.value) == f"{self.MESSAGES[first]} {g!r} / {h!r}"

    @pytest.mark.parametrize("slab", [1, 7, 1 << 14])
    def test_doctored_pair_named_across_slabs(self, monkeypatch, slab):
        # the doctored pair is picked by its edge masks, so it is the same
        # pair whichever slab holds it
        pairs = oracle_collision_pairs(5)
        g, h = pairs[40]
        real = miner.pair_checks

        def doctored(n, gs, hs):
            got = real(n, gs, hs)
            hit = (gs == edge_mask(g)) & (hs == edge_mask(h))
            return dataclasses.replace(got, edge_transit=got.edge_transit & ~hit)

        monkeypatch.setattr(miner, "pair_checks", doctored)
        monkeypatch.setattr(miner, "_PAIR_SLAB", slab)
        with pytest.raises(VerificationError) as exc:
            verify_collisions(5)
        assert str(exc.value) == f"edge transit fails: {g!r} / {h!r}"


def graph6_strings(n, edge_masks):
    """graph6 of every graph in the uint32 array ``edge_masks``, from the
    array encoder of ``mine``."""
    g6 = formats._graph6_bytes(n, edge_masks)
    return g6.view(f"S{g6.shape[1]}").ravel().astype(str).tolist()


def edge_mask(g):
    """Inverse of ``Graph.from_edge_mask``."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    return sum(1 << k for k, (u, v) in enumerate(pairs) if g.has_edge(u, v))
