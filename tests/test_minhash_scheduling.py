"""Tests for MinHash/LSH and locality-aware task scheduling."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    cluster_sizes,
    exact_jaccard,
    locality_aware_schedule,
    lsh_candidate_pairs,
    minhash_signatures,
    signature_similarity,
)
from repro.graph import coo_to_csr, power_law_graph, small_dataset


def overlapping_graph(n_groups=20, group=16, pool=12, seed=0):
    """Centers in the same group share a small neighbor pool."""
    rng = np.random.default_rng(seed)
    src, dst = [], []
    n = n_groups * group
    for gi in range(n_groups):
        pool_nodes = rng.choice(n, size=pool, replace=False)
        for v in range(gi * group, (gi + 1) * group):
            neigh = rng.choice(pool_nodes, size=8, replace=False)
            for u in neigh:
                src.append(u)
                dst.append(v)
    return coo_to_csr(np.array(src), np.array(dst), n)


class TestMinHash:
    def test_identical_sets_identical_signatures(self):
        src = np.array([5, 6, 7, 5, 6, 7])
        dst = np.array([0, 0, 0, 1, 1, 1])
        g = coo_to_csr(src, dst, 8)
        sig = minhash_signatures(g, num_hashes=16)
        assert np.array_equal(sig.rows[0], sig.rows[1])
        assert signature_similarity(
            sig, np.array([0]), np.array([1])
        )[0] == 1.0

    def test_disjoint_sets_low_similarity(self):
        src = np.array([2, 3, 4, 5, 6, 7])
        dst = np.array([0, 0, 0, 1, 1, 1])
        g = coo_to_csr(src, dst, 8)
        sig = minhash_signatures(g, num_hashes=64)
        s = signature_similarity(sig, np.array([0]), np.array([1]))[0]
        assert s < 0.3

    def test_empty_sets_similarity_zero(self):
        g = coo_to_csr(np.array([1]), np.array([0]), 4)
        sig = minhash_signatures(g)
        # Nodes 2 and 3 are both empty.
        assert signature_similarity(
            sig, np.array([2]), np.array([3])
        )[0] == 0.0

    def test_deterministic(self):
        g = small_dataset()
        a = minhash_signatures(g, seed=5).rows
        b = minhash_signatures(g, seed=5).rows
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_estimates_jaccard(self, seed):
        """MinHash similarity approximates exact Jaccard."""
        g = power_law_graph(300, 12.0, locality=0.9, shuffle=False,
                            seed=seed)
        sig = minhash_signatures(g, num_hashes=128, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            u, v = int(rng.integers(300)), int(rng.integers(300))
            est = float(
                signature_similarity(sig, np.array([u]), np.array([v]))[0]
            )
            exact = exact_jaccard(g, u, v)
            if u != v:
                assert abs(est - exact) < 0.25


class TestLSH:
    def test_finds_identical_neighbor_pairs(self):
        src = np.tile(np.array([5, 6, 7, 8]), 3)
        dst = np.repeat(np.array([0, 1, 2]), 4)
        g = coo_to_csr(src, dst, 9)
        sig = minhash_signatures(g, num_hashes=32)
        pairs, sims = lsh_candidate_pairs(sig, bands=16)
        found = {tuple(p) for p in pairs.tolist()}
        assert {(0, 1), (0, 2), (1, 2)} <= found
        assert np.all(sims[[list(found).index(t) for t in found]] >= 0)

    def test_pairs_unique_and_ordered(self):
        g = overlapping_graph()
        sig = minhash_signatures(g)
        pairs, _ = lsh_candidate_pairs(sig)
        assert np.all(pairs[:, 0] < pairs[:, 1])
        packed = pairs[:, 0] * g.num_nodes + pairs[:, 1]
        assert np.unique(packed).shape[0] == packed.shape[0]

    def test_pair_count_bounded(self):
        g = small_dataset()
        sig = minhash_signatures(g)
        pairs, _ = lsh_candidate_pairs(sig, bands=16, pair_window=4)
        assert pairs.shape[0] <= 16 * 4 * g.num_nodes

    def test_high_similarity_pairs_recalled(self):
        """Same-pool centers are found as candidates."""
        g = overlapping_graph()
        sig = minhash_signatures(g)
        pairs, sims = lsh_candidate_pairs(sig)
        same_group = (pairs[:, 0] // 16) == (pairs[:, 1] // 16)
        assert same_group.sum() > 50


class TestScheduling:
    def test_valid_permutation_and_contiguous_clusters(self):
        g = small_dataset()
        sched = locality_aware_schedule(g)
        sched.validate(g.num_nodes)

    def test_cluster_size_bound(self):
        g = overlapping_graph(n_groups=10, group=40)  # groups > bound
        sched = locality_aware_schedule(g, max_cluster=32)
        assert cluster_sizes(sched).max() <= 32

    def test_deterministic(self):
        g = small_dataset()
        a = locality_aware_schedule(g, seed=3)
        b = locality_aware_schedule(g, seed=3)
        assert np.array_equal(a.order, b.order)

    def test_similar_nodes_clustered_together(self):
        g = overlapping_graph()
        sched = locality_aware_schedule(g)
        # Most same-pool groups end up substantially co-clustered:
        # the mean number of distinct clusters per 16-node group is
        # far below 16 (no clustering would give ~16).
        cid = sched.cluster_id
        per_group = [
            np.unique(cid[gi * 16 : (gi + 1) * 16]).shape[0]
            for gi in range(20)
        ]
        assert np.mean(per_group) < 8

    def test_records_analysis_cost(self):
        g = small_dataset()
        sched = locality_aware_schedule(g)
        assert sched.analysis_seconds > 0

    def test_cluster_count_consistent(self):
        g = small_dataset()
        sched = locality_aware_schedule(g)
        assert cluster_sizes(sched).sum() == g.num_nodes
        assert (cluster_sizes(sched) > 0).all()

    def test_empty_neighbor_nodes_survive(self):
        # Graph with isolated centers.
        g = coo_to_csr(np.array([0, 1]), np.array([1, 0]), 6)
        sched = locality_aware_schedule(g)
        sched.validate(6)


class TestMergeOrder:
    def test_pairs_sorted_so_stable_similarity_sort_is_heap_order(self):
        """Candidate pairs come out sorted by (u, v), so the merge's
        stable sort on similarity alone equals the three-key
        (similarity desc, u, v) order — also after the top-k cap."""
        g = small_dataset()
        sig = minhash_signatures(g)
        pairs, sims = lsh_candidate_pairs(sig)
        u, v = pairs[:, 0], pairs[:, 1]
        assert np.all(np.diff(u * g.num_nodes + v) > 0)
        assert np.unique(sims).size < sims.size  # ties do occur
        assert np.array_equal(
            np.lexsort((v, u, -sims)), np.argsort(-sims, kind="stable")
        )
        top = np.argsort(-sims, kind="stable")[: sims.size // 3]
        pairs, sims = pairs[top], sims[top]
        assert np.array_equal(
            np.lexsort((pairs[:, 1], pairs[:, 0], -sims)),
            np.argsort(-sims, kind="stable"),
        )
