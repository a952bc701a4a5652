"""Unit + property tests for the CSR graph structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    GraphValidationError,
    coo_to_csr,
    csr_to_coo,
    power_law_graph,
    small_dataset,
)
from repro.graph.csr import sorted_unique


def tiny_graph():
    # Fig. 2 example: edges (src -> dst) in the paper's edge list.
    src = np.array([1, 1, 2, 2, 3, 3, 3, 4]) - 1
    dst = np.array([2, 3, 1, 3, 2, 3, 4, 3]) - 1
    return coo_to_csr(src, dst, 4, name="fig2")


class TestConstruction:
    def test_counts(self):
        g = tiny_graph()
        assert g.num_nodes == 4
        assert g.num_edges == 8

    def test_neighbors_sorted_per_row(self):
        g = tiny_graph()
        # Node 2 (0-indexed) receives edges from 1->3, 2->3, 3->3, 4->3.
        assert g.neighbors(2).tolist() == [0, 1, 2, 3]

    def test_degrees(self):
        g = tiny_graph()
        assert g.degrees.tolist() == [1, 2, 4, 1]
        assert g.max_degree == 4
        assert g.avg_degree == 2.0

    def test_edge_dst(self):
        g = tiny_graph()
        assert g.edge_dst().tolist() == [0, 1, 1, 2, 2, 2, 2, 3]

    def test_edge_range(self):
        g = tiny_graph()
        assert g.edge_range(2) == (3, 7)

    def test_density(self):
        g = tiny_graph()
        assert g.density == pytest.approx(8 / 16)

    def test_row_slices(self):
        g = tiny_graph()
        rs = g.row_slices()
        assert rs.shape == (4, 2)
        assert rs[2].tolist() == [3, 7]

    def test_empty_graph(self):
        g = coo_to_csr(np.array([]), np.array([]), 3)
        assert g.num_edges == 0
        assert g.degrees.tolist() == [0, 0, 0]
        assert g.max_degree == 0
        assert g.avg_degree == 0.0

    def test_zero_nodes(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int32))
        assert g.num_nodes == 0
        assert g.avg_degree == 0.0


class TestValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([1, 2]), np.array([0], dtype=np.int32))

    def test_indptr_monotone(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(
                np.array([0, 2, 1]), np.array([0, 0], dtype=np.int32)
            )

    def test_indptr_tail_matches_edges(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([0, 3]), np.array([0], dtype=np.int32))

    def test_indices_in_range(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([0, 1]), np.array([5], dtype=np.int32))

    def test_edge_weight_alignment(self):
        with pytest.raises(GraphValidationError):
            CSRGraph(
                np.array([0, 1]),
                np.array([0], dtype=np.int32),
                edge_weight=np.array([1.0, 2.0]),
            )

    def test_coo_endpoint_range(self):
        with pytest.raises(GraphValidationError):
            coo_to_csr(np.array([0]), np.array([9]), 3)

    def test_coo_length_mismatch(self):
        with pytest.raises(GraphValidationError):
            coo_to_csr(np.array([0, 1]), np.array([0]), 3)


class TestRoundTrip:
    def test_coo_csr_coo(self):
        g = tiny_graph()
        src, dst = csr_to_coo(g)
        g2 = coo_to_csr(src, dst, g.num_nodes)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)

    def test_edge_weights_follow_edges(self):
        src = np.array([2, 0, 1])
        dst = np.array([0, 1, 1])
        w = np.array([10.0, 20.0, 30.0], dtype=np.float32)
        g = coo_to_csr(src, dst, 3, edge_weight=w)
        # dst 0 has src 2 (weight 10); dst 1 has srcs 0, 1 (20, 30).
        assert g.edge_weight.tolist() == [10.0, 20.0, 30.0]

    def test_reverse_twice_is_identity(self):
        g = small_dataset()
        rr = g.reverse().reverse()
        assert np.array_equal(g.indptr, rr.indptr)
        assert np.array_equal(g.indices, rr.indices)

    def test_reverse_swaps_degree_roles(self):
        g = tiny_graph()
        rev = g.reverse()
        # Out-degrees of g become in-degrees of rev.
        src, _ = csr_to_coo(g)
        out_deg = np.bincount(src, minlength=4)
        assert np.array_equal(rev.degrees, out_deg)


class TestPermutation:
    def test_permute_preserves_structure(self):
        g = small_dataset()
        rng = np.random.default_rng(3)
        perm = rng.permutation(g.num_nodes)
        gp = g.permute_nodes(perm)
        assert gp.num_edges == g.num_edges
        # Degree multiset preserved.
        assert sorted(gp.degrees.tolist()) == sorted(g.degrees.tolist())

    def test_permute_relabels_consistently(self):
        g = tiny_graph()
        perm = np.array([3, 2, 1, 0])  # new i = old perm[i]
        gp = g.permute_nodes(perm)
        inv = np.empty(4, dtype=int)
        inv[perm] = np.arange(4)
        for old_v in range(4):
            new_v = inv[old_v]
            expect = sorted(inv[g.neighbors(old_v)].tolist())
            assert sorted(gp.neighbors(new_v).tolist()) == expect

    def test_identity_permutation(self):
        g = tiny_graph()
        gp = g.permute_nodes(np.arange(4))
        assert np.array_equal(gp.indices, g.indices)

    def test_invalid_permutation_rejected(self):
        g = tiny_graph()
        with pytest.raises(GraphValidationError):
            g.permute_nodes(np.array([0, 0, 1, 2]))


class TestFingerprint:
    """``CSRGraph.fingerprint`` addresses plan artifacts and memo keys."""

    def test_stable(self):
        g = small_dataset()
        src, dst = csr_to_coo(g)
        rebuilt = coo_to_csr(src, dst, g.num_nodes)
        assert g.fingerprint == g.fingerprint == rebuilt.fingerprint

    def test_structure_sensitive(self):
        g = small_dataset()
        other = power_law_graph(512, 8.0, seed=99)
        assert g.fingerprint != other.fingerprint


@st.composite
def coo_edges(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=120))
    src = draw(
        st.lists(
            st.integers(0, n - 1), min_size=m, max_size=m
        )
    )
    dst = draw(
        st.lists(
            st.integers(0, n - 1), min_size=m, max_size=m
        )
    )
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


class TestProperties:
    @given(coo_edges())
    @settings(max_examples=60, deadline=None)
    def test_csr_preserves_edge_multiset(self, data):
        n, src, dst = data
        g = coo_to_csr(src, dst, n)
        s2, d2 = csr_to_coo(g)
        orig = sorted(zip(src.tolist(), dst.tolist()))
        back = sorted(zip(s2.tolist(), d2.tolist()))
        assert orig == back

    @given(coo_edges())
    @settings(max_examples=60, deadline=None)
    def test_degrees_match_bincount(self, data):
        n, src, dst = data
        g = coo_to_csr(src, dst, n)
        assert np.array_equal(
            g.degrees, np.bincount(dst, minlength=n)
        )

    @given(coo_edges(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_roundtrip(self, data, seed):
        n, src, dst = data
        g = coo_to_csr(src, dst, n)
        perm = np.random.default_rng(seed).permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        gp = g.permute_nodes(perm)
        back = gp.permute_nodes(inv)
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)


@st.composite
def weighted_coo(draw):
    """COO input with many duplicate edges, optional weights and node
    counts down to 0 and 1."""
    n = draw(st.integers(min_value=0, max_value=12))
    m = draw(st.integers(min_value=0, max_value=80)) if n else 0
    ends = st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)
    src = np.array(draw(ends), dtype=np.int64)
    dst = np.array(draw(ends), dtype=np.int64)
    weight = None
    if draw(st.booleans()):
        weight = np.arange(m, dtype=np.float32)  # distinct: order shows
    return n, src, dst, weight


class TestBuilderMatchesLexsort:
    @given(weighted_coo())
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_reference(self, data):
        n, src, dst, weight = data
        g = coo_to_csr(src, dst, n, edge_weight=weight)
        order = np.lexsort((src, dst))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, src[order].astype(np.int32))
        if weight is None:
            assert g.edge_weight is None
        else:
            assert np.array_equal(g.edge_weight, weight[order])


class TestSortedUnique:
    @pytest.mark.parametrize(
        "values",
        [
            np.empty(0, dtype=np.int64),
            np.array([5], dtype=np.int64),
            np.array([3, 3, 3], dtype=np.int64),
            np.array([9, -2, 9, 0, -2, 2**40, 0], dtype=np.int64),
        ],
    )
    def test_matches_np_unique(self, values):
        out = sorted_unique(values)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.unique(values))

    @given(st.integers(0, 2**31 - 1), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_random_matches_np_unique(self, seed, size):
        rng = np.random.default_rng(seed)
        values = rng.integers(-50, 50, size) * rng.integers(1, 2**40)
        assert np.array_equal(sorted_unique(values), np.unique(values))
