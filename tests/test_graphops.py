"""Tests for functional graph operators against naive references."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graph import coo_to_csr, small_dataset
from repro.ops import (
    broadcast_dst_to_edges,
    copy_u_sum,
    edge_softmax,
    gather_src,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
    u_add_v,
    u_mul_e_sum,
)


@pytest.fixture
def g():
    src = np.array([1, 2, 0, 2, 3, 0])
    dst = np.array([0, 0, 1, 1, 1, 3])
    return coo_to_csr(src, dst, 5)  # node 2 and 4 isolated as centers


@pytest.fixture
def feat(g):
    rng = np.random.default_rng(0)
    return rng.standard_normal((g.num_nodes, 3)).astype(np.float32)


def naive_segment_sum(g, vals):
    out = np.zeros((g.num_nodes,) + vals.shape[1:], vals.dtype)
    e = 0
    for v in range(g.num_nodes):
        for _ in range(g.degrees[v]):
            out[v] += vals[e]
            e += 1
    return out


class TestSegmentOps:
    def test_segment_sum_vector(self, g):
        vals = np.arange(g.num_edges, dtype=np.float64)
        assert np.allclose(
            segment_sum(g, vals), naive_segment_sum(g, vals)
        )

    def test_segment_sum_matrix(self, g, feat):
        vals = feat[g.indices]
        assert np.allclose(
            segment_sum(g, vals), naive_segment_sum(g, vals)
        )

    def test_segment_sum_isolated_rows_zero(self, g):
        out = segment_sum(g, np.ones(g.num_edges))
        assert out[2] == 0.0 and out[4] == 0.0

    def test_segment_max(self, g):
        vals = np.array([5.0, -1.0, 2.0, 7.0, 1.0, 3.0])
        out = segment_max(g, vals)
        assert out[0] == 5.0
        assert out[1] == 7.0
        assert out[3] == 3.0
        assert np.isneginf(out[2]) and np.isneginf(out[4])

    def test_segment_mean(self, g):
        vals = np.ones(g.num_edges, dtype=np.float64) * 4
        out = segment_mean(g, vals)
        assert out[0] == 4.0  # mean of equal values
        assert out[2] == 0.0  # isolated

    def test_copy_u_sum_matches_segment_sum_of_gather(self, g, feat):
        a = copy_u_sum(g, feat)
        b = segment_sum(g, gather_src(g, feat))
        assert np.allclose(a, b, atol=1e-6)


class TestEdgeOps:
    def test_gather_src(self, g, feat):
        out = gather_src(g, feat)
        assert out.shape == (g.num_edges, 3)
        assert np.array_equal(out[0], feat[g.neighbors(0)[0]])

    def test_u_add_v(self, g):
        u_vals = np.arange(g.num_nodes, dtype=np.float32)
        v_vals = 10 * np.arange(g.num_nodes, dtype=np.float32)
        out = u_add_v(g, u_vals, v_vals)
        dst = g.edge_dst()
        assert np.allclose(out, u_vals[g.indices] + v_vals[dst])

    def test_broadcast_dst(self, g):
        per_node = np.arange(g.num_nodes, dtype=np.float32)
        out = broadcast_dst_to_edges(g, per_node)
        assert np.allclose(out, per_node[g.edge_dst()])

    def test_u_mul_e_sum_vs_naive(self, g, feat):
        w = np.linspace(0.1, 1.0, g.num_edges).astype(np.float32)
        out = u_mul_e_sum(g, feat, w)
        naive = naive_segment_sum(g, feat[g.indices] * w[:, None])
        assert np.allclose(out, naive, atol=1e-6)


class TestEdgeSoftmax:
    def test_sums_to_one_per_center(self, g):
        e = np.random.default_rng(1).standard_normal(g.num_edges)
        alpha = segment_softmax(g, e)
        sums = segment_sum(g, alpha)
        nonempty = g.degrees > 0
        assert np.allclose(sums[nonempty], 1.0, atol=1e-6)

    def test_positive(self, g):
        e = np.random.default_rng(2).standard_normal(g.num_edges)
        assert np.all(segment_softmax(g, e) > 0)

    def test_numerically_stable_large_values(self, g):
        e = np.full(g.num_edges, 1e4, dtype=np.float64)
        alpha = segment_softmax(g, e)
        assert np.all(np.isfinite(alpha))

    def test_shift_invariance(self, g):
        e = np.random.default_rng(3).standard_normal(g.num_edges)
        a = segment_softmax(g, e)
        b = segment_softmax(g, e + 100.0)
        assert np.allclose(a, b, atol=1e-6)

    def test_alias(self, g):
        assert edge_softmax is segment_softmax

    def test_uniform_weights_give_inverse_degree(self, g):
        alpha = segment_softmax(g, np.zeros(g.num_edges))
        deg = np.repeat(g.degrees, g.degrees).astype(np.float64)
        assert np.allclose(alpha, 1.0 / deg, atol=1e-6)


class TestProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_segment_sum_linear(self, seed, f):
        g = small_dataset()
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((g.num_edges, f))
        b = rng.standard_normal((g.num_edges, f))
        lhs = segment_sum(g, a + 2.0 * b)
        rhs = segment_sum(g, a) + 2.0 * segment_sum(g, b)
        assert np.allclose(lhs, rhs, atol=1e-8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_copy_u_sum_matches_scipy(self, seed):
        from repro.ops import spmm_scipy

        g = small_dataset()
        rng = np.random.default_rng(seed)
        feat = rng.standard_normal((g.num_nodes, 5)).astype(np.float32)
        assert np.allclose(
            copy_u_sum(g, feat), spmm_scipy(g, feat), atol=1e-4
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_softmax_total_mass(self, seed):
        g = small_dataset()
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(g.num_edges)
        alpha = segment_softmax(g, e)
        nonempty = int(np.count_nonzero(g.degrees > 0))
        assert alpha.sum() == pytest.approx(nonempty, rel=1e-5)


def test_scipy_is_imported_only_by_its_oracle():
    """scipy costs every process ~0.2 s to import and only the
    ``spmm_scipy`` oracle uses it, so the benchmark and serving entry
    points must not load it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.bench, repro.serve.server; "
         "print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False"]
