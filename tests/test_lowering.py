"""Tests for the kernel lowering layer (cost accounting + layouts)."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ExecLayout,
    GroupingPlan,
    aggregation_kernel,
    compute_waste,
    edge_chain_kernel,
    edge_expansion_kernel,
    effective_row_bytes,
    gather_rows_kernel,
    gat_attention_ops,
    gemm_kernel,
    identity_grouping,
    load_plan,
    locality_aware_schedule,
    lower_plan,
    neighbor_grouping,
    node_map_kernel,
    plan_fusion,
    save_plan,
    scalar_segment_reduce_kernel,
    scatter_reduce_kernel,
    unfused_plan,
)
from repro.frameworks.ours import OursRuntime
from repro.gpusim import V100
from repro.graph import coo_to_csr, small_dataset


@pytest.fixture
def g():
    return small_dataset()


class TestRowBytes:
    def test_padded_to_lines(self):
        assert effective_row_bytes(32, V100, packed=False) == 128
        assert effective_row_bytes(48, V100, packed=False) == 256
        assert effective_row_bytes(33, V100, packed=False) == 256

    def test_packed(self):
        assert effective_row_bytes(48, V100, packed=True) == 192

    def test_compute_waste(self):
        assert compute_waste(32, 32) == 1.0
        assert compute_waste(48, 32) == pytest.approx(64 / 48)
        assert compute_waste(16, 16) == 1.0
        assert compute_waste(16, 32) == 2.0


class TestAggregationKernel:
    def test_flop_total(self, g):
        k = aggregation_kernel(
            g, 32, V100, ExecLayout.default(g), edge_stream_bytes_per_edge=0.0
        )
        assert k.total_flops == pytest.approx(2.0 * g.num_edges * 32)

    def test_row_trace_is_csr(self, g):
        k = aggregation_kernel(g, 32, V100, ExecLayout.default(g))
        assert np.array_equal(k.row_ids, g.indices.astype(np.int64))
        assert np.array_equal(k.row_ptr, g.indptr)

    def test_grouped_blocks(self, g):
        plan = neighbor_grouping(g, 8)
        k = aggregation_kernel(g, 32, V100, ExecLayout(grouping=plan))
        assert k.num_blocks == plan.num_groups
        # Atomics only on split centers.
        assert (k.atomics > 0).sum() == plan.needs_atomic.sum()

    def test_center_order_permutes_trace(self, g):
        order = np.random.default_rng(0).permutation(g.num_nodes)
        k = aggregation_kernel(
            g, 32, V100,
            ExecLayout(identity_grouping(g), center_order=order),
        )
        # First block's rows = neighbors of the first scheduled center.
        first = order[0]
        expect = g.neighbors(first)
        got = k.row_ids[: expect.shape[0]]
        assert np.array_equal(np.sort(got), np.sort(expect))

    def test_compute_scale(self, g):
        base = aggregation_kernel(g, 32, V100, ExecLayout.default(g))
        scaled = aggregation_kernel(
            g, 32, V100, ExecLayout.default(g), compute_scale=8.0
        )
        assert scaled.total_flops == pytest.approx(
            8.0 * base.total_flops, rel=1e-3
        )

    def test_uncoalesced_inflates_rows(self, g):
        base = aggregation_kernel(g, 32, V100, ExecLayout.default(g))
        bad = aggregation_kernel(
            g, 32, V100, ExecLayout.default(g), uncoalesced=8.0
        )
        assert bad.row_bytes == 8 * base.row_bytes

    def test_writes_once_per_group(self, g):
        ident = aggregation_kernel(
            g, 32, V100, ExecLayout.default(g),
            edge_stream_bytes_per_edge=0.0,
        )
        grouped = aggregation_kernel(
            g, 32, V100, ExecLayout(grouping=neighbor_grouping(g, 4)),
            edge_stream_bytes_per_edge=0.0,
        )
        # Grouping adds partial-result writes: more streaming traffic.
        assert grouped.stream_bytes.sum() > ident.stream_bytes.sum()


class TestSimpleKernels:
    def test_gemm_flops_bytes(self):
        k = gemm_kernel(100, 64, 32, V100)
        assert k.total_flops == pytest.approx(2 * 100 * 64 * 32)
        assert k.total_bytes == pytest.approx(
            4 * (100 * 64 + 64 * 32 + 100 * 32)
        )
        assert k.tag == "dense"

    def test_node_map(self):
        k = node_map_kernel(100, 16, V100, name="relu")
        assert k.total_flops == pytest.approx(1600)

    def test_edge_chain(self, g):
        k = edge_chain_kernel(
            g, V100, name="x", reads_per_edge=8.0, writes_per_edge=4.0,
            flops_per_edge=2.0,
        )
        assert k.total_flops == pytest.approx(2.0 * g.num_edges)
        assert k.total_bytes == pytest.approx(12.0 * g.num_edges)

    def test_edge_chain_with_reduce_has_atomics(self, g):
        k = edge_chain_kernel(
            g, V100, name="x", reads_per_edge=4, writes_per_edge=4,
            flops_per_edge=1, seg_reduce=True,
        )
        assert k.atomics.sum() > 0

    def test_scalar_segment_reduce_blocks_per_center(self, g):
        k = scalar_segment_reduce_kernel(g, V100)
        assert k.num_blocks == g.num_nodes

    def test_expansion_kernel_traffic(self, g):
        k = edge_expansion_kernel(g, 32, V100)
        assert k.num_row_accesses == g.num_edges
        # Writes the expanded [E, F] matrix.
        assert k.stream_bytes.sum() == pytest.approx(
            g.num_edges * (32 * 4 + 4)
        )

    def test_scatter_reduce_includes_hub_contention(self, g):
        k = scatter_reduce_kernel(g, 32, V100)
        expected_hub = g.max_degree * 8
        assert k.atomics[-1] >= expected_hub

    def test_gather_rows(self):
        rows = np.arange(100, dtype=np.int64)
        k = gather_rows_kernel(rows, 16, V100, write_back=True)
        assert k.num_row_accesses == 100
        k2 = gather_rows_kernel(rows, 16, V100, write_back=False)
        assert k2.stream_bytes.sum() < k.stream_bytes.sum()


class TestLowerPlan:
    def test_unfused_gat_has_seven_kernels(self, g):
        plan = unfused_plan(gat_attention_ops())
        ks = lower_plan(plan, g, 32, V100, ExecLayout.default(g))
        assert len(ks) == 7

    def test_fused_gat_has_two_kernels(self, g):
        plan = plan_fusion(gat_attention_ops(), allow_adapter=True,
                           grouped=False)
        ks = lower_plan(plan, g, 32, V100, ExecLayout.default(g))
        assert len(ks) == 2

    def test_fusion_reduces_total_traffic(self, g):
        layout = ExecLayout.default(g)
        unf = lower_plan(
            unfused_plan(gat_attention_ops()), g, 32, V100, layout
        )
        fus = lower_plan(
            plan_fusion(gat_attention_ops(), allow_adapter=True,
                        allow_linear=True, grouped=False),
            g, 32, V100, layout,
        )
        assert sum(k.total_bytes for k in fus) < sum(
            k.total_bytes for k in unf
        )

    def test_fusion_preserves_useful_flops_order(self, g):
        """Fused lowering keeps the same order of magnitude of FLOPs
        (it removes traffic and launches, not math)."""
        layout = ExecLayout.default(g)
        unf = lower_plan(
            unfused_plan(gat_attention_ops()), g, 32, V100, layout
        )
        fus = lower_plan(
            plan_fusion(gat_attention_ops(), allow_adapter=True,
                        grouped=False),
            g, 32, V100, layout,
        )
        a = sum(k.total_flops for k in unf)
        b = sum(k.total_flops for k in fus)
        assert 0.3 * a < b < 3.0 * a


def _argsort_permutation(layout):
    """The stable argsort of each group's center rank."""
    order = layout.center_order
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0])
    return np.argsort(rank[layout.grouping.group_center], kind="stable")


def _empty_rows_graph():
    """A graph whose centers 0, 3 and the last have no neighbors."""
    rng = np.random.default_rng(4)
    src = rng.integers(0, 40, 300)
    dst = rng.choice(np.arange(1, 39)[np.arange(1, 39) != 3], 300)
    return coo_to_csr(src, dst, 40)


class TestBlockPermutation:
    """``ExecLayout.block_permutation`` equals the stable argsort of the
    groups' center ranks, int64, for every grouping the pipeline
    builds and for one loaded from a plan artifact."""

    @staticmethod
    def _check(layout):
        got = layout.block_permutation()
        want = _argsort_permutation(layout)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("graph", ["small", "empty-rows"])
    @pytest.mark.parametrize("bound", [None, 16, 32, 1])
    def test_matches_argsort(self, graph, bound):
        g = small_dataset() if graph == "small" else _empty_rows_graph()
        grouping = (
            identity_grouping(g) if bound is None
            else neighbor_grouping(g, bound)
        )
        for order in (
            locality_aware_schedule(g).order,
            np.random.default_rng(1).permutation(g.num_nodes),
            np.arange(g.num_nodes)[::-1],
        ):
            self._check(ExecLayout(grouping, center_order=order))

    def test_decreasing_centers_take_the_argsort(self):
        g = _empty_rows_graph()
        grouping = neighbor_grouping(g, 4)
        shuffled = dataclasses.replace(
            grouping, group_center=grouping.group_center[::-1].copy()
        )
        order = np.random.default_rng(2).permutation(g.num_nodes)
        self._check(ExecLayout(shuffled, center_order=order))

    def test_a_center_with_two_groups_and_one_with_none(self):
        """As many groups as centers, but not one each."""
        grouping = GroupingPlan(
            bound=4,
            group_ptr=np.array([0, 2, 4, 5, 9, 10]),
            group_center=np.array([0, 0, 2, 3, 4]),
            needs_atomic=np.array([True, True, False, False, False]),
        )
        for seed in range(4):
            order = np.random.default_rng(seed).permutation(5)
            self._check(ExecLayout(grouping, center_order=order))

    def test_no_groups(self):
        g = coo_to_csr(np.empty(0, np.int64), np.empty(0, np.int64), 0)
        layout = ExecLayout(
            identity_grouping(g), center_order=np.empty(0, np.int64)
        )
        assert layout.block_permutation().shape == (0,)

    def test_layout_loaded_from_a_plan_artifact(self, tmp_path):
        g = small_dataset()
        plan = OursRuntime().compile("gcn", g, V100)
        path = str(tmp_path / f"plan_{plan.plan_id}.npz")
        save_plan(path, plan)
        loaded = load_plan(path, expect_id=plan.plan_id)
        layers = [
            rec for rec in loaded.layers if rec.center_order is not None
        ]
        assert layers
        for rec in layers:
            self._check(rec.layout())
