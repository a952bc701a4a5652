"""Integration tests: optimizations compose end-to-end on real workloads.

These exercise the full stack — graph generation, analysis, lowering,
simulation, framework comparison — on the small dataset and a scaled-down
mid-size dataset, asserting the paper's headline causal chains.
"""

import numpy as np
import pytest

from repro.bench import cached_runtime
from repro.core import (
    ExecLayout,
    aggregation_kernel,
    identity_grouping,
    neighbor_grouping,
    shared_schedule,
)
from repro.frameworks import DGLLike, OursOptions, OursRuntime, make_features
from repro.gpusim import V100_SCALED, simulate_kernel
from repro.graph import load_dataset, power_law_graph
from repro.models import GATConfig, GCNConfig


@pytest.fixture(scope="module")
def hub_graph():
    """Mid-size hubby community graph (arxiv-like)."""
    return power_law_graph(
        4000, 10.0, exponent=1.9, max_degree=600, seed=42, name="hubby"
    )


class TestCausalChains:
    def test_las_improves_cache_on_shuffled_graph(self, hub_graph):
        g = hub_graph
        order = shared_schedule(g).order
        base = simulate_kernel(
            aggregation_kernel(g, 32, V100_SCALED, ExecLayout.default(g)),
            V100_SCALED,
        )
        las = simulate_kernel(
            aggregation_kernel(
                g, 32, V100_SCALED,
                ExecLayout(identity_grouping(g), center_order=order),
            ),
            V100_SCALED,
        )
        assert las.l2_hit_rate > base.l2_hit_rate

    def test_ng_improves_balance_on_hub_graph(self, hub_graph):
        g = hub_graph
        base = simulate_kernel(
            aggregation_kernel(g, 32, V100_SCALED, ExecLayout.default(g)),
            V100_SCALED,
        )
        ng = simulate_kernel(
            aggregation_kernel(
                g, 32, V100_SCALED,
                ExecLayout(neighbor_grouping(g, 32)),
            ),
            V100_SCALED,
        )
        base_gap = base.makespan - base.balanced_time
        ng_gap = ng.makespan - ng.balanced_time
        assert ng_gap < base_gap
        assert ng.makespan < base.makespan

    def test_ng_reduces_starvation(self, hub_graph):
        g = hub_graph
        base = simulate_kernel(
            aggregation_kernel(g, 32, V100_SCALED, ExecLayout.default(g)),
            V100_SCALED,
        )
        ng = simulate_kernel(
            aggregation_kernel(
                g, 32, V100_SCALED, ExecLayout(neighbor_grouping(g, 32)),
            ),
            V100_SCALED,
        )
        assert ng.occupancy[1.0] < base.occupancy[1.0]

    def test_full_stack_beats_baseline_on_real_dataset(self):
        g = load_dataset("arxiv")
        dgl = DGLLike()
        ours = cached_runtime()
        for model in ("gcn", "gat", "sage_lstm"):
            t_dgl = dgl.run_model(model, g, V100_SCALED).time_ms
            t_ours = ours.run_model(model, g, V100_SCALED).time_ms
            assert t_ours < t_dgl, model

    def test_gat_gap_exceeds_gcn_gap(self):
        g = load_dataset("arxiv")
        dgl, ours = DGLLike(), cached_runtime()
        gcn_ratio = (
            dgl.run_model("gcn", g, V100_SCALED).time_ms
            / ours.run_model("gcn", g, V100_SCALED).time_ms
        )
        gat_ratio = (
            dgl.run_model("gat", g, V100_SCALED).time_ms
            / ours.run_model("gat", g, V100_SCALED).time_ms
        )
        assert gat_ratio > gcn_ratio


class TestAblationConsistency:
    """Each optimization's contribution is visible in isolation."""

    def test_adapter_contribution(self, hub_graph):
        g = hub_graph
        no_adapter = OursRuntime(OursOptions(adapter=False,
                                             linear_property=False))
        with_adapter = OursRuntime(OursOptions())
        cfg = GATConfig(dims=(32, 16, 8))
        t_no = no_adapter.run_gat(g, cfg, V100_SCALED).time_ms
        t_yes = with_adapter.run_gat(g, cfg, V100_SCALED).time_ms
        assert t_yes < t_no

    def test_grouping_contribution(self, hub_graph):
        g = hub_graph
        no_ng = OursRuntime(OursOptions(neighbor_grouping=False))
        with_ng = OursRuntime(OursOptions(ng_bound=32))
        cfg = GATConfig(dims=(32, 16, 8))
        t_no = no_ng.run_gat(g, cfg, V100_SCALED).time_ms
        t_yes = with_ng.run_gat(g, cfg, V100_SCALED).time_ms
        assert t_yes < t_no

    def test_redundancy_bypass_contribution(self, hub_graph):
        g = hub_graph
        base = OursRuntime(OursOptions(sparse_fetch=False,
                                       redundancy_bypass=False))
        opt = OursRuntime(OursOptions())
        t_base = base.run_model("sage_lstm", g, V100_SCALED).time_ms
        t_opt = opt.run_model("sage_lstm", g, V100_SCALED).time_ms
        assert t_opt < t_base

    def test_semantics_invariant_under_all_option_combos(self, hub_graph):
        g = hub_graph
        cfg = GCNConfig(dims=(16, 8))
        feat = make_features(g, 16, seed=0)
        ref = None
        for opts in (
            OursOptions(),
            OursOptions(neighbor_grouping=False),
            OursOptions(adapter=False, linear_property=False),
            OursOptions(locality_scheduling=False, tuned=False),
        ):
            out = OursRuntime(opts).run_gcn(
                g, cfg, V100_SCALED, compute=True, feat=feat
            ).output
            if ref is None:
                ref = out
            assert np.allclose(out, ref, atol=1e-5)


class TestReportSanity:
    def test_times_scale_with_graph_size(self):
        small = power_law_graph(500, 8.0, seed=1, name="s")
        big = power_law_graph(5000, 8.0, seed=1, name="b")
        dgl = DGLLike()
        cfg = GCNConfig(dims=(64, 32, 16))
        t_small = dgl.run_gcn(small, cfg, V100_SCALED).time_ms
        t_big = dgl.run_gcn(big, cfg, V100_SCALED).time_ms
        assert t_big > t_small

    def test_report_labels(self):
        g = load_dataset("ddi")
        res = DGLLike().run_model("gcn", g, V100_SCALED)
        assert res.report.label == "dgl:gcn:ddi"

    def test_sage_phase_attribution_present(self):
        g = load_dataset("ddi")
        res = DGLLike().run_model("sage_lstm", g, V100_SCALED)
        assert "sage_phases" in res.report.extra
