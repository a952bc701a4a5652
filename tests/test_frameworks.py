"""Tests for the framework execution strategies.

The central invariant: every framework that supports a model produces
numerically equivalent outputs (the paper: "our optimizations do not
alter the semantics of the models").
"""

import numpy as np
import pytest

from repro.frameworks import (
    DGLLike,
    NotSupported,
    OursOptions,
    OursRuntime,
    PyGLike,
    ROCLike,
    default_frameworks,
    make_features,
)
from repro.gpusim import SimulatedOOM, V100_SCALED, clear_caches
from repro.graph import small_dataset
from repro.models import GATConfig, GCNConfig, SageLSTMConfig

SMALL_GCN = GCNConfig(dims=(32, 16, 8))
SMALL_GAT = GATConfig(dims=(32, 16, 8))
SMALL_SAGE = SageLSTMConfig(f_in=16, hidden=8, f_out=16, num_neighbors=4)


@pytest.fixture(scope="module")
def g():
    return small_dataset()


@pytest.fixture(scope="module")
def sim():
    return V100_SCALED


class TestSemanticsEquivalence:
    def test_gcn_outputs_identical(self, g, sim):
        feat = make_features(g, 32, seed=0)
        outs = {}
        for fw in (DGLLike(), PyGLike(), ROCLike(), OursRuntime()):
            res = fw.run_gcn(g, SMALL_GCN, sim, compute=True, feat=feat)
            outs[fw.name] = res.output
        ref = outs["dgl"]
        for name, out in outs.items():
            assert np.allclose(out, ref, atol=1e-4), name

    def test_gat_outputs_identical(self, g, sim):
        feat = make_features(g, 32, seed=1)
        outs = {}
        for fw in (DGLLike(), PyGLike(), OursRuntime()):
            res = fw.run_gat(g, SMALL_GAT, sim, compute=True, feat=feat)
            outs[fw.name] = res.output
        ref = outs["dgl"]
        for name, out in outs.items():
            assert np.allclose(out, ref, atol=1e-4), name

    def test_sage_outputs_identical(self, g, sim):
        feat = make_features(g, 16, seed=2)
        a = DGLLike().run_sage_lstm(
            g, SMALL_SAGE, sim, compute=True, feat=feat
        ).output
        b = OursRuntime().run_sage_lstm(
            g, SMALL_SAGE, sim, compute=True, feat=feat
        ).output
        assert np.allclose(a, b, atol=1e-4)


class TestSupportMatrix:
    def test_pyg_no_sage(self, g, sim):
        with pytest.raises(NotSupported):
            PyGLike().run_sage_lstm(g, SMALL_SAGE, sim)

    def test_roc_only_gcn(self, g, sim):
        with pytest.raises(NotSupported):
            ROCLike().run_gat(g, SMALL_GAT, sim)
        with pytest.raises(NotSupported):
            ROCLike().run_sage_lstm(g, SMALL_SAGE, sim)

    def test_registry_order(self):
        assert list(default_frameworks()) == ["dgl", "pyg", "roc", "ours"]

    def test_run_model_dispatch(self, g, sim):
        fw = DGLLike()
        assert fw.run_model("gcn", g, sim).time_ms > 0
        with pytest.raises(KeyError):
            fw.run_model("transformer", g, sim)


class TestKernelStructure:
    def test_dgl_gat_has_seven_graph_kernels_per_layer(self, g, sim):
        res = DGLLike().run_gat(g, SMALL_GAT, sim)
        layer0 = [
            k for k in res.report.kernels if k.name.startswith("gat0.")
        ]
        graph_side = [
            k for k in layer0
            if "gemm" not in k.name and not k.name.endswith(".relu")
        ]
        assert len(graph_side) == 7  # Listing 1

    def test_ours_gat_fuses_graph_side(self, g, sim):
        res = OursRuntime().run_gat(g, SMALL_GAT, sim)
        layer0 = [
            k for k in res.report.kernels if k.name.startswith("gat0.")
        ]
        graph_side = [
            k for k in layer0
            if "gemm" not in k.name and not k.name.endswith(".relu")
        ]
        assert len(graph_side) == 2  # fused by the adapter

    def test_ours_launches_fewer_kernels(self, g, sim):
        def launches(report):
            return sum(1 for k in report.kernels if k.launch_overhead > 0)

        for model in ("gcn", "gat", "sage_lstm"):
            base = DGLLike().run_model(model, g, sim)
            ours = OursRuntime().run_model(model, g, sim)
            assert launches(ours.report) < launches(base.report), model

    def test_ours_faster_than_dgl(self, g, sim):
        for model in ("gcn", "gat", "sage_lstm"):
            base = DGLLike().run_model(model, g, sim)
            ours = OursRuntime().run_model(model, g, sim)
            assert ours.time_ms < base.time_ms, model

    def test_pyg_moves_more_bytes_than_dgl(self, g, sim):
        """Observation 1: the expansion duplicates feature traffic."""
        dgl = DGLLike().run_gcn(g, GCNConfig(), sim)
        pyg = PyGLike().run_gcn(g, GCNConfig(), sim)
        dgl_bytes = dgl.report.bytes_dram + dgl.report.bytes_l2
        pyg_bytes = pyg.report.bytes_dram + pyg.report.bytes_l2
        assert pyg_bytes > 1.5 * dgl_bytes


class TestMemoryBehaviour:
    def test_pyg_oom_on_tight_budget(self, g, sim):
        tight = sim.replace(device_mem_bytes=2 * 1024 * 1024)
        with pytest.raises(SimulatedOOM):
            PyGLike().run_gcn(g, GCNConfig(), tight)

    def test_dgl_survives_same_budget(self, g, sim):
        budget = sim.replace(device_mem_bytes=16 * 1024 * 1024)
        res = DGLLike().run_gcn(g, GCNConfig(dims=(64, 16, 8)), budget)
        assert res.report.peak_mem_bytes <= budget.device_mem_bytes

    def test_peak_memory_reported(self, g, sim):
        res = DGLLike().run_gcn(g, SMALL_GCN, sim)
        assert res.report.peak_mem_bytes > 0

    def test_pyg_gat_needs_more_than_gcn(self, g, sim):
        gcn = PyGLike().run_gcn(g, SMALL_GCN, sim)
        gat = PyGLike().run_gat(g, SMALL_GAT, sim)
        assert (
            gat.report.peak_mem_bytes > gcn.report.peak_mem_bytes
        )


class TestOursOptions:
    def test_options_control_sage_strategy(self):
        from repro.core import SageStrategy

        assert OursOptions().sage_strategy == (
            SageStrategy.REDUNDANCY_BYPASS
        )
        assert OursOptions(
            redundancy_bypass=False
        ).sage_strategy == SageStrategy.SPARSE_FETCH
        assert OursOptions(
            redundancy_bypass=False, sparse_fetch=False
        ).sage_strategy == SageStrategy.BASE

    def test_disable_everything_still_runs(self, g, sim):
        off = OursOptions(
            neighbor_grouping=False, locality_scheduling=False,
            adapter=False, linear_property=False, sparse_fetch=False,
            redundancy_bypass=False, tuned=False,
        )
        res = OursRuntime(off).run_gat(g, SMALL_GAT, sim)
        assert res.time_ms > 0

    def test_fixed_ng_bound_used(self, g, sim):
        rt = OursRuntime(OursOptions(ng_bound=16, tuned=False))
        assert rt.ng_bound(g, 32, sim) == 16

    def test_tuned_bound_follows_gpu_config(self, g, sim):
        """The tuner prices bounds on ``sim``: a runtime reused across
        configs tunes (and compiles) each config as a fresh one does."""
        other = sim.replace(num_sms=8, block_overhead=2e-6)
        rt = OursRuntime()
        rt.ng_bound(g, 32, sim)
        fresh = OursRuntime()
        assert rt.ng_bound(g, 32, other) == fresh.ng_bound(g, 32, other)
        rt.run_gcn(g, SMALL_GCN, sim)
        warm = rt.run_gcn(g, SMALL_GCN, other).time_ms
        clear_caches()
        assert warm == OursRuntime().run_gcn(g, SMALL_GCN, other).time_ms

    def test_analysis_cached_per_graph(self, g, sim):
        rt = OursRuntime()
        a = rt.center_order(g)
        b = rt.center_order(g)
        assert a is b

    def test_opt_stack_monotone_improvement(self, g, sim):
        """More optimizations never slow the GAT layer down much."""
        off = OursRuntime(OursOptions(
            neighbor_grouping=False, locality_scheduling=False,
            adapter=False, linear_property=False, tuned=False,
        ))
        on = OursRuntime()
        t_off = off.run_gat(g, SMALL_GAT, sim).time_ms
        t_on = on.run_gat(g, SMALL_GAT, sim).time_ms
        assert t_on < t_off
