"""Tests for the footprint-guided plan search (`repro plan optimize`):
beam search over verified rewrites, whole-artifact optimization with
provenance, executing an optimized artifact, and the CLI surface.
"""

import glob
import os

import pytest

from repro.analysis import lint_plan, optimize_plan, search_plan
from repro.analysis.search import PlanScore, score_lowering
from repro.core import (
    ExecLayout,
    gat_attention_ops,
    gcn_layer_ops,
    identity_grouping,
    lower_plan,
    unfused_plan,
)
from repro.frameworks import DGLLike, OursRuntime
from repro.gpusim import V100_SCALED
from repro.graph import small_dataset

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def g():
    return small_dataset()


def _search(g, ops, plan, feat=32, **kw):
    layout = ExecLayout(grouping=identity_grouping(g))
    return search_plan(
        ops, plan, g, feat, V100_SCALED, layout, grouped=False, **kw
    )


class TestPlanScore:
    def test_lexicographic_order(self):
        assert PlanScore(1.0, 9, 9.0) < PlanScore(2.0, 1, 1.0)
        assert PlanScore(1.0, 2, 9.0) < PlanScore(1.0, 3, 1.0)
        assert PlanScore(1.0, 2, 1.0) < PlanScore(1.0, 2, 2.0)

    def test_score_lowering_evaluates_footprint(self, g):
        ops = gcn_layer_ops()
        plan = unfused_plan(ops)
        layout = ExecLayout(grouping=identity_grouping(g))
        kernels = lower_plan(plan, g, 32, V100_SCALED, layout)
        score = score_lowering(plan, kernels, g, 32)
        assert score.peak_bytes > 0 and score.peak_bytes != float("inf")
        assert score.num_kernels == len(kernels)
        assert score.total_flops > 0


class TestBeamSearch:
    def test_gcn_unfused_strictly_improves(self, g):
        ops = gcn_layer_ops()
        res = _search(g, ops, unfused_plan(ops))
        assert res.improved
        assert res.score < res.original_score
        # Footprint itself shrinks: the boundary NF buffers are gone.
        assert res.score.peak_bytes < res.original_score.peak_bytes
        assert len(res.plan.groups) == 1

    def test_gat_unfused_improves_kernel_count(self, g):
        ops = gat_attention_ops()
        res = _search(g, ops, unfused_plan(ops), max_nodes=256)
        assert res.improved
        # GAT's symbolic peak is invariant under rewrites (aggregation
        # always needs the E1 weights plus the NF inputs), so the win
        # comes on the kernel-count tiebreak: 7 unfused kernels collapse.
        assert res.score.num_kernels <= 3
        assert res.score.peak_bytes == res.original_score.peak_bytes
        assert res.stats.accepts >= len(res.applied)

    def test_search_result_is_verified_state(self, g):
        # The returned plan must itself pass the full pass battery.
        ops = gcn_layer_ops()
        res = _search(g, ops, unfused_plan(ops))
        from repro.analysis import verify_lowering

        layout = ExecLayout(grouping=identity_grouping(g))
        report = verify_lowering(
            ops, res.plan, res.kernels, g, 32, V100_SCALED, layout,
            grouped=False,
        )
        assert report.ok and not report.warnings

    def test_node_budget_respected(self, g):
        ops = gat_attention_ops()
        res = _search(g, ops, unfused_plan(ops), max_nodes=3)
        assert res.nodes_expanded <= 3
        assert res.stats.attempts <= 3

    def test_no_moves_on_optimal_plan(self, g):
        from repro.core import plan_fusion

        ops = gat_attention_ops()
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=True,
                           grouped=False)
        res = _search(g, ops, plan)
        assert not res.improved
        assert res.applied == []


class TestOptimizePlan:
    def test_dgl_gcn_artifact_improves(self, g):
        plan = DGLLike().compile("gcn", g, V100_SCALED)
        out = optimize_plan(plan, g)
        assert out is not plan
        assert out.plan_id == f"{plan.plan_id}-opt"
        assert out.num_kernels < plan.num_kernels
        # Provenance: per-layer applied rewrites + search stats.
        assert out.extra["rewrites"]
        meta = out.extra["optimize"]
        assert meta["layers_improved"] >= 1
        assert meta["accepts"] >= len(out.extra["rewrites"])
        for scores in meta["scores"].values():
            assert (scores["after"]["peak_bytes"]
                    < scores["before"]["peak_bytes"])
        # Original artifact untouched.
        assert "rewrites" not in plan.extra
        assert plan.num_kernels == len(plan.kernels)

    def test_optimized_artifact_is_lint_clean(self, g):
        plan = DGLLike().compile("gcn", g, V100_SCALED)
        out = optimize_plan(plan, g)
        report = lint_plan(out, graph=g, config=V100_SCALED)
        assert report.ok

    def test_layer_slices_stay_consistent(self, g):
        plan = DGLLike().compile("gat", g, V100_SCALED)
        out = optimize_plan(plan, g)
        for rec in out.layers:
            assert 0 <= rec.kernel_start <= rec.kernel_stop
            assert rec.kernel_stop <= len(out.kernels)
            names = [
                k.name for k in out.kernels[rec.kernel_start:rec.kernel_stop]
            ]
            assert names, rec.label
            assert all(n.startswith(rec.label + ".") for n in names)

    def test_already_optimal_plan_returned_as_is(self, g):
        plan = OursRuntime().compile("gcn", g, V100_SCALED)
        assert optimize_plan(plan, g) is plan


class TestPipelineIntegration:
    def test_optimize_off_by_default(self, g):
        # Compile never runs the plan search: optimizing is an offline
        # step over artifacts, under its own content address.
        plan = DGLLike().compile("gcn", g, V100_SCALED)
        assert "optimize" not in plan.extra
        assert "optimize" not in plan.stage_seconds
        out = optimize_plan(plan, g)
        assert out.plan_id == plan.plan_id + "-opt"

    def test_execute_reports_optimizer_stats(self, g):
        fw = DGLLike()
        plan = optimize_plan(fw.compile("gcn", g, V100_SCALED), g)
        res = fw.execute(plan, V100_SCALED)
        perf = res.report.extra["perf"]
        assert perf["optimize"]["accepts"] > 0
        assert perf["plan"]["plan_id"] == plan.plan_id


class TestPlanOptimizeCLI:
    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        from repro.cli import main

        out = tmp_path_factory.mktemp("plans")
        rc = main(["plan", "compile", "--dataset", "arxiv",
                   "--frameworks", "dgl", "--models", "gcn",
                   "--out", str(out)])
        assert rc == 0
        return out

    def test_cli_optimizes_and_saves(self, artifact_dir, tmp_path, capsys):
        from repro.cli import main
        from repro.core.persistence import load_plan

        out_dir = tmp_path / "opt"
        rc = main(["plan", "optimize", "--dir", str(artifact_dir),
                   "--out", str(out_dir)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "-> 3 kernels" in text
        assert "layer gcn0: peak" in text
        saved = glob.glob(os.path.join(str(out_dir), "*.npz"))
        assert len(saved) == 1
        reloaded = load_plan(saved[0])
        assert reloaded is not None
        assert reloaded.plan_id.endswith("-opt")
        assert reloaded.extra["rewrites"]

    def test_cli_requires_paths(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no plan artifacts"):
            main(["plan", "optimize"])
