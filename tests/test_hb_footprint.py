"""Tests for analysis v2: happens-before, symbolic footprint /
opportunity passes, the pass registry, and the finding infrastructure
(stable codes, baselines, SARIF, exit-code contract).

Same discipline as test_analysis.py: every new pass is pinned both on
silence over the shipped plans and on *catching a deliberately
corrupted one* — a reordered postponed-sync kernel stream for HB, an
un-hoisted O(E) weight transform and a falsified recorded peak for the
footprint analyzer.
"""

import copy
import json

import numpy as np
import pytest

from repro.analysis import (
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Finding,
    LintContext,
    LintPass,
    SymExpr,
    check_happens_before,
    check_opportunities,
    explain_code,
    layer_footprint,
    lint_chain,
    lint_plan,
    load_baseline,
    make_finding,
    pass_names,
    register_pass,
)
from repro.analysis.registry import _PASSES
from repro.core import (
    ExecLayout,
    Op,
    OpKind,
    gat_attention_ops,
    gcn_layer_ops,
    identity_grouping,
    lower_plan,
    neighbor_grouping,
    plan_fusion,
    unfused_plan,
)
from repro.core.persistence import load_plan, save_plan
from repro.frameworks.ours import OursOptions, OursRuntime
from repro.gpusim import V100, V100_SCALED
from repro.gpusim.kernel import KernelDataflow, KernelSpec
from repro.gpusim.memo import kernel_fingerprint
from repro.graph import small_dataset


@pytest.fixture(scope="module")
def g():
    return small_dataset()


def _lowered(g, chain, *, adapter, linear, grouped=False, feat=32):
    ops = chain()
    grouping = neighbor_grouping(g, 8) if grouped else identity_grouping(g)
    layout = ExecLayout(grouping=grouping)
    plan = plan_fusion(ops, allow_adapter=adapter, allow_linear=linear,
                       grouped=grouped)
    kernels = lower_plan(plan, g, feat, V100, layout)
    return ops, plan, kernels, layout


def _ctx(g, ops, plan, kernels, layout, *, grouped=False, feat=32):
    return LintContext(ops=ops, plan=plan, kernels=kernels, graph=g,
                       feat_len=feat, config=V100, layout=layout,
                       grouped=grouped)


def _codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# Pass 5 — happens-before sync safety
# ----------------------------------------------------------------------

class TestHappensBefore:
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("adapter,linear",
                             [(False, False), (True, False), (True, True)])
    @pytest.mark.parametrize("chain", [gat_attention_ops, gcn_layer_ops])
    def test_shipped_streams_are_ordered(self, g, chain, adapter, linear,
                                         grouped):
        _, _, kernels, _ = _lowered(g, chain, adapter=adapter,
                                    linear=linear, grouped=grouped)
        findings = check_happens_before(kernels)
        assert not [f for f in findings if f.severity != INFO], findings

    def test_reordered_postponed_sync_stream_is_stale_read(self, g):
        # The adapter-fused GAT stream is two kernels: the edge chain
        # ending in seg_sum, then the consumer that reads exp/seg_sum.
        # Swapping them launches the reader before its producing sync —
        # exactly the damage a buggy sync postponement causes.
        _, _, kernels, _ = _lowered(g, gat_attention_ops, adapter=True,
                                    linear=False)
        assert len(kernels) == 2
        assert check_happens_before(kernels) == []
        findings = check_happens_before(list(reversed(kernels)))
        assert _codes(findings) == ["HB001", "HB001"]
        assert all(f.severity == ERROR for f in findings)
        assert any("stale read" in f.message for f in findings)

    def test_dropped_producer_is_dangling_read(self, g):
        _, _, kernels, _ = _lowered(g, gat_attention_ops, adapter=True,
                                    linear=False)
        findings = check_happens_before(kernels[1:])
        assert set(_codes(findings)) == {"HB002"}
        assert all(f.severity == WARNING for f in findings)

    def test_removable_sync_flagged_on_unfused_only(self, g):
        # bcast and div commute with the aggregation: unfused plans pay
        # two removable global syncs per layer; the linear config is
        # exactly their removal, so fused streams stay silent.
        _, _, unf, _ = _lowered(g, gat_attention_ops, adapter=False,
                                linear=False)
        infos = [f for f in check_happens_before(unf)
                 if f.code == "HB003"]
        assert len(infos) == 2
        assert all(f.severity == INFO for f in infos)
        _, _, lin, _ = _lowered(g, gat_attention_ops, adapter=True,
                                linear=True)
        assert check_happens_before(lin) == []
        # The advisory can be silenced for double-linted streams.
        assert check_happens_before(unf, opportunities=False) == []

    def test_kernels_without_dataflow_are_skipped(self):
        bare = [KernelSpec("gemm", block_flops=np.ones(4)),
                KernelSpec("gemm2", block_flops=np.ones(4))]
        assert check_happens_before(bare) == []

    def test_sync_write_named_in_stale_read_message(self, g):
        _, _, kernels, _ = _lowered(g, gat_attention_ops, adapter=True,
                                    linear=False)
        findings = check_happens_before(list(reversed(kernels)))
        assert any("atomic partial-sum completion" in f.message
                   for f in findings)


# ----------------------------------------------------------------------
# Passes 6 & 7 — symbolic footprint and opportunities
# ----------------------------------------------------------------------

class TestSymExpr:
    def test_algebra_and_evaluation(self):
        e = SymExpr.of((0, 1, 0), 4.0) + SymExpr.of((1, 0, 1), 4.0)
        e = e + SymExpr.of((0, 1, 0), 8.0)
        assert e.evaluate(10, 100, 32) == 12 * 100 + 4 * 10 * 32
        assert "12" in str(e) and "E" in str(e) and "N*F" in str(e)

    def test_zero(self):
        assert SymExpr().evaluate(5, 5, 5) == 0
        assert str(SymExpr.of((1, 0, 0), 0.0)) == "0"


class TestFootprint:
    def test_unfused_gat_peak_is_three_edge_buffers(self, g):
        # At the div kernel the exp weights, the broadcast denominator
        # and div's own output are simultaneously live: 12E bytes of
        # edge scratch — the 3x per-edge materialization DGL pays —
        # plus the standing inputs (features + two attention scalars).
        ops, plan, kernels, _ = _lowered(g, gat_attention_ops,
                                         adapter=False, linear=False)
        live = layer_footprint(plan, kernels)
        n, e, f = g.num_nodes, g.num_edges, 32
        div_ki = next(ki for ki, k in enumerate(kernels)
                      if "div" in k.name)
        at_div = dict(live)[div_ki]
        assert at_div.evaluate(n, e, f) == 12 * e + 4 * n * f + 8 * n
        # The overall peak adds the aggregate's NF output while the
        # last edge buffer is still being read.
        peak = max(expr.evaluate(n, e, f) for _, expr in live)
        assert peak == 4 * e + 8 * n * f + 8 * n

    def test_fused_gat_peak_is_one_edge_buffer(self, g):
        ops, plan, kernels, _ = _lowered(g, gat_attention_ops,
                                         adapter=True, linear=True)
        live = layer_footprint(plan, kernels)
        n, e, f = g.num_nodes, g.num_edges, 32
        peak = max(expr.evaluate(n, e, f) for _, expr in live)
        # Only the exp weights and seg_sum's per-center denominator
        # cross the single kernel boundary; the peak is inputs + those
        # + the aggregate's NF output.
        assert peak == 4 * e + 8 * n * f + 8 * n + 4 * n

    def test_no_dataflow_returns_none(self):
        plan = unfused_plan(gat_attention_ops())
        assert layer_footprint(
            plan, [KernelSpec("k", block_flops=np.ones(2))]
        ) is None

    def test_falsified_recorded_peak_is_error(self, g):
        rt = OursRuntime(OursOptions(locality_scheduling=False,
                                     tuned=False))
        plan = rt.compile("gat", g, V100_SCALED)
        assert lint_plan(plan, graph=g).ok
        plan = copy.copy(plan)
        plan.peak_mem_bytes = 1
        report = lint_plan(plan, graph=g)
        assert not report.ok
        assert "FP001" in _codes(report.errors)
        assert any("lower bound" in f.message for f in report.errors)


class TestOpportunities:
    def test_unfused_gat_flags_bcast_materialization(self, g):
        ops, plan, kernels, layout = _lowered(g, gat_attention_ops,
                                              adapter=False, linear=False)
        findings = check_opportunities(_ctx(g, ops, plan, kernels, layout))
        assert all(f.severity == INFO for f in findings)
        fp2 = [f for f in findings if f.code == "FP002"]
        assert len(fp2) == 1 and "bcast" in fp2[0].message
        assert "Table 5" in fp2[0].message
        # Five of the six boundaries admit a visible-range or epilogue
        # fusion; seg_sum -> bcast is the one that never does.
        fp3 = [f for f in findings if f.code == "FP003"]
        assert len(fp3) == 5
        assert not any("seg_sum->bcast" in f.where for f in fp3)

    def test_unhoisted_edge_feature_transform_is_flagged(self, g):
        # Table 5's redundancy-bypassing target: a per-edge weight
        # transform materializing O(E*F) when hoisting it before the
        # gather costs O(N*F).
        ops = [
            Op("w_edge", OpKind.EDGE_MAP, "EF", flops_per_elem=2),
            Op("aggregate", OpKind.AGGREGATE, "NF", flops_per_elem=2),
        ]
        plan = unfused_plan(ops)
        layout = ExecLayout(grouping=identity_grouping(g))
        kernels = lower_plan(plan, g, 32, V100, layout)
        findings = check_opportunities(_ctx(g, ops, plan, kernels, layout))
        fp2 = [f for f in findings if f.code == "FP002"]
        assert fp2 and "hoisting" in fp2[0].message

    def test_adapter_gcn_flags_skipped_epilogue_fusion(self, g):
        ops, plan, kernels, layout = _lowered(g, gcn_layer_ops,
                                              adapter=True, linear=False)
        findings = check_opportunities(_ctx(g, ops, plan, kernels, layout))
        assert _codes(findings) == ["FP003"]
        assert "aggregate->norm_dst" in findings[0].where

    def test_fused_plans_are_silent(self, g):
        for chain in (gat_attention_ops, gcn_layer_ops):
            ops, plan, kernels, layout = _lowered(g, chain, adapter=True,
                                                  linear=True)
            assert check_opportunities(
                _ctx(g, ops, plan, kernels, layout)
            ) == []


# ----------------------------------------------------------------------
# Dataflow metadata plumbing
# ----------------------------------------------------------------------

class TestKernelDataflow:
    def test_lowering_stamps_adapter_gat(self, g):
        _, _, kernels, _ = _lowered(g, gat_attention_ops, adapter=True,
                                    linear=False)
        head, tail = kernels
        assert head.dataflow.writes == ("exp", "seg_sum")
        assert head.dataflow.sync_writes == ("seg_sum",)
        assert tail.dataflow.reads == ("exp", "seg_sum")
        assert tail.dataflow.aggregate

    def test_meta_round_trip(self):
        flow = KernelDataflow(reads=("a",), writes=("b", "c"),
                              sync_writes=("c",), postponable=True)
        assert KernelDataflow.from_meta(flow.to_meta()) == flow

    def test_plan_serialization_preserves_dataflow(self, g, tmp_path):
        rt = OursRuntime(OursOptions(locality_scheduling=False,
                                     tuned=False))
        plan = rt.compile("gcn", g, V100_SCALED)
        path = str(tmp_path / "plan.npz")
        save_plan(path, plan)
        loaded = load_plan(path)
        assert loaded is not None
        assert any(k.dataflow is not None for k in loaded.kernels)
        for a, b in zip(plan.kernels, loaded.kernels):
            assert a.dataflow == b.dataflow

    def test_memo_fingerprint_excludes_dataflow(self, g):
        # Dataflow is analysis metadata, like block_center: it must not
        # split the kernel-statistics memo.
        _, _, kernels, _ = _lowered(g, gat_attention_ops, adapter=True,
                                    linear=False)
        k = kernels[0]
        assert k.dataflow is not None
        stripped = copy.copy(k)
        stripped.dataflow = None
        assert (kernel_fingerprint(k, V100, 0.0)
                == kernel_fingerprint(stripped, V100, 0.0))

    def test_reordered_carries_dataflow(self, g):
        _, _, kernels, _ = _lowered(g, gat_attention_ops, adapter=True,
                                    linear=False, grouped=True)
        k = next(k for k in kernels if k.block_center is not None)
        perm = np.arange(len(k.block_center))[::-1].copy()
        assert k.reordered(perm).dataflow == k.dataflow


# ----------------------------------------------------------------------
# Finding infrastructure: codes, baselines, SARIF, gating
# ----------------------------------------------------------------------

class TestFindingInfra:
    def test_make_finding_resolves_pass_and_severity(self):
        f = make_finding("HB001", "kernel 3", "boom")
        assert f.pass_name == "hb" and f.severity == ERROR
        assert f.code == "HB001"
        assert "HB001" in f.format()

    def test_explain_code(self):
        text = explain_code("FP002")
        assert "FP002" in text and "Table 5" in text
        assert explain_code("ZZ999") is None

    def test_load_baseline_accepts_both_shapes(self, tmp_path):
        p1 = tmp_path / "a.json"
        p1.write_text(json.dumps({"suppress": [{"code": "HB003"}]}))
        p2 = tmp_path / "b.json"
        p2.write_text(json.dumps([{"code": "FP002", "where": "*gat*"}]))
        assert load_baseline(str(p1)) == [{"code": "HB003"}]
        assert load_baseline(str(p2))[0]["where"] == "*gat*"

    def test_load_baseline_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([{"where": "*"}]))
        with pytest.raises(ValueError, match="code"):
            load_baseline(str(p))

    def test_baseline_suppression_is_code_and_where_scoped(self):
        report = AnalysisReport(findings=[
            make_finding("HB001", "gat:arxiv: kernel 1", "stale"),
            make_finding("HB001", "gcn:ddi: kernel 0", "stale"),
        ])
        kept, suppressed = report.apply_baseline(
            [{"code": "HB001", "where": "gat:*"}]
        )
        assert suppressed == 1
        assert [f.where for f in kept.findings] == ["gcn:ddi: kernel 0"]

    def test_exit_code_contract(self):
        warn = AnalysisReport(findings=[
            make_finding("HB002", "k", "dangling")
        ])
        # Warnings exit zero by default; --fail-on warning flips it.
        assert warn.gate("error")
        assert not warn.gate("warning")
        info = AnalysisReport(findings=[
            make_finding("HB003", "k", "removable")
        ])
        # Infos never gate, whatever the threshold.
        assert info.gate("error") and info.gate("warning")
        err = AnalysisReport(findings=[
            make_finding("HB001", "k", "stale")
        ])
        assert not err.gate("error")

    def test_sarif_export_shape(self):
        report = AnalysisReport(findings=[
            make_finding("HB001", "kernel 1", "stale read"),
            make_finding("FP003", "boundary 0|1", "fusible"),
        ])
        sarif = report.to_sarif()
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert set(rules) == {"HB001", "FP003"}
        assert rules["HB001"]["defaultConfiguration"]["level"] == "error"
        assert rules["FP003"]["defaultConfiguration"]["level"] == "note"
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels == {"HB001": "error", "FP003": "note"}
        loc = run["results"][0]["locations"][0]["logicalLocations"][0]
        assert loc["fullyQualifiedName"] == "kernel 1"


# ----------------------------------------------------------------------
# Registry: passes self-register into the lint drivers
# ----------------------------------------------------------------------

@pytest.fixture
def scratch_pass():
    """Register a throwaway pass; always unregister afterwards."""
    name = "scratch-warn"
    register_pass(LintPass(
        name=name, doc="test-only",
        lowering=lambda ctx: [Finding(name, WARNING, "everywhere",
                                      "synthetic warning")],
    ))
    yield name
    _PASSES.pop(name, None)


class TestRegistry:
    def test_all_seven_passes_registered(self):
        assert set(pass_names()) >= {
            "legality", "linearity", "atomics", "conservation",
            "hb", "footprint", "opportunity",
        }

    def test_new_pass_joins_lint_chain_without_driver_edits(
        self, g, scratch_pass
    ):
        report = lint_chain("gcn", g, feats=(32,), fusions=("adapter",))
        mine = [f for f in report.findings
                if f.pass_name == scratch_pass]
        assert len(mine) == report.checked
        # The driver's re-scoping keeps severity (and would keep codes).
        assert all(f.severity == WARNING for f in mine)

    def test_cli_fail_on_warning_flips_exit_code(self, scratch_pass,
                                                 capsys):
        from repro.cli import main

        argv = ["lint", "--dataset", "citation", "--model", "gcn",
                "--fusion", "adapter"]
        assert main(argv) == 0           # warnings exit 0 by default
        capsys.readouterr()
        assert main(argv + ["--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "synthetic warning" in out

    def test_cli_baseline_suppresses_and_restores_exit(
        self, scratch_pass, tmp_path, capsys
    ):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"suppress": [{"code": "", "where": "*everywhere*"}]}
        ))
        rc = main(["lint", "--dataset", "citation", "--model", "gcn",
                   "--fusion", "adapter", "--fail-on", "warning",
                   "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "suppressed" in out

    def test_cli_sarif_written(self, tmp_path, capsys):
        from repro.cli import main

        sarif_path = tmp_path / "out" / "lint.sarif"
        rc = main(["lint", "--dataset", "citation", "--model", "gcn",
                   "--fusion", "linear", "--sarif", str(sarif_path)])
        assert rc == 0
        payload = json.loads(sarif_path.read_text())
        assert payload["version"] == "2.1.0"
        capsys.readouterr()

    def test_cli_explain(self, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", "FP001"]) == 0
        out = capsys.readouterr().out
        assert "FP001" in out and "lower bound" in out
        with pytest.raises(SystemExit, match="unknown finding code"):
            main(["lint", "--explain", "XX000"])
