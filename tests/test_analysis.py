"""Tests for the static-analysis subsystem (repro.analysis).

Every pass is pinned two ways: it stays silent on the plans the shipped
pipelines actually produce, and it *catches a deliberately-corrupted
plan* — an illegal fusion, a false linear flag, missing/phantom atomics,
a cost drift.  The corruption tests are what keep the passes honest: a
verifier that never fires is indistinguishable from one that checks
nothing.
"""

import json

import numpy as np
import pytest

from repro import perf
from repro.analysis import (
    CODES,
    PlanVerificationError,
    check_atomic_races,
    check_conservation,
    check_fusion_legality,
    check_linear_flags,
    lint_chain,
    make_finding,
    probe_commutes_with_sum,
    verify_lowering,
)
from repro.analysis.findings import prune_baseline, unused_baseline_entries
from repro.cli import main
from repro.core import (
    OP_EFFECTS,
    OP_NUMERIC,
    ExecLayout,
    FusionGroup,
    FusionPlan,
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
from repro.core.adapter import _consumes_reduced
from repro.gpusim import V100
from repro.gpusim.kernel import KernelSpec
from repro.graph import small_dataset


@pytest.fixture
def g():
    return small_dataset()


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


def two_reduce_chain():
    """A chain with *two* softmax-style normalizations feeding one
    aggregate — the shape that exposed the adapter's old postponement
    bug (it postponed the first normalization past the edge op that
    consumes it)."""
    return [
        Op("u_add_v", OpKind.U_ADD_V, "E1", flops_per_elem=1),
        Op("exp_a", OpKind.EDGE_MAP, "E1", flops_per_elem=4),
        Op("seg_a", OpKind.SEG_REDUCE, "N1", flops_per_elem=1),
        Op("bcast_a", OpKind.BCAST, "E1", flops_per_elem=0),
        Op("div_a", OpKind.EDGE_DIV, "E1", flops_per_elem=1, linear=True),
        Op("exp_b", OpKind.EDGE_MAP, "E1", flops_per_elem=4),
        Op("seg_b", OpKind.SEG_REDUCE, "N1", flops_per_elem=1),
        Op("bcast_b", OpKind.BCAST, "E1", flops_per_elem=0),
        Op("div_b", OpKind.EDGE_DIV, "E1", flops_per_elem=1, linear=True),
        Op("aggregate", OpKind.AGGREGATE, "NF", flops_per_elem=2),
    ]


# ----------------------------------------------------------------------
# Pass 1 — fusion legality
# ----------------------------------------------------------------------

class TestLegality:
    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("chain", [gat_attention_ops, gcn_layer_ops])
    def test_shipped_plans_are_legal(self, chain, grouped, linear):
        ops = chain()
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=linear,
                           grouped=grouped)
        assert check_fusion_legality(ops, plan, grouped=grouped) == []
        unf = unfused_plan(ops)
        assert check_fusion_legality(ops, unf, grouped=grouped) == []

    @pytest.mark.parametrize("grouped", [False, True])
    def test_rejects_bcast_fused_with_its_seg_reduce(self, grouped):
        # Corrupt: bcast co-grouped with the seg_sum it reads — the
        # consumer would see partial sums.
        ops = gat_attention_ops()
        plan = FusionPlan([FusionGroup(ops[:5]), FusionGroup(ops[5:])])
        errs = _errors(check_fusion_legality(ops, plan, grouped=grouped))
        assert errs
        assert any("partial sums" in f.message for f in errs)
        # The explanation names the right scope for the layout.
        scope = "GLOBAL" if grouped else "BLOCK"
        assert any(scope in f.message for f in errs)

    def test_rejects_dropped_op(self):
        ops = gat_attention_ops()
        plan = plan_fusion(ops, allow_adapter=True, grouped=False)
        broken = FusionPlan([
            FusionGroup(list(grp.ops[:-1]) if gi == 0 else list(grp.ops),
                        list(grp.postponed))
            for gi, grp in enumerate(plan.groups)
        ])
        errs = _errors(check_fusion_legality(ops, broken, grouped=False))
        assert any("dropped" in f.message for f in errs)

    def test_rejects_duplicated_op(self):
        ops = gat_attention_ops()
        plan = plan_fusion(ops, allow_adapter=True, grouped=False)
        broken = FusionPlan([
            FusionGroup(list(grp.ops) + ([grp.ops[0]] if gi == 0 else []),
                        list(grp.postponed))
            for gi, grp in enumerate(plan.groups)
        ])
        errs = _errors(check_fusion_legality(ops, broken, grouped=False))
        assert any("multiset" in f.message for f in errs)

    def test_rejects_nonlinear_postponement(self):
        # Corrupt: postpone exp (non-linear) together with the
        # normalization.  f(sum x) != sum f(x): results would be wrong.
        ops = gat_attention_ops()
        plan = FusionPlan([
            FusionGroup(ops[:4]),                 # ... seg_sum
            FusionGroup([ops[6]], [ops[2], ops[4], ops[5]]),
        ])
        # Remove exp from its normal slot (conserve the multiset).
        plan.groups[0].ops = [ops[0], ops[1], ops[3]]
        errs = _errors(check_fusion_legality(ops, plan, grouped=True))
        assert any("not linear" in f.message for f in errs)

    def test_rejects_postponed_into_aggregateless_group(self):
        ops = gat_attention_ops()
        plan = FusionPlan([
            FusionGroup(ops[:4], [ops[4], ops[5]]),   # no AGGREGATE here
            FusionGroup([ops[6]]),
        ])
        errs = _errors(check_fusion_legality(ops, plan, grouped=True))
        assert any("no later" in f.message for f in errs)

    def test_catches_the_old_two_reduce_postponement_bug(self):
        # The plan the adapter used to produce: both normalizations
        # postponed, including the first one — whose output exp_b and
        # seg_b consume at their original position.  Stale values.
        ops = two_reduce_chain()
        buggy = FusionPlan([
            FusionGroup(ops[:3]),                     # u_add_v exp_a seg_a
            FusionGroup([ops[5], ops[6]]),            # exp_b seg_b
            FusionGroup([ops[9]],
                        [ops[3], ops[4], ops[7], ops[8]]),
        ])
        errs = _errors(check_fusion_legality(ops, buggy, grouped=True))
        assert any("postponed past it" in f.message for f in errs)


# ----------------------------------------------------------------------
# Pass 2 — linear-property verification
# ----------------------------------------------------------------------

class TestLinearity:
    @pytest.mark.parametrize("chain", [gat_attention_ops, gcn_layer_ops])
    def test_shipped_flags_verify(self, chain):
        assert _errors(check_linear_flags(chain())) == []

    def test_probe_accepts_true_linear(self):
        assert probe_commutes_with_sum(OP_NUMERIC["div"]) is True
        assert probe_commutes_with_sum(OP_NUMERIC["norm_src"]) is True

    def test_probe_rejects_nonlinear(self):
        assert probe_commutes_with_sum(OP_NUMERIC["exp"]) is False
        assert probe_commutes_with_sum(OP_NUMERIC["leaky_relu"]) is False

    def test_probe_reports_raising_semantics(self):
        def broken(x, aux):
            raise RuntimeError("no semantics")
        assert probe_commutes_with_sum(broken) is None

    def test_false_flag_on_nonlinear_semantics_is_error(self):
        op = Op("exp", OpKind.EDGE_MAP, "E1", flops_per_elem=4,
                linear=True)
        errs = _errors(check_linear_flags([op]))
        assert any("do not commute" in f.message for f in errs)

    def test_false_flag_on_ineligible_kind_is_error(self):
        op = Op("u_add_v", OpKind.U_ADD_V, "E1", linear=True)
        errs = _errors(check_linear_flags([op]))
        assert any("cannot be linear" in f.message for f in errs)
        bc = Op("bcast", OpKind.BCAST, "E1", linear=True)
        assert _errors(check_linear_flags([bc]))

    def test_unregistered_semantics_warn(self):
        op = Op("mystery", OpKind.EDGE_MAP, "E1", linear=True)
        findings = check_linear_flags([op])
        assert any(f.severity == "warning" for f in findings)
        assert not _errors(findings)

    def test_unused_opportunity_is_info_only(self):
        op = Op("scale", OpKind.EDGE_MAP, "E1", linear=False)
        findings = check_linear_flags([op])
        assert findings and all(f.severity == "info" for f in findings)


# ----------------------------------------------------------------------
# Pass 3 — atomic-race detection
# ----------------------------------------------------------------------

class TestAtomics:
    def _lowered(self, g, *, grouped, linear=True):
        ops = gat_attention_ops()
        grouping = (neighbor_grouping(g, 8) if grouped
                    else identity_grouping(g))
        assert bool(grouping.needs_atomic.any()) == grouped
        layout = ExecLayout(grouping=grouping)
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=linear,
                           grouped=grouped)
        kernels = lower_plan(plan, g, 32, V100, layout)
        return plan, kernels, layout

    def test_shipped_lowering_is_clean(self, g):
        for grouped in (False, True):
            plan, kernels, layout = self._lowered(g, grouped=grouped)
            assert check_atomic_races(plan, kernels, layout) == []

    def test_detects_missing_atomics_on_shared_centers(self, g):
        plan, kernels, layout = self._lowered(g, grouped=True)
        agg = next(k for k in kernels if k.block_center is not None
                   and np.unique(k.block_center).size < k.num_blocks)
        agg.atomics = np.zeros_like(agg.atomics)
        errs = _errors(check_atomic_races(plan, kernels, layout))
        assert any("write-write race" in f.message for f in errs)

    def test_detects_phantom_atomics_on_private_centers(self, g):
        plan, kernels, layout = self._lowered(g, grouped=False)
        agg = next(k for k in kernels if k.block_center is not None)
        agg.atomics = np.ones_like(agg.atomics)
        errs = _errors(check_atomic_races(plan, kernels, layout))
        assert any("phantom" in f.message for f in errs)

    def test_detects_unmerged_edge_parallel_reduction(self, g):
        # Group 0 fuses the edge chain with seg_sum, lowered
        # edge-parallel (no block_center): its cross-block partial sums
        # must merge through atomics.
        plan, kernels, layout = self._lowered(g, grouped=True)
        chain = next(k for k in kernels if k.block_center is None)
        assert int(chain.atomics.sum()) > 0
        chain.atomics = np.zeros_like(chain.atomics)
        errs = _errors(check_atomic_races(plan, kernels, layout))
        assert any("centers they do not own" in f.message for f in errs)

    def test_detects_ownership_disagreement(self, g):
        plan, kernels, layout = self._lowered(g, grouped=True)
        agg = next(k for k in kernels if k.block_center is not None)
        wrong = agg.block_center.copy()
        wrong[:] = wrong[0]
        # Keep every block "shared" so only the ownership check fires.
        agg.block_center = wrong
        agg.atomics = np.ones_like(agg.atomics)
        errs = _errors(check_atomic_races(plan, kernels, layout))
        assert any("disagrees with the grouping plan" in f.message
                   for f in errs)

    def test_detects_kernel_count_mismatch(self, g):
        plan, kernels, layout = self._lowered(g, grouped=True)
        errs = _errors(check_atomic_races(plan, kernels[:-1], layout))
        assert any("cannot pair" in f.message for f in errs)


# ----------------------------------------------------------------------
# Pass 4 — conservation audit
# ----------------------------------------------------------------------

class TestConservation:
    def _lowered(self, g, *, grouped=False, linear=True, feat=32):
        ops = gat_attention_ops()
        grouping = (neighbor_grouping(g, 8) if grouped
                    else identity_grouping(g))
        layout = ExecLayout(grouping=grouping)
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=linear,
                           grouped=grouped)
        kernels = lower_plan(plan, g, feat, V100, layout)
        return ops, plan, kernels, layout

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("feat", [32, 48])
    def test_shipped_lowering_conserves(self, g, grouped, feat):
        ops, plan, kernels, layout = self._lowered(
            g, grouped=grouped, feat=feat
        )
        assert check_conservation(
            ops, plan, kernels, g, feat, V100, layout
        ) == []

    def test_detects_flop_drift(self, g):
        ops, plan, kernels, layout = self._lowered(g)
        kernels[-1].block_flops = kernels[-1].block_flops * 2.0
        errs = _errors(check_conservation(
            ops, plan, kernels, g, 32, V100, layout
        ))
        assert any("FLOPs" in f.message and "drifted" in f.message
                   for f in errs)

    def test_detects_byte_drift(self, g):
        ops, plan, kernels, layout = self._lowered(g)
        kernels[0].stream_bytes = kernels[0].stream_bytes * 2.0
        errs = _errors(check_conservation(
            ops, plan, kernels, g, 32, V100, layout
        ))
        assert any("bytes" in f.message and "drifted" in f.message
                   for f in errs)

    def test_detects_dropped_kernel(self, g):
        ops, plan, kernels, layout = self._lowered(g)
        errs = _errors(check_conservation(
            ops, plan, kernels[:-1], g, 32, V100, layout
        ))
        assert any("dropped or split" in f.message for f in errs)


# ----------------------------------------------------------------------
# Driver, lint sweep, runtime hook
# ----------------------------------------------------------------------

class TestDriver:
    @pytest.mark.parametrize("model", ["gat", "gcn"])
    def test_lint_chain_clean_on_small_graph(self, g, model):
        report = lint_chain(model, g, check_linearity=True)
        assert report.ok, report.format()
        assert report.checked == 12  # 3 configs x 2 layouts x 2 feats

    def test_verify_lowering_raises_on_corruption(self, g):
        ops = gat_attention_ops()
        layout = ExecLayout(grouping=identity_grouping(g))
        plan = plan_fusion(ops, allow_adapter=True, grouped=False)
        kernels = lower_plan(plan, g, 32, V100, layout)
        kernels[0].block_flops = kernels[0].block_flops * 3.0
        report = verify_lowering(
            ops, plan, kernels, g, 32, V100, layout, grouped=False,
        )
        assert not report.ok
        with pytest.raises(PlanVerificationError):
            report.raise_on_errors()

    def test_runtime_verify_plans_option(self, g):
        from repro.frameworks.ours import OursOptions, OursRuntime
        from repro.models.gat import GATConfig

        rt = OursRuntime(OursOptions(
            verify_plans=True, locality_scheduling=False, tuned=False,
        ))
        result = rt.run_gat(g, GATConfig(), V100)
        assert result.time_ms > 0

    @pytest.mark.parametrize("value", ["false", "off", "no"])
    def test_verify_plans_off_spellings_are_off(self, monkeypatch, value):
        """Plan verification follows ``REPRO_STRICT``: off spellings
        leave the benchmark runtimes unverified, on verifies them."""
        from repro.bench import harness

        monkeypatch.setattr(harness, "_RUNTIMES", {})
        monkeypatch.setenv("REPRO_STRICT", value)
        with perf.override(strict=perf.RuntimeConfig.from_env().strict):
            assert not harness.cached_runtime().options.verify_plans
        with perf.override(strict=True):
            assert harness.cached_runtime().options.verify_plans

    def test_lint_cli_exits_zero_and_emits_json(self, g, capsys):
        import json

        from repro.cli import main

        rc = main(["lint", "--dataset", "citation", "--model", "gcn",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["checked"] == 12


# ----------------------------------------------------------------------
# The analyzer's output over the full shipped grid, pinned
# ----------------------------------------------------------------------

def test_lint_shipped_grid_pin():
    """Every dataset x model x fusion config x layout x feat: the same
    pipelines, the same findings and the same SARIF document.  Every
    finding sits on a Table 6 ablation config (``unfused``/``adapter``)
    that stops short of full fusion on purpose."""
    import collections
    import hashlib
    import json

    from repro.analysis import lint_shipped

    report = lint_shipped()
    assert report.checked == 192
    assert collections.Counter(f.code for f in report.findings) == {
        "FP003": 256, "HB003": 64, "FP002": 32,
    }
    rows = sorted((f.code, f.severity, f.where, f.message)
                  for f in report.findings)
    assert hashlib.blake2b(repr(rows).encode(),
                           digest_size=8).hexdigest() == "7706e4cd26b03704"
    sarif = json.dumps(report.to_sarif(), sort_keys=True)
    assert hashlib.blake2b(sarif.encode(),
                           digest_size=8).hexdigest() == "ab4137858e86c895"


# ----------------------------------------------------------------------
# Baseline hygiene and the lint CLI
# ----------------------------------------------------------------------

_ARXIV_GCN_LINEAR = ["lint", "--dataset", "arxiv", "--model", "gcn",
                     "--fusion", "linear"]


def _stale_baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"suppress": [
        {"code": "HB003", "where": "no such kernel anywhere*"},
    ]}))
    return path


class TestBaselineHygieneAndCLI:
    def test_unused_entries_detected(self):
        findings = [make_finding("FP003", "kernel boundary 0|1: a->b",
                                 "msg")]
        entries = [
            {"code": "FP003", "where": "kernel boundary 0|1*"},
            {"code": "HB003", "where": "kernel 5*"},  # matches nothing
        ]
        unused = unused_baseline_entries(entries, findings)
        assert unused == [{"code": "HB003", "where": "kernel 5*"}]

    def test_prune_baseline_preserves_file_shape(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "_comment": ["keep me"],
            "suppress": [
                {"code": "FP003", "where": "nothing matches this"},
            ],
        }))
        removed = prune_baseline(str(path), [])
        assert removed == 1
        payload = json.loads(path.read_text())
        assert payload["_comment"] == ["keep me"]
        assert payload["suppress"] == []

    def test_prune_noop_leaves_file_alone(self, tmp_path):
        path = tmp_path / "baseline.json"
        body = json.dumps({"suppress": [{"code": "FP003", "where": "*"}]})
        path.write_text(body)
        removed = prune_baseline(
            str(path), [make_finding("FP003", "anywhere", "m")]
        )
        assert removed == 0
        assert path.read_text() == body

    def test_cli_explain_lists_all_codes(self, capsys):
        assert main(["lint", "--explain"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out

    def test_cli_prune_baseline_rewrites_file(self, tmp_path, capsys):
        path = _stale_baseline(tmp_path)
        rc = main(_ARXIV_GCN_LINEAR + ["--baseline", str(path),
                                       "--prune-baseline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[STALE  ]" in out and "pruned 1" in out
        assert json.loads(path.read_text())["suppress"] == []

    def test_cli_prune_requires_baseline(self):
        with pytest.raises(SystemExit, match="--prune-baseline"):
            main(["lint", "--prune-baseline"])

    def test_cli_json_stays_json_with_stale_entry(self, tmp_path, capsys):
        path = _stale_baseline(tmp_path)
        rc = main(_ARXIV_GCN_LINEAR + ["--json", "--baseline", str(path),
                                       "--fail-stale"])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["ok"] is True
        assert "1 stale baseline entry" in captured.err

    def test_cli_json_stays_json_when_pruning(self, tmp_path, capsys):
        path = _stale_baseline(tmp_path)
        rc = main(_ARXIV_GCN_LINEAR + ["--json", "--baseline", str(path),
                                       "--prune-baseline"])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out)["ok"] is True
        assert "pruned 1" in captured.err
        assert json.loads(path.read_text())["suppress"] == []

    @pytest.mark.parametrize("argv", [
        ["lint", "--fix"],
        ["lint", "--dry-run"],
        ["plan", "optimize"],
    ])
    def test_cli_has_no_rewrite_commands(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Adapter regressions the analyses motivated (satellites)
# ----------------------------------------------------------------------

class TestAdapterRegressions:
    def test_consumes_reduced_covers_edge_div(self):
        # DGL's e_div_v form: EDGE_DIV reads the segment sum directly,
        # with no materializing BCAST in between.
        div = Op("div", OpKind.EDGE_DIV, "E1", linear=True)
        assert _consumes_reduced(div)
        assert _consumes_reduced(Op("bcast", OpKind.BCAST, "E1"))
        assert not _consumes_reduced(Op("exp", OpKind.EDGE_MAP, "E1"))
        assert OP_EFFECTS[OpKind.EDGE_DIV].consumes_reduced

    def test_e_div_v_chain_postpones_without_bcast(self):
        ops = [
            Op("u_add_v", OpKind.U_ADD_V, "E1"),
            Op("exp", OpKind.EDGE_MAP, "E1", flops_per_elem=4),
            Op("seg_sum", OpKind.SEG_REDUCE, "N1"),
            Op("div", OpKind.EDGE_DIV, "E1", linear=True),
            Op("aggregate", OpKind.AGGREGATE, "NF", flops_per_elem=2),
        ]
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=True,
                           grouped=True)
        assert plan.num_kernels == 2
        assert [o.name for o in plan.groups[1].postponed] == ["div"]
        assert check_fusion_legality(ops, plan, grouped=True) == []

    def test_two_reduce_chain_postpones_only_trailing_run(self):
        # The fixed bug: only the normalization *contiguous* with the
        # aggregate may move; the first one feeds exp_b/seg_b in place.
        ops = two_reduce_chain()
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=True,
                           grouped=True)
        postponed = [o.name for grp in plan.groups for o in grp.postponed]
        assert postponed == ["bcast_b", "div_b"]
        live = [o.name for grp in plan.groups for o in grp.ops]
        assert "bcast_a" in live and "div_a" in live
        assert check_fusion_legality(ops, plan, grouped=True) == []

    def test_empty_chain(self):
        for linear in (False, True):
            plan = plan_fusion([], allow_adapter=True, allow_linear=linear)
            assert plan.num_kernels == 0
        assert unfused_plan([]).num_kernels == 0

    @pytest.mark.parametrize("op", [
        Op("aggregate", OpKind.AGGREGATE, "NF", flops_per_elem=2),
        Op("seg_sum", OpKind.SEG_REDUCE, "N1"),
        Op("relu", OpKind.NODE_MAP, "NF"),
        Op("exp", OpKind.EDGE_MAP, "E1"),
    ])
    def test_single_op_chain(self, op):
        plan = plan_fusion([op], allow_adapter=True, allow_linear=True,
                           grouped=True)
        assert plan.num_kernels == 1
        assert plan.groups[0].names == (op.name,)
        assert not plan.groups[0].postponed
        assert check_fusion_legality([op], plan, grouped=True) == []

    @pytest.mark.parametrize("linear", [False, True])
    def test_chain_ending_in_seg_reduce(self, linear):
        ops = gat_attention_ops()[:4]  # ...ends with seg_sum
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=linear,
                           grouped=False)
        assert plan.num_kernels == 1
        assert not plan.groups[0].postponed
        assert check_fusion_legality(ops, plan, grouped=False) == []

    def test_allow_linear_with_grouped_layout(self, g):
        # Grouping turns the SEG_REDUCE scope GLOBAL; the linear
        # postponement must still produce a legal, conserving lowering.
        ops = gat_attention_ops()
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=True,
                           grouped=True)
        assert [o.name for o in plan.groups[-1].postponed] == [
            "bcast", "div",
        ]
        layout = ExecLayout(grouping=neighbor_grouping(g, 8))
        kernels = lower_plan(plan, g, 32, V100, layout)
        report = verify_lowering(
            ops, plan, kernels, g, 32, V100, layout, grouped=True,
        )
        assert report.ok, report.format()


# ----------------------------------------------------------------------
# Strict KernelSpec validation (REPRO_STRICT)
# ----------------------------------------------------------------------

class TestStrictKernelSpec:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        assert not perf.RuntimeConfig.from_env().strict
        # Lenient mode accepts what strict rejects.
        with perf.override(strict=False):
            KernelSpec("k", block_flops=np.array([1.0, -1.0]))

    def test_strict_rejects_negative_flops(self):
        with perf.override(strict=True), \
                pytest.raises(ValueError, match="negative block_flops"):
            KernelSpec("k", block_flops=np.array([1.0, -1.0]))

    @pytest.fixture
    def strict(self):
        with perf.override(strict=True):
            yield

    def test_strict_rejects_bad_row_ptr(self, strict):
        with pytest.raises(ValueError, match="not monotonic"):
            KernelSpec(
                "k", block_flops=np.ones(2),
                row_ptr=np.array([0, 2, 1]), row_ids=np.array([3]),
            )
        with pytest.raises(ValueError, match="row_ptr\\[0\\]"):
            KernelSpec(
                "k", block_flops=np.ones(2),
                row_ptr=np.array([1, 2, 3]), row_ids=np.arange(3),
            )
        with pytest.raises(ValueError, match="negative row id"):
            KernelSpec(
                "k", block_flops=np.ones(1),
                row_ptr=np.array([0, 2]), row_ids=np.array([1, -4]),
            )

    def test_strict_rejects_nonfinite_stream(self, strict):
        with pytest.raises(ValueError, match="non-finite stream_bytes"):
            KernelSpec("k", block_flops=np.ones(1),
                       stream_bytes=np.array([np.inf]))

    def test_strict_zero_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "0")
        assert not perf.RuntimeConfig.from_env().strict
        monkeypatch.setenv("REPRO_STRICT", "1")
        assert perf.RuntimeConfig.from_env().strict

    @pytest.mark.parametrize("value", ["false", "off", "no", "FALSE", ""])
    def test_strict_off_spellings_are_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STRICT", value)
        with perf.override(strict=perf.RuntimeConfig.from_env().strict):
            KernelSpec("k", block_flops=np.array([1.0, -1.0]))

    def test_block_center_length_checked_always(self):
        with perf.override(strict=False), \
                pytest.raises(ValueError, match="block_center"):
            KernelSpec("k", block_flops=np.ones(2),
                       block_center=np.array([0]))

    def test_shipped_lowering_survives_strict(self, strict, g):
        ops = gat_attention_ops()
        plan = plan_fusion(ops, allow_adapter=True, allow_linear=True,
                           grouped=True)
        layout = ExecLayout(grouping=neighbor_grouping(g, 8))
        kernels = lower_plan(plan, g, 32, V100, layout)
        assert kernels

    def test_reordered_permutes_block_center(self):
        k = KernelSpec("k", block_flops=np.array([1.0, 2.0, 3.0]),
                       block_center=np.array([5, 6, 7]))
        perm = np.array([2, 0, 1])
        assert np.array_equal(k.reordered(perm).block_center,
                              np.array([7, 5, 6]))
