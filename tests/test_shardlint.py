"""Shard-scope static analysis: the SH pass family.

The acceptance contract of the shardlint milestone:

* the symbolic per-device peak (SH001's quantity) reproduces the
  per-partition compile's ``peak_mem_bytes`` **exactly** — the static
  verdict *is* the simulator's OOM verdict, reached with zero compiles;
* the symbolic transfer bytes (SH002's quantity) equal the simulated
  halo/mirror byte counters **exactly**, across methods, device counts
  and models;
* the corrupted-stream hooks trip SH002/SH005 statically;
* ``choose_partitioning`` ranks candidates by the lexicographic
  ShardScore with feasibility dominating.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.findings import ERROR, INFO, WARNING
from repro.analysis.shardlint import (
    choose_partitioning,
    lint_shard,
    resolve_model,
    round_feat_lens,
    shard_peak_bytes,
    shard_transfer_bytes,
)
from repro.bench import bench_config
from repro.frameworks.dgl_like import DGLLike
from repro.graph import load_dataset
from repro.graph.generators import power_law_graph
from repro.gpusim.config import V100_SCALED
from repro.shard import DeviceConfig, run_sharded
from repro.shard.partition import partition_graph

GRAPH = power_law_graph(1500, avg_degree=7, seed=11, name="md1500")
#: Uncapped device: the symbolic-vs-compiled equality must hold even
#: for partitionings the default budget would refuse to compile.
UNCAPPED = dataclasses.replace(V100_SCALED, device_mem_bytes=1 << 40)
AMPLE = DeviceConfig(mem_bytes=1 << 40)


def codes(report):
    return {f.code for f in report.findings}


# ----------------------------------------------------------------------
# SH001: the symbolic peak IS the compiled peak
# ----------------------------------------------------------------------

class TestSymbolicPeakMatchesCompiled:
    @pytest.mark.parametrize("model_name", ["gcn", "gat", "sage_lstm"])
    @pytest.mark.parametrize("method", ["edge_cut", "vertex_cut"])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_exact_equality(self, model_name, method, parts):
        fw = DGLLike()
        shard = partition_graph(GRAPH, parts, method)
        model = resolve_model(model_name)
        peaks = {
            p: peak
            for p, peak, _ in shard_peak_bytes(shard, model_name, model)
        }
        for part in shard.parts:
            plan = fw.compile(
                model_name, part.local_graph, UNCAPPED,
                shard_options=shard.options_blob(part.part_id),
            )
            assert peaks[part.part_id] == plan.peak_mem_bytes, (
                f"{model_name}/{method}/P={parts} device "
                f"{part.part_id}: symbolic {peaks[part.part_id]} != "
                f"compiled {plan.peak_mem_bytes}"
            )


# ----------------------------------------------------------------------
# SH002: symbolic transfer bytes == simulated transfer bytes, exactly
# ----------------------------------------------------------------------

class TestTransferConservation:
    @pytest.mark.parametrize("dataset", ["arxiv", "ddi"])
    @pytest.mark.parametrize("method", ["edge_cut", "vertex_cut"])
    @pytest.mark.parametrize("parts", [1, 2, 4, 8])
    @pytest.mark.parametrize("model_name", ["gcn", "gat"])
    def test_simulated_equals_symbolic(
        self, dataset, method, parts, model_name
    ):
        g = load_dataset(dataset)
        res = run_sharded(
            DGLLike(), model_name, g, bench_config(),
            num_parts=parts, method=method, lint=False,
        )
        feats = round_feat_lens(
            model_name, resolve_model(model_name), res.plans
        )
        symbolic = shard_transfer_bytes(res.shard, feats)
        for d in res.report.extra["perf"]["shard"]["devices"]:
            p = d["device"]
            assert d["halo_bytes"] == symbolic[p]["halo"]
            assert d["mirror_bytes"] == symbolic[p]["mirror"]

    def test_single_device_predicts_zero(self):
        shard = partition_graph(GRAPH, 1, "edge_cut")
        symbolic = shard_transfer_bytes(shard, [128, 64, 32])
        assert symbolic == {0: {"halo": 0.0, "mirror": 0.0}}


# ----------------------------------------------------------------------
# shardmem verdicts: SH001 / SH003 / SH004
# ----------------------------------------------------------------------

class TestShardMemVerdicts:
    def test_clean_with_ample_budget(self):
        shard = partition_graph(GRAPH, 2, "edge_cut")
        report = lint_shard(shard, model_name="gcn", device=AMPLE)
        assert report.findings == []
        assert report.ok

    def test_sh001_fires_per_device_over_budget(self):
        shard = partition_graph(GRAPH, 2, "edge_cut")
        report = lint_shard(
            shard, model_name="gcn",
            device=DeviceConfig(mem_bytes=2_000_000),
        )
        sh001 = [f for f in report.findings if f.code == "SH001"]
        assert len(sh001) == 2
        assert all(f.severity == ERROR for f in sh001)
        assert not report.ok

    def test_sh001_verdict_flips_with_partitioning(self):
        # The static form of the "fits only once sharded wide enough"
        # regime: a budget between peak(P=4) and peak(P=2) on this
        # graph must flip the verdict between those device counts.
        device = DeviceConfig(mem_bytes=4_000_000)
        for parts, fires in [(1, True), (2, True), (4, False)]:
            shard = partition_graph(GRAPH, parts, "edge_cut")
            report = lint_shard(shard, model_name="gcn", device=device)
            assert ("SH001" in codes(report)) == fires, (
                f"P={parts}: expected SH001 fired={fires}"
            )

    def test_sh003_fires_on_tight_threshold(self):
        shard = partition_graph(GRAPH, 4, "edge_cut")
        report = lint_shard(
            shard, model_name="gcn", device=AMPLE,
            imbalance_threshold=1.0001,
        )
        sh003 = [f for f in report.findings if f.code == "SH003"]
        assert len(sh003) == 1
        assert sh003[0].severity == INFO

    def test_sh003_never_fires_single_device(self):
        shard = partition_graph(GRAPH, 1, "edge_cut")
        report = lint_shard(
            shard, model_name="gcn", device=AMPLE,
            imbalance_threshold=1.0001,
        )
        assert "SH003" not in codes(report)

    def test_sh004_fires_on_tight_blowup_threshold(self):
        shard = partition_graph(GRAPH, 4, "edge_cut")
        report = lint_shard(
            shard, model_name="gcn", device=AMPLE,
            blowup_threshold=1.0,
        )
        sh004 = [f for f in report.findings if f.code == "SH004"]
        assert len(sh004) == 1
        assert sh004[0].severity == INFO
        # The default threshold (P) does not fire on this graph.
        report = lint_shard(shard, model_name="gcn", device=AMPLE)
        assert "SH004" not in codes(report)

    def test_advisories_never_gate(self):
        shard = partition_graph(GRAPH, 4, "edge_cut")
        report = lint_shard(
            shard, model_name="gcn", device=AMPLE,
            imbalance_threshold=1.0001, blowup_threshold=1.0,
        )
        assert codes(report) <= {"SH003", "SH004"}
        assert report.gate("error") and report.gate("warning")


# ----------------------------------------------------------------------
# shardflow verdicts: SH002 / SH005
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sharded2():
    return run_sharded(
        DGLLike(), "gcn", GRAPH, V100_SCALED, num_parts=2,
        method="edge_cut",
    )


class TestShardFlowVerdicts:
    def test_healthy_streams_are_clean(self, sharded2):
        report = lint_shard(
            sharded2.shard, model_name="gcn", device=AMPLE,
            plans=sharded2.plans, streams=sharded2.streams,
        )
        assert report.findings == []

    def test_flow_checks_skipped_without_streams(self):
        shard = partition_graph(GRAPH, 2, "edge_cut")
        report = lint_shard(shard, model_name="gcn", device=AMPLE)
        assert codes(report) & {"SH002", "SH005"} == set()

    def test_duplicated_exchange_is_sh002_and_sh005(self, sharded2):
        from repro.gpusim.multidev import (
            corrupt_stream_duplicate_exchange,
        )

        bad = corrupt_stream_duplicate_exchange(sharded2.streams, 0, 0)
        report = lint_shard(
            sharded2.shard, model_name="gcn", device=AMPLE,
            plans=sharded2.plans, streams=bad,
        )
        assert "SH002" in codes(report)
        sh005 = [f for f in report.findings if f.code == "SH005"]
        assert sh005 and all(f.severity == WARNING for f in sh005)
        assert any("duplicated exchange" in f.message for f in sh005)

    def test_dropped_exchange_is_sh002(self, sharded2):
        from repro.gpusim.multidev import corrupt_stream_drop_exchange

        bad = corrupt_stream_drop_exchange(sharded2.streams, 0, 0)
        report = lint_shard(
            sharded2.shard, model_name="gcn", device=AMPLE,
            plans=sharded2.plans, streams=bad,
        )
        sh002 = [f for f in report.findings if f.code == "SH002"]
        assert sh002 and all(f.severity == ERROR for f in sh002)

    def test_run_sharded_carries_shard_lint(self, sharded2):
        # run_sharded wires the SH passes in: a healthy run records a
        # zero-finding lint block in the perf payload.
        lint = sharded2.report.extra["perf"]["shard"]["lint"]
        assert lint["findings"] == 0
        assert sharded2.findings == []


# ----------------------------------------------------------------------
# choose_partitioning: ShardScore ranking
# ----------------------------------------------------------------------

class TestChoosePartitioning:
    def test_p1_wins_when_it_fits(self):
        choices = choose_partitioning(
            GRAPH, "gcn", device=AMPLE, parts=(1, 2, 4),
        )
        best = choices[0]
        assert best.feasible
        assert best.num_parts == 1
        assert best.score.transfer_bytes == 0.0

    def test_tight_budget_prefers_smallest_feasible_p(self):
        # 4 MB sits between this graph's P=4 and P=2 symbolic peaks:
        # P=1/P=2 are infeasible, P=4 and P=8 fit, and P=4 moves fewer
        # bytes — feasibility dominates, then transfer volume.
        device = DeviceConfig(mem_bytes=4_000_000)
        choices = choose_partitioning(
            GRAPH, "gcn", device=device, parts=(1, 2, 4, 8),
        )
        best = choices[0]
        assert best.feasible
        assert best.num_parts == 4
        infeasible = [c for c in choices if not c.feasible]
        assert {c.num_parts for c in infeasible} == {1, 2}
        # Every feasible candidate sorts ahead of every infeasible one.
        flags = [c.feasible for c in choices]
        assert flags == sorted(flags, reverse=True)

    def test_all_infeasible_is_reported_not_hidden(self):
        device = DeviceConfig(mem_bytes=1000)
        choices = choose_partitioning(
            GRAPH, "gcn", device=device, parts=(1, 2),
        )
        assert choices and not any(c.feasible for c in choices)
        assert all(
            any(f.code == "SH001" for f in c.report.findings)
            for c in choices
        )

    def test_scores_are_deterministic(self):
        a = choose_partitioning(GRAPH, "gcn", device=AMPLE,
                                parts=(1, 2))
        b = choose_partitioning(GRAPH, "gcn", device=AMPLE,
                                parts=(1, 2))
        assert [c.score for c in a] == [c.score for c in b]


# ----------------------------------------------------------------------
# The full-scale regime (slow: ~49M edges; opt-in via REPRO_TEST_FULL)
# ----------------------------------------------------------------------

@pytest.mark.skipif(
    not os.environ.get("REPRO_TEST_FULL"),
    reason="full-scale ogb graph takes minutes; set REPRO_TEST_FULL=1",
)
def test_ogb_scale_sh001_flips_at_p8():
    from repro.graph import ogb_scale_graph

    g = ogb_scale_graph()
    assert (g.fingerprint, g.num_edges) == ("75a8188f3c440662", 48_994_416)
    device = DeviceConfig()  # the 1 GiB simulated budget
    for parts, fires in [(1, True), (2, True), (4, True), (8, False)]:
        shard = partition_graph(g, parts, "edge_cut")
        report = lint_shard(shard, model_name="gcn", device=device)
        assert ("SH001" in codes(report)) == fires, (
            f"P={parts}: expected SH001 fired={fires}"
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestShardLintCLI:
    def test_clean_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["shard", "lint", "--dataset", "arxiv",
                     "--model", "gcn", "--parts", "2"]) == 0
        out = capsys.readouterr().out
        assert "shardlint:arxiv:gcn:edge_cutx2" in out

    def test_device_mem_gate_exits_one(self, capsys):
        from repro.cli import main

        assert main(["shard", "lint", "--dataset", "arxiv",
                     "--parts", "2", "--device-mem", "2e6",
                     "--no-plans"]) == 1
        assert "SH001" in capsys.readouterr().out

    def test_sarif_export_carries_sh_rules(self, tmp_path, capsys):
        from repro.cli import main

        sarif = tmp_path / "shard.sarif"
        assert main(["shard", "lint", "--dataset", "arxiv",
                     "--parts", "2", "--device-mem", "2e6",
                     "--no-plans", "--sarif", str(sarif)]) == 1
        capsys.readouterr()
        log = json.loads(sarif.read_text())
        run = log["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "SH001" in rules
        assert all(r["level"] == "error" for r in run["results"])

    def test_json_stdout_is_one_document_with_oom_note(
        self, capsys, monkeypatch
    ):
        """A per-partition ``SimulatedOOM`` under ``--json``: the
        degradation note goes to stderr, stdout parses as JSON."""
        import repro.cli as cli
        from repro.frameworks.dgl_like import DGLLike
        from repro.gpusim import SimulatedOOM

        class _OOMOnCompile(DGLLike):
            def compile(self, model_name, graph, sim, **kwargs):
                raise SimulatedOOM(1 << 40, 0, sim.device_mem_bytes, "stub")

        monkeypatch.setattr(
            cli, "all_frameworks", lambda: {"dgl": _OOMOnCompile()}
        )
        cli.main(["shard", "lint", "--dataset", "arxiv", "--parts", "2",
                  "--json"])
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "note: per-partition compile raised SimulatedOOM" in \
            captured.err

    def test_run_degrades_simulated_oom(self, capsys, monkeypatch):
        """``shard run`` turns a per-partition ``SimulatedOOM`` into one
        line on stdout and exit code 1, with no traceback."""
        import repro.cli as cli
        from repro.frameworks.dgl_like import DGLLike
        from repro.gpusim import SimulatedOOM

        class _OOMOnCompile(DGLLike):
            def compile(self, model_name, graph, sim, **kwargs):
                raise SimulatedOOM(1 << 40, 0, sim.device_mem_bytes, "stub")

        monkeypatch.setattr(
            cli, "all_frameworks", lambda: {"dgl": _OOMOnCompile()}
        )
        assert cli.main(["shard", "run", "--dataset", "arxiv",
                         "--parts", "2"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("simulated OOM on 2 device(s): ")
        assert "stub" in lines[0]
        assert captured.err == ""

    def test_choose_recommends(self, capsys):
        from repro.cli import main

        assert main(["shard", "choose", "--dataset", "arxiv",
                     "--model", "gcn", "--parts", "1", "2"]) == 0
        assert "recommended:" in capsys.readouterr().out

    def test_partition_runs_symbolic_lint(self, capsys):
        from repro.cli import main

        assert main(["shard", "partition", "--dataset", "arxiv",
                     "--parts", "2"]) == 0
        assert "shardlint:" in capsys.readouterr().out

    def test_lint_fail_stale_gates(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            [{"code": "FP001", "where": "no-such-context*"}]
        ))
        argv = ["lint", "--model", "gcn", "--dataset", "arxiv",
                "--baseline", str(baseline)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--fail-stale"]) == 1
        assert "stale baseline" in capsys.readouterr().out
