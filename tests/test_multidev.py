"""Multi-device executor + generalized happens-before checker tests."""

import pytest

from repro.analysis.findings import CODES, ERROR, WARNING, explain_code
from repro.analysis.hb import check_happens_before_multidev
from repro.frameworks.dgl_like import DGLLike
from repro.frameworks.ours import OursRuntime
from repro.gpusim.config import V100_SCALED
from repro.gpusim.multidev import corrupt_stream_drop_exchange
from repro.graph.generators import power_law_graph
from repro.shard import LinkConfig, run_sharded

GRAPH = power_law_graph(1500, avg_degree=7, seed=11, name="md1500")
SIM = V100_SCALED


@pytest.fixture(scope="module")
def sharded2():
    return run_sharded(
        DGLLike(), "gcn", GRAPH, SIM, num_parts=2, method="edge_cut"
    )


class TestMultidevExecution:
    def test_report_carries_shard_breakdown(self, sharded2):
        sh = sharded2.report.extra["perf"]["shard"]
        assert sh["num_parts"] == 2
        assert sh["method"] == "edge_cut"
        assert len(sh["devices"]) == 2
        for d in sh["devices"]:
            assert d["compute_seconds"] > 0
            assert d["transfer_seconds"] > 0
            assert d["finish_seconds"] <= sh["wall_seconds"] + 1e-12
        cross = sh["cross_device"]
        assert cross["transfer_bytes"] > 0
        assert cross["num_transfers"] > 0
        assert 0 < cross["transfer_fraction"] < 1

    def test_wall_between_critical_path_and_serial(self, sharded2):
        sh = sharded2.report.extra["perf"]["shard"]
        longest = max(
            d["compute_seconds"] + d["transfer_seconds"]
            for d in sh["devices"]
        )
        assert longest <= sh["wall_seconds"] + 1e-12
        assert sh["wall_seconds"] <= sh["serial_seconds"] + 1e-12

    def test_streams_lint_clean(self, sharded2):
        assert sharded2.findings == []
        assert sharded2.errors == []

    def test_transfer_kernels_are_first_class(self, sharded2):
        transfers = [
            k for k in sharded2.report.kernels if k.tag == "transfer"
        ]
        # One halo exchange per device per aggregation round.
        rounds = len(sharded2.plans[0].layers)
        assert len(transfers) == 2 * rounds
        assert all(k.bytes_dram > 0 for k in transfers)

    def test_deterministic(self):
        a = run_sharded(DGLLike(), "gcn", GRAPH, SIM, num_parts=4,
                        method="vertex_cut")
        b = run_sharded(DGLLike(), "gcn", GRAPH, SIM, num_parts=4,
                        method="vertex_cut")
        wa = a.report.extra["perf"]["shard"]["wall_seconds"]
        wb = b.report.extra["perf"]["shard"]["wall_seconds"]
        assert wa == wb
        assert a.shard.fingerprint == b.shard.fingerprint

    def test_single_device_has_no_transfers(self):
        res = run_sharded(DGLLike(), "gcn", GRAPH, SIM, num_parts=1)
        assert not [
            k for k in res.report.kernels if k.tag == "transfer"
        ]
        sh = res.report.extra["perf"]["shard"]
        assert sh["cross_device"]["transfer_bytes"] == 0
        # One sequential stream: wall is the stream's total time.
        assert sh["wall_seconds"] == pytest.approx(
            res.report.total_time
        )

    def test_vertex_cut_reduces_at_owners(self):
        res = run_sharded(DGLLike(), "gcn", GRAPH, SIM, num_parts=4,
                          method="vertex_cut")
        names = [k.name for k in res.report.kernels]
        has_mirrors = any(
            p.mirrors.size for p in res.shard.parts
        )
        assert has_mirrors == any("mirror_reduce" in n for n in names)
        assert res.errors == []

    def test_slower_link_costs_wall_time(self):
        fast = run_sharded(
            DGLLike(), "gcn", GRAPH, SIM, num_parts=2,
            link=LinkConfig(bandwidth=100e9, latency=1e-6),
        )
        slow = run_sharded(
            DGLLike(), "gcn", GRAPH, SIM, num_parts=2,
            link=LinkConfig(bandwidth=1e9, latency=1e-3),
        )
        assert (slow.report.extra["perf"]["shard"]["wall_seconds"]
                > fast.report.extra["perf"]["shard"]["wall_seconds"])

    def test_gat_and_ours_framework(self):
        res = run_sharded(OursRuntime(), "gat", GRAPH, SIM,
                          num_parts=2)
        assert res.findings == []
        assert res.report.extra["perf"]["shard"]["wall_seconds"] > 0


class TestShardPlanKeys:
    def test_shard_options_blob_moves_plan_id_only_when_present(self):
        fw = DGLLike()
        from repro.shard.partition import partition_graph

        plan_default = fw.compile("gcn", GRAPH, SIM)
        plan_default2 = fw.compile("gcn", GRAPH, SIM)
        assert plan_default.plan_id == plan_default2.plan_id
        shard = partition_graph(GRAPH, 1, "edge_cut")
        sharded = fw.compile(
            "gcn", shard.parts[0].local_graph, SIM,
            shard_options=shard.options_blob(0),
        )
        # Same CSR bytes (P=1 is the identity), but the partitioning
        # blob gives the sharded compilation its own content address.
        assert sharded.plan_id != plan_default.plan_id


class TestCorruptedStreams:
    """The pinned machine-checkable races (acceptance criterion)."""

    def test_dropped_transfer_deps_is_hb004(self, sharded2):
        findings = check_happens_before_multidev(
            sharded2.streams.streams, {}
        )
        assert findings, "unordered exchange must be caught"
        assert {f.code for f in findings} == {"HB004"}
        assert all(f.severity == ERROR for f in findings)
        assert any("races its ghost delivery" in f.message
                   for f in findings)

    def test_dropped_exchange_kernel_is_caught(self, sharded2):
        bad = corrupt_stream_drop_exchange(sharded2.streams, 0, 0)
        findings = check_happens_before_multidev(
            bad.streams, bad.deps
        )
        ghost = [f for f in findings if "/ghost" in f.message]
        assert ghost, "aggregation reading an undelivered ghost buffer"
        assert all(f.code == "HB002" for f in ghost)

    def test_cyclic_deps_is_deadlock_hb004(self, sharded2):
        deps = dict(sharded2.streams.deps)
        last0 = len(sharded2.streams.streams[0]) - 1
        deps[(1, 0)] = [(0, last0)]
        findings = check_happens_before_multidev(
            sharded2.streams.streams, deps
        )
        assert any(
            f.code == "HB004" and "deadlock" in f.message
            for f in findings
        )

    def test_reordered_local_write_is_hb001(self):
        # Swap a producing compute kernel after its consumer inside one
        # device stream: the classic same-stream stale read.
        res = run_sharded(DGLLike(), "gcn", GRAPH, SIM, num_parts=2)
        streams = {d: list(s) for d, s in res.streams.streams.items()}
        s0 = streams[0]
        idx = next(
            i for i, k in enumerate(s0)
            if k.dataflow is not None and k.dataflow.writes
            and any(
                k.dataflow.writes[0] in (q.dataflow.reads if q.dataflow
                                         else ())
                for q in s0[i + 1:]
            )
        )
        consumer = next(
            j for j in range(idx + 1, len(s0))
            if s0[j].dataflow is not None
            and s0[idx].dataflow.writes[0] in s0[j].dataflow.reads
        )
        s0[idx], s0[consumer] = s0[consumer], s0[idx]
        findings = check_happens_before_multidev(streams, {})
        assert any(f.code == "HB001" for f in findings)


class TestShardPeakMemory:
    """Regression: aggregate peak must count staged transfer payloads.

    ``run_multidev`` used to report ``max(plan peaks)``, silently
    dropping the receive-side staging buffers of the halo exchange /
    mirror reduce payloads — a sharded run looked exactly as cheap as
    its largest partition even while arriving rounds held live bytes.
    """

    def test_peak_exceeds_plan_peaks_when_halo_present(self, sharded2):
        from repro.gpusim.multidev import shard_peak_mem_bytes

        plan_peak = max(p.peak_mem_bytes for p in sharded2.plans)
        peak = shard_peak_mem_bytes(sharded2.streams, sharded2.plans)
        assert any(p.halo.size for p in sharded2.shard.parts)
        assert peak > plan_peak
        assert sharded2.report.peak_mem_bytes == peak

    def test_staged_bytes_arithmetic_is_exact(self, sharded2):
        from repro.gpusim.multidev import shard_peak_mem_bytes

        ss = sharded2.streams
        by_round = {}
        for (d, _i), info in ss.transfers.items():
            key = (d, info.round_idx)
            by_round[key] = by_round.get(key, 0.0) + info.payload_bytes
        want = max(
            int(
                sharded2.plans[d].peak_mem_bytes
                + max(
                    (v for (dd, _r), v in by_round.items() if dd == d),
                    default=0.0,
                )
            )
            for d in ss.streams
        )
        assert shard_peak_mem_bytes(ss, sharded2.plans) == want

    def test_single_device_peak_is_plan_peak(self):
        res = run_sharded(DGLLike(), "gcn", GRAPH, SIM, num_parts=1)
        assert (res.report.peak_mem_bytes
                == res.plans[0].peak_mem_bytes)


class TestNewCodesRegistered:
    def test_hb004_hb005_in_catalogue(self):
        assert "HB004" in CODES and "HB005" in CODES
        assert CODES["HB004"].severity == ERROR
        assert CODES["HB005"].severity == WARNING
        for code in ("HB004", "HB005"):
            text = explain_code(code)
            assert text and code in text

    def test_no_new_lint_pass(self):
        # The cross-device checks ride the existing hb pass; the shard
        # checks added the two SH passes.  Pin the registry at nine.
        from repro.analysis.registry import pass_names

        assert set(pass_names()) == {
            "legality", "linearity", "atomics", "conservation",
            "hb", "footprint", "opportunity",
            "shardmem", "shardflow",
        }

