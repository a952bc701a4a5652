"""Tests for the benchmark harness utilities."""

import pytest

from repro.bench import (
    bench_config,
    cached_runtime,
    format_table,
    sweep_config,
    write_result,
)
from repro.bench.paper_expected import (
    DATASET_ORDER,
    FIG7_GAT_MS,
    FIG7_GCN_MS,
    TABLE6,
)
from repro.core import shared_schedule
from repro.frameworks import OursOptions
from repro.gpusim import clear_caches
from repro.graph import DATASET_NAMES, small_dataset


class TestConfigs:
    def test_bench_config_is_scaled(self):
        cfg = bench_config()
        assert cfg.l2_bytes < 1024 * 1024  # scaled L2

    def test_sweep_config_faster(self):
        assert sweep_config().cache_trace_limit < (
            bench_config().cache_trace_limit
        )


class TestCaches:
    def test_schedule_cached(self):
        g = small_dataset()
        a = shared_schedule(g)
        b = shared_schedule(g)
        assert a is b

    def test_clear_caches_drops_shared_schedule(self):
        g = small_dataset()
        a = shared_schedule(g)
        clear_caches()
        b = shared_schedule(g)
        assert b is not a
        assert (b.order == a.order).all()

    def test_runtime_cached_per_options(self):
        a = cached_runtime()
        b = cached_runtime()
        assert a is b
        c = cached_runtime(OursOptions(neighbor_grouping=False))
        assert c is not a

    def test_runtime_uses_shared_schedule(self):
        g = small_dataset()
        sched = shared_schedule(g)
        rt = cached_runtime()
        order = rt.center_order(g)
        assert (order == sched.order).all()


class TestFormatting:
    def test_format_table_shapes(self):
        text = format_table("T", ["a", "b"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "OOM" in lines[-1]
        assert "2.500" in lines[3]

    def test_write_result_persists(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.harness.RESULTS_DIR", str(tmp_path)
        )
        out = write_result("unit_test", "hello")
        assert out == "hello"
        assert (tmp_path / "unit_test.txt").read_text() == "hello\n"


class TestPaperExpected:
    def test_dataset_order_matches_registry(self):
        assert DATASET_ORDER == DATASET_NAMES

    def test_fig7_rows_cover_all_datasets(self):
        for table in (FIG7_GCN_MS, FIG7_GAT_MS):
            for row in table.values():
                assert set(row) == set(DATASET_NAMES)

    def test_table6_paper_averages(self):
        # Sanity of the transcription: the paper's stated averages.
        avg = {
            k: sum(TABLE6[n][k] for n in TABLE6) / len(TABLE6)
            for k in ("adp", "adp_ng", "adp_ng_las")
        }
        assert avg["adp"] == pytest.approx(1.27, abs=0.02)
        assert avg["adp_ng"] == pytest.approx(2.89, abs=0.02)
        assert avg["adp_ng_las"] == pytest.approx(3.52, abs=0.02)

    def test_paper_oom_cells(self):
        assert FIG7_GCN_MS["pyg"]["protein"] is None
        assert FIG7_GCN_MS["roc"]["citation"] is None
        assert FIG7_GAT_MS["pyg"]["ppa"] is None
