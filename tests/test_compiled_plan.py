"""Tests for the staged compilation pipeline and CompiledPlan artifacts.

Covers the compile-once/run-many contract: plan round-trip determinism
(compile -> serialize -> load -> execute is byte-identical to the
in-memory plan), stage counters proving recompilation never happens for
a repeated (graph, model, config), the content-addressed disk cache
across *fresh processes*, the plan loader's warnings, and the
offline ``lint_plan`` path over saved artifacts.
"""

import dataclasses
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import perf
from repro.analysis import FUSION_CONFIGS, lint_plan
from repro.analysis.driver import _select_fusions, lint_chain
from repro.core import (
    load_plan,
    plan_key,
    reset_stage_counts,
    save_plan,
    stage_counts,
)
from repro.core.plan import STAGE_NAMES
from repro.frameworks import all_frameworks
from repro.frameworks.base import NotSupported
from repro.frameworks.ours import OursOptions, OursRuntime
from repro.gpusim import V100_SCALED
from repro.gpusim.memo import clear_caches
from repro.graph import power_law_graph, small_dataset
from repro.models import GCNConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The tier-1 matrix: every framework x model pair that compiles, plus
#: every shipped fusion config for the tunable runtime.
FUSION_OPTIONS = {
    name: OursOptions(adapter=adapter, linear_property=linear)
    for name, adapter, linear in FUSION_CONFIGS
}


@pytest.fixture(autouse=True)
def _clean_state():
    """Cold caches and zeroed stage counters around every test."""
    clear_caches()
    reset_stage_counts()
    perf.configure(fastpath="env", memo="env")
    yield
    clear_caches()
    reset_stage_counts()
    perf.configure(fastpath="env", memo="env")


@pytest.fixture(scope="module")
def g():
    return small_dataset()


def _assert_same_value(a, b, where):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert a is not None and b is not None, where
        assert a.dtype == b.dtype, where
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


def assert_plans_identical(a, b):
    """Field-by-field byte identity of two CompiledPlans."""
    for f in ("plan_id", "version", "framework", "model", "graph_name",
              "graph_fingerprint", "dispatch_overhead", "label",
              "peak_mem_bytes"):
        _assert_same_value(getattr(a, f), getattr(b, f), f)
    for f in ("model_config", "options"):
        # JSON canonical form: tuples legitimately round-trip as lists.
        assert json.dumps(getattr(a, f), sort_keys=True, default=list) \
            == json.dumps(getattr(b, f), sort_keys=True, default=list), f
    assert dataclasses.asdict(a.gpu_config) == dataclasses.asdict(
        b.gpu_config
    )
    assert len(a.kernels) == len(b.kernels)
    for i, (ka, kb) in enumerate(zip(a.kernels, b.kernels)):
        for f in dataclasses.fields(ka):
            if ka.row_ptr is None and f.name in ("row_ptr", "row_ids"):
                assert getattr(kb, f.name) is None
                continue
            _assert_same_value(
                getattr(ka, f.name), getattr(kb, f.name),
                f"kernel {i} ({ka.name}).{f.name}",
            )
    assert len(a.layers) == len(b.layers)
    for j, (la, lb) in enumerate(zip(a.layers, b.layers)):
        for f in dataclasses.fields(la):
            va, vb = getattr(la, f.name), getattr(lb, f.name)
            if va is None:
                assert vb is None, f"layer {j}.{f.name}"
            else:
                _assert_same_value(va, vb, f"layer {j}.{f.name}")


def _supported_cases():
    cases = []
    for fw_name, fw in sorted(all_frameworks().items()):
        for model in ("gcn", "gat", "sage_lstm"):
            try:
                getattr(fw, f"compile_{model}")
                cases.append((fw_name, model))
            except AttributeError:  # pragma: no cover
                pass
    return cases


class TestRoundTrip:
    """compile -> save -> load -> execute == in-memory plan, for every
    framework x model in the matrix and every shipped fusion config."""

    @pytest.mark.parametrize("fw_name,model", _supported_cases())
    def test_framework_model_matrix(self, fw_name, model, g, tmp_path):
        perf.configure(memo=False)  # force both executions to simulate
        fw = all_frameworks()[fw_name]
        try:
            plan = fw.compile(model, g, V100_SCALED)
        except NotSupported:
            pytest.skip(f"{fw_name} does not lower {model}")
        self._roundtrip(fw, plan, tmp_path)

    @pytest.mark.parametrize("fusion", sorted(FUSION_OPTIONS))
    @pytest.mark.parametrize("model", ["gcn", "gat"])
    def test_fusion_configs(self, fusion, model, g, tmp_path):
        perf.configure(memo=False)
        fw = OursRuntime(FUSION_OPTIONS[fusion])
        plan = fw.compile(model, g, V100_SCALED)
        self._roundtrip(fw, plan, tmp_path)

    @staticmethod
    def _roundtrip(fw, plan, tmp_path):
        path = str(tmp_path / f"plan_{plan.plan_id}.npz")
        save_plan(path, plan)
        loaded = load_plan(path, expect_id=plan.plan_id)
        assert loaded is not None
        assert_plans_identical(plan, loaded)
        mem = fw.execute(plan, V100_SCALED).report
        disk = fw.execute(loaded, V100_SCALED).report
        assert [k.name for k in disk.kernels] == [
            k.name for k in mem.kernels
        ]
        assert disk.kernels == mem.kernels
        assert disk.peak_mem_bytes == mem.peak_mem_bytes
        assert disk.total_time == mem.total_time

    def test_plan_key_is_content_addressed(self, g):
        fw = OursRuntime()
        key = plan_key(
            fw.name, "gcn", g,
            model_config=dataclasses.asdict(GCNConfig()),
            options=fw.plan_options(),
            gpu_config=V100_SCALED,
            dispatch_overhead=fw.dispatch_overhead,
        )
        plan = fw.compile("gcn", g, V100_SCALED)
        assert plan.plan_id == key
        # Any compilation input shift moves the address.
        other = plan_key(
            fw.name, "gcn", g,
            model_config=dataclasses.asdict(GCNConfig()),
            options=fw.plan_options(),
            gpu_config=V100_SCALED.replace(device_mem_bytes=2 << 30),
            dispatch_overhead=fw.dispatch_overhead,
        )
        assert other != key


class TestCompileOnce:
    """The same (graph, model, config) runs the staged pipeline once."""

    def test_stage_counters_frozen_on_second_run(self, g):
        perf.configure(memo=True)
        fw = OursRuntime()
        first = fw.run_gcn(g, GCNConfig(), V100_SCALED)
        counts = stage_counts()
        assert set(counts) <= set(STAGE_NAMES)
        assert counts.get("lower", 0) > 0 and counts.get("tune", 0) > 0
        assert first.report.extra["perf"]["plan"]["cache_hit"] is False
        second = fw.run_gcn(g, GCNConfig(), V100_SCALED)
        assert stage_counts() == counts  # zero new stage executions
        assert second.report.extra["perf"]["plan"]["cache_hit"] is True
        assert (
            second.report.extra["perf"]["plan"]["plan_id"]
            == first.report.extra["perf"]["plan"]["plan_id"]
        )

    def test_cache_shared_across_runtime_instances(self, g):
        perf.configure(memo=True)
        OursRuntime().run_gcn(g, GCNConfig(), V100_SCALED)
        counts = stage_counts()
        res = OursRuntime().run_gcn(g, GCNConfig(), V100_SCALED)
        assert stage_counts() == counts
        assert res.report.extra["perf"]["plan"]["cache_hit"] is True

    def test_different_options_compile_separately(self, g):
        perf.configure(memo=True)
        OursRuntime(FUSION_OPTIONS["linear"]).run_gcn(
            g, GCNConfig(), V100_SCALED
        )
        counts = stage_counts()
        res = OursRuntime(FUSION_OPTIONS["unfused"]).run_gcn(
            g, GCNConfig(), V100_SCALED
        )
        assert res.report.extra["perf"]["plan"]["cache_hit"] is False
        assert stage_counts() != counts

    def test_memo_disabled_recompiles(self, g):
        perf.configure(memo=False)
        fw = OursRuntime()
        fw.run_gcn(g, GCNConfig(), V100_SCALED)
        counts = stage_counts()
        fw.run_gcn(g, GCNConfig(), V100_SCALED)
        assert stage_counts() != counts


_DISK_WORKER = """
import json
from repro.core.pipeline import stage_counts
from repro.frameworks.ours import OursRuntime
from repro.gpusim import V100_SCALED
from repro.graph import small_dataset
from repro.models import GCNConfig
from repro.perf import PERF

res = OursRuntime().run_gcn(small_dataset(), GCNConfig(), V100_SCALED)
print(json.dumps({
    "plan_id": res.report.extra["perf"]["plan"]["plan_id"],
    "stages": sum(stage_counts().values(), 0),
    "disk_hits": PERF.counts.get("plan_cache_disk_hit", 0),
    "time_ms": res.report.total_time_ms,
}))
"""


class TestDiskCacheAcrossProcesses:
    """A fresh process loads the identical plan from the disk tier and
    runs zero pipeline stages (acceptance criterion)."""

    def _spawn(self, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.path.join(REPO_ROOT, "src"),
                        env.get("PYTHONPATH")] if p
        )
        env["REPRO_PLAN_CACHE_DIR"] = cache_dir
        env["REPRO_KERNEL_MEMO"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", _DISK_WORKER],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_second_process_loads_identical_plan(self, tmp_path):
        cache_dir = str(tmp_path / "plans")
        first = self._spawn(cache_dir)
        assert first["stages"] > 0
        assert first["disk_hits"] == 0
        files = os.listdir(cache_dir)
        assert files == [f"plan_{first['plan_id']}.npz"]
        second = self._spawn(cache_dir)
        assert second["plan_id"] == first["plan_id"]
        assert second["stages"] == 0  # compiled exactly once, ever
        assert second["disk_hits"] == 1
        assert second["time_ms"] == first["time_ms"]


class TestLoaderWarnings:
    """Invalid plan artifacts warn with path + mismatch instead of
    silently returning None (the loader's contract)."""

    @pytest.fixture(autouse=True)
    def _capture(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.core.persistence")
        self.caplog = caplog

    def test_corrupt_plan_warns(self, tmp_path):
        path = str(tmp_path / "plan.npz")
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        assert load_plan(path) is None
        assert "corrupt plan artifact" in self.caplog.text

    def test_mismatched_plan_id_warns(self, g, tmp_path):
        perf.configure(memo=False)
        plan = OursRuntime().compile("gcn", g, V100_SCALED)
        path = str(tmp_path / "plan.npz")
        save_plan(path, plan)
        assert load_plan(path, expect_id="0" * 32) is None
        assert "mismatched plan artifact" in self.caplog.text
        assert plan.plan_id in self.caplog.text


class TestLintFilters:
    def test_select_all_by_default(self):
        assert _select_fusions(None) == FUSION_CONFIGS

    def test_select_subset(self):
        sel = _select_fusions(["linear"])
        assert [name for name, _, _ in sel] == ["linear"]

    def test_unknown_fusion_raises(self):
        with pytest.raises(KeyError, match="bogus"):
            _select_fusions(["bogus"])

    def test_lint_chain_fusion_filter(self, g):
        full = lint_chain("gcn", g, feats=(32,))
        narrow = lint_chain("gcn", g, feats=(32,), fusions=("unfused",))
        assert narrow.ok
        assert narrow.checked < full.checked


class TestLintPlan:
    def test_compiled_plan_passes(self, g):
        perf.configure(memo=False)
        plan = OursRuntime().compile("gat", g, V100_SCALED)
        report = lint_plan(plan, graph=g)
        assert report.ok, report.format()
        assert report.checked > 0

    def test_survives_serialization(self, g, tmp_path):
        perf.configure(memo=False)
        plan = OursRuntime().compile("gcn", g, V100_SCALED)
        path = str(tmp_path / "plan.npz")
        save_plan(path, plan)
        live = lint_plan(plan, graph=g)
        offline = lint_plan(load_plan(path), graph=g)
        assert offline.checked == live.checked
        assert offline.ok == live.ok

    def test_wrong_graph_is_error(self, g):
        perf.configure(memo=False)
        plan = OursRuntime().compile("gcn", g, V100_SCALED)
        other = power_law_graph(512, 8.0, seed=123)
        report = lint_plan(plan, graph=other)
        assert not report.ok
        assert any("fingerprint" in f.message for f in report.findings)

    def test_unshipped_graph_needs_explicit_graph(self, g):
        perf.configure(memo=False)
        plan = OursRuntime().compile("gcn", g, V100_SCALED)
        report = lint_plan(plan)  # small_dataset isn't a shipped name
        assert not report.ok
        assert any(
            "not a shipped dataset" in f.message for f in report.findings
        )


class TestPlanShowCLI:
    def _saved(self, g, tmp_path):
        perf.configure(memo=False)
        plan = OursRuntime().compile("gcn", g, V100_SCALED)
        path = str(tmp_path / f"plan_{plan.plan_id}.npz")
        save_plan(path, plan)
        return plan, path

    def test_show_prints_schema_summary(self, g, tmp_path, capsys):
        from repro.cli import main

        plan, path = self._saved(g, tmp_path)
        assert main(["plan", "show", path]) == 0
        out = capsys.readouterr().out
        assert f"plan {plan.plan_id}" in out
        assert "framework=ours model=gcn" in out
        assert f"kernels={plan.num_kernels}" in out
        # Every chain layer's fusion summary is part of the schema.
        for rec in plan.layers:
            assert f"layer {rec.label}:" in out

    def test_show_dir_globs_artifacts(self, g, tmp_path, capsys):
        from repro.cli import main

        self._saved(g, tmp_path)
        assert main(["plan", "show", "--dir", str(tmp_path)]) == 0
        assert "framework=ours" in capsys.readouterr().out

    def test_show_unreadable_artifact_exits_nonzero(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        bogus = tmp_path / "plan_bogus.npz"
        bogus.write_bytes(b"not an npz")
        assert main(["plan", "show", str(bogus)]) == 1
        assert "unreadable" in capsys.readouterr().out

    def test_show_without_paths_exits_with_usage_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no plan artifacts"):
            main(["plan", "show"])
