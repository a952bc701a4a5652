"""Tests for the staged compilation pipeline and CompiledPlan artifacts.

Covers the compile-once/run-many contract: plan round-trip determinism
(compile -> serialize -> load -> execute is byte-identical to the
in-memory plan), stage counters proving recompilation never happens for
a repeated (graph, model, config), the content-addressed disk cache
across *fresh processes*, pinned plan ids and the static-text memo
behind them, replay isolation of carried stats, the plan loader's
warnings, and the offline ``lint_plan`` path over saved artifacts.
"""

import dataclasses
import hashlib
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
from repro.bench import bench_config, sweep_config
from repro.core import (
    load_plan,
    plan_key,
    reset_stage_counts,
    save_plan,
    stage_counts,
)
from repro.core.plan import PLAN_VERSION, STAGE_NAMES
from repro.frameworks import all_frameworks
from repro.frameworks.base import NotSupported
from repro.frameworks.ours import OursOptions, OursRuntime
from repro.gpusim import V100_SCALED, simulate_kernel, simulate_kernels
from repro.gpusim.memo import KERNEL_MEMO, clear_caches
from repro.serve import InferenceRequest, PlanServer
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
    perf.configure(fastpath=True, memo=True)
    yield
    clear_caches()
    reset_stage_counts()
    perf.configure(fastpath=True, memo=True)


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
            model_config=GCNConfig(),
            options=fw.plan_options(),
            gpu_config=V100_SCALED,
            dispatch_overhead=fw.dispatch_overhead,
        )
        plan = fw.compile("gcn", g, V100_SCALED)
        assert plan.plan_id == key
        # Any compilation input shift moves the address.
        other = plan_key(
            fw.name, "gcn", g,
            model_config=GCNConfig(),
            options=fw.plan_options(),
            gpu_config=V100_SCALED.replace(device_mem_bytes=2 << 30),
            dispatch_overhead=fw.dispatch_overhead,
        )
        assert other != key


#: Shard blob of the pinned grid (the shape ``Shard.options_blob`` emits).
PINNED_SHARD = {
    "method": "metis", "parts": 2, "part": 1, "shard_fingerprint": "0123abcd",
}

#: (framework, model, config, shard) -> plan id on ``small_dataset()``.
#: The content address is an on-disk artifact name, so it must never move
#: silently: these ids were computed by the plain ``json.dumps`` payload.
PINNED_PLAN_IDS = {
    ("dgl", "gcn", "bench", "mono"):
        "3836589d1babc81990377c6709d10035",
    ("dgl", "gcn", "bench", "shard"):
        "f5603958e98d4114539f233e1e023496",
    ("dgl", "gcn", "sweep", "mono"):
        "075bf12875c0eadfd4ca5f8d688740a9",
    ("dgl", "gcn", "sweep", "shard"):
        "f7bd74c7031d25c5043aa660766fcef8",
    ("dgl", "gat", "bench", "mono"):
        "88d2301fecec592579397e4839343d1e",
    ("dgl", "gat", "bench", "shard"):
        "a8620c2a9455061d625b355625a19167",
    ("dgl", "gat", "sweep", "mono"):
        "fdae2c56c5dcd9e6a565e589bc207397",
    ("dgl", "gat", "sweep", "shard"):
        "8bfcc9e737324f3251fc8b442de922a2",
    ("dgl", "sage_lstm", "bench", "mono"):
        "530a76ebb7dac3af914b13364833fd8c",
    ("dgl", "sage_lstm", "bench", "shard"):
        "6a65e50bf2959c122f2cc418b396f95d",
    ("dgl", "sage_lstm", "sweep", "mono"):
        "06d3a1b562da51cb0cae7668e17927e0",
    ("dgl", "sage_lstm", "sweep", "shard"):
        "e9dfc04a18bc6c16eb919143f5c78d37",
    ("neugraph", "gcn", "bench", "mono"):
        "37e06cc01ebb243cd20e08115836bd36",
    ("neugraph", "gcn", "bench", "shard"):
        "c062c7b447c02596f34742c6770cfa3c",
    ("neugraph", "gcn", "sweep", "mono"):
        "237244ffbd46cbcf202ad6e45d9fdab8",
    ("neugraph", "gcn", "sweep", "shard"):
        "29df8d4f3c1500a0d4f2870521b2c3c9",
    ("neugraph", "gat", "bench", "mono"):
        "0d35e0be53e4b2ef68453a70fc3ecc1f",
    ("neugraph", "gat", "bench", "shard"):
        "48b24821e91ad7417e093ee14060981d",
    ("neugraph", "gat", "sweep", "mono"):
        "06577e876ad8122a8b601df30d6f35fb",
    ("neugraph", "gat", "sweep", "shard"):
        "92de0adc3cf75d85b0a6c45896ada7a1",
    ("neugraph", "sage_lstm", "bench", "mono"):
        "2061b2aad74d720450c9ffcdff989514",
    ("neugraph", "sage_lstm", "bench", "shard"):
        "0588abf27ddfa819829be906a1dc0609",
    ("neugraph", "sage_lstm", "sweep", "mono"):
        "ff32dc8154f25087b97c5d134b35692d",
    ("neugraph", "sage_lstm", "sweep", "shard"):
        "c7ef92e368cf95fd8590eae72fd88a13",
    ("ours", "gcn", "bench", "mono"):
        "bdfd5a3e1bdd672e3eac98d7d98bb8c8",
    ("ours", "gcn", "bench", "shard"):
        "19f4aa0f55a858df0512e45f665742c6",
    ("ours", "gcn", "sweep", "mono"):
        "977034413cc7f2b2c557a64969308aa0",
    ("ours", "gcn", "sweep", "shard"):
        "63b6542715ea10c5824ab2c18ff6fbac",
    ("ours", "gat", "bench", "mono"):
        "efdbeee6d66fa6d6c251787eab7654a2",
    ("ours", "gat", "bench", "shard"):
        "853f82bd882c9488cc867d30e2e55317",
    ("ours", "gat", "sweep", "mono"):
        "06a9178fcdca8ad4f4329388a13e1916",
    ("ours", "gat", "sweep", "shard"):
        "c6db33296619f9360202e1c2f602c46d",
    ("ours", "sage_lstm", "bench", "mono"):
        "80a9368310df66b1c9c343b64b947dd1",
    ("ours", "sage_lstm", "bench", "shard"):
        "1a3c0aecfe4e63f1506ad184e361b083",
    ("ours", "sage_lstm", "sweep", "mono"):
        "91951e2db2d13dac0831fe1f6f859f3e",
    ("ours", "sage_lstm", "sweep", "shard"):
        "2becfdfbed405c68090c72496946dca7",
    ("pyg", "gcn", "bench", "mono"):
        "a261aaa900c29dcd44429478fd8b7bb3",
    ("pyg", "gcn", "bench", "shard"):
        "19891958d05d6365258e092662524699",
    ("pyg", "gcn", "sweep", "mono"):
        "859adc771aff2139f8911ddd8d4f2c84",
    ("pyg", "gcn", "sweep", "shard"):
        "42b7d916dfcce26267423f14f0b24696",
    ("pyg", "gat", "bench", "mono"):
        "98fddb626404274e78fb9749827cfc37",
    ("pyg", "gat", "bench", "shard"):
        "ff033fc8cef4e7cbfe3caea6fa276af1",
    ("pyg", "gat", "sweep", "mono"):
        "f0e9810ada147a4ff8a9b4ccd582cdf7",
    ("pyg", "gat", "sweep", "shard"):
        "214ed92e7302f6d5a3da72f7950d2ece",
    ("pyg", "sage_lstm", "bench", "mono"):
        "6b28711944f67578064f619ac81c65cc",
    ("pyg", "sage_lstm", "bench", "shard"):
        "989ece420c9c85731248a28116dcfa20",
    ("pyg", "sage_lstm", "sweep", "mono"):
        "1c88a21a549827340a2dbffda43640f0",
    ("pyg", "sage_lstm", "sweep", "shard"):
        "7604f97c635c26eead9ff12ee04ea085",
    ("roc", "gcn", "bench", "mono"):
        "276e916551e528edc398071dc34b2b69",
    ("roc", "gcn", "bench", "shard"):
        "200795c41ecd73e9aabc1522de553e62",
    ("roc", "gcn", "sweep", "mono"):
        "8a7865b6c0ce64f6dd2970861226978f",
    ("roc", "gcn", "sweep", "shard"):
        "2ba13cca9b2b814b4d27ce5ef3471adf",
    ("roc", "gat", "bench", "mono"):
        "a5b09931965dc34f7825b5bf5bb2ff07",
    ("roc", "gat", "bench", "shard"):
        "1c4d7fbe2c8b0fcf3edd46f72762c2be",
    ("roc", "gat", "sweep", "mono"):
        "557a9b081c384ccf95b1370c4ef9bc19",
    ("roc", "gat", "sweep", "shard"):
        "abb8dc539e65c76099d023ac47f3279b",
    ("roc", "sage_lstm", "bench", "mono"):
        "324ca0bdfc3a592e0af0a09f0f108eb0",
    ("roc", "sage_lstm", "bench", "shard"):
        "21cb247180098a3ca193eb18dfe97700",
    ("roc", "sage_lstm", "sweep", "mono"):
        "5c986a5360b44d88e256fe921bab3bde",
    ("roc", "sage_lstm", "sweep", "shard"):
        "d16b537243831f127016bb5e13437545",
    ("ours-nondefault", "gcn", "bench", "mono"):
        "1ef79a29e3ba9e4cdb04472b099c3ab8",
    ("ours-nondefault", "gcn", "bench", "shard"):
        "d7d9e1a7279b6e95681b9fccaa4a7d35",
    ("ours-nondefault", "gcn", "sweep", "mono"):
        "addd2fe4b6dc22e6eb02d70bd6b08eff",
    ("ours-nondefault", "gcn", "sweep", "shard"):
        "59051262b7ebb5a6c813745b8d244903",
    ("ours-nondefault", "gat", "bench", "mono"):
        "60702f101adb06eb328798ced6d8b74f",
    ("ours-nondefault", "gat", "bench", "shard"):
        "610384f35e9ad64701d9edc4c291b157",
    ("ours-nondefault", "gat", "sweep", "mono"):
        "72fa2e2ac65f4ab5b75854415e164e1d",
    ("ours-nondefault", "gat", "sweep", "shard"):
        "87c3e9c68d17b898940e39159185b23c",
    ("ours-nondefault", "sage_lstm", "bench", "mono"):
        "35d2eb4a073a374e15543dd5b3f22c57",
    ("ours-nondefault", "sage_lstm", "bench", "shard"):
        "9036c720189b082b36975c1196842257",
    ("ours-nondefault", "sage_lstm", "sweep", "mono"):
        "2b8b48dc2cafb5fe332293565f9cc02a",
    ("ours-nondefault", "sage_lstm", "sweep", "shard"):
        "06b3b5f98405530c3f4fc36f1838510d",
}


def _pinned_frameworks():
    fws = dict(sorted(all_frameworks().items()))
    fws["ours-nondefault"] = OursRuntime(
        OursOptions(adapter=False, ng_bound=16, sparse_fetch=False)
    )
    return fws


class TestContentAddress:
    """Plan ids name on-disk artifacts: pinned over a small grid."""

    def test_pinned_plan_ids(self, g):
        configs = {"bench": bench_config(), "sweep": sweep_config()}
        shards = {"mono": None, "shard": PINNED_SHARD}
        got = {}
        for fname, fw in _pinned_frameworks().items():
            for model in ("gcn", "gat", "sage_lstm"):
                for cname, cfg in configs.items():
                    for sname, blob in shards.items():
                        got[fname, model, cname, sname], _ = (
                            fw.plan_signature(
                                model, g, cfg, shard_options=blob
                            )
                        )
        assert got == PINNED_PLAN_IDS


def _reference_key(framework, model, graph, *, model_config, options,
                   gpu_config, dispatch_overhead):
    """The plain content address: one ``json.dumps`` of every input."""
    payload = json.dumps(
        {
            "version": PLAN_VERSION,
            "framework": framework,
            "model": model,
            "graph": graph.fingerprint,
            "model_config": dataclasses.asdict(model_config),
            "options": options,
            "gpu_config": dataclasses.asdict(gpu_config),
            "dispatch_overhead": dispatch_overhead,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _shifted(value):
    """A different value of the same kind (a bool flips, ``None`` gets a
    bound)."""
    if value is None:
        return 16
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, tuple):
        return value[:-1] + (value[-1] + 1,)
    return value * 2 + 1


def _static_shifts():
    """(label, plan_key inputs) with exactly one static input shifted.

    Covers a new value for every input and every config field, and a
    new *type* for an equal value (``80`` vs ``80.0``, ``True`` vs
    ``1``): equal under ``==`` but a different payload.
    """
    fw = OursRuntime()
    base = {
        "framework": fw.name, "model": "gcn", "model_config": GCNConfig(),
        "options": fw.plan_options(), "gpu_config": V100_SCALED,
        "dispatch_overhead": fw.dispatch_overhead,
    }
    shifts = [
        ("framework", dict(base, framework="dgl")),
        ("model", dict(base, model="gat")),
        ("dispatch_overhead",
         dict(base, dispatch_overhead=base["dispatch_overhead"] * 2)),
        ("dims-type", dict(base, model_config=GCNConfig(
            dims=(512.0,) + GCNConfig().dims[1:]))),
        ("num_sms-type", dict(base, gpu_config=V100_SCALED.replace(
            num_sms=float(V100_SCALED.num_sms)))),
        ("adapter-type", dict(base, options={**base["options"],
                                             "adapter": 1})),
        ("shard", dict(base, options={**base["options"],
                                      "shard": PINNED_SHARD})),
        ("shard-part", dict(base, options={
            **base["options"], "shard": dict(PINNED_SHARD, part=0)})),
    ]
    for f in dataclasses.fields(GCNConfig):
        value = _shifted(getattr(GCNConfig(), f.name))
        shifts.append((f"model_config.{f.name}", dict(
            base, model_config=GCNConfig(**{f.name: value}))))
    for f in dataclasses.fields(V100_SCALED):
        value = _shifted(getattr(V100_SCALED, f.name))
        shifts.append((f"gpu_config.{f.name}", dict(
            base, gpu_config=V100_SCALED.replace(**{f.name: value}))))
    for name, value in base["options"].items():
        shifts.append((f"options.{name}", dict(
            base, options={**base["options"], name: _shifted(value)})))
    return base, shifts


class TestAddressMemo:
    """The static part of the address is encoded once per distinct
    inputs; no input shift may ever get a stale address."""

    def test_every_static_shift_moves_the_key(self, g):
        base, shifts = _static_shifts()
        base_key = plan_key(graph=g, **base)
        assert base_key == _reference_key(graph=g, **base)
        seen = {base_key}
        for label, inputs in shifts:
            key = plan_key(graph=g, **inputs)
            assert key == _reference_key(graph=g, **inputs), label
            assert key not in seen, label
            seen.add(key)
            # Warm, and after the base input set ran again.
            assert plan_key(graph=g, **base) == base_key, label
            assert plan_key(graph=g, **inputs) == key, label

    def test_mutated_options_dict_gets_a_fresh_key(self, g):
        _, shifts = _static_shifts()
        inputs = dict(shifts[0][1])
        options = inputs["options"] = dict(inputs["options"])
        before = plan_key(graph=g, **inputs)
        options["tuned"] = not options["tuned"]
        after = plan_key(graph=g, **inputs)
        assert after != before
        assert after == _reference_key(graph=g, **inputs)

    def test_reassigned_runtime_options_move_the_key(self, g):
        fw = OursRuntime()
        before, _ = fw.plan_signature("gcn", g, V100_SCALED)
        fw.options = OursOptions(adapter=False)
        after, _ = fw.plan_signature("gcn", g, V100_SCALED)
        assert after != before
        assert after == OursRuntime(OursOptions(adapter=False)) \
            .plan_signature("gcn", g, V100_SCALED)[0]
        assert fw.compile("gcn", g, V100_SCALED).plan_id == after

    def test_runtimes_with_different_options_never_share_a_batch(self, g):
        fws = {"plain": OursRuntime(),
               "unfused": OursRuntime(OursOptions(adapter=False))}
        server = PlanServer(frameworks=fws, sim=V100_SCALED)
        responses = server.serve([
            InferenceRequest("gcn", g, framework=name)
            for name in ("plain", "unfused", "plain", "unfused")
        ])
        assert all(r.ok for r in responses)
        assert server.stats()["batches"] == 2
        ids = [r.plan_id for r in responses]
        assert ids[0] == ids[2] != ids[1] == ids[3]
        assert [r.batch_id for r in responses] == [0, 1, 0, 1]


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


class TestPlanCarriedStats:
    """A plan replays only the stats of its own first simulation."""

    def test_replays_own_stats(self, g):
        fw = OursRuntime()
        plan = fw.compile("gcn", g, V100_SCALED)
        first = fw.execute(plan, V100_SCALED).report
        assert first.extra["perf"]["plan_memo_hit"] is False
        assert plan.simulated == tuple(first.kernels)
        again = fw.execute(plan).report
        assert again.extra["perf"]["plan_memo_hit"] is True
        assert again.kernels == first.kernels

    def test_derived_plan_simulates_its_own_kernels(self, g):
        fw = OursRuntime()
        plan = fw.compile("gcn", g, V100_SCALED)
        fw.execute(plan, V100_SCALED)
        derived = dataclasses.replace(plan, kernels=plan.kernels[1:])
        assert derived.plan_id == plan.plan_id
        got = fw.execute(derived, V100_SCALED).report
        want = simulate_kernels(
            derived.kernels, V100_SCALED,
            dispatch_overhead=derived.dispatch_overhead,
        )
        assert got.kernels == want.kernels
        assert got.extra["perf"]["plan_memo_hit"] is False
        assert derived.simulated == tuple(got.kernels)

    def test_other_config_is_not_replayed_or_stored(self, g):
        fw = OursRuntime()
        plan = fw.compile("gcn", g, V100_SCALED)
        own = fw.execute(plan).report
        other = V100_SCALED.replace(num_sms=8)
        got = fw.execute(plan, other).report
        assert got.extra["perf"]["plan_memo_hit"] is False
        assert got.kernels == simulate_kernels(
            plan.kernels, other, dispatch_overhead=plan.dispatch_overhead
        ).kernels
        assert plan.simulated == tuple(own.kernels)

    def test_stats_stay_off_the_artifact_and_report(self, g, tmp_path):
        fw = OursRuntime()
        plan = fw.compile("gcn", g, V100_SCALED)
        report = fw.execute(plan).report
        assert plan.simulated is not None
        path = str(tmp_path / f"plan_{plan.plan_id}.npz")
        save_plan(path, plan)
        assert load_plan(path, expect_id=plan.plan_id).simulated is None
        assert "simulated" not in report.extra
        assert all(v is not plan.simulated for v in report.extra.values())


def _scribble(stats):
    """Mutate every field of a stat: ``occupancy`` in place, then each
    field rebound."""
    stats.occupancy.clear()
    stats.occupancy[1.0] = -1.0
    for f in dataclasses.fields(stats):
        setattr(stats, f.name, None)


def _memo_snapshot():
    return {
        key: dataclasses.asdict(entry[0])
        for key, entry in KERNEL_MEMO._data.items()
    }


class TestReplayIsolation:
    """Replayed, fanned-out and memo-hit stats equal their source field by
    field, and no mutation of them reaches the source."""

    def test_replayed_and_fanned_out_stats_are_copies(self, g):
        fw = OursRuntime()
        server = PlanServer(frameworks={"ours": fw}, sim=V100_SCALED)
        # The first window simulates the plan and stores its stats; the
        # second replays them to the leader and fans out to the follower.
        server.serve([InferenceRequest("gcn", g, framework="ours")])
        plan = fw.compile("gcn", g, V100_SCALED)
        carried = [dataclasses.asdict(s) for s in plan.simulated]
        memo = _memo_snapshot()
        leader, follower = server.serve([
            InferenceRequest("gcn", g, framework="ours", tenant=t)
            for t in ("a", "b")
        ])
        assert leader.batch_leader and not follower.batch_leader
        for resp in (leader, follower):
            kernels = resp.result.report.kernels
            assert [dataclasses.asdict(s) for s in kernels] == carried
            for stats, source in zip(kernels, plan.simulated):
                assert stats is not source
                assert stats.occupancy is not source.occupancy
        for resp in (leader, follower):
            for stats in resp.result.report.kernels:
                _scribble(stats)
        assert [dataclasses.asdict(s) for s in plan.simulated] == carried
        again = fw.execute(plan).report
        assert again.extra["perf"]["plan_memo_hit"] is True
        assert [dataclasses.asdict(s) for s in again.kernels] == carried
        assert _memo_snapshot() == memo

    def test_kernel_memo_hit_is_a_copy(self, g):
        plan = OursRuntime().compile("gcn", g, V100_SCALED)
        for kernel in plan.kernels:
            simulate_kernel(kernel, V100_SCALED, plan.dispatch_overhead)
        memo = _memo_snapshot()
        for kernel in plan.kernels:
            hit = simulate_kernel(kernel, V100_SCALED, plan.dispatch_overhead)
            want = simulate_kernels(
                [kernel], V100_SCALED,
                dispatch_overhead=plan.dispatch_overhead,
            ).kernels[0]
            assert dataclasses.asdict(hit) == dataclasses.asdict(want)
            assert hit.name == kernel.name
            _scribble(hit)
        assert _memo_snapshot() == memo


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
