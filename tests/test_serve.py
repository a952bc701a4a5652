"""Tests for the batched, multi-tenant serving layer (``repro.serve``).

The central contract: a request served through :class:`PlanServer` —
admission, compatibility batching, pooled execution, fan-out — returns
*bit-identical* simulated results to the same request run alone through
``execute_one`` (which is what every ``run_*`` entry point calls).
Covered here across the framework x model x fusion matrix, plus the
bounded plan-cache tiers, admission reason codes, per-batch failure
isolation, batching compatibility, the fresh-process disk-tier warm
start, and the ``repro serve replay`` CLI.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import perf
from repro.core import reset_stage_counts, stage_counts
from repro.core.plan import PLAN_CACHE, PlanCache, plan_nbytes
from repro.frameworks import all_frameworks
from repro.frameworks.dgl_like import DGLLike
from repro.frameworks.ours import OursOptions, OursRuntime
from repro.gpusim import V100_SCALED, SimulatedOOM
from repro.gpusim.memo import LRUCache, clear_caches
from repro.graph import khop_sampled_subgraph, small_dataset
from repro.models import GATConfig, GCNConfig
from repro.perf import PERF
from repro.serve import (
    REASON_BAD_MODEL_CONFIG,
    REASON_GRAPH_TOO_LARGE,
    REASON_NOT_SUPPORTED,
    REASON_SIMULATED_OOM,
    REASON_TENANT_QUOTA,
    REASON_UNKNOWN_FRAMEWORK,
    REASON_UNKNOWN_MODEL,
    AdmissionPolicy,
    InferenceRequest,
    PlanServer,
    execute_one,
    plan_batches,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _clean_state():
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


@pytest.fixture(scope="module")
def g2():
    return small_dataset(seed=11)


def _stats_tuple(stats):
    d = dataclasses.asdict(stats)
    d["occupancy"] = sorted(d["occupancy"].items())
    return d


def assert_results_identical(a, b):
    """Bit-identity over the simulated contract: kernels, memory, output."""
    assert a.report.num_kernels == b.report.num_kernels
    assert a.report.peak_mem_bytes == b.report.peak_mem_bytes
    assert a.time_ms == b.time_ms
    for sa, sb in zip(a.report.kernels, b.report.kernels):
        assert _stats_tuple(sa) == _stats_tuple(sb)
    if a.output is None or b.output is None:
        assert a.output is None and b.output is None
    else:
        assert a.output.dtype == b.output.dtype
        assert a.output.tobytes() == b.output.tobytes()


# ----------------------------------------------------------------------
# Tentpole contract: batched == sequential, bit for bit
# ----------------------------------------------------------------------

def _serve_cases():
    cases = []
    for fw_name, fw in sorted(all_frameworks().items()):
        for model in ("gcn", "gat", "sage_lstm"):
            cases.append((fw_name, model))
    return cases


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("fw_name,model", _serve_cases())
    def test_batch_equals_sequential(self, g, fw_name, model):
        """Three tenants sharing one plan: every fanned-out response is
        bit-identical to a standalone ``execute_one`` of that request."""
        from repro.frameworks.base import NotSupported

        frameworks = all_frameworks()
        try:
            sequential = execute_one(
                frameworks[fw_name], model, g, V100_SCALED
            )
        except NotSupported:
            pytest.skip(f"{fw_name} does not support {model}")
        clear_caches()
        server = PlanServer(frameworks=frameworks, sim=V100_SCALED)
        responses = server.serve([
            InferenceRequest(model, g, framework=fw_name, tenant=t)
            for t in ("a", "b", "c")
        ])
        assert [r.status for r in responses] == ["ok"] * 3
        assert {r.batch_size for r in responses} == {3}
        assert sum(r.batch_leader for r in responses) == 1
        for resp in responses:
            assert_results_identical(resp.result, sequential)

    @pytest.mark.parametrize(
        "options",
        [OursOptions(), OursOptions(adapter=True),
         OursOptions(adapter=True, linear_property=True)],
        ids=["unfused", "adapter", "linear"],
    )
    def test_fusion_variants_batch_independently(self, g, options):
        """Different fusion configs are different plans: they must never
        share a batch, and each member still matches its own sequential
        run bit for bit."""
        fws = {"tuned": OursRuntime(options), "plain": OursRuntime()}
        seq = {
            name: execute_one(fw, "gcn", g, V100_SCALED)
            for name, fw in fws.items()
        }
        clear_caches()
        server = PlanServer(frameworks=fws, sim=V100_SCALED)
        responses = server.serve([
            InferenceRequest("gcn", g, framework=name, tenant=name)
            for name in ("tuned", "plain", "tuned")
        ])
        for resp in responses:
            assert resp.ok
            assert_results_identical(
                resp.result, seq[resp.request.framework_name()]
            )

    def test_compute_outputs_fan_out(self, g):
        """``compute=True`` followers get their own functional forward
        pass — byte-equal to sequential because the math is seeded by
        the request, not by batch position."""
        frameworks = all_frameworks()
        sequential = execute_one(
            frameworks["dgl"], "gcn", g, V100_SCALED,
            compute=True, seed=3,
        )
        assert sequential.output is not None
        clear_caches()
        server = PlanServer(frameworks=frameworks, sim=V100_SCALED)
        responses = server.serve([
            InferenceRequest("gcn", g, framework="dgl", tenant=t,
                             compute=True, seed=3)
            for t in ("a", "b")
        ])
        for resp in responses:
            assert_results_identical(resp.result, sequential)

    def test_sampled_subgraph_trace_identity(self, g):
        """The serving traffic shape: distinct sampled subgraphs batch
        by shape, and the whole mixed window replays sequentially to the
        same numbers."""
        rng = np.random.default_rng(0)
        subs = [
            khop_sampled_subgraph(
                g, rng.choice(g.num_nodes, size=16, replace=False),
                (4, 4), seed=i,
            ).graph
            for i in range(2)
        ]
        frameworks = all_frameworks()
        requests = [
            InferenceRequest("gcn", subs[i % 2],
                             framework=("dgl", "pyg")[(i // 2) % 2],
                             tenant=f"t{i % 3}")
            for i in range(12)
        ]
        sequential = [
            execute_one(
                frameworks[r.framework_name()], r.model, r.graph,
                V100_SCALED,
            )
            for r in requests
        ]
        clear_caches()
        server = PlanServer(frameworks=frameworks, sim=V100_SCALED)
        responses = server.serve(requests)
        assert all(r.ok for r in responses)
        # 2 shapes x 2 frameworks -> 4 batches for 12 requests.
        assert server.stats()["batches"] == 4
        for resp, seq in zip(responses, sequential):
            assert_results_identical(resp.result, seq)


# ----------------------------------------------------------------------
# Per-batch failure isolation
# ----------------------------------------------------------------------

class _OOMOnGCN(DGLLike):
    """A strategy whose GCN plan never fits the simulated device."""

    name = "oom-dgl"

    def compile_gcn(self, graph, model, sim):
        raise SimulatedOOM(1 << 40, 0, sim.device_mem_bytes, "stub")


class TestFailureIsolation:
    """A batch that cannot compile fails alone: its members get a
    ``failed`` response with a reason code, every other batch of the
    window is served exactly as its sequential run."""

    def _check_mixed_window(self, g, frameworks, requests, bad, reason):
        sequential = {
            r.request_id: execute_one(
                frameworks[r.framework_name()], r.model, r.graph,
                V100_SCALED,
            )
            for r in requests if r.request_id not in bad
        }
        clear_caches()
        failed_before = PERF.counts.get("serve_failed", 0)
        server = PlanServer(frameworks=frameworks, sim=V100_SCALED)
        responses = server.serve(requests)
        for req, resp in zip(requests, responses):
            assert resp.request is req
            if req.request_id in bad:
                assert resp.status == "failed"
                assert resp.reason == reason
                assert resp.result is None
                assert "FAILED" in resp.describe()
            else:
                assert resp.ok
                assert_results_identical(
                    resp.result, sequential[req.request_id]
                )
        stats = server.stats()
        assert stats["failed"] == len(bad)
        assert stats["served"] == len(requests) - len(bad)
        assert PERF.counts.get("serve_failed", 0) - failed_before == len(bad)

    def test_unsupported_batch_fails_alone(self, g):
        requests = [
            InferenceRequest("gcn", g, framework="dgl", tenant="a"),
            InferenceRequest("gat", g, framework="roc", tenant="b"),
            InferenceRequest("gcn", g, framework="pyg", tenant="c"),
            InferenceRequest("gat", g, framework="roc", tenant="a"),
            InferenceRequest("gcn", g, framework="roc", tenant="b"),
            InferenceRequest("gat", g, framework="ours", tenant="c"),
        ]
        bad = {requests[1].request_id, requests[3].request_id}
        self._check_mixed_window(
            g, all_frameworks(), requests, bad, REASON_NOT_SUPPORTED
        )

    def test_simulated_oom_batch_fails_alone(self, g):
        frameworks = {**all_frameworks(), "oom-dgl": _OOMOnGCN()}
        requests = [
            InferenceRequest("gcn", g, framework="oom-dgl", tenant="a"),
            InferenceRequest("gat", g, framework="oom-dgl", tenant="b"),
            InferenceRequest("gcn", g, framework="dgl", tenant="c"),
        ]
        bad = {requests[0].request_id}
        self._check_mixed_window(
            g, frameworks, requests, bad, REASON_SIMULATED_OOM
        )

    def test_next_window_is_unaffected(self, g):
        server = PlanServer(sim=V100_SCALED)
        first = server.serve([InferenceRequest("gat", g, framework="roc")])
        assert [r.status for r in first] == ["failed"]
        second = server.serve([InferenceRequest("gcn", g, framework="roc")])
        assert [r.status for r in second] == ["ok"]


# ----------------------------------------------------------------------
# Batching compatibility
# ----------------------------------------------------------------------

class TestBatching:
    def test_groups_by_signature(self, g, g2):
        frameworks = all_frameworks()
        reqs = [
            InferenceRequest("gcn", g, framework="dgl"),
            InferenceRequest("gcn", g2, framework="dgl"),
            InferenceRequest("gcn", g, framework="dgl"),
            InferenceRequest("gat", g, framework="dgl"),
            InferenceRequest("gcn", g, framework="pyg"),
        ]
        batches = plan_batches(
            reqs, lambda r: frameworks[r.framework_name()], V100_SCALED
        )
        assert [b.size for b in batches] == [2, 1, 1, 1]
        # Submission order: the first batch is led by the first request.
        assert batches[0].leader is reqs[0]
        assert batches[0].requests[1] is reqs[2]

    def test_model_config_enters_compatibility(self, g):
        frameworks = all_frameworks()
        reqs = [
            InferenceRequest("gcn", g, framework="dgl",
                             model_config=GCNConfig(dims=(32, 16, 4))),
            InferenceRequest("gcn", g, framework="dgl",
                             model_config=GCNConfig(dims=(32, 8, 4))),
        ]
        batches = plan_batches(
            reqs, lambda r: frameworks[r.framework_name()], V100_SCALED
        )
        assert len(batches) == 2


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------

class TestAdmission:
    def test_unknown_model_rejected(self, g):
        server = PlanServer(sim=V100_SCALED)
        resp = server.submit(InferenceRequest("transformer", g))
        assert resp is not None and not resp.ok
        assert resp.reason == REASON_UNKNOWN_MODEL

    def test_unknown_framework_rejected(self, g):
        server = PlanServer(sim=V100_SCALED)
        resp = server.submit(
            InferenceRequest("gcn", g, framework="tensorflow")
        )
        assert resp is not None and resp.reason == REASON_UNKNOWN_FRAMEWORK

    @pytest.mark.parametrize(
        "model,config",
        [("gcn", "oops"), ("gcn", GATConfig()), ("gat", GCNConfig())],
        ids=["not-a-config", "gat-config-on-gcn", "gcn-config-on-gat"],
    )
    def test_bad_model_config_rejected(self, g, model, config):
        server = PlanServer(sim=V100_SCALED)
        resp = server.submit(
            InferenceRequest(model, g, framework="dgl", model_config=config)
        )
        assert resp is not None and resp.reason == REASON_BAD_MODEL_CONFIG
        assert server.flush() == []

    def test_matching_model_config_admitted(self, g):
        server = PlanServer(sim=V100_SCALED)
        for model, config in (("gcn", None), ("gcn", GCNConfig()),
                              ("gat", GATConfig())):
            assert server.submit(InferenceRequest(
                model, g, framework="dgl", model_config=config
            )) is None

    def test_graph_size_cap(self, g):
        server = PlanServer(
            sim=V100_SCALED,
            policy=AdmissionPolicy(max_nodes=g.num_nodes - 1),
        )
        resp = server.submit(InferenceRequest("gcn", g))
        assert resp is not None and resp.reason == REASON_GRAPH_TOO_LARGE

    def test_tenant_quota(self, g):
        server = PlanServer(
            sim=V100_SCALED,
            policy=AdmissionPolicy(max_queue_per_tenant=2),
        )
        assert server.submit(InferenceRequest("gcn", g, tenant="a")) is None
        assert server.submit(InferenceRequest("gcn", g, tenant="a")) is None
        resp = server.submit(InferenceRequest("gcn", g, tenant="a"))
        assert resp is not None and resp.reason == REASON_TENANT_QUOTA
        # Another tenant is unaffected, and the quota resets per window.
        assert server.submit(InferenceRequest("gcn", g, tenant="b")) is None
        assert all(r.ok for r in server.flush())
        assert server.submit(InferenceRequest("gcn", g, tenant="a")) is None

    def test_rejected_requests_never_execute(self, g):
        server = PlanServer(
            sim=V100_SCALED, policy=AdmissionPolicy(max_nodes=1)
        )
        responses = server.serve([
            InferenceRequest("gcn", g, tenant="a"),
            InferenceRequest("gcn", g, tenant="b"),
        ])
        assert all(not r.ok for r in responses)
        assert server.stats()["batches"] == 0
        assert stage_counts() == {}


# ----------------------------------------------------------------------
# Bounded plan-cache tiers
# ----------------------------------------------------------------------

class TestPlanCacheBounds:
    """The plan cache's memory tier is the shared ``LRUCache``."""

    def _plans(self, g, n):
        fw = OursRuntime()
        return [
            fw.compile("gcn", g, V100_SCALED,
                       model=GCNConfig(dims=(32, 8 * (i + 1), 4)))
            for i in range(n)
        ]

    def test_memory_tier_is_the_shared_lru(self, g):
        cache = PlanCache()
        assert isinstance(cache._mem, LRUCache)
        assert cache._mem.name == "plan_cache"
        (p1,) = self._plans(g, 1)
        before = dict(PERF.counts)
        assert cache.get(p1.plan_id) is None
        cache.put(p1)
        assert cache.get(p1.plan_id) is p1
        delta = {k: PERF.counts.get(k, 0) - before.get(k, 0)
                 for k in ("plan_cache_hit", "plan_cache_miss",
                           "plan_cache_disk_hit")}
        assert delta == {"plan_cache_hit": 1, "plan_cache_miss": 1,
                         "plan_cache_disk_hit": 0}

    def test_entry_capacity_evicts_lru(self, g):
        cache = PlanCache(max_entries=2)
        p1, p2, p3 = self._plans(g, 3)
        evictions = PERF.counts.get("plan_cache_evict", 0)
        cache.put(p1)
        cache.put(p2)
        assert cache.get(p1.plan_id) is p1   # p1 now most-recent
        cache.put(p3)                        # evicts p2, the LRU
        assert PERF.counts.get("plan_cache_evict", 0) == evictions + 1
        assert cache.contains(p1.plan_id)
        assert not cache.contains(p2.plan_id)
        assert cache.contains(p3.plan_id)
        assert cache.stats()["entries"] == 2

    def test_byte_capacity_keeps_at_least_one(self, g):
        p1, p2 = self._plans(g, 2)
        cache = PlanCache(max_bytes=1)   # smaller than any single plan
        cache.put(p1)
        cache.put(p2)
        # The newest entry always survives: a cache that evicted its own
        # admission would break the compile-return path.
        assert cache.contains(p2.plan_id)
        assert not cache.contains(p1.plan_id)
        assert cache.stats()["entries"] == 1
        assert cache.nbytes == plan_nbytes(p2)

    def test_zero_entries_admits_nothing(self, g):
        (p1,) = self._plans(g, 1)
        cache = PlanCache(max_entries=0)
        evictions = PERF.counts.get("plan_cache_evict", 0)
        cache.put(p1)
        assert not cache.contains(p1.plan_id)
        assert len(cache) == 0 and cache.nbytes == 0
        assert PERF.counts.get("plan_cache_evict", 0) == evictions + 1
        assert cache.get(p1.plan_id) is None

    def test_nbytes_accounting(self, g):
        (p1,) = self._plans(g, 1)
        cache = PlanCache()
        cache.put(p1)
        assert cache.nbytes == plan_nbytes(p1) > 0
        assert cache.stats()["nbytes"] == cache.nbytes

    def test_unbounded_default_never_evicts(self, g):
        cache = PlanCache()
        plans = self._plans(g, 3)
        evictions = PERF.counts.get("plan_cache_evict", 0)
        for p in plans:
            cache.put(p)
        assert cache.stats()["entries"] == 3
        assert cache.stats()["max_entries"] is None
        assert cache.stats()["max_bytes"] is None
        assert PERF.counts.get("plan_cache_evict", 0) == evictions

    def test_disk_load_counts_memory_miss(self, g, tmp_path):
        (p1,) = self._plans(g, 1)
        PlanCache(disk_dir=str(tmp_path)).put(p1)
        cache = PlanCache(disk_dir=str(tmp_path))
        before = dict(PERF.counts)
        loaded = cache.get(p1.plan_id)
        assert loaded is not None and loaded.plan_id == p1.plan_id
        assert cache.contains(p1.plan_id)
        delta = {k: PERF.counts.get(k, 0) - before.get(k, 0)
                 for k in ("plan_cache_hit", "plan_cache_miss",
                           "plan_cache_disk_hit")}
        assert delta == {"plan_cache_hit": 0, "plan_cache_miss": 1,
                         "plan_cache_disk_hit": 1}

    def test_served_pool_bounded(self, g, g2):
        """Bounding the process-wide cache under a live server: serving
        more distinct plans than capacity keeps the hot pool at
        capacity, and every response stays correct."""
        PLAN_CACHE.set_capacity(max_entries=1)
        try:
            server = PlanServer(sim=V100_SCALED)
            responses = server.serve([
                InferenceRequest("gcn", g, framework="dgl"),
                InferenceRequest("gcn", g2, framework="dgl"),
            ])
            assert all(r.ok for r in responses)
            assert PLAN_CACHE.stats()["entries"] == 1
            assert server.stats()["plan_cache"]["entries"] == 1
            assert PERF.counts.get("plan_cache_evict", 0) >= 1
        finally:
            PLAN_CACHE.set_capacity()

    def test_set_capacity_shrinks_live_pool(self, g, g2):
        """``set_capacity`` evicts at once, keeping the newest plan."""
        server = PlanServer(sim=V100_SCALED)
        responses = server.serve([
            InferenceRequest("gcn", g, framework="dgl"),
            InferenceRequest("gcn", g2, framework="dgl"),
        ])
        assert PLAN_CACHE.stats()["entries"] == 2
        evictions = PERF.counts.get("plan_cache_evict", 0)
        PLAN_CACHE.set_capacity(max_entries=1)
        try:
            assert PERF.counts.get("plan_cache_evict", 0) == evictions + 1
            assert PLAN_CACHE.contains(responses[1].plan_id)
            assert not PLAN_CACHE.contains(responses[0].plan_id)
            again = server.serve([
                InferenceRequest("gcn", g2, framework="dgl"),
            ])
            assert again[0].cache_hit
            assert (again[0].result.time_ms
                    == responses[1].result.time_ms)
        finally:
            PLAN_CACHE.set_capacity()
        assert PLAN_CACHE.stats()["max_entries"] is None

    def test_lru_capacity_counts_evictions(self, g):
        cache = LRUCache(max_entries=1, name="test_memo")
        evictions = PERF.counts.get("test_memo_evict", 0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert PERF.counts.get("test_memo_evict", 0) == evictions + 1
        assert cache.contains("b") and not cache.contains("a")


# ----------------------------------------------------------------------
# Fresh-process disk-tier warm start
# ----------------------------------------------------------------------

_WARM_WORKER = """
import json
from repro.core.pipeline import stage_counts
from repro.gpusim import V100_SCALED
from repro.graph import small_dataset
from repro.perf import PERF
from repro.serve import InferenceRequest, PlanServer

server = PlanServer(sim=V100_SCALED)
responses = server.serve([
    InferenceRequest("gcn", small_dataset(), framework=f, tenant=t)
    for f, t in [("dgl", "a"), ("ours", "b"), ("dgl", "c")]
])
assert all(r.ok for r in responses)
print(json.dumps({
    "plan_ids": sorted({r.plan_id for r in responses}),
    "stages": sum(stage_counts().values(), 0),
    "disk_hits": PERF.counts.get("plan_cache_disk_hit", 0),
    "time_ms": [r.result.time_ms for r in responses],
}))
"""


class TestDiskWarmStart:
    def _spawn(self, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.path.join(REPO_ROOT, "src"),
                        env.get("PYTHONPATH")] if p
        )
        env["REPRO_PLAN_CACHE_DIR"] = cache_dir
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_WORKER],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_fresh_process_serves_from_disk_tier(self, tmp_path):
        """The hot-plan pool survives a restart: the second process
        serves the same trace from the disk tier with zero pipeline
        stages and identical simulated times."""
        cold = self._spawn(str(tmp_path))
        assert cold["stages"] > 0 and cold["disk_hits"] == 0
        warm = self._spawn(str(tmp_path))
        assert warm["stages"] == 0
        assert warm["disk_hits"] == len(warm["plan_ids"])
        assert warm["plan_ids"] == cold["plan_ids"]
        assert warm["time_ms"] == cold["time_ms"]


# ----------------------------------------------------------------------
# Server bookkeeping and CLI
# ----------------------------------------------------------------------

class TestServerStats:
    def test_counters_and_latency(self, g):
        server = PlanServer(sim=V100_SCALED)
        server.serve([
            InferenceRequest("gcn", g, framework="dgl", tenant=t)
            for t in ("a", "b", "a")
        ])
        stats = server.stats()
        assert stats["submitted"] == stats["served"] == 3
        assert stats["batches"] == 1 and stats["max_batch"] == 3
        assert stats["fanned_out"] == 2
        assert stats["latency"]["count"] == 3
        assert set(stats["tenants"]) == {"a", "b"}
        assert stats["tenants"]["a"]["count"] == 2
        assert all(
            r["p50"] > 0.0 for r in stats["tenants"].values()
        )

    def test_warm_prepopulates(self, g):
        server = PlanServer(sim=V100_SCALED)
        warmed = server.warm([("dgl", "gcn", g)])
        assert len(warmed) == 1 and warmed[0][1] is False
        [resp] = server.serve(
            [InferenceRequest("gcn", g, framework="dgl")]
        )
        assert resp.cache_hit


class TestServeCLI:
    def test_replay_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "replay", "--requests", "8", "--window", "4",
            "--pool", "1", "--datasets", "ddi", "--models", "gcn",
            "--fail-on", "warning",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-tenant serving latency" in out
        assert "served 8/8 request(s)" in out
