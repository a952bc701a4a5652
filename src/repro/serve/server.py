"""`PlanServer`: the in-process batched, multi-tenant serving front-end.

The server owns the pipeline's stateful stages: it queues admitted
requests, resolves each compatibility batch to a plan through the
process-wide content-addressed (unbounded)
:data:`~repro.core.plan.PLAN_CACHE`, executes every batch exactly once, and fans bit-identical
results back to each member request while per-tenant latency
histograms accumulate.  A batch whose compilation raises
:class:`~repro.frameworks.base.NotSupported` or
:class:`~repro.gpusim.memory.SimulatedOOM` fails alone: its members get
``status="failed"`` with a reason code, and the rest of the window is
served as if it had not been there.

:func:`execute_one` is the single-request degenerate case of the same
stages — it is what ``Framework.run_*`` calls, so there is one
implementation of plan resolution and cache-hit attribution in the
codebase.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.plan import PLAN_CACHE
from ..frameworks.base import (
    ForwardResult,
    Framework,
    NotSupported,
    record_plan,
)
from ..gpusim.config import GPUConfig
from ..gpusim.memory import SimulatedOOM
from ..gpusim.metrics import RunReport
from ..graph.csr import CSRGraph
from ..perf import PERF, LatencyHistogram
from .admission import (
    REASON_NOT_SUPPORTED,
    REASON_SIMULATED_OOM,
    AdmissionPolicy,
    admit,
)
from .batching import Batch, plan_batches
from .request import InferenceRequest, ServeResponse

__all__ = ["PlanServer", "execute_one", "resolve_plan"]


# ----------------------------------------------------------------------
# Plan resolution (shared by the run path and the batch path)
# ----------------------------------------------------------------------

def resolve_plan(
    framework: Framework,
    model_name: str,
    graph: CSRGraph,
    sim: GPUConfig,
    model=None,
    signature=None,
):
    """Compile-or-load with cache-hit attribution.

    Returns ``(plan, cache_hit)`` where ``cache_hit`` is True when the
    plan came out of either plan-cache tier rather than the staged
    pipeline.  ``signature`` forwards a precomputed
    :meth:`Framework.plan_signature` result (the batcher holds one per
    batch) so the content address is not derived twice.
    """
    hits_before = (
        PERF.counts.get("plan_cache_hit", 0)
        + PERF.counts.get("plan_cache_disk_hit", 0)
    )
    plan = framework.compile(
        model_name, graph, sim, model=model, signature=signature
    )
    cache_hit = (
        PERF.counts.get("plan_cache_hit", 0)
        + PERF.counts.get("plan_cache_disk_hit", 0)
    ) > hits_before
    return plan, cache_hit


def execute_one(
    framework: Framework,
    model_name: str,
    graph: CSRGraph,
    sim: GPUConfig,
    *,
    model=None,
    compute: bool = False,
    feat=None,
    seed: int = 0,
) -> ForwardResult:
    """One request through resolution + execution (the ``run_*`` path)."""
    plan, cache_hit = resolve_plan(
        framework, model_name, graph, sim, model=model
    )
    result = framework.execute(
        plan, sim, graph=graph, model=model,
        compute=compute, feat=feat, seed=seed,
    )
    result.report.extra["perf"]["plan"]["cache_hit"] = cache_hit
    return result


def _clone_result(
    leader: ForwardResult, plan, batch_size: int
) -> ForwardResult:
    """Fan-out: a member's result from the batch's single execution.

    The member's report replays the leader's frozen kernel statistics
    (:meth:`RunReport.replay`: a new list, the same stats), as a plan's
    carried stats are, with the plan side data from :func:`record_plan`,
    the one ``execute()`` uses, so a fanned-out report is bit-identical
    (kernels, peak memory, totals) to what a sequential per-request
    ``execute()`` would have produced.  Only the host-side ``perf``
    bookkeeping differs: it records that this request rode a batch
    instead of driving its own simulation.
    """
    src = leader.report
    report = RunReport.replay(
        src.kernels, label=src.label, peak_mem_bytes=src.peak_mem_bytes,
        total_time=src.total_time,
    )
    record_plan(report, plan, 0.0).update(
        fanned_out=True, batch_size=batch_size
    )
    return ForwardResult(report, None)


class PlanServer:
    """Batched multi-tenant inference over compiled plans.

    Parameters
    ----------
    frameworks:
        Name -> :class:`Framework` catalog requests may address by
        string (defaults to :func:`repro.frameworks.all_frameworks`).
    sim:
        The :class:`GPUConfig` every served execution simulates
        (defaults to the benchmark V100 configuration).
    policy:
        :class:`AdmissionPolicy`; the default admits everything.

    Usage::

        server = PlanServer()
        server.submit(InferenceRequest("gcn", graph, tenant="a"))
        responses = server.flush()          # admission -> ... -> report

    ``flush`` processes the whole queue as one batching window;
    :func:`repro.serve.replay` drives windows from a trace.
    """

    def __init__(
        self,
        frameworks: Optional[Mapping[str, Framework]] = None,
        sim: Optional[GPUConfig] = None,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        if frameworks is None:
            from ..frameworks import all_frameworks

            frameworks = all_frameworks()
        if sim is None:
            from ..bench import bench_config

            sim = bench_config()
        self.frameworks: Dict[str, Framework] = dict(frameworks)
        self.sim = sim
        self.policy = policy or AdmissionPolicy()
        self._queue: List[Tuple[InferenceRequest, float]] = []
        self._queued_per_tenant: Dict[str, int] = {}
        self._latency = LatencyHistogram("serve")
        self._tenant_latency: Dict[str, LatencyHistogram] = {}
        self._served_plans: Dict[str, Tuple[str, object, object]] = {}
        self._counts = {
            "submitted": 0, "served": 0, "rejected": 0, "failed": 0,
            "batches": 0, "fanned_out": 0, "cache_hits": 0,
            "flushes": 0, "max_batch": 0,
        }

    # ------------------------------------------------------------------
    # Stage 1+2: admission and queueing
    # ------------------------------------------------------------------
    def submit(
        self, request: InferenceRequest
    ) -> Optional[ServeResponse]:
        """Admit one request into the current batching window.

        Returns ``None`` when the request is queued; a rejected
        :class:`ServeResponse` (with its reason code) otherwise.
        """
        self._counts["submitted"] += 1
        PERF.count("serve_requests")
        reason = admit(
            request, self.policy, self.frameworks,
            self._queued_per_tenant,
        )
        if reason is not None:
            self._counts["rejected"] += 1
            PERF.count("serve_rejected")
            return ServeResponse(
                request=request, status="rejected", reason=reason
            )
        self._queue.append((request, time.perf_counter()))
        self._queued_per_tenant[request.tenant] = (
            self._queued_per_tenant.get(request.tenant, 0) + 1
        )
        return None

    def _resolve_framework(self, request: InferenceRequest) -> Framework:
        if isinstance(request.framework, str):
            return self.frameworks[request.framework]
        return request.framework

    # ------------------------------------------------------------------
    # Stages 3-6: resolution, batching, execution, fan-out
    # ------------------------------------------------------------------
    def flush(self) -> List[ServeResponse]:
        """Process the queued window; responses in submission order."""
        if not self._queue:
            return []
        queue, self._queue = self._queue, []
        self._queued_per_tenant = {}
        self._counts["flushes"] += 1
        with PERF.stage("serve_flush"):
            submit_time = {req.request_id: t for req, t in queue}
            batches = plan_batches(
                [req for req, _ in queue],
                self._resolve_framework, self.sim,
            )
            resolved = self._resolve_batches(batches)
            responses: Dict[str, ServeResponse] = {}
            for batch_id, (batch, plan, cache_hit, reason) in enumerate(
                resolved
            ):
                if reason is not None:
                    self._fail_batch(batch, reason, responses)
                    continue
                self._execute_batch(
                    batch, plan, cache_hit, batch_id,
                    submit_time, responses,
                )
        return [responses[req.request_id] for req, _ in queue]

    def serve(
        self, requests: Iterable[InferenceRequest]
    ) -> List[ServeResponse]:
        """Submit + flush as one window; responses in request order."""
        requests = list(requests)
        rejected: Dict[str, ServeResponse] = {}
        for req in requests:
            resp = self.submit(req)
            if resp is not None:
                rejected[req.request_id] = resp
        flushed = {r.request.request_id: r for r in self.flush()}
        flushed.update(rejected)
        return [flushed[req.request_id] for req in requests]

    # ------------------------------------------------------------------
    def _resolve_batches(self, batches: List[Batch]):
        """``(batch, plan, cache_hit, reason)`` per batch.

        Compilation is where a framework refuses a model or a plan
        overflows the simulated device memory; such a batch resolves to
        a failure ``reason`` (and no plan) instead of raising, so it
        cannot take the rest of the window down.
        """
        resolved = []
        for batch in batches:
            try:
                plan, cache_hit = resolve_plan(
                    batch.framework, batch.model_name, batch.graph,
                    self.sim, model=batch.model,
                    signature=(batch.key, batch.model),
                )
            except NotSupported:
                resolved.append((batch, None, False, REASON_NOT_SUPPORTED))
            except SimulatedOOM:
                resolved.append((batch, None, False, REASON_SIMULATED_OOM))
            else:
                resolved.append((batch, plan, cache_hit, None))
        return resolved

    def _fail_batch(
        self, batch: Batch, reason: str,
        responses: Dict[str, ServeResponse],
    ) -> None:
        self._counts["failed"] += batch.size
        PERF.count("serve_failed", batch.size)
        for req in batch.requests:
            responses[req.request_id] = ServeResponse(
                request=req, status="failed", reason=reason
            )

    def _execute_batch(
        self, batch: Batch, plan, cache_hit: bool, batch_id: int,
        submit_time: Dict[str, float],
        responses: Dict[str, ServeResponse],
    ) -> None:
        fw = batch.framework
        self._counts["batches"] += 1
        self._counts["max_batch"] = max(
            self._counts["max_batch"], batch.size
        )
        if cache_hit:
            self._counts["cache_hits"] += 1
        PERF.count("serve_batches")
        leader = batch.leader
        leader_result = fw.execute(
            plan, self.sim, graph=batch.graph, model=batch.model,
            compute=leader.compute, feat=leader.feat, seed=leader.seed,
        )
        leader_result.report.extra["perf"]["plan"]["cache_hit"] = cache_hit
        leader_result.report.extra["perf"]["plan"]["batch_size"] = (
            batch.size
        )
        self._served_plans[plan.plan_id] = (fw.name, plan, batch.graph)
        now = time.perf_counter()
        for position, req in enumerate(batch.requests):
            if position == 0:
                result = leader_result
            else:
                PERF.count("serve_fanout")
                self._counts["fanned_out"] += 1
                result = _clone_result(leader_result, plan, batch.size)
                if req.compute:
                    result.output = fw.reference_output(
                        batch.model_name, batch.graph, batch.model,
                        feat=req.feat, seed=req.seed,
                    )
            latency = now - submit_time[req.request_id]
            self._latency.record(latency)
            self._tenant_latency.setdefault(
                req.tenant, LatencyHistogram(req.tenant)
            ).record(latency)
            self._counts["served"] += 1
            responses[req.request_id] = ServeResponse(
                request=req,
                status="ok",
                result=result,
                plan_id=plan.plan_id,
                cache_hit=cache_hit,
                batch_id=batch_id,
                batch_size=batch.size,
                batch_leader=position == 0,
                latency_seconds=latency,
            )

    # ------------------------------------------------------------------
    # Warm pool + reporting
    # ------------------------------------------------------------------
    def warm(
        self, specs: Iterable[Tuple[object, str, CSRGraph]]
    ) -> List[Tuple[str, bool]]:
        """Pre-resolve hot plans into the cache (the warm-start pool).

        ``specs`` is an iterable of ``(framework-or-name, model_name,
        graph)``.  With the disk tier on
        (``REPRO_PLAN_CACHE_DIR``), a fresh serving process warms
        entirely from disk artifacts — no staged pipeline runs.
        Returns ``(plan_id, cache_hit)`` per spec.
        """
        out = []
        for fw, model_name, graph in specs:
            if isinstance(fw, str):
                fw = self.frameworks[fw]
            plan, hit = resolve_plan(fw, model_name, graph, self.sim)
            self._served_plans.setdefault(
                plan.plan_id, (fw.name, plan, graph)
            )
            out.append((plan.plan_id, hit))
        return out

    @property
    def served_plans(self) -> Dict[str, Tuple[str, object, object]]:
        """plan_id -> (framework name, plan, graph) for everything served.

        The graph rides along so sampled-subgraph plans (whose
        ``graph_name`` is no shipped dataset) can still be linted —
        :func:`repro.analysis.lint_plan` needs the structure the plan
        was compiled for.
        """
        return dict(self._served_plans)

    def tenant_latency(self, tenant: str) -> LatencyHistogram:
        return self._tenant_latency.setdefault(
            tenant, LatencyHistogram(tenant)
        )

    def stats(self) -> Dict[str, object]:
        """The per-tenant serving report; ``plan_cache`` is
        :meth:`PLAN_CACHE.stats() <repro.core.plan.PlanCache.stats>`."""
        batches = self._counts["batches"]
        served = self._counts["served"]
        return {
            **self._counts,
            "batch_dedup_rate": (
                self._counts["fanned_out"] / served if served else 0.0
            ),
            "plan_cache_hit_rate": (
                self._counts["cache_hits"] / batches if batches else 0.0
            ),
            "plan_cache": PLAN_CACHE.stats(),
            "latency": self._latency.summary(),
            "tenants": {
                t: h.summary()
                for t, h in sorted(self._tenant_latency.items())
            },
        }
