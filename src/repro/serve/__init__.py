"""Batched, multi-tenant plan serving (`PlanServer` + ``repro serve``).

The compile-once/run-many substrate (content-addressed
:class:`~repro.core.plan.CompiledPlan`, two-tier
:data:`~repro.core.plan.PLAN_CACHE`, plan-level execution memo) turns
into a serving story here: an in-process request front-end that accepts
(framework, model, graph) inference requests from many tenants, batches
compatible ones onto shared plan executions, keeps a warm pool of hot
plans under the cache's admission/eviction policies, and reports
per-tenant latency percentiles and cache hit rates.

The pipeline is explicit, one stage per module::

    InferenceRequest        (request.py)
      -> admission          (admission.py: quotas, size caps, catalog)
      -> plan resolution    (server.resolve_plan: cache hit or compile)
      -> compatibility batching
                            (batching.py: group by plan signature)
      -> execution          (server.PlanServer.flush: one simulate_plan
                             per batch)
      -> per-tenant report  (ServeResponse + LatencyHistogram stats)

``Framework.run_*`` routes through :func:`execute_one` — the
single-request degenerate case of the same pipeline — so interactive
runs and served batches share one implementation.  Batched execution is
bit-identical to sequential per-request execution: a batch runs its
plan's simulation once and fans the resulting kernel statistics back to
every member request.
"""

from .admission import (
    REASON_BAD_MODEL_CONFIG,
    REASON_GRAPH_TOO_LARGE,
    REASON_NOT_SUPPORTED,
    REASON_SIMULATED_OOM,
    REASON_TENANT_QUOTA,
    REASON_UNKNOWN_FRAMEWORK,
    REASON_UNKNOWN_MODEL,
    AdmissionPolicy,
    admit,
)
from .batching import Batch, plan_batches
from .request import InferenceRequest, ServeResponse
from .replay import TraceSpec, replay, synthetic_trace
from .server import PlanServer, execute_one, resolve_plan

__all__ = [
    "InferenceRequest",
    "ServeResponse",
    "AdmissionPolicy",
    "admit",
    "REASON_UNKNOWN_MODEL",
    "REASON_UNKNOWN_FRAMEWORK",
    "REASON_GRAPH_TOO_LARGE",
    "REASON_TENANT_QUOTA",
    "REASON_BAD_MODEL_CONFIG",
    "REASON_NOT_SUPPORTED",
    "REASON_SIMULATED_OOM",
    "Batch",
    "plan_batches",
    "PlanServer",
    "execute_one",
    "resolve_plan",
    "TraceSpec",
    "synthetic_trace",
    "replay",
]
