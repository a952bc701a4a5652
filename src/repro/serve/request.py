"""Request and response records of the serving pipeline.

An :class:`InferenceRequest` is everything one tenant asks of the
system: run ``model`` on ``graph`` under an execution strategy
(``framework``), optionally computing the real output on the tenant's
features.  A :class:`ServeResponse` is the per-tenant report the
pipeline fans back: the simulated :class:`ForwardResult`, which plan
served it, whether the plan was a cache hit, and the request's position
inside its compatibility batch.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional, Union

import numpy as np

from ..frameworks.base import ForwardResult, Framework
from ..graph.csr import CSRGraph

__all__ = ["InferenceRequest", "ServeResponse"]

#: Process-wide monotonically increasing request ids ("req-000001", ...).
_REQUEST_IDS = itertools.count(1)


@dataclasses.dataclass
class InferenceRequest:
    """One tenant's inference call, as admitted by the server.

    ``framework`` is either a registered name (resolved against the
    server's catalog) or a live :class:`Framework` instance — the latter
    for callers carrying configured strategies (e.g. an
    ``OursRuntime`` with non-default options).  ``model_config`` is the
    model's config dataclass (``GCNConfig`` etc.); ``None`` means the
    model's defaults, exactly as in ``Framework.run_model``.
    """

    model: str
    graph: CSRGraph
    framework: Union[str, Framework] = "ours"
    tenant: str = "default"
    model_config: Optional[object] = None
    compute: bool = False
    feat: Optional[np.ndarray] = None
    seed: int = 0
    request_id: str = dataclasses.field(
        default_factory=lambda: f"req-{next(_REQUEST_IDS):06d}"
    )

    def framework_name(self) -> str:
        if isinstance(self.framework, str):
            return self.framework
        return self.framework.name


@dataclasses.dataclass
class ServeResponse:
    """Per-request outcome: a result, a rejection or a failure.

    ``status`` is ``"rejected"`` when admission refused the request and
    ``"failed"`` when its batch could not compile; ``reason`` then holds
    the stable reason code (:mod:`repro.serve.admission`).

    ``batch_size``/``batch_leader`` expose the compatibility batching:
    the leader request drove the batch's single simulated execution, the
    rest had identical kernel statistics fanned back.  ``latency_seconds``
    is host wall-clock from submission to response (queue wait plus the
    batch's share of the flush), the quantity the per-tenant percentile
    histograms accumulate.
    """

    request: InferenceRequest
    status: str = "ok"                   # "ok" | "rejected" | "failed"
    result: Optional[ForwardResult] = None
    reason: Optional[str] = None             # reason code
    plan_id: Optional[str] = None
    cache_hit: bool = False
    batch_id: int = -1
    batch_size: int = 0
    batch_leader: bool = False
    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def describe(self) -> str:
        if not self.ok:
            return (f"{self.request.request_id} [{self.request.tenant}] "
                    f"{self.status.upper()} ({self.reason})")
        return (
            f"{self.request.request_id} [{self.request.tenant}] "
            f"{self.request.framework_name()}:{self.request.model}:"
            f"{self.request.graph.name} plan={self.plan_id[:12]} "
            f"{'hit' if self.cache_hit else 'compile'} "
            f"batch={self.batch_id}({self.batch_size}) "
            f"{self.latency_seconds * 1e3:.2f}ms"
        )
