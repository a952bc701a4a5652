"""Compatibility batching: group requests onto shared plan executions.

Two requests are *compatible* exactly when they resolve to the same
plan content address (:meth:`Framework.plan_signature`): same execution
strategy and options, same model config, same graph fingerprint, same
GPU config and dispatch overhead.  That is precisely the condition
under which the simulator's outcome is shared — so a batch runs one
compilation and one simulated execution, and every member gets
bit-identical kernel statistics.

Sampled-subgraph traffic (the ``online_offline`` request family) is
where this pays: minibatch tenants re-request the same sampled shapes,
and each distinct shape costs one plan no matter how many tenants ask.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence

from ..frameworks.base import Framework
from ..gpusim.config import GPUConfig
from ..graph.csr import CSRGraph
from .request import InferenceRequest

__all__ = ["Batch", "plan_batches"]


@dataclasses.dataclass
class Batch:
    """One shared plan execution and the requests riding it."""

    key: str                       # the plan content address
    framework: Framework
    model_name: str
    model: object                  # resolved model config dataclass
    graph: CSRGraph
    requests: List[InferenceRequest]

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def leader(self) -> InferenceRequest:
        return self.requests[0]


def plan_batches(
    requests: Sequence[InferenceRequest],
    resolve_framework: Callable[[InferenceRequest], Framework],
    sim: GPUConfig,
) -> List[Batch]:
    """Group admitted requests by plan signature, submission order kept.

    Batches come back ordered by their first member's submission
    position, and requests inside a batch keep their relative order —
    the fan-out stage assigns leader/follower roles from that.
    """
    batches: Dict[str, Batch] = {}
    order: List[str] = []
    for req in requests:
        fw = resolve_framework(req)
        key, model = fw.plan_signature(
            req.model, req.graph, sim, model=req.model_config
        )
        batch = batches.get(key)
        if batch is None:
            batch = Batch(
                key=key, framework=fw, model_name=req.model,
                model=model, graph=req.graph, requests=[],
            )
            batches[key] = batch
            order.append(key)
        batch.requests.append(req)
    return [batches[k] for k in order]
