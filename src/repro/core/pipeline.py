"""Staged compilation pipeline driver.

Every framework's ``compile_*`` builds its :class:`CompiledPlan` through
a :class:`PlanBuilder`, attributing its work to the explicit stages
``trace -> schedule -> group -> adapt -> lower -> tune``:

* **trace** — emit the layer's computation-graph op chain;
* **schedule** — the offline locality-aware analysis (center order);
* **group** — neighbor grouping / execution-layout construction;
* **adapt** — visible-range fusion (the adapter + linear property);
* **lower** — op groups and dense ops to :class:`KernelSpec` lists;
* **tune** — the online multi-round configuration search.

Stage entries are counted process-wide in :data:`PLAN_STAGE_COUNTS`
(and mirrored into :data:`repro.perf.PERF` as ``plan_stage_<name>``
counters), which is how the compile-once property is asserted: running
the same (framework, model, graph, config) twice must leave the
counters untouched on the second run — the plan cache answered.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Optional

from ..gpusim.config import GPUConfig
from ..gpusim.kernel import KernelSpec
from ..gpusim.memo import LRUCache
from ..graph.csr import CSRGraph
from ..perf import PERF
from .compgraph import FusionPlan
from .lowering import ExecLayout
from .plan import STAGE_NAMES, CompiledPlan, LayerRecord, plan_key
from .scheduling import ScheduleResult, locality_aware_schedule

__all__ = [
    "PLAN_STAGE_COUNTS",
    "reset_stage_counts",
    "stage_counts",
    "PlanBuilder",
    "shared_schedule",
]

#: Process-wide count of pipeline-stage executions, keyed by stage name.
PLAN_STAGE_COUNTS: Dict[str, int] = {}


def reset_stage_counts() -> None:
    PLAN_STAGE_COUNTS.clear()


def stage_counts() -> Dict[str, int]:
    """Snapshot of the per-stage execution counters."""
    return dict(PLAN_STAGE_COUNTS)


class PlanBuilder:
    """Accumulates one staged compilation into a :class:`CompiledPlan`.

    ``model_config`` is the model's frozen config dataclass; the plan
    records its ``asdict``.  The builder computes the plan's content
    address from the compilation inputs up front
    (:func:`repro.core.plan.plan_key`), so the framework base class can
    consult the plan cache with the same key *before* constructing a
    builder at all.
    """

    def __init__(
        self,
        framework: str,
        model: str,
        graph: CSRGraph,
        gpu_config: GPUConfig,
        *,
        model_config,
        options: Optional[Dict[str, object]] = None,
        dispatch_overhead: float = 0.0,
        label: str = "",
    ) -> None:
        self.framework = framework
        self.model = model
        self.graph = graph
        self.gpu_config = gpu_config
        self.model_config = dataclasses.asdict(model_config)
        self.options = dict(options or {})
        self.dispatch_overhead = dispatch_overhead
        self.label = label
        self.kernels: list = []
        self.layers: list = []
        self.stage_seconds: Dict[str, float] = {}
        self.plan_id = plan_key(
            framework, model, graph,
            model_config=model_config,
            options=self.options,
            gpu_config=gpu_config,
            dispatch_overhead=dispatch_overhead,
        )

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def stage(self, name: str):
        """Attribute a block of compile work to one pipeline stage."""
        if name not in STAGE_NAMES:
            raise ValueError(
                f"unknown pipeline stage {name!r}; one of {STAGE_NAMES}"
            )
        PLAN_STAGE_COUNTS[name] = PLAN_STAGE_COUNTS.get(name, 0) + 1
        PERF.count(f"plan_stage_{name}")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + dt

    # ------------------------------------------------------------------
    def add(self, *kernels: KernelSpec) -> None:
        """Append kernels that carry no lintable layer record (GEMMs,
        activations, transfer passes)."""
        self.kernels.extend(kernels)

    def add_layer(
        self,
        kernels,
        *,
        label: str,
        layout: ExecLayout,
        chain: Optional[str] = None,
        feat_len: int = 0,
        grouped: bool = False,
        fusion: Optional[FusionPlan] = None,
        agg_compute_scale: float = 1.0,
        agg_uncoalesced: float = 1.0,
    ) -> None:
        """Append one lowered layer (a ``lower_plan`` output) with the
        record the offline linter needs to re-verify it."""
        start = len(self.kernels)
        self.kernels.extend(kernels)
        self.layers.append(LayerRecord.from_layout(
            layout,
            label=label,
            chain=chain,
            feat_len=feat_len,
            grouped=grouped,
            kernel_start=start,
            kernel_stop=len(self.kernels),
            fusion=fusion,
            agg_compute_scale=agg_compute_scale,
            agg_uncoalesced=agg_uncoalesced,
        ))

    # ------------------------------------------------------------------
    def build(
        self,
        *,
        peak_mem_bytes: int = 0,
        extra: Optional[Dict[str, object]] = None,
    ) -> CompiledPlan:
        from .plan import PLAN_VERSION

        return CompiledPlan(
            plan_id=self.plan_id,
            version=PLAN_VERSION,
            framework=self.framework,
            model=self.model,
            graph_name=self.graph.name or "graph",
            graph_fingerprint=self.graph.fingerprint,
            model_config=self.model_config,
            options=self.options,
            gpu_config=self.gpu_config,
            dispatch_overhead=self.dispatch_overhead,
            label=self.label,
            kernels=self.kernels,
            layers=self.layers,
            peak_mem_bytes=peak_mem_bytes,
            stage_seconds=dict(self.stage_seconds),
            extra=dict(extra or {}),
        )


# ----------------------------------------------------------------------
# Shared offline-analysis cache
# ----------------------------------------------------------------------

#: graph fingerprint -> :class:`ScheduleResult`.  Unbounded (one entry
#: per distinct graph), and an :class:`LRUCache` so that
#: :func:`~repro.gpusim.memo.clear_caches` drops it with every other tier.
_SCHEDULES = LRUCache(max_entries=None, name="schedule_cache")


def shared_schedule(graph: CSRGraph) -> ScheduleResult:
    """Locality-aware schedule, computed once per graph per process.

    Content-keyed by the graph's structural fingerprint (``id()`` keys
    alias after garbage collection).  This is the process-wide analysis
    tier under the plan cache: every runtime, benchmark and CLI command
    resolves its offline schedule here, so a graph is MinHash-clustered
    at most once no matter how many plans are compiled on it.
    """
    key = graph.fingerprint
    schedule = _SCHEDULES.get(key)
    if schedule is None:
        schedule = locality_aware_schedule(graph)
        _SCHEDULES.put(key, schedule)
    return schedule
