"""The :class:`CompiledPlan` artifact: compile once, run many.

The paper's plan-time decisions (locality-aware scheduling, neighbor
grouping, visible-range fusion, tuning) are computed once per graph and
amortized over many executions (§4.4).  This module makes that contract
a first-class object: every framework's ``compile()`` produces one
frozen, content-addressed ``CompiledPlan`` holding everything execution
needs — the lowered kernel list, the per-layer fusion/layout records the
static analyses re-verify offline, per-stage timings and the
graph+model+config fingerprints that address it.

The address (:func:`plan_key`) is computed from the compilation *inputs*
(framework, model config, graph fingerprint, options, GPU config), so a
cache lookup costs one hash — no pipeline stage runs on a hit.  The
hashed payload is one sorted-key JSON object of those inputs.  Each
frozen config dataclass encodes its fields once and keeps the text on
the instance, so a warm key joins cached texts around the graph
fingerprint and hashes them; no memo table is consulted.  The
:class:`PlanCache` keeps an in-process LRU tier (a
:class:`~repro.gpusim.memo.LRUCache`) plus an optional on-disk tier
(``REPRO_PLAN_CACHE_DIR``) backed by :mod:`repro.core.persistence`, so
a fresh process re-loads the identical artifact instead of re-deriving
it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..gpusim.config import GPUConfig
from ..gpusim.kernel import KernelSpec
from ..gpusim.memo import LRUCache
from ..gpusim.metrics import KernelStats, ReadOnlyDict
from ..graph.csr import CSRGraph
from ..perf import PERF, runtime
from .compgraph import FusionPlan
from .grouping import GroupingPlan
from .lowering import ExecLayout

__all__ = [
    "PLAN_VERSION",
    "STAGE_NAMES",
    "LayerRecord",
    "CompiledPlan",
    "plan_key",
    "plan_nbytes",
    "PlanCache",
    "PLAN_CACHE",
]

logger = logging.getLogger(__name__)

#: Bumped whenever the serialized schema changes; stale artifacts are
#: recompiled, never guessed at.  v2: per-kernel ``dataflow`` metadata
#: (happens-before analysis) joined the kernel meta blob.
PLAN_VERSION = 2

#: The staged pipeline, in order.  Every ``PlanBuilder.stage`` entry must
#: name one of these.
STAGE_NAMES = ("trace", "schedule", "group", "adapt", "lower", "tune")


@dataclasses.dataclass
class LayerRecord:
    """One lintable layer inside a plan.

    Records the fusion plan and execution layout a slice of the plan's
    kernels was lowered with, so :func:`repro.analysis.lint_plan` can
    re-run the four static passes over the *artifact* without the live
    pipeline.  ``chain`` names an op-chain factory in
    :data:`repro.analysis.MODEL_CHAINS`; layers lowered outside the
    shared ``lower_plan`` path (dense GEMMs, baseline hand-rolled
    kernels) carry ``chain=None`` and are skipped by the linter.
    """

    label: str
    chain: Optional[str]            # "gat" | "gcn" | None
    feat_len: int
    grouped: bool
    kernel_start: int               # [start, stop) slice into plan.kernels
    kernel_stop: int
    fusion: Optional[FusionPlan] = None
    # Execution layout, flattened to plain arrays for serialization.
    bound: int = 0
    group_ptr: Optional[np.ndarray] = None
    group_center: Optional[np.ndarray] = None
    needs_atomic: Optional[np.ndarray] = None
    center_order: Optional[np.ndarray] = None
    lanes: int = 32
    packed_rows: bool = False
    agg_compute_scale: float = 1.0
    agg_uncoalesced: float = 1.0

    @classmethod
    def from_layout(
        cls,
        layout: ExecLayout,
        *,
        label: str,
        chain: Optional[str],
        feat_len: int,
        grouped: bool,
        kernel_start: int,
        kernel_stop: int,
        fusion: Optional[FusionPlan] = None,
        agg_compute_scale: float = 1.0,
        agg_uncoalesced: float = 1.0,
    ) -> "LayerRecord":
        g = layout.grouping
        return cls(
            label=label,
            chain=chain,
            feat_len=feat_len,
            grouped=grouped,
            kernel_start=kernel_start,
            kernel_stop=kernel_stop,
            fusion=fusion,
            bound=g.bound,
            group_ptr=g.group_ptr,
            group_center=g.group_center,
            needs_atomic=g.needs_atomic,
            center_order=layout.center_order,
            lanes=layout.lanes,
            packed_rows=layout.packed_rows,
            agg_compute_scale=agg_compute_scale,
            agg_uncoalesced=agg_uncoalesced,
        )

    def layout(self) -> ExecLayout:
        """Reconstruct the :class:`ExecLayout` this layer lowered with."""
        return ExecLayout(
            grouping=GroupingPlan(
                bound=self.bound,
                group_ptr=self.group_ptr,
                group_center=self.group_center,
                needs_atomic=self.needs_atomic,
            ),
            center_order=self.center_order,
            lanes=self.lanes,
            packed_rows=self.packed_rows,
        )


@dataclasses.dataclass
class CompiledPlan:
    """The frozen output of one staged compilation.

    Treated as immutable once built (the repo-wide array convention):
    the plan cache hands the same object to every execution of the same
    (framework, model, graph, config) key.  The one exception is
    ``simulated``, which :func:`~repro.gpusim.executor.simulate_plan`
    fills on the plan's first execution under its own ``gpu_config``.
    """

    plan_id: str                    # content address (plan_key)
    version: int
    framework: str
    model: str                      # "gcn" | "gat" | "sage_lstm"
    graph_name: str
    graph_fingerprint: str
    model_config: Dict[str, object]
    options: Dict[str, object]
    gpu_config: GPUConfig
    dispatch_overhead: float
    label: str
    kernels: List[KernelSpec]
    layers: List[LayerRecord]
    peak_mem_bytes: int = 0
    stage_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Stats of the first simulation under ``gpu_config``.  Not part of
    #: the artifact: ``dataclasses.replace`` and ``load_plan`` start
    #: without it, so a derived plan never replays another's kernels.
    simulated: Optional[Tuple[KernelStats, ...]] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )
    #: ``total_time`` of a report of ``simulated``, carried by replays.
    simulated_total: Optional[float] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    # ``stage_seconds`` is complete when the plan is built, so its sum
    # and its read-only view are computed once, on first use, and shared
    # by every response served from the plan (the ``perf["plan"]`` entry
    # of :func:`~repro.frameworks.base.record_plan`).
    @functools.cached_property
    def compile_seconds(self) -> float:
        return float(sum(self.stage_seconds.values()))

    @functools.cached_property
    def stage_seconds_view(self) -> Mapping[str, float]:
        return ReadOnlyDict(self.stage_seconds)

    def describe(self) -> str:
        """Human-readable schema summary (``repro plan show``)."""
        lines = [
            f"plan {self.plan_id}",
            f"  framework={self.framework} model={self.model} "
            f"graph={self.graph_name} ({self.graph_fingerprint[:12]})",
            f"  kernels={self.num_kernels} layers={len(self.layers)} "
            f"peak_mem={self.peak_mem_bytes:,} B",
            "  stages: " + " ".join(
                f"{s}={self.stage_seconds.get(s, 0.0) * 1e3:.1f}ms"
                for s in STAGE_NAMES if s in self.stage_seconds
            ),
        ]
        for rec in self.layers:
            fused = rec.fusion.describe() if rec.fusion else "-"
            lines.append(
                f"  layer {rec.label}: chain={rec.chain} F={rec.feat_len} "
                f"kernels=[{rec.kernel_start}:{rec.kernel_stop}) {fused}"
            )
        return "\n".join(lines)


#: ``json.dumps(..., sort_keys=True, default=str)``, with the encoder
#: built once instead of per call.
_ENCODE = json.JSONEncoder(sort_keys=True, default=str).encode


def _fields_text(value) -> str:
    """``_ENCODE`` of a config's fields, cached per frozen instance (the
    ``CSRGraph.fingerprint`` idiom; ``replace`` builds a new instance and
    ``==``/``hash`` read only fields).  A dict is encoded per call."""
    cached = getattr(value, "_plan_text", None)
    if cached is not None:
        return cached
    if not dataclasses.is_dataclass(value):
        return _ENCODE(value)
    text = _ENCODE(dataclasses.asdict(value))
    if value.__dataclass_params__.frozen:
        object.__setattr__(value, "_plan_text", text)
    return text


def plan_key(
    framework: str,
    model: str,
    graph: CSRGraph,
    *,
    model_config,
    options,
    gpu_config: GPUConfig,
    dispatch_overhead: float,
) -> str:
    """Content address of a compilation, computed from its *inputs*.

    ``model_config`` is the model's frozen config dataclass, ``options``
    the framework's (a dict or a frozen dataclass).  The address hashes
    ``json.dumps`` of every input (sorted keys, ``default=str``), so a
    fresh process derives the same key and finds the same on-disk
    artifact.  A warm key encodes only its scalars and the graph
    fingerprint: each frozen config's text is cached on it.
    """
    # json writes a finite float as its repr; skip the encoder's setup.
    if type(dispatch_overhead) is float and math.isfinite(dispatch_overhead):
        dispatch = repr(dispatch_overhead)
    else:
        dispatch = _ENCODE(dispatch_overhead)
    # ``_ENCODE`` of the fields in sorted-key order (strict checks it).
    payload = "".join((
        '{"dispatch_overhead": ', dispatch,
        ', "framework": ', _ENCODE(framework),
        ', "gpu_config": ', _fields_text(gpu_config),
        ', "graph": ', _ENCODE(graph.fingerprint),
        ', "model": ', _ENCODE(model),
        ', "model_config": ', _fields_text(model_config),
        ', "options": ', _fields_text(options),
        ', "version": ', str(PLAN_VERSION), "}",
    ))
    if runtime().strict and payload != _ENCODE({
        "version": PLAN_VERSION, "framework": framework, "model": model,
        "graph": graph.fingerprint, "dispatch_overhead": dispatch_overhead,
        "model_config": dataclasses.asdict(model_config),
        "gpu_config": dataclasses.asdict(gpu_config),
        "options": (dataclasses.asdict(options)
                    if dataclasses.is_dataclass(options) else options),
    }):
        raise RuntimeError("plan key: a cached config text is stale")
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def plan_nbytes(plan: CompiledPlan) -> int:
    """Approximate in-memory footprint of a plan (size-aware eviction).

    Counts the array payloads — kernel pricing arrays and per-layer
    layout arrays — which dominate a plan's memory by orders of
    magnitude; the Python object overhead is folded into a small
    per-kernel constant.
    """
    total = 0
    for k in plan.kernels:
        for arr in (k.block_flops, k.row_ptr, k.row_ids,
                    k.stream_bytes, k.atomics, k.block_center):
            if arr is not None:
                total += arr.nbytes
        total += 512  # object + dataflow overhead
    for rec in plan.layers:
        for arr in (rec.group_ptr, rec.group_center,
                    rec.needs_atomic, rec.center_order):
            if arr is not None:
                total += arr.nbytes
    return total


class PlanCache:
    """Content-addressed plan store: in-process LRU + optional disk tier.

    Both tiers follow ``runtime().memo``; the disk tier is on when
    ``runtime().plan_cache_dir`` names a directory
    (``REPRO_PLAN_CACHE_DIR``).  Artifacts are one ``plan_<key>.npz``
    file each, written atomically by
    :func:`repro.core.persistence.save_plan`.  The disk tier degrades to
    a warning: a damaged artifact is a miss and the plan recompiles; an
    unwritable directory keeps the plan in memory only.

    The in-memory tier is an unbounded
    :class:`~repro.gpusim.memo.LRUCache` named ``plan_cache``.  Hits and
    misses of the memory tier count in :data:`repro.perf.PERF` as
    ``plan_cache_{hit,miss}``; a plan loaded from disk adds
    ``plan_cache_disk_hit`` to its memory-tier miss.  :meth:`stats`
    summarizes them.
    """

    def __init__(self) -> None:
        self._mem = LRUCache(max_entries=None, name="plan_cache")

    @property
    def disk_dir(self) -> Optional[str]:
        return runtime().plan_cache_dir

    def disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"plan_{key}.npz")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CompiledPlan]:
        if not runtime().memo:
            return None
        plan = self._mem.get(key)
        if plan is None and self.disk_dir:
            from .persistence import load_plan

            plan = load_plan(self.disk_path(key), expect_id=key)
            if plan is not None:
                PERF.count("plan_cache_disk_hit")
                self._admit(plan)
        return plan

    def contains(self, key: str) -> bool:
        """Peek at the in-memory tier without touching counters or LRU
        order."""
        return self._mem.contains(key)

    def _admit(self, plan: CompiledPlan) -> None:
        self._mem.put(plan.plan_id, plan, nbytes=plan_nbytes(plan))

    def put(self, plan: CompiledPlan) -> None:
        if not runtime().memo:
            return
        self._admit(plan)
        if self.disk_dir:
            from .persistence import save_plan

            path = self.disk_path(plan.plan_id)
            try:
                save_plan(path, plan)
            except OSError as exc:
                # The disk tier is an optimization: an unwritable cache
                # directory must not fail the compile that produced the
                # plan, which stays cached in memory.
                logger.warning(
                    "could not persist plan to %s (%s: %s)",
                    path, type(exc).__name__, exc,
                )

    def clear(self) -> None:
        """Drop the in-memory tier (disk artifacts stay)."""
        self._mem.clear()

    def __len__(self) -> int:
        return len(self._mem)

    @property
    def nbytes(self) -> int:
        return self._mem.nbytes

    def stats(self) -> Dict[str, object]:
        """Counters + occupancy for PERF surfacing and serve reports.

        ``misses`` are memory-tier misses; ``disk_hits`` is the share of
        them the disk tier served.
        """
        n = {k: PERF.counts.get(f"plan_cache_{k}", 0)
             for k in ("hit", "disk_hit", "miss")}
        lookups = n["hit"] + n["miss"]
        return {
            "entries": len(self._mem),
            "nbytes": self._mem.nbytes,
            "hits": n["hit"],
            "disk_hits": n["disk_hit"],
            "misses": n["miss"],
            "hit_rate": (
                (n["hit"] + n["disk_hit"]) / lookups if lookups else 0.0
            ),
        }


#: The process-wide plan cache every framework compiles through.
PLAN_CACHE = PlanCache()
