"""Persistence of the offline analysis artifact: the compiled plan.

The paper's locality-aware scheduling is explicitly an *offline*
analysis: "It is done offline as we only need to do it once because the
graph structure stays invariant.  The results however can be used for
many runs of the GNN" (§4.4).  In this reproduction that artifact is the
:class:`~repro.core.plan.CompiledPlan`: it carries the schedule, the
tuned grouping bounds and the lowered kernels of every layer, so saving
it saves the whole analysis.  :func:`save_plan` writes one ``.npz`` per
plan and :func:`load_plan` reloads it in a later process (the plan
cache's disk tier, ``repro plan compile --out``), so the analysis cost
is paid once per (graph, model, config), not once per run.

Artifacts are content-addressed by the plan id, which covers the graph's
structural fingerprint; a stale, mismatched or damaged artifact is
rejected with a warning naming the file, and the caller recompiles.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import os
import uuid
import zipfile
from typing import Optional

import numpy as np

from ..gpusim.kernel import KernelDataflow, KernelSpec

__all__ = [
    "save_plan",
    "load_plan",
]

logger = logging.getLogger(__name__)

#: Per-process counter for temp-file names.  The pid alone is not a
#: unique suffix: two threads of one process, or pid-recycled processes
#: on a shared cache directory (containers commonly restart at pid 1),
#: can collide mid-write.  pid + counter + a random token cannot.
_TMP_COUNTER = itertools.count()


def _tmp_path(path: str) -> str:
    return (
        f"{path}.tmp.{os.getpid()}."
        f"{next(_TMP_COUNTER)}.{uuid.uuid4().hex[:8]}"
    )


def _op_to_dict(op) -> dict:
    return {
        "name": op.name,
        "kind": op.kind.value,
        "out_shape": op.out_shape,
        "flops_per_elem": op.flops_per_elem,
        "linear": op.linear,
    }


def _op_from_dict(d: dict):
    from .compgraph import Op, OpKind

    return Op(
        name=d["name"],
        kind=OpKind(d["kind"]),
        out_shape=d["out_shape"],
        flops_per_elem=float(d["flops_per_elem"]),
        linear=bool(d["linear"]),
    )


def _fusion_to_dict(plan) -> dict:
    return {
        "label": plan.label,
        "groups": [
            {
                "ops": [_op_to_dict(op) for op in g.ops],
                "postponed": [_op_to_dict(op) for op in g.postponed],
            }
            for g in plan.groups
        ],
    }


def _fusion_from_dict(d: dict):
    from .compgraph import FusionGroup, FusionPlan

    return FusionPlan(
        groups=[
            FusionGroup(
                ops=[_op_from_dict(o) for o in g["ops"]],
                postponed=[_op_from_dict(o) for o in g["postponed"]],
            )
            for g in d["groups"]
        ],
        label=d["label"],
    )


#: Optional per-kernel arrays: (meta key, KernelSpec attribute).
_KERNEL_ARRAYS = (
    ("row_ptr", "row_ptr"),
    ("row_ids", "row_ids"),
    ("stream_bytes", "stream_bytes"),
    ("atomics", "atomics"),
    ("block_center", "block_center"),
)

#: Optional per-layer arrays (the flattened ExecLayout).
_LAYER_ARRAYS = ("group_ptr", "group_center", "needs_atomic", "center_order")


def save_plan(path: str, plan) -> None:
    """Persist one :class:`~repro.core.plan.CompiledPlan` as ``.npz``.

    Kernel arrays round-trip byte-identically (dtypes are already
    normalized by ``KernelSpec.__post_init__``); everything scalar goes
    through one JSON meta blob.  Written atomically (rename) so
    concurrent processes sharing a plan-cache directory never observe a
    torn artifact.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    arrays = {}
    kernels_meta = []
    for i, k in enumerate(plan.kernels):
        arrays[f"k{i}_block_flops"] = k.block_flops
        present = []
        for key, attr in _KERNEL_ARRAYS:
            arr = getattr(k, attr)
            if arr is not None:
                arrays[f"k{i}_{key}"] = arr
                present.append(key)
        kernels_meta.append({
            "name": k.name,
            "row_bytes": k.row_bytes,
            "counts_launch": k.counts_launch,
            "tag": k.tag,
            "arrays": present,
            "dataflow": (
                k.dataflow.to_meta() if k.dataflow is not None else None
            ),
        })
    layers_meta = []
    for j, rec in enumerate(plan.layers):
        present = []
        for key in _LAYER_ARRAYS:
            arr = getattr(rec, key)
            if arr is not None:
                arrays[f"L{j}_{key}"] = arr
                present.append(key)
        layers_meta.append({
            "label": rec.label,
            "chain": rec.chain,
            "feat_len": rec.feat_len,
            "grouped": rec.grouped,
            "kernel_start": rec.kernel_start,
            "kernel_stop": rec.kernel_stop,
            "fusion": _fusion_to_dict(rec.fusion) if rec.fusion else None,
            "bound": rec.bound,
            "lanes": rec.lanes,
            "packed_rows": rec.packed_rows,
            "agg_compute_scale": rec.agg_compute_scale,
            "agg_uncoalesced": rec.agg_uncoalesced,
            "arrays": present,
        })
    extra = dict(plan.extra)
    phases = extra.pop("sage_phases", None)
    meta = {
        "version": plan.version,
        "plan_id": plan.plan_id,
        "framework": plan.framework,
        "model": plan.model,
        "graph_name": plan.graph_name,
        "graph_fingerprint": plan.graph_fingerprint,
        "model_config": plan.model_config,
        "options": plan.options,
        "gpu_config": dataclasses.asdict(plan.gpu_config),
        "dispatch_overhead": plan.dispatch_overhead,
        "label": plan.label,
        "peak_mem_bytes": plan.peak_mem_bytes,
        "stage_seconds": plan.stage_seconds,
        "extra": extra,
        "sage_phases": (
            [[p.kernel_index, p.phase] for p in phases]
            if phases is not None else None
        ),
        "kernels": kernels_meta,
        "layers": layers_meta,
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, default=str).encode(), dtype=np.uint8
    )
    tmp = _tmp_path(path)
    try:
        np.savez_compressed(tmp, **arrays)
        # np.savez appends .npz to paths without the suffix.
        tmp_written = tmp if os.path.exists(tmp) else f"{tmp}.npz"
        os.replace(tmp_written, path)
    finally:
        for leftover in (tmp, f"{tmp}.npz"):
            if os.path.exists(leftover):
                os.remove(leftover)


def load_plan(path: str, expect_id: Optional[str] = None):
    """Load a :class:`~repro.core.plan.CompiledPlan`, ``None`` if invalid.

    ``expect_id`` is the content address the caller derived from its own
    compilation inputs; a stored artifact whose ``plan_id`` disagrees is
    stale (e.g. hand-copied between cache dirs) and rejected with a
    warning naming both ids.
    """
    from .plan import PLAN_VERSION, CompiledPlan, LayerRecord
    from ..gpusim.config import GPUConfig
    from .sparse_fetch import SagePhase

    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
            if meta["version"] != PLAN_VERSION:
                logger.warning(
                    "stale plan artifact %s: version %s != current %s; "
                    "recompiling",
                    path, meta["version"], PLAN_VERSION,
                )
                return None
            if expect_id is not None and meta["plan_id"] != expect_id:
                logger.warning(
                    "mismatched plan artifact %s: stored plan_id %s != "
                    "expected %s; recompiling",
                    path, meta["plan_id"], expect_id,
                )
                return None
            kernels = []
            for i, km in enumerate(meta["kernels"]):
                kwargs = {
                    key: data[f"k{i}_{key}"] for key in km["arrays"]
                }
                kernels.append(KernelSpec(
                    name=km["name"],
                    block_flops=data[f"k{i}_block_flops"],
                    row_bytes=int(km["row_bytes"]),
                    counts_launch=bool(km["counts_launch"]),
                    tag=km["tag"],
                    dataflow=(
                        KernelDataflow.from_meta(km["dataflow"])
                        if km.get("dataflow") is not None else None
                    ),
                    **kwargs,
                ))
            layers = []
            for j, lm in enumerate(meta["layers"]):
                arrs = {
                    key: data[f"L{j}_{key}"] for key in lm["arrays"]
                }
                layers.append(LayerRecord(
                    label=lm["label"],
                    chain=lm["chain"],
                    feat_len=int(lm["feat_len"]),
                    grouped=bool(lm["grouped"]),
                    kernel_start=int(lm["kernel_start"]),
                    kernel_stop=int(lm["kernel_stop"]),
                    fusion=(
                        _fusion_from_dict(lm["fusion"])
                        if lm["fusion"] else None
                    ),
                    bound=int(lm["bound"]),
                    lanes=int(lm["lanes"]),
                    packed_rows=bool(lm["packed_rows"]),
                    agg_compute_scale=float(lm["agg_compute_scale"]),
                    agg_uncoalesced=float(lm["agg_uncoalesced"]),
                    **arrs,
                ))
            extra = dict(meta["extra"])
            if meta.get("sage_phases") is not None:
                extra["sage_phases"] = [
                    SagePhase(int(idx), phase)
                    for idx, phase in meta["sage_phases"]
                ]
            return CompiledPlan(
                plan_id=meta["plan_id"],
                version=int(meta["version"]),
                framework=meta["framework"],
                model=meta["model"],
                graph_name=meta["graph_name"],
                graph_fingerprint=meta["graph_fingerprint"],
                model_config=meta["model_config"],
                options=meta["options"],
                gpu_config=GPUConfig(**meta["gpu_config"]),
                dispatch_overhead=float(meta["dispatch_overhead"]),
                label=meta["label"],
                kernels=kernels,
                layers=layers,
                peak_mem_bytes=int(meta["peak_mem_bytes"]),
                stage_seconds={
                    k: float(v) for k, v in meta["stage_seconds"].items()
                },
                extra=extra,
            )
    except (OSError, ValueError, KeyError, TypeError, EOFError,
            json.JSONDecodeError, zipfile.BadZipFile) as exc:
        # A truncated or empty .npz surfaces as BadZipFile / EOFError
        # from the zip reader rather than as a parse error.
        logger.warning(
            "corrupt plan artifact %s (%s: %s); recompiling",
            path, type(exc).__name__, exc,
        )
        return None
