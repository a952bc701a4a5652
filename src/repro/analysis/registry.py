"""Pass registry: how analysis passes plug into the lint drivers.

Pass names are no longer a hard-coded taxonomy: each pass module
registers a :class:`LintPass` at import time, and the drivers
(:func:`~repro.analysis.driver.verify_lowering`,
``lint_chain``/``lint_shipped``/``lint_plan``) iterate the registry, so
a new pass lands by adding one module — no driver edits.  A pass
exposes up to four hooks, one per scope it analyzes:

* ``chain(ops)`` — properties of the op chain alone, independent of any
  graph or lowering (linearity is one); run once per model by
  ``lint_shipped`` instead of once per pipeline.
* ``lowering(ctx)`` — properties of one lowered (plan, kernels, layout)
  triple; run for every pipeline in the sweep and for every
  :class:`~repro.core.plan.LayerRecord` of a plan artifact.
* ``artifact(plan, graph, config)`` — whole-:class:`CompiledPlan`
  properties that need the complete kernel stream or the recorded
  peak-memory/stage metadata; run only by ``lint_plan``.
* ``shard(ctx)`` — properties of a
  :class:`~repro.shard.partition.ShardPlan` (plus, when available, its
  per-partition plans and stitched device streams); run by
  :func:`~repro.analysis.shardlint.lint_shard` with a
  :class:`~repro.analysis.shardlint.ShardLintContext`.

Every hook reports findings; no hook rewrites the plan it inspects.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..core.compgraph import FusionPlan, Op
from ..core.lowering import ExecLayout
from ..gpusim.config import GPUConfig
from ..gpusim.kernel import KernelSpec
from ..graph.csr import CSRGraph
from .findings import Finding

__all__ = ["LintContext", "LintPass", "register_pass", "lint_passes",
           "pass_names"]


@dataclasses.dataclass(frozen=True)
class LintContext:
    """Everything a lowering-scope pass may inspect."""

    ops: List[Op]
    plan: FusionPlan
    kernels: List[KernelSpec]
    graph: CSRGraph
    feat_len: int
    config: GPUConfig
    layout: ExecLayout
    grouped: bool
    agg_compute_scale: float = 1.0
    agg_uncoalesced: float = 1.0


@dataclasses.dataclass(frozen=True)
class LintPass:
    """One registered pass: a name, a one-liner, and its scope hooks."""

    name: str
    doc: str
    chain: Optional[Callable[[List[Op]], List[Finding]]] = None
    lowering: Optional[Callable[[LintContext], List[Finding]]] = None
    artifact: Optional[
        Callable[..., List[Finding]]
    ] = None  # (plan, graph, config) -> findings
    shard: Optional[
        Callable[..., List[Finding]]
    ] = None  # (ShardLintContext) -> findings


_PASSES: Dict[str, LintPass] = {}


def register_pass(p: LintPass) -> LintPass:
    """Register (or replace, by name) a pass; returns it for sugar."""
    _PASSES[p.name] = p
    return p


def lint_passes() -> Tuple[LintPass, ...]:
    """All registered passes, in registration order."""
    return tuple(_PASSES.values())


def pass_names() -> Tuple[str, ...]:
    return tuple(_PASSES)
