"""Tuning framework (paper §4.4).

Chooses running configurations from both the problem (graph statistics,
feature length) and the optimizations' characteristics:

* **neighbor-grouping bound** — multiples of 16, at most 10x the average
  degree, at most 20 rounds of online search (the paper's exact search
  space); each round prices the representative aggregation kernel with
  :func:`~repro.gpusim.executor.kernel_time` (its time alone, no
  statistics or memo entry) and keeps the fastest bound.  A bound at or
  above the max degree groups nothing, so its kernel *is* the baseline
  and it takes the baseline's time unsimulated.
* **feature-lane mapping** — how many threads map along the feature
  dimension ("putting tasks of feature dimension to the same computing
  unit"); picking lanes that divide F removes the warp-lane and
  cache-line waste behind Fig. 4's sawtooth (Fig. 12 shows the tuned
  curve).

The offline part (locality-aware scheduling) is computed separately and
passed in — §4.4 stresses it is optional; :func:`tune` works with or
without it.  Results are memoized per (graph, feature length, config,
center order, rounds) in one bounded LRU, so repeated sweeps and every
runtime tuning the same graph share one search.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..gpusim.config import GPUConfig
from ..gpusim.executor import kernel_time
from ..gpusim.memo import LRUCache, array_digest
from ..gpusim.occupancy import LaunchConfig, SMResources, blocks_per_sm
from ..graph.csr import CSRGraph
from ..perf import runtime
from .grouping import identity_grouping, neighbor_grouping
from .lowering import ExecLayout, aggregation_kernel

__all__ = [
    "TuningResult",
    "candidate_bounds",
    "pick_lanes",
    "pick_launch_config",
    "tune",
]


@dataclasses.dataclass(frozen=True)
class TuningResult:
    """Chosen configuration plus the search trace."""

    bound: Optional[int]        # None = grouping not profitable
    lanes: int
    packed_rows: bool
    rounds: int
    trace: Dict[int, float]     # bound -> simulated kernel seconds
    baseline_seconds: float
    launch: LaunchConfig = LaunchConfig()
    resident_blocks_per_sm: int = 0

    def layout(
        self, graph: CSRGraph, center_order: Optional[np.ndarray] = None
    ) -> ExecLayout:
        grouping = (
            _cached_grouping(graph, self.bound)
            if self.bound is not None
            else identity_grouping(graph)
        )
        return ExecLayout(
            grouping=grouping,
            center_order=center_order,
            lanes=self.lanes,
            packed_rows=self.packed_rows,
        )


def candidate_bounds(graph: CSRGraph, max_rounds: int = 20) -> List[int]:
    """The paper's search space: multiples of 16 up to 10x avg degree,
    capped at ``max_rounds`` candidates."""
    cap = max(16, int(10 * max(graph.avg_degree, 1.0)))
    bounds = list(range(16, cap + 1, 16))
    if len(bounds) > max_rounds:
        # Keep coverage of the whole range with at most max_rounds probes.
        idx = np.linspace(0, len(bounds) - 1, max_rounds).round().astype(int)
        bounds = [bounds[i] for i in np.unique(idx)]
    return bounds


def pick_lanes(feat_len: int) -> int:
    """Largest lane count in {32, 16, 8, 4} that divides the feature
    length (falling back to 32 — full warps — when none divides)."""
    for lanes in (32, 16, 8, 4):
        if feat_len % lanes == 0:
            return lanes
    return 32


def pick_launch_config(
    feat_len: int,
    bound: int = 32,
    sm: Optional[SMResources] = None,
) -> LaunchConfig:
    """The tuner's first step (§4.4): exhaust GPU resources.

    Searches thread counts and shared-memory staging sizes for the
    launch configuration with the most resident warps, limiting shared
    memory usage (the per-block neighbor staging buffer is what competes
    for it) exactly as the paper describes.
    """
    sm = sm if sm is not None else SMResources()
    best = LaunchConfig()
    best_warps = -1
    for threads in (128, 256, 512):
        for stage_rows in (0, bound):
            launch = LaunchConfig(
                threads_per_block=threads,
                registers_per_thread=32,
                shared_per_block=stage_rows * feat_len * 4,
            )
            blocks = blocks_per_sm(launch, sm)
            warps = blocks * (-(-threads // sm.warp_size))
            # Prefer more resident warps; tie-break toward the staged
            # (shared-memory) variant which serves the adapter.
            if warps > best_warps or (
                warps == best_warps
                and launch.shared_per_block > best.shared_per_block
            ):
                best, best_warps = launch, warps
    return best


#: Grouping plans are pure functions of (graph structure, bound); the
#: sweep re-tunes the same graph at every feature length, so cache them
#: content-keyed across rounds and calls.
_GROUPING_CACHE = LRUCache(max_entries=256, name="grouping_cache")


def _cached_grouping(graph: CSRGraph, bound: int):
    if not runtime().memo:
        return neighbor_grouping(graph, bound)
    key = (graph.fingerprint, bound)
    plan = _GROUPING_CACHE.get(key)
    if plan is None:
        plan = neighbor_grouping(graph, bound)
        _GROUPING_CACHE.put(key, plan)
    return plan


#: Tuning results, content-keyed; cleared by ``gpusim.memo.clear_caches``.
_TUNE_CACHE = LRUCache(max_entries=256, name="tune_cache")


def tune(
    graph: CSRGraph,
    feat_len: int,
    config: GPUConfig,
    *,
    center_order: Optional[np.ndarray] = None,
    max_rounds: int = 20,
) -> TuningResult:
    """Online multi-round search for the aggregation configuration."""
    key = None
    if runtime().memo:
        key = (
            graph.fingerprint,
            feat_len,
            config,
            None if center_order is None else array_digest(center_order),
            max_rounds,
        )
        cached = _TUNE_CACHE.get(key)
        if cached is not None:
            # The trace dict is the one mutable part: hand out a copy.
            return dataclasses.replace(cached, trace=dict(cached.trace))
    lanes = pick_lanes(feat_len)

    def layout(grouping) -> ExecLayout:
        return ExecLayout(
            grouping=grouping,
            center_order=center_order,
            lanes=lanes,
            packed_rows=True,
        )

    base_time = kernel_time(
        aggregation_kernel(
            graph, feat_len, config, layout(identity_grouping(graph))
        ),
        config,
    )
    best_bound: Optional[int] = None
    best_time = base_time
    trace: Dict[int, float] = {}
    bounds = candidate_bounds(graph, max_rounds=max_rounds)
    for bound in bounds:
        if bound >= graph.max_degree:
            # No center splits: the grouping is the identity layout.
            seconds = base_time
        else:
            seconds = kernel_time(
                aggregation_kernel(
                    graph, feat_len, config,
                    layout(_cached_grouping(graph, bound)),
                ),
                config,
            )
        trace[bound] = seconds
        if seconds < best_time:
            best_time = seconds
            best_bound = bound
    launch = pick_launch_config(feat_len, bound=best_bound or 32)
    result = TuningResult(
        bound=best_bound,
        lanes=lanes,
        packed_rows=True,
        rounds=len(bounds),
        trace=trace,
        baseline_seconds=base_time,
        launch=launch,
        resident_blocks_per_sm=blocks_per_sm(launch),
    )
    if key is not None:
        _TUNE_CACHE.put(key, dataclasses.replace(result, trace=dict(trace)))
    return result
