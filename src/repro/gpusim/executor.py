"""Block-level list scheduler: the heart of the GPU simulator.

For each :class:`~repro.gpusim.kernel.KernelSpec` the executor:

1. feeds the kernel's feature-row access stream (in block *issue order* —
   the order locality-aware scheduling permutes) through the L2 cache
   model, obtaining per-block hit/miss counts;
2. prices every block: ``max(compute, memory)`` where the memory term
   splits row traffic into L2-bandwidth (hits) and DRAM-bandwidth
   (misses + streaming) shares, plus atomics and a fixed block cost;
3. greedily list-schedules blocks onto ``num_sms * blocks_per_sm`` slots
   (earliest-free-slot, issue order), yielding the makespan, the balanced
   lower bound (Fig. 8) and the active-block timeline (Table 4).

Issue order approximates hardware dispatch order: blocks adjacent in the
array run concurrently, which is exactly the contract the paper's task
scheduling relies on ("distribute tasks of nodes in the same cluster into
adjacent computing units").

Performance layer (see DESIGN.md "Performance architecture"):

* the list scheduler is one compiled heap loop (:mod:`._native`);
* a cold stream analysis (issue permutation + previous-occurrence
  array) is one compiled tick sweep;
* without a C compiler (or under ``REPRO_NATIVE=0``) both fall back to
  their references: the ``heapq`` scheduler, and a ``lexsort`` issue
  order followed by a stable-argsort previous-occurrence pass;
* stream analyses (issue permutation + previous-occurrence array) and
  whole :class:`KernelStats` are memoized content-addressed in
  :mod:`repro.gpusim.memo`, so ablation variants stop re-simulating
  shared kernels and tuner rounds share stream analyses;
* :func:`kernel_time` prices a kernel through the same stages but
  returns its time alone (no statistics, no memo entry), for the
  tuner's rounds;
* the cache-model and scheduling stages report wall-clock into
  :data:`repro.perf.PERF`; ``simulate_kernels`` attaches the per-run
  delta to ``RunReport.extra["perf"]``.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..perf import PERF, fastpath_enabled, memo_enabled
from .cache import (
    effective_window,
    hit_mask,
    previous_occurrence,
    reuse_distances_from_prev,
    window_hit_rate_from_prev,
    window_hits_from_prev,
)
from . import _native
from .config import GPUConfig
from .kernel import KernelSpec
from .memo import (
    KERNEL_MEMO,
    PERM_CACHE,
    STREAM_CACHE,
    StreamPlan,
    array_digest,
    kernel_fingerprint,
    memo_stats,
)
from .metrics import KernelStats, RunReport, occupancy_below

__all__ = [
    "kernel_time",
    "simulate_kernel",
    "simulate_kernels",
    "simulate_plan",
    "block_durations",
    "interleaved_order",
]


def interleaved_order(
    row_ptr: np.ndarray, num_slots: int
) -> np.ndarray:
    """Permutation putting block row accesses in concurrent-execution order.

    Blocks run in *waves* of ``num_slots`` concurrently-resident blocks
    (issue order), and the accesses of a wave's blocks interleave
    round-robin — the stream L2 actually sees.  This is what lets
    neighbor grouping narrow the active working set (smaller blocks →
    shorter waves) and locality-aware scheduling exploit wave-mates'
    shared neighbors, exactly the synergy of paper §4.1.2.
    """
    lengths = np.diff(row_ptr)
    total = int(row_ptr[-1])
    # Time-aware interleave: each slot consumes one row per tick, blocks
    # claim the earliest-free slot in issue order (rows as the clock).  A
    # hub block therefore overlaps the *thousands* of short tasks that
    # stream past it — precisely the "huge active area" the paper
    # describes — while grouped/clustered layouts keep co-issued blocks
    # co-resident.
    starts, _ = _list_schedule(lengths.astype(np.float64), num_slots)
    block_of = np.repeat(
        np.arange(lengths.shape[0], dtype=np.int64), lengths
    )
    offset = np.arange(total, dtype=np.int64) - row_ptr[:-1][block_of]
    tick = starts[block_of] + offset
    return np.lexsort((block_of, offset, tick))


# ----------------------------------------------------------------------
# Stream analysis (content-cached)
# ----------------------------------------------------------------------

def _cold_stream_plan(
    row_ptr: np.ndarray, row_ids: np.ndarray, num_slots: int
) -> StreamPlan:
    """Stream analysis from scratch: one native tick sweep when the
    lane is up, else the issue permutation then a previous-occurrence
    pass over the permuted stream (identical results)."""
    if fastpath_enabled() and _native.available():
        swept = _native.stream_plan(row_ptr, row_ids, num_slots)
        if swept is not None:
            return StreamPlan(perm=swept[0], prev=swept[1])
    perm = interleaved_order(row_ptr, num_slots)
    return StreamPlan(perm=perm, prev=previous_occurrence(row_ids[perm]))


def _stream_plan(
    row_ptr: np.ndarray,
    row_ids: np.ndarray,
    num_slots: int,
    key: tuple | None = None,
) -> StreamPlan:
    """Issue permutation + previous-occurrence array for one stream.

    Keyed by stream *content*, so every kernel sharing a block layout and
    row stream (tuner rounds at different feature lengths, ablation
    variants, repeated layers) reuses the analysis.  Callers holding
    long-lived parent arrays may pass a precomputed ``key`` so repeat
    lookups never re-hash sliced views.
    """
    if memo_enabled():
        if key is None:
            key = (array_digest(row_ptr), array_digest(row_ids), num_slots)
        plan = STREAM_CACHE.get(key)
        if plan is not None:
            return plan
        # The issue permutation depends only on the block layout, never
        # on the row stream, so streams that differ only in their rows
        # (tuner rounds reshaping features over one layout) share it
        # under a second, layout-only key; a hit gathers the new rows
        # and pays one previous-occurrence pass, cheaper than a sweep.
        perm_key = (array_digest(row_ptr), num_slots)
        perm = PERM_CACHE.get(perm_key)
        if perm is None:
            plan = _cold_stream_plan(row_ptr, row_ids, num_slots)
            PERM_CACHE.put(perm_key, plan.perm, nbytes=plan.perm.nbytes)
        else:
            plan = StreamPlan(
                perm=perm, prev=previous_occurrence(row_ids[perm])
            )
    else:
        key = None
        plan = _cold_stream_plan(row_ptr, row_ids, num_slots)
    if key is not None:
        STREAM_CACHE.put(key, plan, nbytes=plan.nbytes)
    return plan


def _plan_window(plan: StreamPlan, capacity: int) -> int:
    """The window model's effective window for a cached stream analysis
    (memoized on the plan per capacity)."""
    window = plan.windows.get(capacity)
    if window is None:
        prev = plan.prev
        if fastpath_enabled() and prev.shape[0] <= np.iinfo(np.int32).max:
            # The window searches at each probed capacity share one
            # narrow copy (estimates are dtype-independent).
            if plan.prev32 is None:
                plan.prev32 = prev.astype(np.int32)
            prev = plan.prev32
        window = effective_window(
            None, capacity, prev=prev, est_cache=plan.distinct,
        )
        plan.windows[capacity] = window
    return window


def _plan_hits(
    plan: StreamPlan, capacity: int, model: str
) -> np.ndarray:
    """Hit mask (in permuted order) from a cached stream analysis."""
    if model == "window":
        return window_hits_from_prev(
            plan.prev, capacity, window=_plan_window(plan, capacity)
        )
    if model == "lru":
        if plan.lru_distances is None:
            plan.lru_distances = reuse_distances_from_prev(plan.prev)
        dist = plan.lru_distances
        return (dist >= 0) & (dist < capacity)
    raise ValueError(f"unknown cache model {model!r}")


def _plan_hit_rate(plan: StreamPlan, capacity: int, model: str) -> float:
    """Overall hit rate of a cached stream analysis."""
    if model == "window":
        return window_hit_rate_from_prev(
            plan.prev, capacity, _plan_window(plan, capacity)
        )
    hits = _plan_hits(plan, capacity, model)
    return float(hits.mean()) if hits.size else 0.0


def _row_hit_counts(
    kernel: KernelSpec, config: GPUConfig
) -> Tuple[np.ndarray, float]:
    """Per-block row-hit counts and the overall hit rate."""
    b = kernel.num_blocks
    if kernel.row_ids is None or kernel.num_row_accesses == 0:
        return np.zeros(b, dtype=np.float64), 0.0
    capacity = config.cache_capacity_rows(max(kernel.row_bytes, 1))
    limit = config.cache_trace_limit
    row_ptr = kernel.row_ptr
    row_ids = kernel.row_ids
    slots = config.total_block_slots
    use_plan = fastpath_enabled() or memo_enabled()
    if row_ids.shape[0] > limit:
        # Sample a contiguous block prefix: hit *rates* are stationary in
        # block order, so a window estimates the full-stream rate
        # (DESIGN.md §5).
        cut_block = int(np.searchsorted(row_ptr, limit, side="right")) - 1
        cut_block = max(cut_block, 1)
        cut = int(row_ptr[cut_block])
        sub_ptr = row_ptr[: cut_block + 1]
        sub_ids = row_ids[:cut]
        if use_plan:
            # Key by the *parent* arrays (long-lived, so their digests
            # are identity-cached) plus the cut, not by the fresh prefix
            # views — repeat lookups then cost zero hashing.
            key = None
            if memo_enabled():
                key = (
                    "prefix",
                    array_digest(row_ptr),
                    array_digest(row_ids),
                    cut_block,
                    slots,
                )
            plan = _stream_plan(sub_ptr, sub_ids, slots, key=key)
            rate = _plan_hit_rate(plan, capacity, config.cache_model)
        else:
            perm = interleaved_order(sub_ptr, slots)
            hits_win = hit_mask(sub_ids[perm], capacity, config.cache_model)
            rate = float(hits_win.mean()) if hits_win.size else 0.0
        per_block_rows = np.diff(row_ptr).astype(np.float64)
        return per_block_rows * rate, rate
    if use_plan:
        plan = _stream_plan(row_ptr, row_ids, slots)
        perm = plan.perm
        hits_sorted = _plan_hits(plan, capacity, config.cache_model)
    else:
        perm = interleaved_order(row_ptr, slots)
        hits_sorted = hit_mask(row_ids[perm], capacity, config.cache_model)
    hits = np.empty_like(hits_sorted)
    hits[perm] = hits_sorted
    if fastpath_enabled():
        # Per-block hit counts as prefix-sum differences: one cumsum
        # pass, empty blocks fall out as zero-width differences.  The
        # sums are exact integers, identical to the reduceat below.
        cs = np.zeros(hits.shape[0] + 1, dtype=np.int64)
        np.cumsum(hits, dtype=np.int64, out=cs[1:])
        counts = (cs[row_ptr[1:]] - cs[row_ptr[:-1]]).astype(np.float64)
    else:
        # Aggregate hits per block. reduceat needs non-empty rows
        # handled.
        counts = np.zeros(b, dtype=np.float64)
        lengths = np.diff(row_ptr)
        nonempty = lengths > 0
        if nonempty.any():
            red = np.add.reduceat(
                hits.astype(np.int64), row_ptr[:-1][nonempty]
            )
            counts[nonempty] = red
    rate = float(hits.mean()) if hits.size else 0.0
    return counts, rate


def block_durations(
    kernel: KernelSpec, config: GPUConfig
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Price each block; returns (durations, row_hit_counts, hit_rate)."""
    with PERF.stage("cache_model"):
        hit_counts, hit_rate = _row_hit_counts(kernel, config)
    rows = (
        np.diff(kernel.row_ptr).astype(np.float64)
        if kernel.row_ptr is not None
        else np.zeros(kernel.num_blocks)
    )
    miss_counts = rows - hit_counts
    rb = float(kernel.row_bytes)
    dram_bytes = miss_counts * rb + kernel.stream_bytes
    l2_bytes = hit_counts * rb
    # Dense kernels run at discounted peak; trace-carrying (irregular)
    # kernels pay full per-slot rates.
    eff = config.dense_efficiency if kernel.tag == "dense" else 1.0
    compute_t = kernel.block_flops / (config.flops_per_slot * eff)
    mem_t = (
        dram_bytes / config.dram_bw_per_slot
        + l2_bytes / config.l2_bw_per_slot
    )
    dur = np.maximum(compute_t, mem_t)
    dur = dur + config.block_overhead
    dur = dur + kernel.atomics * config.atomic_cost
    return dur, hit_counts, hit_rate


# ----------------------------------------------------------------------
# List scheduling
# ----------------------------------------------------------------------

def _list_schedule_reference(
    durations: np.ndarray, slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy earliest-free-slot schedule via a binary heap (reference)."""
    b = durations.shape[0]
    if b == 0:
        return np.zeros(0), np.zeros(0)
    if b <= slots:
        starts = np.zeros(b)
        return starts, durations.copy()
    # Only the free times matter, not which slot frees: a heap of them,
    # whose minimum is replaced by the block's end.
    heap = [0.0] * slots
    starts = np.empty(b)
    ends = np.empty(b)
    replace = heapq.heapreplace
    for i in range(b):
        free_at = heap[0]
        starts[i] = free_at
        end = free_at + durations[i]
        ends[i] = end
        replace(heap, end)
    return starts, ends


def _list_schedule(
    durations: np.ndarray, slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy earliest-free-slot schedule; returns (starts, ends)."""
    b = durations.shape[0]
    if b == 0:
        return np.zeros(0), np.zeros(0)
    if b <= slots:
        starts = np.zeros(b)
        return starts, durations.copy()
    # Fast path: (near-)uniform durations schedule round-robin exactly.
    dmin, dmax = float(durations.min()), float(durations.max())
    if dmax - dmin <= 1e-12 * max(dmax, 1e-30):
        waves = np.arange(b, dtype=np.int64) // slots
        starts = waves * dmax
        return starts.astype(np.float64), starts + durations
    if not (fastpath_enabled() and _native.available()):
        return _list_schedule_reference(durations, slots)
    # One compiled heap loop over every block: a binary min-heap pops the
    # same multiset minima whatever its internal layout, and the C loop
    # runs the identical ``end = start + duration`` additions, so it is
    # bit-identical to the reference.
    starts = np.empty(b)
    ends = np.empty(b)
    _native.greedy_schedule(
        np.ascontiguousarray(durations, dtype=np.float64),
        np.zeros(slots), starts, ends,
    )
    return starts, ends


# ----------------------------------------------------------------------
# Kernel simulation
# ----------------------------------------------------------------------

def _schedule(
    durations: np.ndarray, slots: int
) -> Tuple[np.ndarray, np.ndarray, float]:
    """List-schedule priced blocks; returns (starts, ends, makespan)."""
    with PERF.stage("schedule"):
        starts, ends = _list_schedule(durations, slots)
    return starts, ends, float(ends.max()) if ends.size else 0.0


def _launch_overhead(
    kernel: KernelSpec, config: GPUConfig, dispatch_overhead: float
) -> float:
    """Host launch cost charged to one kernel."""
    if not kernel.counts_launch:
        return 0.0
    return config.kernel_launch_overhead + dispatch_overhead


def kernel_time(
    kernel: KernelSpec, config: GPUConfig, dispatch_overhead: float = 0.0
) -> float:
    """Simulated seconds of one kernel, and nothing else.

    The same cache model, block pricing and list schedule as
    :func:`simulate_kernel`, so the result equals
    ``simulate_kernel(kernel, config, dispatch_overhead).time`` bit for
    bit; it skips the occupancy timeline, the :class:`KernelStats` and
    the kernel memo (its fingerprint and entry).  For callers that only
    compare times, such as the tuner's rounds.
    """
    durations, _, _ = block_durations(kernel, config)
    _, _, makespan = _schedule(durations, config.total_block_slots)
    return makespan + _launch_overhead(kernel, config, dispatch_overhead)


def _simulate_kernel_cold(
    kernel: KernelSpec, config: GPUConfig, dispatch_overhead: float
) -> KernelStats:
    durations, hit_counts, _ = block_durations(kernel, config)
    slots = config.total_block_slots
    starts, ends, makespan = _schedule(durations, slots)
    balanced = float(durations.sum()) / slots
    rows = kernel.num_row_accesses
    row_hits = float(hit_counts.sum())
    miss_bytes = (rows - row_hits) * kernel.row_bytes
    occ = occupancy_below(starts, ends, slots)
    return KernelStats(
        name=kernel.name,
        tag=kernel.tag,
        makespan=makespan,
        launch_overhead=_launch_overhead(kernel, config, dispatch_overhead),
        flops=kernel.total_flops,
        bytes_dram=float(miss_bytes + kernel.stream_bytes.sum()),
        bytes_l2=float(row_hits * kernel.row_bytes),
        row_accesses=rows,
        row_hits=int(round(row_hits)),
        num_blocks=kernel.num_blocks,
        balanced_time=balanced,
        occupancy=occ,
    )


def simulate_kernel(
    kernel: KernelSpec, config: GPUConfig, dispatch_overhead: float = 0.0
) -> KernelStats:
    """Run one kernel through the cache, pricing and scheduling models.

    ``dispatch_overhead`` is the per-operator host-side framework cost
    (Observation 3's "framework scheduling"); baselines dispatch every
    computation-graph op through the framework runtime, fused runtimes
    pay it once per fused kernel.

    Results are memoized content-addressed (see :mod:`repro.gpusim.memo`):
    two kernels with identical pricing inputs, row streams and config
    share one frozen stat, renamed through ``replace`` when a caller's
    name differs.
    """
    if not memo_enabled():
        return _simulate_kernel_cold(kernel, config, dispatch_overhead)
    key = kernel_fingerprint(kernel, config, dispatch_overhead)
    cached = KERNEL_MEMO.get(key)
    if cached is not None:
        PERF.count("kernel_memo_hit")
        if cached.name == kernel.name:
            return cached
        return dataclasses.replace(cached, name=kernel.name)
    PERF.count("kernel_memo_miss")
    stats = _simulate_kernel_cold(kernel, config, dispatch_overhead)
    KERNEL_MEMO.put(key, stats)
    return stats


def simulate_kernels(
    kernels: Sequence[KernelSpec] | Iterable[KernelSpec],
    config: GPUConfig,
    label: str = "",
    peak_mem_bytes: int = 0,
    dispatch_overhead: float = 0.0,
) -> RunReport:
    """Simulate a kernel sequence (one forward pass) into a RunReport.

    ``report.extra["perf"]`` carries the instrumentation delta for this
    run: cache-model/schedule seconds and memo hit counters.
    """
    snap = PERF.snapshot()
    report = RunReport(label=label, peak_mem_bytes=peak_mem_bytes)
    for k in kernels:
        report.add(simulate_kernel(k, config, dispatch_overhead))
    delta = PERF.delta_since(snap)
    counts = delta.get("counts", {})
    hits = counts.get("kernel_memo_hit", 0)
    misses = counts.get("kernel_memo_miss", 0)
    report.extra["perf"] = {
        "cache_model_seconds": delta["seconds"].get("cache_model", 0.0),
        "schedule_seconds": delta["seconds"].get("schedule", 0.0),
        "kernel_memo_hits": hits,
        "kernel_memo_misses": misses,
        "kernel_memo_hit_rate": hits / (hits + misses)
        if hits + misses
        else 0.0,
        "stream_cache_hits": counts.get("stream_cache_hit", 0),
        "stream_cache_misses": counts.get("stream_cache_miss", 0),
        "memo": memo_stats(),
    }
    return report


def simulate_plan(plan, config: GPUConfig | None = None) -> RunReport:
    """Execute a :class:`~repro.core.plan.CompiledPlan`.

    The first execution under the plan's own ``gpu_config`` stores its
    :class:`KernelStats` on the plan (``plan.simulated``); every repeat
    rebuilds the :class:`RunReport` from them without touching the cache
    model or the scheduler (counted as ``plan_memo_hit``/``_miss``).
    Any other ``config`` simulates through the kernel memo.  ``config``
    defaults to the configuration the plan was compiled for.
    """
    cfg = config if config is not None else plan.gpu_config
    if not memo_enabled():
        return simulate_kernels(
            plan.kernels, cfg, label=plan.label,
            peak_mem_bytes=plan.peak_mem_bytes,
            dispatch_overhead=plan.dispatch_overhead,
        )
    own = cfg == plan.gpu_config
    if own and plan.simulated is not None:
        PERF.count("plan_memo_hit")
        report = RunReport.replay(
            plan.simulated, label=plan.label,
            peak_mem_bytes=plan.peak_mem_bytes,
        )
        report.extra["perf"] = {
            "cache_model_seconds": 0.0,
            "schedule_seconds": 0.0,
            "kernel_memo_hits": 0,
            "kernel_memo_misses": 0,
            "kernel_memo_hit_rate": 0.0,
            "stream_cache_hits": 0,
            "stream_cache_misses": 0,
            "plan_memo_hit": True,
            "memo": memo_stats(),
        }
        return report
    PERF.count("plan_memo_miss")
    report = simulate_kernels(
        plan.kernels, cfg, label=plan.label,
        peak_mem_bytes=plan.peak_mem_bytes,
        dispatch_overhead=plan.dispatch_overhead,
    )
    report.extra["perf"]["plan_memo_hit"] = False
    if own:
        plan.simulated = tuple(report.kernels)
    return report
