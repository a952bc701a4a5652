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

* block pricing is one compiled pass over the numpy expressions;
* the list scheduler is one compiled winner-tree loop
  (:mod:`._native`), and a tuner round's (:func:`kernel_time`) keeps
  only the final slot free times, whose maximum is the makespan;
* a cold stream analysis (issue permutation + previous-occurrence
  array) is one compiled tick sweep;
* per-block hit counts are one compiled scatter-and-sum of the
  issue-order hit mask;
* the occupancy timeline is one compiled merge of sorted starts and
  ends (:func:`~repro.gpusim.metrics.occupancy_below`), whose ends the
  scheduler hands over already sorted;
* without a C compiler (or under ``REPRO_NATIVE=0``) each falls back to
  its reference: numpy pricing, the ``heapq`` scheduler, a ``lexsort``
  issue order followed by a stable-argsort previous-occurrence pass, a
  scatter and ``np.add.reduceat`` per block, and a stable argsort of
  the concatenated events;
* stream analyses (issue permutation + previous-occurrence array,
  int32 stream positions in both lanes, over int32 row ids) are
  memoized by the kernel's rows recipe, and whole :class:`KernelStats`
  by its recipe, in :mod:`repro.gpusim.memo` (by content for a kernel
  without recipes), so ablation variants stop re-simulating shared
  kernels and tuner rounds share stream analyses; a kernel lowered by a
  builder therefore hashes none of the arrays lowering just built,
  whether it hits or misses;
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
import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..perf import PERF, runtime
from .cache import (
    check_stream_length,
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
    stream_key,
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

    Returns ``int32[total]``, the stream analyses' dtype; raises
    ``ValueError`` first for a stream of ``2**31`` or more positions.
    """
    total = int(row_ptr[-1])
    check_stream_length(total)
    lengths = np.diff(row_ptr)
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
    return np.lexsort((block_of, offset, tick)).astype(np.int32)


# ----------------------------------------------------------------------
# Stream analysis (content-cached)
# ----------------------------------------------------------------------

def _cold_stream_plan(
    row_ptr: np.ndarray, row_ids: np.ndarray, num_slots: int
) -> StreamPlan:
    """Stream analysis from scratch: one native tick sweep when the
    lane is up, else the issue permutation then a previous-occurrence
    pass over the permuted stream (identical int32 results).  A stream
    of ``2**31`` or more positions raises ``ValueError`` before either
    lane reads it."""
    check_stream_length(int(row_ptr[-1]))
    if runtime().fastpath and _native.available():
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
    content: tuple | None = None,
) -> StreamPlan:
    """Issue permutation + previous-occurrence array for one stream.

    Keyed by ``key`` (a :func:`~repro.gpusim.memo.stream_key`; the
    stream's content when omitted), so every kernel sharing a block
    layout and row stream (tuner rounds at different feature lengths,
    ablation variants, repeated layers) reuses the analysis.  A
    ``content`` key, passed under ``runtime().strict`` beside a
    rows-recipe ``key``, is stored with the analysis; a hit stored for
    different content raises ``RuntimeError``, so a rows recipe that
    misses an input fails loudly instead of aliasing two streams.
    """
    if runtime().memo:
        if key is None:
            key = (array_digest(row_ptr), array_digest(row_ids), num_slots)
        plan = STREAM_CACHE.get(key)
        if plan is not None:
            if (content is not None and plan.content is not None
                    and content != plan.content):
                raise RuntimeError(
                    "stream cache: a rows recipe aliases a stream with "
                    "different rows"
                )
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
        plan.content = content
        STREAM_CACHE.put(key, plan, nbytes=plan.nbytes)
        return plan
    return _cold_stream_plan(row_ptr, row_ids, num_slots)


def _plan_window(plan: StreamPlan, capacity: int) -> int:
    """The window model's effective window for a cached stream analysis
    (memoized on the plan per capacity)."""
    window = plan.windows.get(capacity)
    if window is None:
        window = effective_window(None, capacity, prev=plan.prev)
        plan.windows[capacity] = window
    return window


def _plan_hits(
    plan: StreamPlan, capacity: int, model: str, key: tuple | None = None
) -> np.ndarray:
    """Hit mask (in permuted order) from a cached stream analysis.

    The exact-LRU model attaches the stack distances to the plan; when
    ``key`` names its ``STREAM_CACHE`` entry, the plan is re-put there
    so the tier's byte budget charges them.
    """
    if model == "window":
        return window_hits_from_prev(
            plan.prev, capacity, window=_plan_window(plan, capacity)
        )
    if model == "lru":
        if plan.lru_distances is None:
            plan.lru_distances = reuse_distances_from_prev(plan.prev)
            if key is not None:
                STREAM_CACHE.put(key, plan, nbytes=plan.nbytes)
        dist = plan.lru_distances
        return (dist >= 0) & (dist < capacity)
    raise ValueError(f"unknown cache model {model!r}")


def _plan_hit_rate(
    plan: StreamPlan, capacity: int, model: str, key: tuple | None = None
) -> float:
    """Overall hit rate of a cached stream analysis."""
    if model == "window":
        return window_hit_rate_from_prev(
            plan.prev, capacity, _plan_window(plan, capacity)
        )
    hits = _plan_hits(plan, capacity, model, key=key)
    return float(hits.mean()) if hits.size else 0.0


def _stream_keys(
    kernel: KernelSpec,
    row_ptr: np.ndarray,
    row_ids: np.ndarray,
    slots: int,
    cut_block: int | None = None,
) -> Tuple[tuple | None, tuple | None]:
    """``(key, content)`` for :func:`_stream_plan` of ``kernel``'s
    stream, or of its first ``cut_block`` blocks (``row_ptr`` and
    ``row_ids`` are then that prefix): the tier key, and under
    ``runtime().strict`` the content key a rows-recipe key is checked
    against.  Both None without the memo."""
    if not runtime().memo:
        return None, None
    content = None
    if runtime().strict and kernel.rows_recipe is not None:
        content = (array_digest(row_ptr), array_digest(row_ids), slots)
    return stream_key(kernel, slots, cut_block), content


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
    use_plan = runtime().fastpath or runtime().memo
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
            # Key by the whole stream's recipe (or its long-lived
            # arrays) plus the cut, never by the fresh prefix views.
            key, content = _stream_keys(
                kernel, sub_ptr, sub_ids, slots, cut_block
            )
            plan = _stream_plan(sub_ptr, sub_ids, slots, key, content)
            rate = _plan_hit_rate(
                plan, capacity, config.cache_model, key=key
            )
        else:
            perm = interleaved_order(sub_ptr, slots)
            hits_win = hit_mask(sub_ids[perm], capacity, config.cache_model)
            rate = float(hits_win.mean()) if hits_win.size else 0.0
        per_block_rows = np.diff(row_ptr).astype(np.float64)
        return per_block_rows * rate, rate
    if use_plan:
        key, content = _stream_keys(kernel, row_ptr, row_ids, slots)
        plan = _stream_plan(row_ptr, row_ids, slots, key, content)
        perm = plan.perm
        hits_sorted = _plan_hits(plan, capacity, config.cache_model, key=key)
    else:
        perm = interleaved_order(row_ptr, slots)
        hits_sorted = hit_mask(row_ids[perm], capacity, config.cache_model)
    if runtime().fastpath and _native.available():
        # One compiled scatter-and-sum.  The counts are exact integers,
        # so their sum over the (non-zero) access count is the mask's
        # mean to the bit.
        counts = _native.block_hit_counts(hits_sorted, perm, row_ptr)
        if counts is not None:
            return counts, float(counts.sum()) / hits_sorted.shape[0]
    hits = np.empty_like(hits_sorted)
    hits[perm] = hits_sorted
    # Aggregate hits per block. reduceat needs non-empty rows handled.
    counts = np.zeros(b, dtype=np.float64)
    lengths = np.diff(row_ptr)
    nonempty = lengths > 0
    if nonempty.any():
        red = np.add.reduceat(hits.astype(np.int64), row_ptr[:-1][nonempty])
        counts[nonempty] = red
    rate = float(hits.mean()) if hits.size else 0.0
    return counts, rate


def block_durations(
    kernel: KernelSpec, config: GPUConfig
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Price each block; returns (durations, row_hit_counts, hit_rate)."""
    with PERF.stage("cache_model"):
        hit_counts, hit_rate = _row_hit_counts(kernel, config)
    rb = float(kernel.row_bytes)
    # Dense kernels run at discounted peak; trace-carrying (irregular)
    # kernels pay full per-slot rates.
    eff = config.dense_efficiency if kernel.tag == "dense" else 1.0
    rate = config.flops_per_slot * eff
    if runtime().fastpath and _native.available():
        # The numpy lines below in one compiled pass, to the bit.
        dur = _native.block_prices(
            kernel.row_ptr, hit_counts, kernel.stream_bytes,
            kernel.block_flops, kernel.atomics, rb, rate,
            config.dram_bw_per_slot, config.l2_bw_per_slot,
            config.block_overhead, config.atomic_cost,
        )
        if dur is not None:
            return dur, hit_counts, hit_rate
    rows = (
        np.diff(kernel.row_ptr).astype(np.float64)
        if kernel.row_ptr is not None
        else np.zeros(kernel.num_blocks)
    )
    miss_counts = rows - hit_counts
    dram_bytes = miss_counts * rb + kernel.stream_bytes
    l2_bytes = hit_counts * rb
    compute_t = kernel.block_flops / rate
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


def _schedule_lane(durations: np.ndarray) -> str:
    """Which loop schedules more blocks than slots at these durations.

    ``"waves"`` when every duration is finite and within ``1e-12``
    (relative) of the largest: such blocks run in round-robin waves, and
    the wave formula (a multiply per wave, where a scheduler adds) is
    every lane's.  ``"tree"`` for the native winner tree, which takes
    finite durations of at least 0 (its pops are then ``heapq``'s to the
    bit); ``"heapq"`` otherwise and without the native lane.
    """
    dmin, dmax = float(durations.min()), float(durations.max())
    if dmax < math.inf and dmax - dmin <= 1e-12 * max(dmax, 1e-30):
        return "waves"
    if dmin >= 0.0 and dmax < math.inf and runtime().fastpath and (
        _native.available()
    ):
        return "tree"
    return "heapq"


def _list_schedule_sorted(
    durations: np.ndarray, slots: int, sort_ends: bool = True
) -> Tuple[np.ndarray, np.ndarray, "np.ndarray | None"]:
    """Greedy earliest-free-slot schedule; returns (starts, ends,
    sorted ends or None).

    The sorted ends come from the native winner tree alone, only when
    ``sort_ends`` asks for them.  It takes no negative or NaN duration,
    so every push is at least the pop it replaces: the pops (the starts)
    never decrease and the final free times are no smaller than the last
    of them, so ``starts + final free times`` is the sorted multiset
    ``slots`` zeros + ends, and the first ``slots`` starts are those
    zeros.  So ``np.sort(ends)`` is ``starts[slots:]`` followed by the
    sorted final free times, to the bit.  Every other path returns None
    and leaves the sort to its caller.
    """
    b = durations.shape[0]
    if b == 0:
        return np.zeros(0), np.zeros(0), None
    if b <= slots:
        starts = np.zeros(b)
        return starts, durations.copy(), None
    lane = _schedule_lane(durations)
    if lane == "waves":
        waves = np.arange(b, dtype=np.int64) // slots
        starts = waves * float(durations.max())
        return starts.astype(np.float64), starts + durations, None
    if lane == "tree":
        # One compiled pass over every block: the tree pops the same
        # multiset minima as the heap and runs the identical ``end =
        # start + duration`` additions, so it is bit-identical to the
        # reference.
        starts = np.empty(b)
        ends = np.empty(b)
        free_at = np.zeros(slots)
        if _native.greedy_schedule(durations, free_at, starts, ends):
            if not sort_ends:
                return starts, ends, None
            free_at.sort()
            return starts, ends, np.concatenate([starts[slots:], free_at])
    return (*_list_schedule_reference(durations, slots), None)


def _makespan(durations: np.ndarray, slots: int) -> float:
    """``ends.max()`` of :func:`_list_schedule_sorted`'s schedule, to
    the bit, without starts or ends on the native winner tree.

    From zero free times and durations of at least 0, every final free
    time is 0 or an end, and an end leaves the multiset only for a later
    one no smaller, so the largest final free time is the largest end.
    """
    if durations.shape[0] > slots and _schedule_lane(durations) == "tree":
        free_at = np.zeros(slots)
        if _native.greedy_schedule(durations, free_at):
            return float(free_at.max())
    _, ends, _ = _list_schedule_sorted(durations, slots, False)
    return float(ends.max()) if ends.size else 0.0


def _list_schedule(
    durations: np.ndarray, slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy earliest-free-slot schedule; returns (starts, ends)."""
    starts, ends, _ = _list_schedule_sorted(durations, slots, False)
    return starts, ends


# ----------------------------------------------------------------------
# Kernel simulation
# ----------------------------------------------------------------------

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
    with PERF.stage("schedule"):
        makespan = _makespan(durations, config.total_block_slots)
    return makespan + _launch_overhead(kernel, config, dispatch_overhead)


def _simulate_kernel_cold(
    kernel: KernelSpec, config: GPUConfig, dispatch_overhead: float
) -> KernelStats:
    durations, hit_counts, _ = block_durations(kernel, config)
    slots = config.total_block_slots
    with PERF.stage("schedule"):
        starts, ends, sorted_ends = _list_schedule_sorted(durations, slots)
    makespan = float(ends.max()) if ends.size else 0.0
    balanced = float(durations.sum()) / slots
    rows = kernel.num_row_accesses
    row_hits = float(hit_counts.sum())
    miss_bytes = (rows - row_hits) * kernel.row_bytes
    occ = occupancy_below(starts, ends, slots, sorted_ends=sorted_ends)
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

    Results are memoized (see :mod:`repro.gpusim.memo`): two kernels
    with the same recipe, or without one the same pricing arrays, and
    the same scalars and config share one frozen stat, renamed through
    ``replace`` when a caller's name differs.  Under
    ``runtime().strict`` a recipe-keyed lookup also fingerprints the
    arrays and raises ``RuntimeError`` when a hit was stored for
    different ones: a recipe that misses an input fails loudly instead
    of aliasing two kernels.
    """
    if not runtime().memo:
        return _simulate_kernel_cold(kernel, config, dispatch_overhead)
    key = kernel_fingerprint(kernel, config, dispatch_overhead)
    content = None
    if runtime().strict and kernel.recipe is not None:
        content = kernel_fingerprint(
            kernel, config, dispatch_overhead, by_content=True
        )
    cached = KERNEL_MEMO.get(key)
    if cached is not None:
        stats, stored = cached
        if content is not None and stored is not None and content != stored:
            raise RuntimeError(
                f"kernel memo: the recipe of {kernel.name!r} aliases a "
                f"kernel with different pricing arrays"
            )
        PERF.count("kernel_memo_hit")
        if stats.name == kernel.name:
            return stats
        return dataclasses.replace(stats, name=kernel.name)
    PERF.count("kernel_memo_miss")
    stats = _simulate_kernel_cold(kernel, config, dispatch_overhead)
    KERNEL_MEMO.put(key, (stats, content))
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
    if not runtime().memo:
        return simulate_kernels(
            plan.kernels, cfg, label=plan.label,
            peak_mem_bytes=plan.peak_mem_bytes,
            dispatch_overhead=plan.dispatch_overhead,
        )
    # A served request usually passes the plan's own config object.
    own = cfg is plan.gpu_config or cfg == plan.gpu_config
    if own and plan.simulated is not None:
        PERF.count("plan_memo_hit")
        report = RunReport.replay(
            plan.simulated, label=plan.label,
            peak_mem_bytes=plan.peak_mem_bytes,
            total_time=plan.simulated_total,
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
        plan.simulated_total = report.total_time
    return report
