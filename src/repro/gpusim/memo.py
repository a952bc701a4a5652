"""Content-addressed memoization for kernel simulation.

Ablation suites and the 20-round tuner simulate the *same* kernels over
and over: every variant shares its baseline kernels, every feature
length of a sweep shares its block streams, and dense kernels repeat
across layers.  This module fingerprints the content that determines a
simulation's outcome and caches two tiers of work:

* **stream analyses** (:data:`STREAM_CACHE`) — the interleaved issue
  permutation and previous-occurrence array of a kernel's feature-row
  access stream, keyed by :func:`stream_key`: by the kernel's rows
  recipe (what lowering built ``row_ptr`` and ``row_ids`` from) and the
  slot count, or by the content of the two arrays for a kernel without
  one.  These are the order-dependent inputs of the L2 cache model (one
  tick sweep natively, sorts in numpy) and depend only on the stream,
  not on pricing, so a tuner round re-run at a new feature length pays
  nothing, and a cold kernel hashes none of the rows it was just built
  with.  Under ``runtime().strict`` the executor checks every
  rows-recipe hit against the stream's content.
* **kernel statistics** (:data:`KERNEL_MEMO`) — the full
  :class:`~repro.gpusim.metrics.KernelStats` of a simulated kernel,
  keyed by :func:`kernel_fingerprint` over every pricing input plus the
  :class:`GPUConfig`.  A kernel from a lowering builder stands for its
  pricing arrays by its recipe (what lowering built them from), so the
  key hashes no freshly lowered array; under ``runtime().strict`` the
  executor checks every recipe hit against the arrays' content.  The
  tier is in-process only: across processes, the plan cache's disk tier
  (:mod:`repro.core.persistence`) carries the compiled artifact and the
  simulation is re-run from it.

Every in-process tier, these and the plan cache of
:mod:`repro.core.plan`, is an :class:`LRUCache`; the bounds are the
module constants below, not environment options.

Array fingerprints use SHA-256 over the raw bytes (the fastest hashlib
hash on bulk input where the CPU has SHA instructions: 1.24 GB/s
against 0.35 for BLAKE2b and 0.45 for MD5 on a 2-vCPU x86 VM).  The
lever is hashing less, not faster: recipes key lowered kernels and
their row streams without hashing their arrays.  Arrays are treated
as immutable once simulated (the repo-wide convention); a weakref-guarded
identity cache makes re-hashing long-lived arrays (e.g. a graph's CSR
``indices``) free without ever trusting a recycled ``id()``.  Each entry
dies with its array through a keyed weakref callback, so a cold digest
costs O(1) bookkeeping however many arrays a long-lived server keeps
alive: there is no sweep and no size threshold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..perf import PERF

__all__ = [
    "array_digest",
    "LRUCache",
    "StreamPlan",
    "stream_key",
    "kernel_fingerprint",
    "STREAM_CACHE",
    "KERNEL_MEMO",
    "REORDER_CACHE",
    "clear_caches",
    "memo_stats",
]


# ----------------------------------------------------------------------
# Array fingerprints
# ----------------------------------------------------------------------

#: id(array) -> (keyed weakref, digest).  The weakref proves the id has
#: not been recycled by the allocator (the aliasing trap ``id()``-keyed
#: caches fall into after garbage collection); its callback drops the
#: entry when the array dies, so the cache holds only live arrays.
_DIGESTS: Dict[int, Tuple[weakref.KeyedRef, bytes]] = {}


def _forget(ref: weakref.KeyedRef) -> None:
    # A newer entry may already reuse the recycled id: leave it alone.
    entry = _DIGESTS.get(ref.key)
    if entry is not None and entry[0] is ref:
        del _DIGESTS[ref.key]


#: id(config) -> (config, repr) — ``dataclasses.astuple`` walks the whole
#: frozen config on every call, which dominates fingerprinting of
#: memo-warm kernels.  Configs are tiny and few; the strong reference
#: keeps each id valid for the lifetime of its entry.
_CONFIG_REPRS: Dict[int, Tuple[object, str]] = {}


def _config_repr(config) -> str:
    key = id(config)
    entry = _CONFIG_REPRS.get(key)
    if entry is not None and entry[0] is config:
        return entry[1]
    text = repr(dataclasses.astuple(config))
    if len(_CONFIG_REPRS) > 64:
        _CONFIG_REPRS.clear()
    _CONFIG_REPRS[key] = (config, text)
    return text


def array_digest(arr: Optional[np.ndarray]) -> bytes:
    """16-byte SHA-256 content digest of an array (or ``None``)."""
    if arr is None:
        return b"\x00" * 16
    key = id(arr)
    entry = _DIGESTS.get(key)
    if entry is not None and entry[0]() is arr:
        return entry[1]
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
    h.update(a.data)
    digest = h.digest()[:16]
    try:
        _DIGESTS[key] = (weakref.KeyedRef(arr, _forget, key), digest)
    except TypeError:  # non-weakref-able input (e.g. a plain list)
        pass
    return digest


# ----------------------------------------------------------------------
# Generic LRU with a byte budget
# ----------------------------------------------------------------------

#: Every LRUCache registers here so :func:`clear_caches` reaches tiers
#: owned by other modules (e.g. the tuner's grouping cache).
_ALL_CACHES: list = []


class LRUCache:
    """LRU keyed by hashable tuples, bounded by entries and bytes.

    ``max_entries=None`` means unbounded; ``0`` admits nothing.  Under a
    byte budget the newest entry always survives, so a single oversized
    value still caches.  Hits, misses and evictions count in
    :data:`~repro.perf.PERF` as ``<name>_hit`` / ``_miss`` / ``_evict``.
    """

    def __init__(self, max_entries: Optional[int] = 1024,
                 max_bytes: Optional[int] = None,
                 name: str = "cache") -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.name = name
        self._data: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0
        _ALL_CACHES.append(self)

    def get(self, key):
        entry = self._data.get(key)
        if entry is None:
            PERF.count(f"{self.name}_miss")
            return None
        self._data.move_to_end(key)
        PERF.count(f"{self.name}_hit")
        return entry[0]

    def put(self, key, value, nbytes: int = 0) -> None:
        if key in self._data:
            self._bytes -= self._data.pop(key)[1]
        self._data[key] = (value, nbytes)
        self._bytes += nbytes
        self.trim()

    def trim(self) -> None:
        """Evict least-recently-used entries until both bounds hold."""
        while (
            (self.max_entries is not None
             and len(self._data) > self.max_entries)
            or (self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._data) > 1)
        ):
            _, (_, dropped) = self._data.popitem(last=False)
            self._bytes -= dropped
            PERF.count(f"{self.name}_evict")

    def contains(self, key) -> bool:
        """Membership peek: no hit/miss counters, no LRU reordering."""
        return key in self._data

    def clear(self) -> None:
        self._data.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def nbytes(self) -> int:
        return self._bytes


# ----------------------------------------------------------------------
# Stream-analysis tier
# ----------------------------------------------------------------------

@dataclasses.dataclass
class StreamPlan:
    """Cached order-dependent analysis of one block access stream.

    ``perm`` is the interleaved (concurrent-execution) issue order and
    ``prev`` the previous-occurrence array of the permuted stream — the
    two order-dependent quantities every cache-model evaluation needs.
    ``windows`` memoizes the effective working-set window per cache
    capacity and ``lru_distances`` the exact stack distances (both are
    pure functions of ``prev``, so they attach here).  The three arrays
    are int32 stream positions, so an analysis costs 8 bytes per
    position, 12 with the stack distances.
    """

    perm: np.ndarray
    prev: np.ndarray
    #: capacity -> effective window.
    windows: Dict[int, int] = dataclasses.field(default_factory=dict)
    lru_distances: Optional[np.ndarray] = None
    #: The content key ``(digest(row_ptr), digest(row_ids), slots)`` of
    #: the stream, kept beside an analysis stored under a rows-recipe
    #: key under ``runtime().strict`` (None otherwise), so a strict hit
    #: can prove the recipe did not alias two different streams.
    content: Optional[tuple] = None

    @property
    def nbytes(self) -> int:
        total = self.perm.nbytes + self.prev.nbytes
        if self.lru_distances is not None:
            total += self.lru_distances.nbytes
        return total


#: Byte budgets of the three stream-side tiers.  They stay
#: separate: on the full-size paper workloads the stream and perm tiers
#: fill and evict, so one shared pool would grow peak memory.  The
#: stream and perm tiers hold int32 positions; their budgets are half
#: of what the same entries took as int64, so they keep the same
#: entries and evict in the same order.
STREAM_CACHE_BYTES = 256 * 1024 * 1024
REORDER_CACHE_BYTES = 256 * 1024 * 1024
PERM_CACHE_BYTES = 64 * 1024 * 1024

#: Stream analyses are large (two int32 arrays per stream), so the tier
#: is bounded by bytes; 256 MiB holds a full 20-round tuner sweep on the
#: largest scaled dataset.  Keys come from :func:`stream_key`.
STREAM_CACHE = LRUCache(
    max_entries=256,
    max_bytes=STREAM_CACHE_BYTES,
    name="stream_cache",
)

#: Reordered ragged row streams (int64 ``row_ptr``, int32 ``row_ids``),
#: keyed by ``(row_ptr, row_ids, permutation)`` content.  Locality-aware
#: layouts re-apply the same block permutation to the same stream once
#: per feature length / ablation variant; the gather is the single most
#: expensive lowering step on the large datasets.  The parent rows are
#: long-lived builder inputs (a graph's ``indices``, a grouping's
#: ``group_ptr``), so their digests are identity-cached.
REORDER_CACHE = LRUCache(
    max_entries=64,
    max_bytes=REORDER_CACHE_BYTES,
    name="reorder_cache",
)

#: Issue permutations keyed by ``(row_ptr, num_slots)`` content only —
#: streams that differ in their rows but share a block layout (tuner
#: rounds at different feature lengths) reuse the issue order.  A separate
#: tier so the perm arrays never evict full stream analyses.
PERM_CACHE = LRUCache(
    max_entries=64,
    max_bytes=PERM_CACHE_BYTES,
    name="perm_cache",
)


# ----------------------------------------------------------------------
# Kernel-statistics tier
# ----------------------------------------------------------------------

def _recipe_text(part) -> str:
    """Canonical text of a recipe: arrays by content digest (free for
    the long-lived inputs recipes hold), nested recipes recursively."""
    if isinstance(part, np.ndarray):
        return array_digest(part).hex()
    if isinstance(part, tuple):
        return "(" + ",".join(_recipe_text(p) for p in part) + ")"
    return repr(part)


def stream_key(kernel, slots: int, cut_block: Optional[int] = None) -> tuple:
    """The :data:`STREAM_CACHE` key of a kernel's row stream on
    ``slots`` block slots, or of its first ``cut_block`` blocks (the
    sampled prefix of a stream past the trace limit).

    A kernel with a :attr:`~repro.gpusim.kernel.KernelSpec.rows_recipe`
    is keyed by the recipe's canonical text, which digests only the
    long-lived inputs it names, never the rows lowering just built; any
    other kernel by the content digests of ``row_ptr`` and ``row_ids``.
    The two kinds of key never coincide.
    """
    if kernel.rows_recipe is not None:
        rows = ("rows", _recipe_text(kernel.rows_recipe))
    else:
        rows = (array_digest(kernel.row_ptr), array_digest(kernel.row_ids))
    if cut_block is None:
        return (*rows, slots)
    return ("prefix", *rows, cut_block, slots)


def kernel_fingerprint(
    kernel, config, dispatch_overhead: float, *, by_content: bool = False
) -> str:
    """The :data:`KERNEL_MEMO` key of one simulation.

    Covers everything :func:`~repro.gpusim.executor.simulate_kernel`
    reads: the five pricing arrays (block FLOPs, the row stream's
    pointer and ids, streaming bytes, atomics), row bytes, launch
    accounting, the tag (it is echoed into the stats), the full
    ``GPUConfig`` and the dispatch overhead.  A kernel from a lowering
    builder stands for its arrays by its
    :attr:`~repro.gpusim.kernel.KernelSpec.recipe`, so its key costs no
    hashing of freshly built arrays; a kernel without one (built by
    hand, loaded from a plan artifact, a multi-device transfer), or any
    kernel under ``by_content=True``, digests the arrays themselves.
    The two kinds of key never coincide.  Kernel *names* are
    display-only and excluded; the executor restores them on every hit.
    """
    h = hashlib.blake2b(digest_size=16)
    if kernel.recipe is None or by_content:
        h.update(b"content")
        for arr in (
            kernel.block_flops,
            kernel.row_ptr,
            kernel.row_ids,
            kernel.stream_bytes,
            kernel.atomics,
        ):
            h.update(array_digest(arr))
    else:
        h.update(b"recipe")
        h.update(_recipe_text(kernel.recipe).encode())
    h.update(
        repr((
            kernel.row_bytes,
            kernel.counts_launch,
            kernel.tag,
            _config_repr(config),
            dispatch_overhead,
        )).encode()
    )
    return h.hexdigest()


#: :func:`kernel_fingerprint` -> ``(KernelStats, content fingerprint)``;
#: the content fingerprint is stored for recipe-keyed entries made under
#: ``runtime().strict`` (None otherwise), so a strict hit can prove the
#: recipe did not alias two different kernels.  The executor counts
#: logical ``kernel_memo_{hit,miss}``; the tier itself reports under
#: ``kernel_memo_mem_*``.
KERNEL_MEMO = LRUCache(max_entries=4096, name="kernel_memo_mem")


# ----------------------------------------------------------------------
def clear_caches() -> None:
    """Drop all in-process memo tiers (not the plan cache's disk tier)."""
    for cache in _ALL_CACHES:
        cache.clear()
    _DIGESTS.clear()


def memo_stats() -> Dict[str, object]:
    """Counters for the perf harness / ``RunReport.extra``."""
    return {
        "kernel_memo_entries": len(KERNEL_MEMO),
        "kernel_memo_hit_rate": PERF.memo_hit_rate("kernel_memo"),
        "stream_cache_entries": len(STREAM_CACHE),
        "stream_cache_bytes": STREAM_CACHE.nbytes,
        "stream_cache_hit_rate": PERF.memo_hit_rate("stream_cache"),
        "perm_cache_entries": len(PERM_CACHE),
        "perm_cache_hit_rate": PERF.memo_hit_rate("perm_cache"),
        "digest_cache_entries": len(_DIGESTS),
    }
