"""Content-addressed memoization for kernel simulation.

Ablation suites and the 20-round tuner simulate the *same* kernels over
and over: every variant shares its baseline kernels, every feature
length of a sweep shares its block streams, and dense kernels repeat
across layers.  This module fingerprints the content that determines a
simulation's outcome and caches two tiers of work:

* **stream analyses** (:data:`STREAM_CACHE`) — the interleaved issue
  permutation and previous-occurrence array of a kernel's feature-row
  access stream, keyed by ``(row_ptr, row_ids, slot count)`` content.
  These are the argsort-heavy inputs of the L2 cache model and depend
  only on the stream, not on pricing, so a tuner round re-run at a new
  feature length pays nothing.
* **kernel statistics** (:data:`KERNEL_MEMO`) — the full
  :class:`~repro.gpusim.metrics.KernelStats` of a simulated kernel,
  keyed by :func:`kernel_fingerprint` over every pricing input plus the
  :class:`GPUConfig`.  The tier is in-process only: across processes,
  the plan cache's disk tier (:mod:`repro.core.persistence`) carries the
  compiled artifact and the simulation is re-run from it.

Every in-process tier, these and the plan cache of
:mod:`repro.core.plan`, is an :class:`LRUCache`; the bounds are the
module constants below, not environment options.

Array fingerprints use SHA-256 over the raw bytes (the fastest hash in
this interpreter on bulk input, ~1.8x BLAKE2b).  Arrays are treated
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
    two argsort-heavy quantities every cache-model evaluation needs.
    ``windows`` memoizes the effective working-set window per cache
    capacity and ``lru_distances`` the exact stack distances (both are
    pure functions of ``prev``, so they attach here).
    """

    perm: np.ndarray
    prev: np.ndarray
    #: capacity -> effective window.
    windows: Dict[int, int] = dataclasses.field(default_factory=dict)
    lru_distances: Optional[np.ndarray] = None
    #: window -> D(w) estimate; shared across the capacities probed
    #: against the same stream (the full-stream probe dominates).
    distinct: Dict[int, float] = dataclasses.field(default_factory=dict)
    #: Narrow copy of ``prev`` for the window-search probes (estimates
    #: are dtype-independent); built once per stream, not per search.
    prev32: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        total = self.perm.nbytes + self.prev.nbytes
        if self.lru_distances is not None:
            total += self.lru_distances.nbytes
        return total


#: Byte budgets of the three stream-side tiers.  They stay
#: separate: on the full-size paper workloads the stream and perm tiers
#: fill and evict, so one shared pool would grow peak memory.
STREAM_CACHE_BYTES = 512 * 1024 * 1024
REORDER_CACHE_BYTES = 256 * 1024 * 1024
PERM_CACHE_BYTES = 128 * 1024 * 1024

#: Stream analyses are large (two int64 arrays per stream), so the tier
#: is bounded by bytes; 512 MiB holds a full 20-round tuner sweep on the
#: largest scaled dataset.
STREAM_CACHE = LRUCache(
    max_entries=256,
    max_bytes=STREAM_CACHE_BYTES,
    name="stream_cache",
)

#: Reordered ragged row streams, keyed by
#: ``(row_ptr, row_ids, permutation)`` content.  Locality-aware layouts
#: re-apply the same block permutation to the same stream once per
#: feature length / ablation variant; the gather is the single most
#: expensive lowering step on the large datasets.
REORDER_CACHE = LRUCache(
    max_entries=64,
    max_bytes=REORDER_CACHE_BYTES,
    name="reorder_cache",
)

#: Issue permutations keyed by ``(row_ptr, num_slots)`` content only —
#: streams that differ in their rows but share a block layout (tuner
#: rounds at different feature lengths) reuse the argsort.  A separate
#: tier so the perm arrays never evict full stream analyses.
PERM_CACHE = LRUCache(
    max_entries=64,
    max_bytes=PERM_CACHE_BYTES,
    name="perm_cache",
)


# ----------------------------------------------------------------------
# Kernel-statistics tier
# ----------------------------------------------------------------------

def kernel_fingerprint(kernel, config, dispatch_overhead: float) -> str:
    """The :data:`KERNEL_MEMO` key of one simulation.

    Covers everything :func:`~repro.gpusim.executor.simulate_kernel`
    reads: block pricing arrays, the row stream, row bytes, launch
    accounting, the tag (it is echoed into the stats), the full
    ``GPUConfig`` and the dispatch overhead.  Kernel *names* are
    display-only and excluded; the executor restores them on every hit.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in (
        kernel.block_flops,
        kernel.row_ptr,
        kernel.row_ids,
        kernel.stream_bytes,
        kernel.atomics,
    ):
        h.update(array_digest(arr))
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


#: :func:`kernel_fingerprint` -> :class:`KernelStats`.  The executor
#: counts logical ``kernel_memo_{hit,miss}``; the tier itself reports
#: under ``kernel_memo_mem_*``.
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
