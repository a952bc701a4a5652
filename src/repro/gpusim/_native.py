"""Optional native accelerator for the greedy list scheduler.

The earliest-free-slot scheduler is a pop-min/push loop over a multiset
of slot free times — inherently sequential, and the one hot path numpy
cannot express.  This module compiles a ~30-line C implementation with
the system C compiler on first use (no third-party packages, no Python
headers — plain ``ctypes`` against a shared object) and caches the
artifact in the system temp directory keyed by source hash.

Bit-identity: the C loop performs exactly the reference arithmetic —
``end = start + duration`` one IEEE double addition per block, compiled
without any fast-math relaxation — and a binary min-heap always pops the
multiset minimum, so starts/ends match ``heapq`` to the last bit even
though the heap's internal layout differs.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_NATIVE=0`` simply leaves the pure-Python fallback in charge.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile

import numpy as np

from ..perf import env_flag

__all__ = [
    "available",
    "count_first_touch",
    "estimate_first_touch",
    "greedy_schedule",
    "interleave_order",
    "merge_pairs",
    "prev_occurrence",
    "window_mask",
]

_SOURCE = r"""
#include <stdlib.h>

static void sift_down(double* h, long k, long i) {
    for (;;) {
        long l = 2 * i + 1;
        if (l >= k) break;
        long r = l + 1;
        long m = (r < k && h[r] < h[l]) ? r : l;
        if (h[m] < h[i]) {
            double t = h[i]; h[i] = h[m]; h[m] = t;
            i = m;
        } else break;
    }
}

void greedy_schedule(const double* dur, long n, double* heap, long k,
                     double* starts, double* ends) {
    long i;
    for (i = k / 2 - 1; i >= 0; --i) sift_down(heap, k, i);
    for (i = 0; i < n; ++i) {
        double s = heap[0];
        double e = s + dur[i];
        starts[i] = s;
        ends[i] = e;
        heap[0] = e;               /* replace-top == pop + push */
        sift_down(heap, k, 0);
    }
}

/* Previous occurrence of each value in a bounded-int stream: one pass
 * over a last-seen-position table.  The data dependency (last[v] is
 * read and rewritten at every step) is what numpy cannot express. */
void prev_occurrence(const long* stream, long n, long* last, long* prev) {
    long i;
    for (i = 0; i < n; ++i) {
        long v = stream[i];
        prev[i] = last[v];
        last[v] = i;
    }
}

/* Strided first-touch count: number of positions i in
 * {t, t+stride, ...} < t+window with prev[i] < t.  One probe of the
 * working-set estimator (an exact integer count, so the estimate it
 * feeds matches the numpy path bit for bit).  Strided probes are
 * memory-latency bound; prefetching a few iterations ahead hides it. */
long count_first_touch(const int* prev, long t, long window, long stride,
                       long n) {
    long end = t + window, i, c = 0;
    if (end > n) end = n;
    for (i = t; i < end; i += stride) {
#ifdef __GNUC__
        if (i + 16 * stride < end)
            __builtin_prefetch(&prev[i + 16 * stride]);
#endif
        c += (prev[i] < (int)t);
    }
    return c;
}

/* All sampled probes of one D(w) estimate in a single call: the
 * per-start counts are exact integers and the accumulation performs
 * the same ``total += c * stride`` IEEE double additions, in the same
 * order, as the per-start loop — so the estimate is bit-identical
 * while the foreign-call overhead is paid once instead of per start. */
double estimate_first_touch(const int* prev, const long* starts,
                            long nstarts, long window, long stride,
                            long n) {
    double total = 0.0;
    long s;
    for (s = 0; s < nstarts; ++s) {
        long t = starts[s];
        long c = count_first_touch(prev, t, window, stride, n);
        total += (double)(c * stride);
    }
    return total;
}

/* Interleave sort key, fused: one pass fills
 * key[p] = (tick << shift) + offset without materializing the
 * block-of / repeat / gather intermediates the numpy formulation
 * needs.  Any shift with 2^shift > max offset orders identically; the
 * caller picks the smallest, so keys usually fit int32 (the 32-bit
 * variant) and the stable radix argsort moves half the bytes.  The
 * sort itself stays np.argsort(key, kind="stable") — numpy's radix
 * beats a hand-rolled one here, and a stable sort's permutation is
 * unique, so the fast path matches the lexsort reference exactly. */
void interleave_key(const long* row_ptr, const double* starts, long nb,
                    long shift, long* key) {
    long b, j, p = 0;
    for (b = 0; b < nb; ++b) {
        long len = row_ptr[b + 1] - row_ptr[b];
        long s = (long)starts[b];
        for (j = 0; j < len; ++j) {
            key[p++] = ((s + j) << shift) + j;
        }
    }
}

void interleave_key32(const long* row_ptr, const double* starts, long nb,
                      long shift, int* key) {
    long b, j, p = 0;
    for (b = 0; b < nb; ++b) {
        long len = row_ptr[b + 1] - row_ptr[b];
        long s = (long)starts[b];
        for (j = 0; j < len; ++j) {
            key[p++] = (int)(((s + j) << shift) + j);
        }
    }
}

/* Windowed-LRU hit mask: hit iff prev[i] >= max(i - w, 0). */
void window_mask(const long* prev, long n, long w, unsigned char* out) {
    long i;
    for (i = 0; i < n; ++i) {
        long t = i - w;
        if (t < 0) t = 0;
        out[i] = prev[i] >= t;
    }
}

/* ---- Priority-queue pair merging (locality-aware scheduling) ----
 *
 * Same algorithm as repro.core.scheduling._merge_pairs, operand for
 * operand: walk the statically sorted candidate pairs merged with an
 * overflow heap of re-paired representatives; union-find with
 * path-halving and size-weighted unions; re-pair similarity is
 * (#equal signature rows) / num_hashes, one IEEE double division.
 * Every comparison and arithmetic op mirrors the Python loop, so the
 * resulting partition is identical. */

typedef struct { double s; long u; long v; } mp_item;

static int mp_less(const mp_item* a, const mp_item* b) {
    if (a->s != b->s) return a->s < b->s;
    if (a->u != b->u) return a->u < b->u;
    return a->v < b->v;
}

static void mp_push(mp_item* h, long* len, mp_item it) {
    long i = (*len)++;
    h[i] = it;
    while (i > 0) {
        long p = (i - 1) / 2;
        if (mp_less(&h[i], &h[p])) {
            mp_item t = h[p]; h[p] = h[i]; h[i] = t;
            i = p;
        } else break;
    }
}

static mp_item mp_pop(mp_item* h, long* len) {
    mp_item top = h[0];
    h[0] = h[--(*len)];
    long i = 0;
    for (;;) {
        long l = 2 * i + 1, r = l + 1, m = i;
        if (l < *len && mp_less(&h[l], &h[m])) m = l;
        if (r < *len && mp_less(&h[r], &h[m])) m = r;
        if (m == i) break;
        mp_item t = h[m]; h[m] = h[i]; h[i] = t;
        i = m;
    }
    return top;
}

static long mp_find(long* parent, long x) {
    long root = x;
    while (parent[root] != root) root = parent[root];
    while (parent[x] != root) {
        long nx = parent[x];
        parent[x] = root;
        x = nx;
    }
    return root;
}

/* Open-addressing set of already re-paired (ru, rv) keys. */
static int seen_add(long** tab, long* cap, long* count, long key) {
    long mask = *cap - 1, i;
    i = (long)(((unsigned long)key * 11400714819323198485UL) >> 17) & mask;
    while ((*tab)[i] != -1) {
        if ((*tab)[i] == key) return 0;
        i = (i + 1) & mask;
    }
    (*tab)[i] = key;
    if (++(*count) * 2 > *cap) {          /* grow at 50% load */
        long ncap = *cap * 2, j;
        long* nt = malloc(ncap * sizeof(long));
        for (j = 0; j < ncap; ++j) nt[j] = -1;
        for (j = 0; j < *cap; ++j) {
            long k = (*tab)[j];
            if (k != -1) {
                long m2 = ncap - 1, p =
                    (long)(((unsigned long)k * 11400714819323198485UL)
                           >> 17) & m2;
                while (nt[p] != -1) p = (p + 1) & m2;
                nt[p] = k;
            }
        }
        free(*tab);
        *tab = nt;
        *cap = ncap;
    }
    return 1;
}

int merge_pairs(const double* negs, const long* us, const long* vs,
                long npairs, const long* sig_rows, long num_hashes,
                const unsigned char* empty, long n, long max_cluster,
                double min_similarity, long* parent, long* size) {
    long pos = 0, heap_len = 0, heap_cap = 1024;
    long seen_cap = 1024, seen_count = 0, j;
    mp_item* heap = malloc(heap_cap * sizeof(mp_item));
    long* seen = malloc(seen_cap * sizeof(long));
    if (!heap || !seen) { free(heap); free(seen); return -1; }
    for (j = 0; j < seen_cap; ++j) seen[j] = -1;
    while (heap_len > 0 || pos < npairs) {
        mp_item cur;
        if (pos >= npairs) {
            cur = mp_pop(heap, &heap_len);
        } else {
            cur.s = negs[pos]; cur.u = us[pos]; cur.v = vs[pos];
            if (heap_len > 0 && mp_less(&heap[0], &cur))
                cur = mp_pop(heap, &heap_len);
            else
                ++pos;
        }
        {
            long ru = mp_find(parent, cur.u);
            long rv = mp_find(parent, cur.v);
            if (ru == rv) continue;
            if (size[ru] + size[rv] > max_cluster) continue;
            if (ru == cur.u && rv == cur.v) {
                /* Larger cluster's representative wins the union. */
                if (size[ru] < size[rv]) { long t = ru; ru = rv; rv = t; }
                parent[rv] = ru;
                size[ru] += size[rv];
                continue;
            }
            {
                long k0 = ru < rv ? ru : rv;
                long k1 = ru < rv ? rv : ru;
                double s;
                if (!seen_add(&seen, &seen_cap, &seen_count, k0 * n + k1))
                    continue;
                if (empty[k0] && empty[k1]) {
                    s = 0.0;
                } else {
                    const long* a = sig_rows + k0 * num_hashes;
                    const long* b = sig_rows + k1 * num_hashes;
                    long c = 0, h;
                    for (h = 0; h < num_hashes; ++h) c += (a[h] == b[h]);
                    s = (double)c / (double)num_hashes;
                }
                if (s >= min_similarity) {
                    if (heap_len == heap_cap) {
                        heap_cap *= 2;
                        mp_item* nh =
                            realloc(heap, heap_cap * sizeof(mp_item));
                        if (!nh) { free(heap); free(seen); return -1; }
                        heap = nh;
                    }
                    mp_item it; it.s = -s; it.u = k0; it.v = k1;
                    mp_push(heap, &heap_len, it);
                }
            }
        }
    }
    free(heap);
    free(seen);
    return 0;
}
"""

logger = logging.getLogger(__name__)

_LIB = None
_TRIED = False


def _build() -> "ctypes.CDLL | None":
    tag = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = os.path.join(
        tempfile.gettempdir(), f"repro_native_{tag}.so"
    )
    if not os.path.exists(cache):
        cc = os.environ.get("CC", "cc")
        src = cache + f".{os.getpid()}.c"
        tmp = cache + f".{os.getpid()}.so"
        with open(src, "w") as f:
            f.write(_SOURCE)
        try:
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", src, "-o", tmp],
                check=True,
                capture_output=True,
                timeout=60,
            )
            os.replace(tmp, cache)  # atomic under concurrent builds
        finally:
            for leftover in (src, tmp):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    lib = ctypes.CDLL(cache)
    # Hottest entry point (one call per scheduling wave): raw-address
    # arguments skip ctypes pointer-object construction per call.
    fn = lib.greedy_schedule
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_long,
        ctypes.c_void_p, ctypes.c_long,
        ctypes.c_void_p, ctypes.c_void_p,
    ]
    fn = lib.prev_occurrence
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_long), ctypes.c_long,
        ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_long),
    ]
    fn = lib.count_first_touch
    fn.restype = ctypes.c_long
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_int), ctypes.c_long, ctypes.c_long,
        ctypes.c_long, ctypes.c_long,
    ]
    fn = lib.estimate_first_touch
    fn.restype = ctypes.c_double
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_long),
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    fn = lib.interleave_key
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_double),
        ctypes.c_long, ctypes.c_long, ctypes.POINTER(ctypes.c_long),
    ]
    fn = lib.interleave_key32
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_double),
        ctypes.c_long, ctypes.c_long, ctypes.POINTER(ctypes.c_int),
    ]
    fn = lib.window_mask
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_long), ctypes.c_long, ctypes.c_long,
        ctypes.POINTER(ctypes.c_ubyte),
    ]
    fn = lib.merge_pairs
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_long),
        ctypes.POINTER(ctypes.c_long), ctypes.c_long,
        ctypes.POINTER(ctypes.c_long), ctypes.c_long,
        ctypes.POINTER(ctypes.c_ubyte), ctypes.c_long, ctypes.c_long,
        ctypes.c_double,
        ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_long),
    ]
    return lib


def _load() -> "ctypes.CDLL | None":
    global _LIB, _TRIED
    if _TRIED:
        return _LIB
    _TRIED = True
    if not env_flag("REPRO_NATIVE", True):
        return None
    try:
        _LIB = _build()
    except Exception as exc:
        logger.warning(
            "native accelerator unavailable: build with compiler %r "
            "failed (%s: %s); using the pure-Python fallback",
            os.environ.get("CC", "cc"), type(exc).__name__, exc,
        )
        _LIB = None
    return _LIB


def available() -> bool:
    """True when the compiled scheduler is importable on this host."""
    return _load() is not None


def greedy_schedule(
    durations: np.ndarray,
    heap: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> None:
    """Run the greedy earliest-free-slot loop natively, in place.

    ``heap`` holds the slot free times on entry (any order) and the
    final free multiset on exit (heap order — sort before treating it as
    ascending).  ``starts``/``ends`` must be contiguous float64 views of
    ``durations``'s length.
    """
    lib = _load()
    lib.greedy_schedule(
        durations.ctypes.data, durations.shape[0],
        heap.ctypes.data, heap.shape[0],
        starts.ctypes.data, ends.ctypes.data,
    )


def interleave_order(
    row_ptr: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Stable (tick, offset, index) issue permutation.

    Builds the packed ``(tick << shift) + offset`` key in one fused C
    pass, then argsorts it with numpy's stable sort; a stable sort's
    permutation is unique and any ``2**shift`` > max offset orders
    (tick, offset) identically, so this equals the lexsort reference
    exactly.  The smallest shift keeps keys in int32 for typical
    streams — half the radix-sort traffic.  ``row_ptr`` contiguous
    int64, ``starts`` contiguous float64 (integer-valued block start
    ticks).
    """
    lib = _load()
    nb = row_ptr.shape[0] - 1
    n = int(row_ptr[-1])
    max_len = int(np.max(np.diff(row_ptr))) if nb else 0
    shift = max(max_len.bit_length(), 1)
    # Safe overestimate of the largest key: every tick is below the
    # largest block start plus the longest block's length.
    max_start = int(starts.max()) if nb else 0
    bound = ((max_start + max_len) << shift) + max_len
    if bound < np.iinfo(np.int32).max:
        key = np.empty(n, dtype=np.int32)
        lib.interleave_key32(
            row_ptr.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
            starts.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            nb, shift,
            key.ctypes.data_as(ctypes.POINTER(ctypes.c_int)),
        )
    else:
        key = np.empty(n, dtype=np.int64)
        lib.interleave_key(
            row_ptr.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
            starts.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            nb, shift,
            key.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        )
    return np.argsort(key, kind="stable")


def count_first_touch(
    prev: np.ndarray, t: int, window: int, stride: int
) -> int:
    """``np.count_nonzero(prev[t:t+window:stride] < t)`` in one C pass.

    ``prev`` must be contiguous int32.
    """
    lib = _load()
    return lib.count_first_touch(
        prev.ctypes.data_as(ctypes.POINTER(ctypes.c_int)),
        t, window, stride, prev.shape[0],
    )


def estimate_first_touch(
    prev: np.ndarray, starts: np.ndarray, window: int, stride: int
) -> float:
    """Sum of ``count_first_touch(prev, t, window, stride) * stride``
    over all ``t`` in ``starts``, accumulated in the reference order.

    ``prev`` must be contiguous int32, ``starts`` contiguous int64.
    """
    lib = _load()
    return lib.estimate_first_touch(
        prev.ctypes.data_as(ctypes.POINTER(ctypes.c_int)),
        starts.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        starts.shape[0], window, stride, prev.shape[0],
    )


def window_mask(prev: np.ndarray, w: int) -> np.ndarray:
    """Boolean hit mask ``prev >= maximum(arange(n) - w, 0)``."""
    lib = _load()
    n = prev.shape[0]
    out = np.empty(n, dtype=bool)
    lib.window_mask(
        prev.ctypes.data_as(ctypes.POINTER(ctypes.c_long)), n, w,
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
    )
    return out


def merge_pairs(
    negs: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    sig_rows: np.ndarray,
    empty: np.ndarray,
    max_cluster: int,
    min_similarity: float,
    parent: np.ndarray,
    size: np.ndarray,
) -> bool:
    """Native priority-queue pair merge; mutates ``parent``/``size``.

    Inputs must be contiguous: ``negs`` float64 (negated similarities in
    heap order), ``us``/``vs``/``parent``/``size`` int64, ``sig_rows``
    int64 ``[N, H]`` row-major, ``empty`` uint8/bool per node.  Returns
    False if the native side could not run (allocation failure).
    """
    lib = _load()
    lp = ctypes.POINTER(ctypes.c_long)
    dp = ctypes.POINTER(ctypes.c_double)
    rc = lib.merge_pairs(
        negs.ctypes.data_as(dp),
        us.ctypes.data_as(lp), vs.ctypes.data_as(lp), negs.shape[0],
        sig_rows.ctypes.data_as(lp), sig_rows.shape[1],
        empty.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
        parent.shape[0], max_cluster, min_similarity,
        parent.ctypes.data_as(lp), size.ctypes.data_as(lp),
    )
    return rc == 0


def prev_occurrence(
    stream: np.ndarray, nvals: int
) -> np.ndarray:
    """Previous-occurrence index per position (``-1`` for first touches).

    ``stream`` must be contiguous int64 with values in ``[0, nvals)``
    (the caller validates bounds — out-of-range values would index the
    scratch table out of bounds).
    """
    lib = _load()
    n = stream.shape[0]
    last = np.full(nvals, -1, dtype=np.int64)
    prev = np.empty(n, dtype=np.int64)
    lp = ctypes.POINTER(ctypes.c_long)
    lib.prev_occurrence(
        stream.ctypes.data_as(lp), n,
        last.ctypes.data_as(lp), prev.ctypes.data_as(lp),
    )
    return prev
