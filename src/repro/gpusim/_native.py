"""Optional native accelerator for the simulator's sequential loops.

A few hot loops carry a data dependency numpy cannot express: the
earliest-free-slot list scheduler (a pop-min/push loop over slot free
times, kept in a winner tree), the tick sweep that turns a block
layout into its issue order, the merge of a schedule's sorted start and
end events into its occupancy timeline, last-seen tables and, for
locality-aware
scheduling, the MinHash per-row minima (reduced in place, where numpy
gathers per edge, in passes of eight hashes so each pass's table of
hash values is ``N x 8`` and each edge reads one cache line of it), the
LSH bucket grouping (a hash map instead of one argsort per band), the
pair similarities and the pair-merging heap.  The per-block hit counts
are one call too: the issue-order hit mask is scattered back to stream
order and each block's range summed, where numpy makes a scatter and a
pass per reduction.  One more loop is cheap
per step but called once per row: the k-hop sampler's
``rng.choice(d, k, replace=False)`` draws, which ``choice_rows`` makes
for a whole hop in one call on the caller's own bit generator.  And
the graph generators' weighted draws search an unsorted stream of
uniforms in a cumulative distribution, one binary search each;
``weighted_search`` does it through a guide table in expected O(1) per
draw.  The same generators build their CSR in two passes around one
numpy sort: ``edge_keys`` mixes each edge's window and alternative
sources, relabels both ends, drops self-loops and packs
``dst * N + src`` in one pass over the numpy draws, and
``distinct_keys_csr`` turns the sorted keys into ``indptr`` and
``indices`` in one more, skipping repeats.  Last, the cache model's
effective-window search is one call:
each bisection probe stops as soon as its exact count shows the window
overflows the cache, which a vectorized count cannot.  The stream
analyses these kernels write and read (issue permutation, previous
occurrences, their last-seen tables) are int32 stream positions, the
dtype the reference lane returns too.  Three loops are cheap but long:
block pricing (``block_prices``, the executor's numpy expressions in
one pass) and the window model's hit mask and hit count, whose compares
are split so the compiler vectorizes them.  This module
compiles the embedded C source below with the system C compiler on
first use (no third-party packages, no Python headers — plain
``ctypes`` against a shared object) and caches the artifact in the
system temp directory keyed by the compile command and source hash.

Bit-identity: the scheduler performs exactly the reference arithmetic —
``end = start + duration`` one IEEE double addition per block, compiled
without any fast-math relaxation — and its winner tree (slot free times
as leaves, padded to a power of two with ``+inf``) pops the multiset
minimum as ``heapq`` does, so starts, ends and the final free multiset
match ``heapq`` to the last bit although which slot wins a tie differs.
That needs durations finite and not negative and free times finite and
never ``-0.0`` (a tie of ``+0.0`` with ``-0.0``, or of a real ``+inf``
with the padding, could pop other bits); the call declines anything
else.  ``block_prices`` makes numpy's operations in numpy's order, one
rounding each: the library is built with ``-ffp-contract=off``, so
``miss * rb + stream`` is never fused into an FMA, and its select is
``(a > b || a != a) ? a : b``, ``np.maximum``'s rule (the second
argument on ties, ``np.maximum(-0.0, 0.0)`` is ``0.0``, and NaN from
either side).  The window counts test ``prev[i] >= 0`` for the first
``w`` positions and the int32 compare ``prev[i] - i >= -w`` after them,
the same hits as ``prev[i] >= max(i - w, 0)``.  The other loops mirror
their references operation for operation (see each one's comment).
``choice_rows`` mirrors numpy's ``Generator.choice``, which NEP 19 lets
numpy change, so it checks itself against ``rng.choice`` on first use
and, on a mismatch, warns once and declines for the rest of the process.
``weighted_search`` is exactly ``searchsorted(cdf, u, side="right")``:
the guide table only picks where each exact forward scan starts.
``edge_keys`` takes its draws from numpy and makes numpy's IEEE steps
on them: one double multiply ``u_off * (double)width``, truncation
toward zero (``astype(int64)``) and one ``u_pick < threshold`` compare;
the rest is integer work, and a distinct sorted key decodes to one
(row, source) pair, so the CSR is the numpy lane's to the bit.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_NATIVE=0`` (``perf.override(native=False)``) leaves each call
site on its reference implementation, the one
``override(fastpath=False)`` selects.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile

import numpy as np

from ..perf import runtime

__all__ = [
    "available",
    "block_hit_counts",
    "block_prices",
    "choice_rows",
    "distinct_keys_csr",
    "edge_keys",
    "greedy_schedule",
    "lsh_pairs",
    "merge_pairs",
    "minhash_rows",
    "occupancy_merge",
    "pair_similarity",
    "prev_occurrence",
    "stream_plan",
    "weighted_search",
    "window_hit_count",
    "window_mask",
    "window_search",
]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Loops the compiler should vectorize.  GCC 12 leaves them scalar at
 * -O2 and -O3 slows the slot scheduler's branch-free selects into
 * branches, so only these functions get O3 (and are never inlined into
 * an O2 caller, which would drop it); other compilers see plain
 * functions. */
#if defined(__GNUC__) && !defined(__clang__)
#define VECTOR_LOOP __attribute__((optimize("O3"), noinline))
#else
#define VECTOR_LOOP
#endif

/* ---- Earliest-free-slot list scheduling ----
 *
 * The k slot free times are the leaves of a winner (tournament) tree,
 * padded to a power of two m with +inf: node p < m holds the smaller of
 * its children's values and that value's leaf, so the root t[1] is the
 * least free time.  A block takes the root's time s and leaf, writes
 * s + d into that leaf and replays the fixed leaf-to-root path against
 * the siblings, whose addresses are known before any comparison (a
 * heap chains a load, a compare and an index step per level instead).
 * Whatever its layout, a structure that pops the multiset minimum pops
 * the same values, and end = start + duration is one IEEE addition, so
 * starts, ends and the final free multiset are heapq's to the bit --
 * given finite durations >= 0 and free times that are finite and never
 * -0.0, where ties (+0.0 against -0.0, or a real +inf against the
 * padding) could pop different bits. */

typedef struct { double v; long j; } wt_node;

/* The tree over free_at[0..k) (all zeros when free_at is NULL); *m gets
 * the leaf count.  NULL on allocation failure. */
static wt_node* wt_build(const double* free_at, long k, long* m) {
    long p, leaves = 1;
    wt_node* t;
    while (leaves < k) leaves <<= 1;
    t = malloc(2 * leaves * sizeof(wt_node));
    if (!t) return NULL;
    for (p = 0; p < leaves; ++p) {
        t[leaves + p].v = p >= k ? INFINITY : free_at ? free_at[p] : 0.0;
        t[leaves + p].j = p;
    }
    for (p = leaves - 1; p >= 1; --p)
        t[p] = t[2 * p + 1].v < t[2 * p].v ? t[2 * p + 1] : t[2 * p];
    *m = leaves;
    return t;
}

/* Pop the least free time s, push s + d in its slot; returns s.  The
 * sibling is loaded whole before the compare, so GCC keeps both
 * selects branch-free (minsd and cmov on x86-64). */
static inline double wt_take(wt_node* t, long m, double d) {
    double s = t[1].v, v = s + d;
    long j = t[1].j, p = m + j;
    t[p].v = v;
    while (p > 1) {
        double ov = t[p ^ 1].v;
        long oj = t[p ^ 1].j;
        int lt = ov < v;
        v = lt ? ov : v;
        j = lt ? oj : j;
        p >>= 1;
        t[p].v = v;
        t[p].j = j;
    }
    return s;
}

/* Greedy schedule of n blocks on k slots whose free times free_at holds
 * (any order); on success free_at holds the final free multiset (slot
 * order) and starts/ends, when not NULL, each block's times.  Returns -1
 * (free_at untouched, starts/ends unspecified) on a duration that is
 * negative, infinite or NaN, a free time that is infinite, NaN or -0.0,
 * or an allocation failure. */
int greedy_schedule(const double* dur, long n, double* free_at, long k,
                    double* starts, double* ends) {
    long i, m;
    wt_node* t;
    for (i = 0; i < k; ++i)
        if (!isfinite(free_at[i])
            || (free_at[i] == 0.0 && signbit(free_at[i]))) return -1;
    t = wt_build(free_at, k, &m);
    if (!t) return -1;
    for (i = 0; i < n; ++i) {
        double d = dur[i], s;
        if (!(d >= 0.0 && d < INFINITY)) {
            free(t);
            return -1;
        }
        s = wt_take(t, m, d);
        if (starts) {
            starts[i] = s;
            ends[i] = s + d;
        }
    }
    for (i = 0; i < k; ++i) free_at[i] = t[m + i].v;
    free(t);
    return 0;
}

/* Occupancy timeline of a block schedule: one merge of the ascending
 * starts s[0..n) and ascending ends e[0..n) into event order, every
 * start before every end at equal times -- the order the reference's
 * stable argsort of concat(starts, ends) gives.  Writes each event's
 * span to the next event (t[k+1] - t[k], the last event's t - t) and
 * the active block count after it. */
void occupancy_merge(const double* s, const double* e, long n,
                     double* span, long* active) {
    long i = 0, j = 0, k, a = 0, m = 2 * n;
    double t = 0.0, prev = 0.0;
    for (k = 0; k < m; ++k) {
        if (i < n && (j >= n || s[i] <= e[j])) {
            t = s[i++];
            ++a;
        } else {
            t = e[j++];
            --a;
        }
        if (k) span[k - 1] = t - prev;
        active[k] = a;
        prev = t;
    }
    if (m) span[m - 1] = t - t;
}

/* Previous occurrence of each value in a bounded-int stream: one pass
 * over a last-seen-position table.  The data dependency (last[v] is
 * read and rewritten at every step) is what numpy cannot express.
 * Values (row ids) and positions are int32 (the caller keeps n below
 * 2**31). */
void prev_occurrence(const int* stream, long n, int* last, int* prev) {
    long i;
    for (i = 0; i < n; ++i) {
        int v = stream[i];
        prev[i] = last[v];
        last[v] = (int)i;
    }
}

/* ---- Effective-window search (cache.effective_window) ----
 *
 * The reference bisection, probe for probe: the whole stream first,
 * then lo = max(1, cap), hi = n while hi - lo > max(16, lo / 8).  A
 * probe of window w asks whether D(w) <= cap.  D(w) is total / 8, and
 * total sums stride * #{i in t, t + stride, ... < t + w : prev[i] < t}
 * over the 8 starts t = linspace(0, n - w, 8).astype(int64), i.e.
 * (long)(j * ((n - w) / 7.0)) for j < 7 and n - w last, with
 * stride = max(1, w / 65536) (cache._SAMPLES and cache._MAX_EVAL).
 * total is an exact integer, so D(w) <= cap iff total <= 8 * cap, and
 * since no count is negative a probe counts in chunks and stops as
 * soon as its running total passes that bound.  A start equal to the
 * one before reuses its count.  Strided probes are memory-latency
 * bound; prefetching a few iterations ahead hides it. */

#define WS_SAMPLES 8
#define WS_MAX_EVAL 65536
#define WS_CHUNK 4096

/* #{i in [i0, stop) : prev[i] < t}; int32 compares, so it vectorizes. */
VECTOR_LOOP static long ws_count(const int* prev, long i0, long stop,
                                 int t) {
    long i;
    int c = 0;
    for (i = i0; i < stop; ++i) c += prev[i] < t;
    return c;
}

static int ws_exceeds(const int* prev, long n, long w, long bound) {
    long stride = w / WS_MAX_EVAL, total = 0, c = 0, last = -1, j;
    if (stride < 1) stride = 1;
    for (j = 0; j < WS_SAMPLES; ++j) {
        long t = j < WS_SAMPLES - 1
            ? (long)(j * ((n - w) / (double)(WS_SAMPLES - 1))) : n - w;
        if (t != last) {
            long i = t, end = t + w;
            c = 0;
            while (i < end) {
                long stop = i + WS_CHUNK * stride, k = 0;
                if (stop > end) stop = end;
                if (stride == 1) {
                    k = ws_count(prev, i, stop, (int)t);
                    i = stop;
                }
                for (; i < stop; i += stride) {
#ifdef __GNUC__
                    if (i + 16 * stride < end)
                        __builtin_prefetch(&prev[i + 16 * stride]);
#endif
                    k += prev[i] < t;
                }
                c += k;
                if (total + c * stride > bound) return 1;
            }
            last = t;
        }
        total += c * stride;
        if (total > bound) return 1;
    }
    return 0;
}

long window_search(const int* prev, long n, long cap) {
    long bound = WS_SAMPLES * cap, lo = cap > 1 ? cap : 1, hi = n;
    if (!ws_exceeds(prev, n, n, bound)) return n;
    while (hi - lo > (lo / 8 > 16 ? lo / 8 : 16)) {
        long mid = (lo + hi) / 2;
        if (ws_exceeds(prev, n, mid, bound)) hi = mid;
        else lo = mid;
    }
    return lo;
}

/* Issue order + previous occurrence of one block access stream, in one
 * tick sweep.  Block lengths are greedy-scheduled on k slots by the
 * winner tree (integer lengths keep every start exact, and the pops
 * never decrease, so starts are non-decreasing).  Position j of block b
 * issues at tick start[b] + j, in (tick, offset, block) order — the
 * lexsort reference.  At one tick offset = tick - start, so the live
 * blocks are kept in (start desc, block asc) order: blocks starting
 * now go in front as one ascending group, finished blocks are
 * compacted out, and each live block emits one position.  At most k
 * blocks are live and no tick is idle (a slot freed by the last live
 * block is where the next block starts), so perm is written
 * sequentially; prev comes from the same last-seen table as
 * prev_occurrence.  row_ids are int32 node ids; perm and prev are int32
 * positions (the caller keeps the stream below 2**31).  Returns -1 on
 * allocation failure. */
int stream_plan(const long* row_ptr, long nb, const int* row_ids,
                long k, int* last, int* perm, int* prev) {
    long n = row_ptr[nb], b, j, t, m, out = 0, next = 0, nlive = 0;
    wt_node* tree = wt_build(NULL, k, &m);
    long* start = malloc((nb + 1) * sizeof(long));
    long* live = malloc(2 * k * sizeof(long));
    long *cur = live, *nxt = live + k;
    if (!tree || !start || !live) {
        free(tree); free(start); free(live);
        return -1;
    }
    for (b = 0; b < nb; ++b)
        start[b] = (long)wt_take(
            tree, m, (double)(row_ptr[b + 1] - row_ptr[b]));
    for (t = 0; out < n; ++t) {
        m = 0;
        for (; next < nb && start[next] <= t; ++next)
            if (row_ptr[next + 1] > row_ptr[next]) nxt[m++] = next;
        for (j = 0; j < nlive; ++j) {
            b = cur[j];
            if (start[b] + row_ptr[b + 1] - row_ptr[b] > t) nxt[m++] = b;
        }
        nlive = m;
        { long* tmp = cur; cur = nxt; nxt = tmp; }
        for (j = 0; j < nlive; ++j) {
            long p = row_ptr[cur[j]] + t - start[cur[j]];
            int r = row_ids[p];
            perm[out] = (int)p;
            prev[out] = last[r];
            last[r] = (int)out++;
        }
    }
    free(tree); free(start); free(live);
    return 0;
}

/* Windowed-LRU hit mask: hit iff prev[i] >= max(i - w, 0), split so
 * both loops vectorize: the first w positions test prev[i] >= 0, the
 * rest the int32 compare prev[i] - i >= -w (prev[i] is in [-1, i) and
 * the caller keeps n below 2**31, so nothing overflows). */
VECTOR_LOOP void window_mask(const int* prev, long n, long w,
                             unsigned char* out) {
    long i, head = w < n ? w : n;
    for (i = 0; i < head; ++i) out[i] = prev[i] >= 0;
    if (i < n) {
        int lim = (int)-w;
        for (; i < n; ++i) out[i] = prev[i] - (int)i >= lim;
    }
}

/* The number of hits window_mask would mark, without the mask: the same
 * split compares, summed in int32 over chunks of 2**20 positions. */
#define WIN_CHUNK (1L << 20)

VECTOR_LOOP long window_hit_count(const int* prev, long n, long w) {
    long i, stop, count = 0, head = w < n ? w : n;
    for (i = 0; i < head; i = stop) {
        int c = 0;
        stop = i + WIN_CHUNK < head ? i + WIN_CHUNK : head;
        for (; i < stop; ++i) c += prev[i] >= 0;
        count += c;
    }
    if (i < n) {
        int lim = (int)-w;
        for (; i < n; i = stop) {
            int c = 0;
            stop = i + WIN_CHUNK < n ? i + WIN_CHUNK : n;
            for (; i < stop; ++i) c += prev[i] - (int)i >= lim;
            count += c;
        }
    }
    return count;
}

/* ---- Block pricing (executor.block_durations) ----
 *
 * numpy's expressions in numpy's order, one rounding per operation:
 * miss = rows - hits; dram = miss * rb + stream (two roundings: the
 * build's -ffp-contract=off keeps it from fusing into an FMA);
 * l2 = hits * rb; comp = flops / rate (the caller's one per-slot FLOP
 * rate); mem = dram / dram_bw + l2 / l2_bw; then np.maximum(comp, mem),
 * + overhead, + (double)atomics * atomic_cost.  np.maximum returns its
 * second argument on ties (0.0 for (-0.0, 0.0)) and a NaN from either
 * side, hence (a > b || a != a) ? a : b.  rows[b] is the block's
 * row_ptr difference as a double, 0.0 without a row_ptr. */
void block_prices(const long* row_ptr, const double* hits,
                  const double* stream, const double* flops,
                  const long* atomics, long nb, double rb, double rate,
                  double dram_bw, double l2_bw, double overhead,
                  double atomic_cost, double* dur) {
    long b;
    for (b = 0; b < nb; ++b) {
        double rows = row_ptr ? (double)(row_ptr[b + 1] - row_ptr[b]) : 0.0;
        double miss = rows - hits[b];
        double dram = miss * rb + stream[b];
        double l2 = hits[b] * rb;
        double comp = flops[b] / rate;
        double mem = dram / dram_bw + l2 / l2_bw;
        double d = comp > mem || comp != comp ? comp : mem;
        d = d + overhead;
        dur[b] = d + (double)atomics[b] * atomic_cost;
    }
}

/* Per-block hit counts of a hit mask in issue order: hits[i] is the
 * outcome of stream position perm[i], so the mask is scattered back to
 * stream order in scratch, then each block's range [row_ptr[b],
 * row_ptr[b + 1]) is summed.  The sums are exact integers, as the
 * reference's reduceat gives.  Returns -1 on a perm entry outside
 * [0, n). */
int block_hit_counts(const unsigned char* hits, const int* perm, long n,
                     const long* row_ptr, long nb, unsigned char* scratch,
                     double* counts) {
    long i, b;
    for (i = 0; i < n; ++i) {
        long p = perm[i];
        if ((unsigned long)p >= (unsigned long)n) return -1;
        scratch[p] = hits[i];
    }
    for (b = 0; b < nb; ++b) {
        long c = 0;
        for (i = row_ptr[b]; i < row_ptr[b + 1]; ++i) c += scratch[i];
        counts[b] = (double)c;
    }
    return 0;
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

/* ---- MinHash + LSH candidate pairs (locality-aware scheduling) ----
 *
 * Same arithmetic as repro.core.minhash's numpy lane: numpy's int64
 * multiply and add wrap around (done here in unsigned), and its % is a
 * floor mod, so a negative remainder is lifted by P. */

#define MH_P 2305843009213693951L          /* 2**61 - 1 */

static long mh_mod(unsigned long x) {
    long m = (long)x % MH_P;
    return m + (MH_P & (m >> 63));     /* branch-free: signs are random */
}

/* Signature rows: sig[i, h] = min over neighbors u of row i of
 * (a[h] * u + b[h]) mod P, in passes of MH_BLOCK hashes.  A pass
 * evaluates its hashes once per node into the n x MH_BLOCK table
 * (table[u, h - h0], one 64-byte line per node), then min-reduces each
 * center row's slice of the pass in place over its neighbors, so no
 * per-edge intermediate is ever built and each edge touches one line
 * per pass.  Rows with no neighbors keep the caller's INT64_MAX fill.
 * Returns -1 on a neighbor id outside [0, n) or an allocation
 * failure. */

#define MH_BLOCK 8

int minhash_rows(const long* indptr, const int* indices, long n,
                 const long* a, const long* b, long nh, long* sig) {
    long i, j, h, h0;
    long* table;
    for (j = 0; j < indptr[n]; ++j)
        if (indices[j] < 0 || indices[j] >= n) return -1;
    table = aligned_alloc(64, (n ? n : 1) * MH_BLOCK * sizeof(long));
    if (!table) return -1;
    for (h0 = 0; h0 < nh; h0 += MH_BLOCK) {
        long w = nh - h0 < MH_BLOCK ? nh - h0 : MH_BLOCK;
        for (i = 0; i < n; ++i) {
            long* t = table + i * MH_BLOCK;
            for (h = 0; h < w; ++h)
                t[h] = mh_mod((unsigned long)i * (unsigned long)a[h0 + h]
                              + (unsigned long)b[h0 + h]);
        }
        for (i = 0; i < n; ++i) {
            long* s = sig + i * nh + h0;
            long lo = indptr[i], hi = indptr[i + 1];
            if (lo == hi) continue;
            if (w == MH_BLOCK) {
                /* Eight running minima stay in registers (branch-free
                 * selects). */
                long m0 = s[0], m1 = s[1], m2 = s[2], m3 = s[3];
                long m4 = s[4], m5 = s[5], m6 = s[6], m7 = s[7];
                for (j = lo; j < hi; ++j) {
                    const long* t = table + (long)indices[j] * MH_BLOCK;
                    m0 = t[0] < m0 ? t[0] : m0; m1 = t[1] < m1 ? t[1] : m1;
                    m2 = t[2] < m2 ? t[2] : m2; m3 = t[3] < m3 ? t[3] : m3;
                    m4 = t[4] < m4 ? t[4] : m4; m5 = t[5] < m5 ? t[5] : m5;
                    m6 = t[6] < m6 ? t[6] : m6; m7 = t[7] < m7 ? t[7] : m7;
                }
                s[0] = m0; s[1] = m1; s[2] = m2; s[3] = m3;
                s[4] = m4; s[5] = m5; s[6] = m6; s[7] = m7;
                continue;
            }
            for (h = 0; h < w; ++h) {
                long m = s[h];
                for (j = lo; j < hi; ++j) {
                    long v = table[(long)indices[j] * MH_BLOCK + h];
                    m = v < m ? v : m;
                }
                s[h] = m;
            }
        }
    }
    free(table);
    return 0;
}

typedef struct { long key; long bucket; } lsh_slot;

/* Home slot of a key in a 2**bits-slot map (Fibonacci hashing). */
static long lsh_home(long key, long bits) {
    if (!bits) return 0;
    return (long)(((unsigned long)key * 11400714819323198485UL)
                  >> (64 - bits));
}

/* LSH banding, every band in one call.  Band key of node i is
 * sum_r (sig[i, r] * mix[r]) mod P (wrapping int64 sum), and the k-th
 * empty node gets the isolating key -1 - k.  The numpy lane stable-
 * sorts the keys and pairs positions d <= w apart with equal keys; a
 * stable sort keeps each bucket's members in id order and no pair
 * crosses buckets, so visiting nodes in id order and pairing each with
 * the last w members of its bucket (a ring per bucket, found through
 * an open-addressing map of keys) emits exactly the same pairs.  Pairs
 * go out packed as lo * n + hi; out needs room for bands * w * n.
 * Returns the number emitted, or -1 on allocation failure. */
long lsh_pairs(const long* sig, long n, long nh, long bands, long rows,
               const long* mix, const unsigned char* empty, long w,
               long* out) {
    long cap = 1, bits = 0, nout = 0, nempty = 0, band, i, r;
    long *keys, *cnt, *ring;
    lsh_slot* map;
    while (cap < 2 * n) { cap <<= 1; ++bits; }
    map = malloc(cap * sizeof(lsh_slot));
    keys = malloc((bands * n + 1) * sizeof(long));
    cnt = malloc((n + 1) * sizeof(long));
    ring = malloc((n * w + 1) * sizeof(long));
    if (!map || !keys || !cnt || !ring) {
        free(map); free(keys); free(cnt); free(ring);
        return -1;
    }
    /* Every band's key, one pass over the signature rows. */
    for (i = 0; i < n; ++i) {
        if (empty[i]) {
            for (band = 0; band < bands; ++band)
                keys[band * n + i] = -1 - nempty;
            ++nempty;
            continue;
        }
        for (band = 0; band < bands; ++band) {
            const long* s = sig + i * nh + band * rows;
            const long* m = mix + band * rows;
            unsigned long acc = 0;
            for (r = 0; r < rows; ++r)
                acc += (unsigned long)mh_mod(
                    (unsigned long)s[r] * (unsigned long)m[r]);
            keys[band * n + i] = (long)acc;
        }
    }
    for (band = 0; band < bands; ++band) {
        const long* kb = keys + band * n;
        long nbuckets = 0;
        for (i = 0; i < cap; ++i) map[i].bucket = -1;
        for (i = 0; i < n; ++i) {
            long k = kb[i], p = lsh_home(k, bits), c, d, bk;
#ifdef __GNUC__
            /* Keys are known ahead: fetch the slot 16 nodes on. */
            if (i + 16 < n)
                __builtin_prefetch(&map[lsh_home(kb[i + 16], bits)]);
#endif
            while (map[p].bucket != -1 && map[p].key != k)
                p = (p + 1) & (cap - 1);
            if (map[p].bucket == -1) {
                map[p].key = k;
                map[p].bucket = nbuckets;
                cnt[nbuckets++] = 0;
            }
            bk = map[p].bucket;
            c = cnt[bk];
            for (d = 1; d <= w && d <= c; ++d)
                out[nout++] = ring[bk * w + (c - d) % w] * n + i;
            if (w) ring[bk * w + c % w] = i;
            cnt[bk] = c + 1;
        }
    }
    free(map); free(keys); free(cnt); free(ring);
    return nout;
}

/* Estimated Jaccard similarity of each pair: (#equal signature
 * entries) / nh, one IEEE double division (the bits of numpy's mean of
 * the equality mask); two empty rows give 0.0. */
void pair_similarity(const long* sig, long nh, const unsigned char* empty,
                     const long* us, const long* vs, long np_,
                     double* out) {
    long p, h;
    for (p = 0; p < np_; ++p) {
        const long* a = sig + us[p] * nh;
        const long* b = sig + vs[p] * nh;
        long c = 0;
        if (empty[us[p]] && empty[vs[p]]) { out[p] = 0.0; continue; }
        for (h = 0; h < nh; ++h) c += (a[h] == b[h]);
        out[p] = (double)c / (double)nh;
    }
}

/* ---- k-hop neighbor draws (graph sampling) ----
 *
 * numpy 2.x Generator.choice(d, k, replace=False), Floyd branch, step
 * for step, on the caller's own bit generator: for j in d-k .. d-1 draw
 * val in [0, j] and insert it into an open-addressing set of
 * _gen_mask(1.2 * k) + 1 slots (linear probing), inserting j instead
 * when val is already present; then the in-place shuffle _shuffle_int
 * (k, first=1).  Every draw is random_bounded_uint64(0, rng) on the
 * 32-bit path: no draw for rng == 0, next_uint32 itself for
 * rng == 2**32 - 1, else Lemire's bounded draw. */

typedef struct {                        /* numpy's bitgen_t */
    void* state;
    uint64_t (*next_uint64)(void* st);
    uint32_t (*next_uint32)(void* st);
    double (*next_double)(void* st);
    uint64_t (*next_raw)(void* st);
} np_bitgen;

static uint64_t bounded_u32(np_bitgen* bg, uint64_t rng) {
    uint32_t excl, left;
    uint64_t m;
    if (rng == 0) return 0;
    if (rng == 0xFFFFFFFFUL) return bg->next_uint32(bg->state);
    excl = (uint32_t)rng + 1;
    m = (uint64_t)bg->next_uint32(bg->state) * excl;
    left = (uint32_t)m;
    if (left < excl) {
        uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
        while (left < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * excl;
            left = (uint32_t)m;
        }
    }
    return m >> 32;
}

/* k draws from each of n rows, row after row, into out[r * k ...].
 * Declines (-1, before any draw) when a row has d < k, d > 2**32 - 1
 * or sits on numpy's tail-shuffle branch (d > 10000 and k > d / 50),
 * or on allocation failure. */
int choice_rows(np_bitgen* bg, const long* deg, long n, long k, long* out) {
    long r, j, i;
    uint64_t mask, *set;
    if (k < 0) return -1;
    for (r = 0; r < n; ++r)
        if (deg[r] < k || deg[r] > 0xFFFFFFFFL
            || (deg[r] > 10000 && k > deg[r] / 50)) return -1;
    mask = (uint64_t)(1.2 * k);
    for (i = 1; i < 64; i <<= 1) mask |= mask >> i;
    set = malloc((mask + 1) * sizeof(uint64_t));
    if (!set) return -1;
    for (r = 0; r < n; ++r) {
        long d = deg[r];
        long* o = out + r * k;
        memset(set, 0xFF, (mask + 1) * sizeof(uint64_t));
        for (j = d - k; j < d; ++j) {
            uint64_t val = bounded_u32(bg, (uint64_t)j), loc = val & mask;
            while (set[loc] != UINT64_MAX && set[loc] != val)
                loc = (loc + 1) & mask;
            if (set[loc] == UINT64_MAX) {
                set[loc] = val;
            } else {                    /* taken: insert j instead */
                val = (uint64_t)j;
                for (loc = val & mask; set[loc] != UINT64_MAX;)
                    loc = (loc + 1) & mask;
                set[loc] = val;
            }
            o[j - d + k] = (long)val;
        }
        for (i = k - 1; i >= 1; --i) {
            uint64_t s = bounded_u32(bg, (uint64_t)i);
            long t = o[s]; o[s] = o[i]; o[i] = t;
        }
    }
    free(set);
    return 0;
}

/* ---- Weighted draws (graph generation) ----
 *
 * searchsorted(cdf, u, side="right") for every u in [0, 1), through a
 * Chen-Asau guide table of K buckets, K the least power of two >= n:
 * guide[b] = #{cdf <= b/K}.  K is a power of two, so u*K and b/K are
 * exact doubles; b = floor(u*K) has b/K <= u, which makes guide[b] a
 * lower bound, and the forward scan over cdf <= u stops exactly at the
 * searchsorted index, after n/K <= 1 steps on average.  cdf must be
 * non-decreasing.  Returns -1 on a u outside [0, 1). */
int guide_search(const double* cdf, long n, const double* u, long m,
                 long* guide, long k, long* out) {
    long b, i, j = 0;
    for (b = 0; b < k; ++b) {
        double edge = (double)b / (double)k;
        while (j < n && cdf[j] <= edge) ++j;
        guide[b] = j;
    }
    for (i = 0; i < m; ++i) {
        double x = u[i];
        if (!(x >= 0.0 && x < 1.0)) return -1;
        j = guide[(long)(x * (double)k)];
        while (j < n && cdf[j] <= x) ++j;
        out[i] = j;
    }
    return 0;
}

/* ---- Edge keys and their CSR (graph generation) ----
 *
 * The power-law and clustered generators draw every edge's candidates
 * in numpy and pack each kept edge as dst * n + src; one value sort
 * orders the keys and a decode turns them into a CSR.  edge_keys is the
 * numpy lane's mixing, relabel, self-loop mask and packing in one pass:
 * node v owns the next deg[v] edges, and edge e's source is
 * lo[v] + (long)(u_off[e] * (double)width[v]) when u_pick[e] < thr (one
 * IEEE double multiply, truncated toward zero as astype(int64) does,
 * and one compare) and alt[e] otherwise.  With a relabel array both
 * ends are relabelled before the self-loop test, as the numpy lane
 * relabels them before its mask.  Every chosen source is checked
 * against [0, n) before it indexes relabel.  Returns the number of keys
 * written, or -1 (nothing usable) on a source outside [0, n) or a
 * product the truncation cannot take. */
long edge_keys(const long* deg, const long* lo, const long* width, long n,
               const double* u_pick, double thr, const double* u_off,
               const long* alt, const long* relabel, long* keys) {
    long v, j, e = 0, out = 0;
    unsigned long un = (unsigned long)n;
    for (v = 0; v < n; ++v) {
        long d = deg[v], base = lo[v];
        long dv = relabel ? relabel[v] : v, row = dv * n;
        double w = (double)width[v];
        for (j = 0; j < d; ++j, ++e) {
            double x = u_off[e] * w;
            long s;
            if (!(x >= 0.0 && x < 9.0e18)) return -1;
            s = u_pick[e] < thr ? base + (long)x : alt[e];
            if ((unsigned long)s >= un) return -1;
            if (relabel) s = relabel[s];
            if (s != dv) keys[out++] = row + s;
        }
    }
    return out;
}

/* CSR of the distinct keys among m sorted keys: one pass that skips
 * repeats, moves to the next row when a key reaches the row's end
 * (a comparison against a running (row + 1) * n, no division) and
 * writes src = key - row * n.  indptr gets n + 1 entries, indices one
 * per distinct key.  Returns the distinct count, or -1 on a key
 * outside [0, n * n) or out of order. */
long distinct_keys_csr(const long* keys, long m, long n, long* indptr,
                       int* indices) {
    long i, j = 0, r = 0, lim = n, prev = -1;
    if (m && keys[0] < 0) return -1;
    indptr[0] = 0;
    for (i = 0; i < m; ++i) {
        long k = keys[i];
        if (k < prev) return -1;
        while (k >= lim) {
            if (++r == n) return -1;
            indptr[r] = j;
            lim += n;
        }
        indices[j] = (int)(k - (lim - n));
        j += k != prev;                 /* a repeat is overwritten */
        prev = k;
    }
    while (r < n) indptr[++r] = j;
    return j;
}
"""

logger = logging.getLogger(__name__)

_LIB = None
_TRIED = False


def _command() -> "list[str]":
    """The compile command, without the source and output paths."""
    # -ffp-contract=off: GNU C mode fuses a * b + c into one FMA wherever
    # the target has it (aarch64, say), which would round block_prices'
    # ``miss * rb + stream`` once where numpy rounds twice.  The loops
    # that gain from O3 ask for it themselves (VECTOR_LOOP).
    return [
        os.environ.get("CC", "cc"), "-O2", "-ffp-contract=off", "-shared",
        "-fPIC",
    ]


def _build() -> "ctypes.CDLL | None":
    # The artifact is named by the whole compile command and the source,
    # so a different compiler or flag never loads another's build.
    command = _command()
    tag = hashlib.sha256(
        "\0".join(command + [_SOURCE]).encode()
    ).hexdigest()[:16]
    cache = os.path.join(
        tempfile.gettempdir(), f"repro_native_{tag}.so"
    )
    if not os.path.exists(cache):
        src = cache + f".{os.getpid()}.c"
        tmp = cache + f".{os.getpid()}.so"
        with open(src, "w") as f:
            f.write(_SOURCE)
        try:
            subprocess.run(
                command + [src, "-o", tmp],
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
    # Raw-address arguments skip ctypes pointer-object construction per
    # call (the schedule and pricing run once per simulated kernel).
    vp, lg, db = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    fn = lib.greedy_schedule
    fn.restype = ctypes.c_int
    fn.argtypes = [vp, lg, vp, lg, vp, vp]
    fn = lib.block_prices
    fn.restype = None
    fn.argtypes = [vp, vp, vp, vp, vp, lg] + [db] * 6 + [vp]
    fn = lib.prev_occurrence
    fn.restype = None
    fn.argtypes = [vp, lg, vp, vp]
    fn = lib.stream_plan
    fn.restype = ctypes.c_int
    fn.argtypes = [vp, lg, vp, lg, vp, vp, vp]
    fn = lib.window_mask
    fn.restype = None
    fn.argtypes = [vp, lg, lg, vp]
    fn = lib.window_hit_count
    fn.restype = lg
    fn.argtypes = [vp, lg, lg]
    fn = lib.window_search
    fn.restype = lg
    fn.argtypes = [vp, lg, lg]
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
    fn = lib.minhash_rows
    fn.restype = ctypes.c_int
    fn.argtypes = [vp, vp, lg, vp, vp, lg, vp]
    fn = lib.lsh_pairs
    fn.restype = ctypes.c_long
    fn.argtypes = [vp, lg, lg, lg, lg, vp, vp, lg, vp]
    fn = lib.pair_similarity
    fn.restype = None
    fn.argtypes = [vp, lg, vp, vp, vp, lg, vp]
    fn = lib.choice_rows
    fn.restype = ctypes.c_int
    fn.argtypes = [vp, vp, lg, lg, vp]
    fn = lib.guide_search
    fn.restype = ctypes.c_int
    fn.argtypes = [vp, lg, vp, lg, vp, lg, vp]
    fn = lib.occupancy_merge
    fn.restype = None
    fn.argtypes = [vp, vp, lg, vp, vp]
    fn = lib.block_hit_counts
    fn.restype = ctypes.c_int
    fn.argtypes = [vp, vp, lg, vp, lg, vp, vp]
    fn = lib.edge_keys
    fn.restype = lg
    fn.argtypes = [vp, vp, vp, lg, vp, ctypes.c_double, vp, vp, vp, vp]
    fn = lib.distinct_keys_csr
    fn.restype = lg
    fn.argtypes = [vp, lg, lg, vp, vp]
    return lib


def _load() -> "ctypes.CDLL | None":
    global _LIB, _TRIED
    if _TRIED:
        return _LIB
    _TRIED = True
    try:
        _LIB = _build()
    except Exception as exc:
        logger.warning(
            "native accelerator unavailable: build with compiler %r "
            "failed (%s: %s); using the reference implementations",
            os.environ.get("CC", "cc"), type(exc).__name__, exc,
        )
        _LIB = None
    return _LIB


def available() -> bool:
    """True when the native lane is on and its library builds here."""
    return runtime().native and _load() is not None


def greedy_schedule(
    durations: np.ndarray,
    free_at: np.ndarray,
    starts: "np.ndarray | None" = None,
    ends: "np.ndarray | None" = None,
) -> bool:
    """Run the greedy earliest-free-slot loop natively, in place.

    ``free_at`` (contiguous float64, one entry per slot) holds the slot
    free times on entry (any order) and the final free multiset on exit
    (slot order: sort before treating it as ascending).  ``starts`` and
    ``ends``, contiguous float64 of ``durations``'s length, receive each
    block's times when given; without them only ``free_at`` is
    written, and from zeros its maximum is the makespan.  Starts, ends
    and the final multiset are ``heapq``'s to the bit.  Returns False
    (``free_at`` untouched, ``starts``/``ends`` unspecified) on a
    duration that is negative, infinite or NaN, a free time that is
    infinite, NaN or ``-0.0``, or an allocation failure; the caller's
    ``heapq`` loop answers those.
    """
    durations = np.ascontiguousarray(durations, dtype=np.float64)
    return _load().greedy_schedule(
        durations.ctypes.data, durations.shape[0],
        free_at.ctypes.data, free_at.shape[0],
        None if starts is None else starts.ctypes.data,
        None if ends is None else ends.ctypes.data,
    ) == 0


def block_prices(
    row_ptr: "np.ndarray | None",
    hits: np.ndarray,
    stream: np.ndarray,
    flops: np.ndarray,
    atomics: np.ndarray,
    row_bytes: float,
    compute_rate: float,
    dram_bw: float,
    l2_bw: float,
    overhead: float,
    atomic_cost: float,
) -> "np.ndarray | None":
    """float64 price of each block, ``block_durations``' numpy lines in
    one pass, to the bit.

    ``hits``, ``stream`` and ``flops`` are read as float64, ``atomics``
    as int64 and ``row_ptr`` (None: no row accesses) as int64 with one
    entry more; ``compute_rate`` is the divisor of ``flops``.  Returns
    None (the numpy lines answer) when the lengths disagree.
    """
    nb = flops.shape[0]
    if not hits.shape == stream.shape == atomics.shape == (nb,) or (
        row_ptr is not None and row_ptr.shape != (nb + 1,)
    ):
        return None
    hits, stream, flops = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (hits, stream, flops)
    )
    atomics = np.ascontiguousarray(atomics, dtype=np.int64)
    if row_ptr is not None:
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
    dur = np.empty(nb)
    _load().block_prices(
        None if row_ptr is None else row_ptr.ctypes.data,
        hits.ctypes.data, stream.ctypes.data, flops.ctypes.data,
        atomics.ctypes.data, nb, row_bytes, compute_rate, dram_bw, l2_bw,
        overhead, atomic_cost, dur.ctypes.data,
    )
    return dur


def occupancy_merge(
    starts: np.ndarray,
    ends: np.ndarray,
    sorted_ends: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Event spans and active block counts of a schedule's timeline.

    Equal, element for element, to the reference in
    :func:`repro.gpusim.metrics.occupancy_below`: ``np.diff(times,
    append=times[-1])`` and the running ``+1``/``-1`` count over the
    stable argsort of ``concat(starts, ends)``.  Greedy schedules emit
    non-decreasing starts, so only the ends are sorted first, unless
    the caller passes them as ``sorted_ends`` (``np.sort(ends)`` to the
    bit).  Returns None (the reference takes over) unless ``starts`` and
    ``ends`` are non-empty 1-D arrays of one length.
    """
    if starts.ndim != 1 or starts.shape != ends.shape or not starts.size:
        return None
    if not np.all(starts[1:] >= starts[:-1]):
        starts = np.sort(starts)
    ends = np.sort(ends) if sorted_ends is None else sorted_ends
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    ends = np.ascontiguousarray(ends, dtype=np.float64)
    n = starts.shape[0]
    span = np.empty(2 * n)
    active = np.empty(2 * n, dtype=np.int64)
    _load().occupancy_merge(
        starts.ctypes.data, ends.ctypes.data, n,
        span.ctypes.data, active.ctypes.data,
    )
    return span, active


def window_search(prev: np.ndarray, capacity: int) -> int:
    """``cache.effective_window`` of ``prev`` at ``capacity`` rows.

    The reference bisection in one call, every probe stopped as soon as
    its exact count shows the window overflows.  ``prev`` must be
    contiguous int32.
    """
    return _load().window_search(prev.ctypes.data, prev.shape[0], capacity)


def window_mask(prev: np.ndarray, w: int) -> np.ndarray:
    """Boolean hit mask ``prev >= maximum(arange(n) - w, 0)``.

    ``prev`` must be contiguous int32.
    """
    n = prev.shape[0]
    out = np.empty(n, dtype=bool)
    _load().window_mask(prev.ctypes.data, n, w, out.ctypes.data)
    return out


def window_hit_count(prev: np.ndarray, w: int) -> int:
    """``count_nonzero(window_mask(prev, w))`` in one pass, no mask.

    ``prev`` must be contiguous int32.
    """
    return _load().window_hit_count(prev.ctypes.data, prev.shape[0], w)


def block_hit_counts(
    hits_sorted: np.ndarray, perm: np.ndarray, row_ptr: np.ndarray
) -> "np.ndarray | None":
    """Per-block hit counts of a hit mask given in issue order.

    ``hits_sorted[i]`` is the outcome of stream position ``perm[i]``;
    the result is float64 ``counts[b]``, the exact number of hits in
    ``[row_ptr[b], row_ptr[b + 1])``, equal to scattering the mask back
    (``hits[perm] = hits_sorted``) and summing each block with
    ``np.add.reduceat``.  ``perm`` is read as int32, the stream
    analyses' dtype.  Returns None (the reference takes over, and
    raises where it would) unless ``perm`` has the mask's length with
    entries in ``[0, n)`` and ``row_ptr`` rises from 0 to ``n``.
    """
    n = hits_sorted.shape[0]
    if perm.shape != (n,) or row_ptr[0] != 0 or row_ptr[-1] != n or (
        np.diff(row_ptr) < 0
    ).any():
        return None
    hits = np.ascontiguousarray(hits_sorted, dtype=bool)
    perm = np.ascontiguousarray(perm, dtype=np.int32)
    row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
    nb = row_ptr.shape[0] - 1
    scratch = np.empty(n, dtype=np.uint8)
    counts = np.empty(nb, dtype=np.float64)
    rc = _load().block_hit_counts(
        hits.ctypes.data, perm.ctypes.data, n, row_ptr.ctypes.data, nb,
        scratch.ctypes.data, counts.ctypes.data,
    )
    return counts if rc == 0 else None


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


def minhash_rows(
    indptr: np.ndarray, indices: np.ndarray, a: np.ndarray, b: np.ndarray
) -> "np.ndarray | None":
    """``int64[N, H]`` MinHash signature rows of a CSR graph.

    ``indptr`` must be contiguous int64, ``indices`` contiguous int32,
    ``a``/``b`` contiguous int64 of length H.  Rows with no neighbors
    hold ``INT64_MAX``.  The hashes are evaluated and reduced eight at
    a time, through an ``N x 8`` table.  Returns None (the reference
    takes over, and raises where it would) on a neighbor id outside
    ``[0, N)`` or an allocation failure.
    """
    lib = _load()
    n = indptr.shape[0] - 1
    nh = a.shape[0]
    sig = np.full((n, nh), np.iinfo(np.int64).max, dtype=np.int64)
    rc = lib.minhash_rows(
        indptr.ctypes.data, indices.ctypes.data, n,
        a.ctypes.data, b.ctypes.data, nh, sig.ctypes.data,
    )
    return sig if rc == 0 else None


def lsh_pairs(
    sig_rows: np.ndarray,
    empty: np.ndarray,
    mix: np.ndarray,
    pair_window: int,
) -> "np.ndarray | None":
    """Packed ``lo * N + hi`` candidate pairs of every LSH band, with
    repeats, in one call.

    ``sig_rows`` is the contiguous int64 ``[N, H]`` signature, ``empty``
    contiguous bool/uint8 per node and ``mix`` the contiguous int64
    ``[bands, rows_per_band]`` band multipliers.  The pair set equals
    the reference's stable-argsort-and-compare over ``d <= pair_window``
    (``core.minhash._banded_pairs``).
    Returns None on an allocation failure.
    """
    lib = _load()
    n, nh = sig_rows.shape
    bands, rows = mix.shape
    w = max(0, min(pair_window, n - 1))
    out = np.empty(bands * w * n, dtype=np.int64)
    count = lib.lsh_pairs(
        sig_rows.ctypes.data, n, nh, bands, rows, mix.ctypes.data,
        empty.ctypes.data, w, out.ctypes.data,
    )
    return out[:count] if count >= 0 else None


def pair_similarity(
    sig_rows: np.ndarray, empty: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Share of equal signature entries per ``(u[p], v[p])`` pair, 0.0
    for two empty rows.  Inputs contiguous: ``sig_rows`` int64
    ``[N, H]``, ``empty`` bool/uint8, ``u``/``v`` int64 ids in
    ``[0, N)``."""
    lib = _load()
    out = np.empty(u.shape[0], dtype=np.float64)
    lib.pair_similarity(
        sig_rows.ctypes.data, sig_rows.shape[1], empty.ctypes.data,
        u.ctypes.data, v.ctypes.data, u.shape[0], out.ctypes.data,
    )
    return out


def prev_occurrence(
    stream: np.ndarray, nvals: int
) -> np.ndarray:
    """int32 previous-occurrence index per position (``-1`` for first
    touches).

    ``stream`` must hold integers in ``[0, nvals)`` (read as int32, with
    no copy when it is contiguous int32) and fewer than ``2**31``
    positions (the caller validates both — out-of-range values would
    index the scratch table out of bounds).
    """
    stream = np.ascontiguousarray(stream, dtype=np.int32)
    n = stream.shape[0]
    last = np.full(nvals, -1, dtype=np.int32)
    prev = np.empty(n, dtype=np.int32)
    _load().prev_occurrence(
        stream.ctypes.data, n, last.ctypes.data, prev.ctypes.data
    )
    return prev


def stream_plan(
    row_ptr: np.ndarray, row_ids: np.ndarray, slots: int
) -> "tuple[np.ndarray, np.ndarray] | None":
    """int32 issue permutation and previous-occurrence array of one
    stream.

    One C tick sweep: the block lengths are greedy-scheduled on
    ``slots`` slots and positions are emitted in (tick, offset, block)
    order, so ``perm`` equals the reference ``interleaved_order`` (a
    ``lexsort`` by tick, offset, block) and ``prev`` equals
    ``prev_occurrence`` of ``row_ids[perm]``, exactly.  The caller keeps
    the stream below ``2**31`` positions.  Returns None (the reference
    takes over, and raises where it would) for ``slots < 1``, a
    ``row_ptr`` that does not rise from 0 to at most ``len(row_ids)``,
    row ids outside ``[0, 50_000_000]`` or not integers, or an
    allocation failure.
    """
    nb = row_ptr.shape[0] - 1
    n = int(row_ptr[-1])
    if slots < 1 or row_ptr[0] != 0 or n > row_ids.shape[0] or (
        np.diff(row_ptr) < 0
    ).any():
        return None
    if n == 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    if row_ids.dtype.kind not in "iu":
        return None
    ids = row_ids[:n]
    hi = int(ids.max())
    if int(ids.min()) < 0 or hi > 50_000_000:
        return None
    row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
    ids = np.ascontiguousarray(ids, dtype=np.int32)
    last = np.full(hi + 1, -1, dtype=np.int32)
    perm = np.empty(n, dtype=np.int32)
    prev = np.empty(n, dtype=np.int32)
    rc = _load().stream_plan(
        row_ptr.ctypes.data, nb, ids.ctypes.data, slots,
        last.ctypes.data, perm.ctypes.data, prev.ctypes.data,
    )
    return (perm, prev) if rc == 0 else None


# (population, draws) per self-check row: k = 0, k = 1, d = k + 1,
# set collisions (k near d), d >= 2**16, Lemire rejections (j just past
# 2**31) and the largest population the kernel takes.
_CHOICE_CHECK = (
    (1, 0), (7, 1), (11, 10), (40, 39), (600, 10), (70_000, 25),
    (2**31 + 5, 5), (2**32 - 1, 3),
)
_CHOICE_OK = None


def _reference_choice(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """What the self-check compares against (tests substitute it)."""
    return rng.choice(d, k, replace=False)


def _choice_call(lib, rng, deg, k):
    out = np.empty(deg.shape[0] * max(k, 0), dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        rc = lib.choice_rows(
            bitgen.ctypes.bit_generator, deg.ctypes.data, deg.shape[0], k,
            out.ctypes.data,
        )
    return out if rc == 0 else None


def _choice_self_check(lib) -> bool:
    """Whether the kernel reproduces ``Generator.choice`` on this numpy.

    NEP 19 lets numpy change the algorithm behind ``choice``, so a fixed
    set of draws is compared, outputs and generator state afterwards.
    """
    for seed, (d, k) in enumerate(_CHOICE_CHECK):
        got_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = _choice_call(lib, got_rng, np.full(3, d, dtype=np.int64), k)
        ref = np.concatenate(
            [_reference_choice(ref_rng, d, k) for _ in range(3)]
        )
        if got is None or not np.array_equal(got, ref) or (
            got_rng.bit_generator.state != ref_rng.bit_generator.state
        ):
            logger.warning(
                "native k-hop draws disagree with numpy %s's "
                "Generator.choice (d=%d, k=%d); sampling keeps rng.choice",
                np.__version__, d, k,
            )
            return False
    return True


def choice_rows(
    rng: np.random.Generator, deg: np.ndarray, k: int
) -> "np.ndarray | None":
    """``concatenate([rng.choice(d, k, replace=False) for d in deg])``
    in one call, drawing from ``rng``'s own stream.

    The draws and the generator state afterwards are exactly those of
    the per-row calls.  Returns None, with ``rng`` untouched, when there
    is no native lane, the load-time self-check failed, or a row is one
    the kernel does not take: ``d < k``, ``d > 2**32 - 1``, or numpy's
    tail-shuffle branch (``d > 10000 and k > d // 50``).
    """
    global _CHOICE_OK
    if not available():
        return None
    lib = _load()
    if _CHOICE_OK is None:
        _CHOICE_OK = _choice_self_check(lib)
    if not _CHOICE_OK:
        return None
    return _choice_call(
        lib, rng, np.ascontiguousarray(deg, dtype=np.int64), k
    )


def _guide_search(
    lib, cdf: np.ndarray, u: np.ndarray
) -> "tuple[np.ndarray, np.ndarray] | None":
    """The draws and the guide table of one ``guide_search`` call."""
    n = cdf.shape[0]
    guide = np.empty(1 << max(n - 1, 0).bit_length(), dtype=np.int64)
    out = np.empty(u.shape, dtype=np.int64)
    rc = lib.guide_search(
        cdf.ctypes.data, n, u.ctypes.data, u.size,
        guide.ctypes.data, guide.shape[0], out.ctypes.data,
    )
    return (out, guide) if rc == 0 else None


def weighted_search(cdf: np.ndarray, u: np.ndarray) -> "np.ndarray | None":
    """``cdf.searchsorted(u, side="right")`` through a guide table.

    ``cdf`` must be non-decreasing; both are read as float64.  The
    indices are exactly searchsorted's.  Returns None (the caller
    searches) when there is no native lane or a ``u`` lies outside
    ``[0, 1)``.
    """
    if not available():
        return None
    lib = _load()
    found = _guide_search(
        lib,
        np.ascontiguousarray(cdf, dtype=np.float64),
        np.ascontiguousarray(u, dtype=np.float64),
    )
    return None if found is None else found[0]


def edge_keys(
    deg: np.ndarray,
    lo: np.ndarray,
    width: np.ndarray,
    u_pick: np.ndarray,
    threshold: float,
    u_off: np.ndarray,
    alt: np.ndarray,
    relabel: "np.ndarray | None",
) -> "np.ndarray | None":
    """Packed ``dst * N + src`` int64 keys of a generator's kept edges,
    in edge order.

    Node ``v`` owns ``deg[v]`` consecutive edges.  Edge ``e``'s source
    is ``lo[v] + int(u_off[e] * width[v])`` where ``u_pick[e] <
    threshold`` and ``alt[e]`` elsewhere; ``relabel`` (or None) maps
    both ends; self-loops are dropped.  These are the numpy lane's
    ``where``, relabel gather, ``src != dst`` mask and key, to the bit.
    Returns None (the numpy lane takes over) when there is no native
    lane, the draws ``u_pick``/``u_off`` are not float64, ``deg`` has a
    negative entry or does not sum to the draw count, a window ``[lo,
    lo + width)`` leaves ``[0, N)``, ``relabel`` is not ``N`` ids in
    ``[0, N)``, or an edge's chosen source lands outside ``[0, N)``.
    """
    if not available():
        return None
    n = deg.shape[0]
    e = u_pick.shape[0]
    if not u_pick.shape == u_off.shape == alt.shape == (e,):
        return None
    if u_pick.dtype != np.float64 or u_off.dtype != np.float64:
        return None             # numpy would compare or multiply otherwise
    if lo.shape != (n,) or width.shape != (n,) or int(deg.sum()) != e:
        return None
    if n and deg.min() < 0:
        return None
    if n and (lo.min() < 0 or width.min() < 0 or (lo + width).max() > n):
        return None
    if relabel is not None and (relabel.shape != (n,) or n and (
        relabel.min() < 0 or relabel.max() >= n
    )):
        return None
    deg, lo, width, alt = (
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (deg, lo, width, alt)
    )
    u_pick = np.ascontiguousarray(u_pick)
    u_off = np.ascontiguousarray(u_off)
    if relabel is not None:
        relabel = np.ascontiguousarray(relabel, dtype=np.int64)
    keys = np.empty(e, dtype=np.int64)
    count = _load().edge_keys(
        deg.ctypes.data, lo.ctypes.data, width.ctypes.data, n,
        u_pick.ctypes.data, float(threshold), u_off.ctypes.data,
        alt.ctypes.data, None if relabel is None else relabel.ctypes.data,
        keys.ctypes.data,
    )
    return keys[:count] if count >= 0 else None


def distinct_keys_csr(
    keys: np.ndarray, num_nodes: int
) -> "tuple[np.ndarray, np.ndarray] | None":
    """int64 ``indptr`` and int32 ``indices`` of the distinct sorted
    ``dst * N + src`` keys.

    Equal to ``sorted_unique`` of the keys, a ``searchsorted`` of the
    row starts ``arange(N + 1) * N`` and ``key % N``.  ``indices`` is
    its own array of exactly one entry per distinct key.  Returns None
    when there is no native lane, ``N`` is not in ``[1, 2**31)``, or a
    key is outside ``[0, N * N)`` or out of order.
    """
    if not available() or not 0 < num_nodes < 2**31:
        return None
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    m = keys.shape[0]
    indptr = np.empty(num_nodes + 1, dtype=np.int64)
    indices = np.empty(m, dtype=np.int32)
    count = _load().distinct_keys_csr(
        keys.ctypes.data, m, num_nodes, indptr.ctypes.data,
        indices.ctypes.data,
    )
    if count < 0:
        return None
    return indptr, indices if count == m else indices[:count].copy()
