"""MinHash signatures and Locality-Sensitive Hashing over neighbor sets.

Locality-aware task scheduling (paper §4.1.1) must find pairs of center
nodes whose neighbor sets have high Jaccard similarity without comparing
all N² pairs.  Following the paper (which cites Mining of Massive
Datasets), we:

1. compute a MinHash *signature* per center node — ``num_hashes``
   universal-hash minima over its neighbor set; equal signature rows are
   an unbiased estimator of Jaccard similarity;
2. split signatures into ``bands`` of ``rows_per_band`` rows and hash
   each band; nodes colliding in any band become *candidate pairs*.

The native lane (:mod:`repro.gpusim._native`) works in passes of eight
hashes: it evaluates a pass's hashes once per node into an ``N x 8``
table and min-reduces every center row's eight entries in place over
its neighbors, so each edge reads one cache line per pass; then it
groups all bands' keys in one pass.  It never builds a per-edge
intermediate.  Without it (no C compiler, or ``REPRO_NATIVE=0``) the
references run: one universal hash per loop step, evaluated per edge
and min-reduced with ``np.minimum.reduceat``, and one stable sort of
each band's keys (:func:`_banded_pairs`).  Both give the same bits.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..gpusim import _native
from ..graph.csr import CSRGraph, sorted_unique
from ..perf import runtime

__all__ = [
    "MinHashSignature",
    "minhash_signatures",
    "lsh_candidate_pairs",
    "signature_similarity",
    "exact_jaccard",
]

_MERSENNE_P = (1 << 61) - 1


@dataclasses.dataclass(frozen=True)
class MinHashSignature:
    """``int64[N, num_hashes]`` signature rows plus the empty-row mask."""

    rows: np.ndarray
    empty: np.ndarray  # bool[N]: centers with no neighbors

    @property
    def num_hashes(self) -> int:
        return int(self.rows.shape[1])

    @property
    def num_nodes(self) -> int:
        return int(self.rows.shape[0])


def minhash_signatures(
    graph: CSRGraph, num_hashes: int = 32, seed: int = 0
) -> MinHashSignature:
    """MinHash signature of every center node's neighbor set."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE_P, size=num_hashes, dtype=np.int64)
    b = rng.integers(0, _MERSENNE_P, size=num_hashes, dtype=np.int64)
    n = graph.num_nodes
    nonempty = graph.degrees > 0
    empty = ~nonempty
    if runtime().fastpath and _native.available():
        rows = _native.minhash_rows(graph.indptr, graph.indices, a, b)
        if rows is not None:
            return MinHashSignature(rows=rows, empty=empty)
    rows = np.full((n, num_hashes), np.iinfo(np.int64).max, dtype=np.int64)
    if graph.num_edges:
        neigh = graph.indices.astype(np.int64)
        starts = graph.indptr[:-1][nonempty]
        for h in range(num_hashes):
            # Universal hash evaluated on every edge endpoint, then
            # min-reduced per center row (reference: loop over hashes).
            vals = (a[h] * neigh + b[h]) % _MERSENNE_P
            rows[nonempty, h] = np.minimum.reduceat(vals, starts)
    return MinHashSignature(rows=rows, empty=empty)


def signature_similarity(
    sig: MinHashSignature, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Estimated Jaccard similarity for node-id pairs (vectorized)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    eq = sig.rows[u] == sig.rows[v]
    est = eq.mean(axis=1)
    # Two empty sets are defined as similarity 0 (nothing to co-schedule).
    both_empty = sig.empty[u] & sig.empty[v]
    return np.where(both_empty, 0.0, est)


def exact_jaccard(graph: CSRGraph, u: int, v: int) -> float:
    """Exact Jaccard similarity of two centers' neighbor sets (oracle)."""
    nu = set(graph.neighbors(u).tolist())
    nv = set(graph.neighbors(v).tolist())
    if not nu and not nv:
        return 0.0
    return len(nu & nv) / len(nu | nv)


def lsh_candidate_pairs(
    sig: MinHashSignature,
    bands: int = 16,
    pair_window: int = 4,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate similar pairs from LSH banding.

    Returns ``(pairs, sims)`` where ``pairs`` is ``int64[P, 2]`` with
    ``u < v`` unique rows and ``sims`` their signature-estimated Jaccard
    similarity.

    Within a bucket, every member is paired with its ``pair_window``
    bucket-sorted successors (full coverage for buckets up to
    ``pair_window + 1`` members, stride sampling for larger ones).  This
    caps worst-case pair counts at ``bands * pair_window * N`` — the LSH
    "search-space reduction" the paper needs for large graphs — with no
    per-bucket Python loop.  Truly similar nodes collide in several
    bands, so they get several pairing chances.  The pairs come out
    sorted by ``(u, v)``.
    """
    n, h = sig.rows.shape
    bands = max(1, min(bands, h))
    rows = h // bands
    rng = np.random.default_rng(seed)
    mix = np.stack([
        rng.integers(1, _MERSENNE_P, size=rows, dtype=np.int64)
        for _ in range(bands)
    ])
    native = runtime().fastpath and _native.available()
    packed = None
    if native:
        sig_rows = np.ascontiguousarray(sig.rows, dtype=np.int64)
        empty = np.ascontiguousarray(sig.empty, dtype=bool)
        packed = _native.lsh_pairs(sig_rows, empty, mix, pair_window)
    if packed is None:
        packed = _banded_pairs(sig, mix, pair_window)
    if not packed.size:
        return (
            np.empty((0, 2), dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    uniq = sorted_unique(packed)
    u, v = uniq // n, uniq % n
    if native:
        sims = _native.pair_similarity(sig_rows, empty, u, v)
    else:
        sims = signature_similarity(sig, u, v)
    return np.stack([u, v], axis=1), sims


def _banded_pairs(
    sig: MinHashSignature, mix: np.ndarray, pair_window: int
) -> np.ndarray:
    """Packed ``lo * N + hi`` pairs of every band, with repeats (the
    reference, and the lane without a C compiler): each band's keys are
    stable-sorted, and positions up to ``pair_window`` apart with equal
    keys are paired."""
    n = sig.num_nodes
    rows = mix.shape[1]
    chunks = []
    empty_count = int(sig.empty.sum())
    for b, band_mix in enumerate(mix):
        band = sig.rows[:, b * rows : (b + 1) * rows]
        # Bucket key: collapse the band to one hashable int64 per node.
        key = ((band * band_mix) % _MERSENNE_P).sum(axis=1)
        if empty_count:
            key[sig.empty] = -1 - np.arange(empty_count)  # isolate
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        for d in range(1, pair_window + 1):
            if d >= n:
                break
            same = sorted_key[d:] == sorted_key[:-d]
            if not same.any():
                continue
            a = order[:-d][same]
            c = order[d:][same]
            chunks.append(np.minimum(a, c) * np.int64(n) + np.maximum(a, c))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)
