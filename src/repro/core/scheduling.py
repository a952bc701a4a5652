"""Locality-aware task scheduling (paper §4.1.1).

Three steps, exactly as the paper describes:

1. **Candidate pair selection** — MinHash + LSH over neighbor sets
   (:mod:`repro.core.minhash`) yields pairs of center nodes with high
   estimated Jaccard similarity.
2. **Pair merging** — a priority queue ordered by similarity merges
   pairs into clusters.  Every node starts as its own cluster's
   representative; dequeuing a pair of two representatives merges their
   clusters (larger cluster's representative wins); otherwise the two
   *representatives* are re-paired and re-enqueued.  Cluster size is
   bounded (32 in the paper's experiments) to keep low-similarity nodes
   from chaining into one blob.
3. **Task scheduling** — clusters are laid out contiguously in the block
   issue order, so their member nodes land on adjacent computing units
   and share L2 residency.

This is the paper's one *offline* optimization; :class:`ScheduleResult`
records the analysis cost so benchmarks can report it (§4.4 notes it is
amortized over hyper-parameter-tuning reruns).
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from typing import List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim import _native
from ..perf import runtime
from .minhash import (
    MinHashSignature,
    lsh_candidate_pairs,
    minhash_signatures,
)

__all__ = ["ScheduleResult", "locality_aware_schedule", "cluster_sizes"]


@dataclasses.dataclass(frozen=True)
class ScheduleResult:
    """Output of locality-aware task scheduling.

    ``order`` is a permutation of center-node ids: position in ``order``
    is the block issue position.  ``cluster_id[v]`` identifies the cluster
    of node ``v`` (clusters are contiguous in ``order``).
    """

    order: np.ndarray
    cluster_id: np.ndarray
    num_clusters: int
    num_candidate_pairs: int
    analysis_seconds: float

    def validate(self, num_nodes: int) -> None:
        if not np.array_equal(np.sort(self.order), np.arange(num_nodes)):
            raise ValueError("schedule order is not a permutation")
        # Clusters must be contiguous runs in the order.
        cid = self.cluster_id[self.order]
        changes = np.flatnonzero(np.diff(cid) != 0).size + 1
        if changes != self.num_clusters:
            raise ValueError("clusters are not contiguous in the order")


class _DSU:
    """Disjoint sets with size bookkeeping; root is the representative."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        # Larger cluster's representative becomes the new representative.
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


def _merge_pairs(
    pairs: np.ndarray,
    sims: np.ndarray,
    num_nodes: int,
    max_cluster: int,
    sig: MinHashSignature,
    min_similarity: float,
) -> _DSU:
    """Priority-queue pair merging (paper step 2)."""
    dsu = _DSU(num_nodes)
    # Keep only pairs above the similarity floor, best-first, and cap the
    # heap at 16 pairs per node (the merge can use at most N-1 of them).
    keep = sims >= min_similarity
    pairs, sims = pairs[keep], sims[keep]
    cap = 16 * num_nodes
    if pairs.shape[0] > cap:
        top = np.argsort(-sims, kind="stable")[:cap]
        pairs, sims = pairs[top], sims[top]
    # The candidate pairs are static: instead of heapifying hundreds of
    # thousands of Python tuples, walk them in heap order — descending
    # similarity, ties by (u, v) — and keep a real heap only for the few
    # re-paired representatives pushed during the merge.  The combined
    # pop sequence is exactly the single-heap order.  Pairs arrive sorted
    # by (u, v) (and the cap above keeps that order among equal
    # similarities), so a stable sort on similarity alone is that order.
    order = np.argsort(-sims, kind="stable")
    # Scalar re-pair similarity: each signature row is contiguous, so the
    # per-pair compare is two tiny slices instead of a full
    # signature_similarity call (same count/num_hashes float, bit for bit).
    sig_rows = np.ascontiguousarray(sig.rows, dtype=np.int64)
    empty = sig.empty
    num_hashes = sig_rows.shape[1]
    if runtime().fastpath and _native.available():
        # The merge is a sequential pop-loop — the native port mirrors
        # it operation for operation (same double comparisons, same
        # count/num_hashes division), so the partition is identical.
        negs = np.ascontiguousarray(-sims[order])
        sorted_pairs = np.ascontiguousarray(pairs[order])
        parent = np.arange(num_nodes, dtype=np.int64)
        psize = np.ones(num_nodes, dtype=np.int64)
        ok = _native.merge_pairs(
            negs,
            np.ascontiguousarray(sorted_pairs[:, 0]),
            np.ascontiguousarray(sorted_pairs[:, 1]),
            sig_rows,
            np.ascontiguousarray(empty, dtype=np.uint8),
            max_cluster, min_similarity, parent, psize,
        )
        if ok:
            dsu = _DSU(0)
            dsu.parent = parent
            dsu.size = psize
            return dsu
    neg_sorted = (-sims[order]).tolist()
    uv_sorted = pairs[order].tolist()
    npairs = len(neg_sorted)
    pos = 0
    heap: List[tuple] = []
    seen = set()
    while heap or pos < npairs:
        if pos >= npairs:
            neg_s, u, v = heapq.heappop(heap)
        else:
            u, v = uv_sorted[pos]
            neg_s = neg_sorted[pos]
            if heap and heap[0] < (neg_s, u, v):
                neg_s, u, v = heapq.heappop(heap)
            else:
                pos += 1
        ru, rv = dsu.find(u), dsu.find(v)
        if ru == rv:
            continue
        if dsu.size[ru] + dsu.size[rv] > max_cluster:
            continue
        if ru == u and rv == v:
            dsu.union(u, v)
            continue
        # Not both representatives: re-pair the representatives, with a
        # freshly estimated similarity, as the paper prescribes.
        key = (min(ru, rv), max(ru, rv))
        if key in seen:
            continue
        seen.add(key)
        if empty[ru] and empty[rv]:
            s = 0.0
        else:
            s = np.count_nonzero(
                sig_rows[ru] == sig_rows[rv]) / num_hashes
        if s >= min_similarity:
            heapq.heappush(heap, (-s, key[0], key[1]))
    return dsu


def locality_aware_schedule(
    graph: CSRGraph,
    *,
    num_hashes: int = 32,
    bands: int = 16,
    max_cluster: int = 32,
    min_similarity: float = 0.1,
    pair_window: int = 4,
    seed: int = 0,
    signature: Optional[MinHashSignature] = None,
) -> ScheduleResult:
    """Compute the locality-aware center-node issue order for ``graph``."""
    t0 = time.perf_counter()
    n = graph.num_nodes
    sig = signature if signature is not None else minhash_signatures(
        graph, num_hashes=num_hashes, seed=seed
    )
    pairs, sims = lsh_candidate_pairs(
        sig, bands=bands, pair_window=pair_window, seed=seed + 1
    )
    dsu = _merge_pairs(pairs, sims, n, max_cluster, sig, min_similarity)
    # Resolve every node's root by iterated whole-array parent gathers
    # (pointer doubling) instead of N Python ``find`` calls; the fixpoint
    # is exactly the per-node root.
    roots = np.asarray(dsu.parent, dtype=np.int64)
    while True:
        grand = roots[roots]
        if np.array_equal(grand, roots):
            break
        roots = grand
    # Emit clusters contiguously; order clusters by their smallest member
    # (deterministic) and members by node id within a cluster.
    order = np.lexsort((np.arange(n), roots))
    # Re-label cluster ids densely in emission order.
    emitted_roots = roots[order]
    new_cluster = np.concatenate(
        [[True], emitted_roots[1:] != emitted_roots[:-1]]
    )
    dense_in_order = np.cumsum(new_cluster) - 1
    cluster_id = np.empty(n, dtype=np.int64)
    cluster_id[order] = dense_in_order
    elapsed = time.perf_counter() - t0
    return ScheduleResult(
        order=order.astype(np.int64),
        cluster_id=cluster_id,
        num_clusters=int(dense_in_order[-1]) + 1 if n else 0,
        num_candidate_pairs=int(pairs.shape[0]),
        analysis_seconds=elapsed,
    )


def cluster_sizes(result: ScheduleResult) -> np.ndarray:
    """Sizes of all clusters (``int64[num_clusters]``)."""
    return np.bincount(result.cluster_id, minlength=result.num_clusters)
