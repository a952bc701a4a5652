"""Degree bucketing: the classic alternative to neighbor grouping.

Before its kernel rewrites, DGL batched center nodes by degree: nodes
with the same (padded) degree form a bucket, each bucket runs as one
dense batched kernel over a ``[bucket_size, padded_degree]`` neighbor
tensor.  This fixes load imbalance *within* a bucket but pays

* padding waste (every node is processed as if it had the bucket's
  padded degree), and
* one kernel launch per bucket.

It is the natural ablation partner for neighbor grouping — same goal,
different trade-off — and is included as the extra design-choice
ablation DESIGN.md §6 calls for (claim ``bucketing_ablation`` of
:mod:`repro.bench.claims`).
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..gpusim.config import GPUConfig
from ..gpusim.kernel import KernelSpec
from ..graph.csr import CSRGraph
from .lowering import effective_row_bytes

__all__ = ["DegreeBuckets", "degree_buckets", "bucketed_aggregation_kernels"]


@dataclasses.dataclass(frozen=True)
class DegreeBuckets:
    """Bucket assignment: nodes sorted by degree, split at power-of-two
    padded degrees."""

    node_order: np.ndarray      # int64[N], sorted by degree
    bucket_ptr: np.ndarray      # int64[B+1] into node_order
    padded_degree: np.ndarray   # int64[B]

    @property
    def num_buckets(self) -> int:
        return int(self.padded_degree.shape[0])

    def padding_waste(self, graph: CSRGraph) -> float:
        """Padded work / real work — the bucketing overhead factor."""
        deg = graph.degrees
        padded = 0
        for b in range(self.num_buckets):
            members = self.node_order[
                self.bucket_ptr[b] : self.bucket_ptr[b + 1]
            ]
            padded += int(self.padded_degree[b]) * members.shape[0]
        real = max(int(deg.sum()), 1)
        return padded / real


def degree_buckets(graph: CSRGraph) -> DegreeBuckets:
    """Bucket nodes by degree, padding to the next power of two."""
    deg = graph.degrees
    order = np.argsort(deg, kind="stable").astype(np.int64)
    sorted_deg = deg[order]
    # Padded degree per node: next power of two (0 stays 0).
    padded = np.where(
        sorted_deg > 0,
        2 ** np.ceil(np.log2(np.maximum(sorted_deg, 1))).astype(np.int64),
        0,
    )
    boundaries = np.flatnonzero(
        np.concatenate([[True], padded[1:] != padded[:-1]])
    )
    bucket_ptr = np.concatenate(
        [boundaries, [graph.num_nodes]]
    ).astype(np.int64)
    return DegreeBuckets(
        node_order=order,
        bucket_ptr=bucket_ptr,
        padded_degree=padded[boundaries],
    )


def bucketed_aggregation_kernels(
    graph: CSRGraph,
    feat_len: int,
    config: GPUConfig,
    buckets: DegreeBuckets | None = None,
) -> List[KernelSpec]:
    """One aggregation kernel per degree bucket (DGL's old strategy).

    Within a bucket every node carries ``padded_degree`` units of work
    (real rows gathered, padding computed on zeros), so blocks are
    uniform — perfect balance — but the padding and per-bucket launches
    are charged in full.
    """
    buckets = buckets if buckets is not None else degree_buckets(graph)
    kernels: List[KernelSpec] = []
    row_bytes = effective_row_bytes(feat_len, config, packed=False)
    for b in range(buckets.num_buckets):
        members = buckets.node_order[
            buckets.bucket_ptr[b] : buckets.bucket_ptr[b + 1]
        ]
        pad = int(buckets.padded_degree[b])
        if pad == 0:
            continue  # isolated nodes produce no aggregation work
        # Row trace: the real neighbors of the bucket's members.
        lengths = graph.degrees[members]
        row_ptr = np.zeros(members.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_ptr[1:])
        starts = graph.indptr[:-1][members]
        offsets = np.arange(int(row_ptr[-1]), dtype=np.int64) - np.repeat(
            row_ptr[:-1], lengths
        )
        row_ids = graph.indices[np.repeat(starts, lengths) + offsets]
        # Compute charged at the PADDED degree; padding also streams
        # zeros from the padded neighbor tensor.
        flops = np.full(members.shape[0], 2.0 * pad * feat_len)
        pad_stream = (pad - lengths).astype(np.float64) * row_bytes
        stream = lengths * 4.0 + 16.0 + feat_len * 4.0 + pad_stream
        kernels.append(
            KernelSpec(
                name=f"bucket_deg{pad}",
                block_flops=flops,
                row_ptr=row_ptr,
                row_ids=row_ids,
                row_bytes=row_bytes,
                stream_bytes=stream,
                tag="graph",
            )
        )
    return kernels
