"""Compressed Sparse Row graph structure.

This module provides the graph substrate every other part of the
reproduction builds on.  A :class:`CSRGraph` stores a directed graph in CSR
form oriented *destination-major*: for a center (destination) node ``v``,
``indices[indptr[v]:indptr[v+1]]`` are the source nodes of its incoming
edges.  This matches how DGL (and the paper's "center-neighbor" pattern)
lays out graph operations: one task per center node, iterating its
neighbors.

All arrays are numpy, contiguous, and never copied unless necessary
(`views, not copies` per the HPC guides).  Edge ids are positional: edge
``e`` of the CSR is ``(indices[e] -> row_of(e))``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "CSRGraph",
    "coo_to_csr",
    "csr_to_coo",
    "sorted_unique",
    "GraphValidationError",
]


class GraphValidationError(ValueError):
    """Raised when a CSR structure is internally inconsistent."""


@dataclasses.dataclass(frozen=True)
class CSRGraph:
    """A directed graph in CSR (destination-major) form.

    Parameters
    ----------
    indptr:
        ``int64[num_nodes + 1]`` monotone row-pointer array.
    indices:
        ``int32[num_edges]`` source node for each incoming edge, grouped by
        destination node.
    num_nodes:
        Number of nodes.  Derived from ``indptr`` if omitted.
    edge_weight:
        Optional ``float32[num_edges]`` scalar edge data aligned with
        ``indices``.
    name:
        Optional human-readable dataset name.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_weight: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if self.edge_weight is not None:
            ew = np.ascontiguousarray(self.edge_weight, dtype=np.float32)
            object.__setattr__(self, "edge_weight", ew)
        self.validate()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.indptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """In-degree (number of neighbors) of each center node."""
        return np.diff(self.indptr)

    @property
    def avg_degree(self) -> float:
        n = self.num_nodes
        return self.num_edges / n if n else 0.0

    @property
    def max_degree(self) -> int:
        d = self.degrees
        return int(d.max()) if d.size else 0

    @property
    def degree_variance(self) -> float:
        d = self.degrees
        return float(d.var()) if d.size else 0.0

    @property
    def density(self) -> float:
        n = self.num_nodes
        return self.num_edges / (n * n) if n else 0.0

    @property
    def fingerprint(self) -> str:
        """Structural hash: changes iff the CSR structure changes.

        Computed lazily once per instance (the arrays are immutable by
        convention); used as the cache key for offline artifacts and
        in-process memo tables.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            h = hashlib.sha256()
            h.update(self.indptr.tobytes())
            h.update(self.indices.tobytes())
            cached = h.hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Sources of edges into center node ``v`` (a view, not a copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_range(self, v: int) -> Tuple[int, int]:
        """Half-open positional edge-id range of center node ``v``."""
        return int(self.indptr[v]), int(self.indptr[v + 1])

    def edge_dst(self) -> np.ndarray:
        """Destination node id for every positional edge (``int32[E]``)."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int32), self.degrees
        )

    def validate(self) -> None:
        """Check structural invariants, raising :class:`GraphValidationError`."""
        indptr, indices = self.indptr, self.indices
        if indptr.ndim != 1 or indptr.shape[0] < 1:
            raise GraphValidationError("indptr must be 1-D and non-empty")
        if indptr[0] != 0:
            raise GraphValidationError("indptr[0] must be 0")
        if np.any(np.diff(indptr) < 0):
            raise GraphValidationError("indptr must be non-decreasing")
        if indptr[-1] != indices.shape[0]:
            raise GraphValidationError(
                f"indptr[-1]={indptr[-1]} != num_edges={indices.shape[0]}"
            )
        n = self.num_nodes
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphValidationError("edge endpoints out of range")
        if self.edge_weight is not None and self.edge_weight.shape != (
            indices.shape[0],
        ):
            raise GraphValidationError("edge_weight misaligned with indices")

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """Graph with all edges reversed (CSC of this graph, as CSR)."""
        src, dst = csr_to_coo(self)
        return coo_to_csr(
            dst, src, self.num_nodes, edge_weight=self.edge_weight,
            name=self.name + ":rev",
        )

    def permute_nodes(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel nodes so that new node ``i`` is old node ``perm[i]``.

        ``perm`` must be a permutation of ``arange(num_nodes)``.  Both
        center rows and neighbor ids are relabelled; per-edge weights
        follow their edges.
        """
        perm = np.asarray(perm, dtype=np.int64)
        n = self.num_nodes
        if perm.shape != (n,) or not np.array_equal(
            np.sort(perm), np.arange(n)
        ):
            raise GraphValidationError("perm is not a permutation of nodes")
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        src, dst = csr_to_coo(self)
        return coo_to_csr(
            inv[src].astype(np.int32),
            inv[dst].astype(np.int32),
            n,
            edge_weight=self.edge_weight,
            name=self.name,
        )

    def with_weights(self, edge_weight: np.ndarray) -> "CSRGraph":
        return CSRGraph(self.indptr, self.indices, edge_weight, self.name)

    def row_slices(self) -> np.ndarray:
        """``int64[N, 2]`` array of (start, end) edge ranges per center."""
        return np.stack([self.indptr[:-1], self.indptr[1:]], axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, N={self.num_nodes}, "
            f"E={self.num_edges}, avg_deg={self.avg_degree:.1f})"
        )


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array; ``np.unique`` without
    its hash table.

    On numpy >= 2.3 a plain ``np.unique`` deduplicates through a hash
    table before sorting, which is several times slower than one value
    sort plus an adjacent-difference mask on the large int64 keys this
    package builds.
    """
    values = np.sort(values, axis=None)
    keep = np.ones(values.shape, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def coo_to_csr(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    edge_weight: Optional[np.ndarray] = None,
    name: str = "",
) -> CSRGraph:
    """Build a destination-major CSR from COO edge arrays.

    Edges are grouped by destination and, within a row, sorted by source
    id (a deterministic layout, required by the MinHash machinery which
    treats neighbor lists as sets); duplicate edges are kept.  Both
    orders come from one sort of the packed key ``dst * num_nodes +
    src``: a value sort when there are no weights to carry, a stable
    argsort (the order ``np.lexsort((src, dst))`` gives) when there are.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphValidationError("src/dst length mismatch")
    if src.size and (
        min(src.min(), dst.min()) < 0
        or max(src.max(), dst.max()) >= num_nodes
    ):
        raise GraphValidationError("edge endpoints out of range")
    key = dst * num_nodes + src
    ew = None
    if edge_weight is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        ew = np.asarray(edge_weight, dtype=np.float32)[order]
    counts = np.bincount(dst, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, (key % num_nodes).astype(np.int32), ew, name)


def csr_to_coo(graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(src, dst)`` int64 COO arrays in positional edge order."""
    dst = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    return graph.indices.astype(np.int64), dst
