"""Neighbor grouping (paper §4.1.2).

Partitions every center node's neighbor list into groups of at most
``bound`` neighbors.  Each group becomes its own block task, so hub nodes
spread across many computing units — the fix for Observation 2's load
imbalance.  Groups of the same center may land on different SMs, so
centers with more than one group combine their partial results with
atomic updates (the paper notes sum/max/mean reducers tolerate arbitrary
order, so no cross-SM exchange is needed).

The whole computation is one vectorized pass over the CSR index — the
O(N) "iterates the index in CSR matrix once" cost the paper quotes for
its online analysis.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["GroupingPlan", "neighbor_grouping", "identity_grouping"]


@dataclasses.dataclass(frozen=True)
class GroupingPlan:
    """Block-task layout after neighbor grouping.

    ``group_ptr`` slices the CSR ``indices`` array: group ``g`` covers
    positional edges ``group_ptr[g]:group_ptr[g+1]``.  Groups of one
    center are consecutive.  ``group_center[g]`` is the owning center
    node, and ``needs_atomic[g]`` is True when the center has multiple
    groups (partial results merged via atomics).
    """

    bound: int
    group_ptr: np.ndarray     # int64[G+1]
    group_center: np.ndarray  # int64[G]
    needs_atomic: np.ndarray  # bool[G]

    @property
    def num_groups(self) -> int:
        return int(self.group_center.shape[0])

    @property
    def group_sizes(self) -> np.ndarray:
        return np.diff(self.group_ptr)

    def validate(self, graph: CSRGraph) -> None:
        sizes = self.group_sizes
        if sizes.size and int(sizes.max()) > self.bound:
            raise ValueError("a group exceeds the bound")
        if self.group_ptr[0] != 0 or self.group_ptr[-1] != graph.num_edges:
            raise ValueError("groups do not cover all edges")
        # Per-center coverage: summed group sizes must equal degrees.
        per_center = np.bincount(
            self.group_center, weights=sizes, minlength=graph.num_nodes
        )
        if not np.array_equal(
            per_center.astype(np.int64), graph.degrees
        ):
            raise ValueError("group sizes do not add up to degrees")


def neighbor_grouping(graph: CSRGraph, bound: int) -> GroupingPlan:
    """Split each center's neighbors into groups of at most ``bound``."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    deg = graph.degrees
    n = graph.num_nodes
    # ceil(deg / bound) groups per center; empty centers get one empty
    # group so every center still owns a block (it writes its zero/identity
    # output, as the real kernels do).
    groups_per_center = np.maximum(-(-deg // bound), 1)
    total = int(groups_per_center.sum())
    group_center = np.repeat(
        np.arange(n, dtype=np.int64), groups_per_center
    )
    # Sizes: all groups of a center are `bound` except the last, which
    # takes the remainder (or the whole degree when deg <= bound).
    first_group = np.concatenate(
        [[0], np.cumsum(groups_per_center)[:-1]]
    )
    idx_in_center = np.arange(total, dtype=np.int64) - first_group[
        group_center
    ]
    remainder = deg - (groups_per_center - 1) * bound
    sizes = np.where(
        idx_in_center == groups_per_center[group_center] - 1,
        remainder[group_center],
        bound,
    ).astype(np.int64)
    group_ptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(sizes, out=group_ptr[1:])
    needs_atomic = (groups_per_center > 1)[group_center]
    return GroupingPlan(
        bound=int(bound),
        group_ptr=group_ptr,
        group_center=group_center,
        needs_atomic=needs_atomic,
    )


def identity_grouping(graph: CSRGraph) -> GroupingPlan:
    """One group per center — the ungrouped (DGL-style) task layout.

    Built once per graph instance, with read-only arrays: every default
    layout of a graph shares it, so the content digests that key its
    kernels (see :func:`repro.gpusim.memo.kernel_fingerprint`) are
    computed once.
    """
    cached = graph.__dict__.get("_identity_grouping")
    if cached is None:
        n = graph.num_nodes
        cached = GroupingPlan(
            bound=max(int(graph.max_degree), 1),
            group_ptr=graph.indptr.copy(),
            group_center=np.arange(n, dtype=np.int64),
            needs_atomic=np.zeros(n, dtype=bool),
        )
        for arr in (cached.group_ptr, cached.group_center,
                    cached.needs_atomic):
            arr.setflags(write=False)
        object.__setattr__(graph, "_identity_grouping", cached)
    return cached
