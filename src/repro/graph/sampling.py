"""Graph sampling: minibatch neighborhoods and induced subgraphs.

The paper's §5.2 "online and offline improvement analysis" hinges on
sampling: when "the graph dynamically changes at every iteration when
graph sampling is applied", the offline analysis (locality-aware
scheduling) cannot be amortized and only the online optimizations
(neighbor grouping, adapter, sparse fetching) apply.  This module
provides the samplers that create those per-iteration graphs:

* :func:`khop_sampled_subgraph` — GraphSAGE-style fixed-fanout k-hop
  neighborhood expansion from a seed minibatch, returning the induced
  block graph (what one training iteration aggregates over);
* :func:`induced_subgraph` — the subgraph on an explicit node set
  (Cluster-GCN-style partition batches);
* :func:`random_edge_sample` — GraphSAINT-style edge sampling.

All samplers are seeded and return ordinary :class:`CSRGraph` objects
plus the node mapping back to the parent graph, so every optimization
and framework in the library runs on sampled graphs unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..gpusim import _native
from ..perf import runtime
from .csr import CSRGraph, coo_to_csr, sorted_unique

__all__ = [
    "SampledSubgraph",
    "khop_sampled_subgraph",
    "induced_subgraph",
    "random_edge_sample",
]


@dataclasses.dataclass(frozen=True)
class SampledSubgraph:
    """A sampled graph plus its mapping into the parent.

    ``node_map[i]`` is the parent node id of subgraph node ``i``; the
    first ``num_seeds`` subgraph nodes are the seed (output) nodes.
    """

    graph: CSRGraph
    node_map: np.ndarray
    num_seeds: int

    def lift_features(self, parent_feat: np.ndarray) -> np.ndarray:
        """Slice parent features for the subgraph's nodes."""
        return parent_feat[self.node_map]


def khop_sampled_subgraph(
    graph: CSRGraph,
    seeds: np.ndarray,
    fanouts: Tuple[int, ...],
    seed: int = 0,
) -> SampledSubgraph:
    """Fixed-fanout k-hop neighborhood sampling (GraphSAGE §3.1 style).

    Starting from ``seeds``, each hop samples at most ``fanouts[h]``
    in-neighbors per frontier node (without replacement when the degree
    allows).  Returns the subgraph induced on all visited nodes with
    only the sampled edges, destination-major like the parent.  Raises
    ``ValueError`` for a seed outside ``[0, N)`` or a negative or
    non-integer fanout.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size and (seeds.min() < 0 or seeds.max() >= graph.num_nodes):
        raise ValueError(
            f"seed nodes must lie in [0, {graph.num_nodes}); got "
            f"{int(seeds.min())}..{int(seeds.max())}"
        )
    for fanout in fanouts:
        if not isinstance(fanout, (int, np.integer)) or fanout < 0:
            raise ValueError(
                f"fanouts must be non-negative integers; got {fanout!r}"
            )
    rng = np.random.default_rng(seed)
    indptr, indices = graph.indptr, graph.indices
    # Parent id -> subgraph id, -1 while unvisited.  A repeated seed maps
    # to its last position.
    local = np.full(graph.num_nodes, -1, dtype=np.int64)
    uniq, last_rev = np.unique(seeds[::-1], return_index=True)
    local[uniq] = seeds.shape[0] - 1 - last_rev
    order = [seeds]
    num_local = seeds.shape[0]
    src_parts, dst_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    frontier = seeds
    for fanout in fanouts:
        start = indptr[frontier]
        deg = indptr[frontier + 1] - start
        take = np.minimum(deg, fanout)
        # Offsets into each frontier row: whole rows within the fanout,
        # else ``rng.choice(deg, fanout, replace=False)`` per row in
        # frontier order, the same random stream as choosing from the row
        # itself.  The native kernel makes every row's draws in one call;
        # where it declines, the per-row calls do.
        row = np.repeat(np.arange(frontier.shape[0]), take)
        seg = np.cumsum(take) - take
        offset = np.arange(row.shape[0]) - seg[row]
        sampled = np.flatnonzero(deg > fanout)
        if sampled.size:
            draws = _native.choice_rows(
                rng, deg[sampled], fanout
            ) if runtime().fastpath else None
            if draws is None:
                draws = np.concatenate([
                    rng.choice(d, fanout, replace=False)
                    for d in deg[sampled].tolist()
                ])
            slots = seg[sampled][:, None] + np.arange(fanout)
            offset[slots.ravel()] = draws
        picked = indices[start[row] + offset].astype(np.int64)
        # Unvisited picks take the next ids in first-seen order.
        fresh = np.flatnonzero(local[picked] < 0)
        _, first = np.unique(picked[fresh], return_index=True)
        new = picked[fresh[np.sort(first)]]
        local[new] = np.arange(num_local, num_local + new.shape[0])
        num_local += new.shape[0]
        order.append(new)
        src_parts.append(local[picked])
        dst_parts.append(np.repeat(local[frontier], take))
        frontier = new
        if frontier.size == 0:
            break
    node_map = np.concatenate(order)
    sub = coo_to_csr(
        np.concatenate(src_parts),
        np.concatenate(dst_parts),
        node_map.shape[0],
        name=f"{graph.name}:khop",
    )
    return SampledSubgraph(sub, node_map, int(seeds.shape[0]))


def induced_subgraph(
    graph: CSRGraph, nodes: np.ndarray
) -> SampledSubgraph:
    """Subgraph induced on ``nodes`` (all parent edges between them)."""
    nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
    lookup = np.full(graph.num_nodes, -1, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.shape[0])
    src = lookup[graph.indices]
    dst = lookup[graph.edge_dst()]
    kept = (src >= 0) & (dst >= 0)
    sub = coo_to_csr(
        src[kept], dst[kept], nodes.shape[0], name=f"{graph.name}:induced"
    )
    return SampledSubgraph(sub, nodes, int(nodes.shape[0]))


def random_edge_sample(
    graph: CSRGraph, num_edges: int, seed: int = 0
) -> SampledSubgraph:
    """GraphSAINT-style edge sampling: keep a uniform random edge set
    and the subgraph induced on their endpoints."""
    rng = np.random.default_rng(seed)
    e = graph.num_edges
    take = min(num_edges, e)
    picked = rng.choice(e, size=take, replace=False)
    picked.sort()
    src = graph.indices[picked].astype(np.int64)
    dst = graph.edge_dst()[picked].astype(np.int64)
    nodes = sorted_unique(np.concatenate([src, dst]))
    lookup = np.full(graph.num_nodes, -1, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.shape[0])
    sub = coo_to_csr(
        lookup[src], lookup[dst], nodes.shape[0],
        name=f"{graph.name}:edges",
    )
    return SampledSubgraph(sub, nodes, int(nodes.shape[0]))
