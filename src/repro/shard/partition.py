"""Deterministic graph partitioning over the destination-major CSR.

Two methods, matching the two families the multi-GPU GNN systems use:

* **edge-cut** (ROC-style): center (destination) nodes are split into
  ``P`` contiguous ranges balanced by *edge count*; every edge follows
  its destination, so each edge lives in exactly one partition.  The
  partition reads the features of non-owned source nodes through a
  *halo* (ghost) replica that must be exchanged from the owner before
  each layer's aggregation.
* **vertex-cut** (NeuGraph/PowerGraph-style): the positional edge array
  is split into ``P`` contiguous balanced ranges, so a hub center's
  edges may span several partitions.  Every vertex has exactly one
  *owner* (the partition holding its first incoming edge position);
  non-owner partitions that aggregate for a center hold a *mirror*
  whose partial sum is sent to the owner and reduced there.

Everything is a pure function of (graph fingerprint, method, P): the
same inputs produce byte-identical partitions on any machine, and the
:class:`ShardPlan` fingerprint content-addresses the artifact the same
way :func:`repro.core.plan.plan_key` addresses compiled plans.

The local node space of a partition is ``[owned..., halo...]``: owned
(or locally-aggregated) centers keep their relative order as local ids
``0..n_centers-1``; ghost sources follow, sorted by global id.  With
``P == 1`` both methods degenerate to the identity: the local graph is
byte-identical to the input CSR (pinned by ``tests/test_shard.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph, sorted_unique

__all__ = [
    "GraphPartition",
    "ShardPlan",
    "partition_graph",
    "save_shard_plan",
    "load_shard_plan",
    "METHODS",
]

METHODS = ("edge_cut", "vertex_cut")


@dataclasses.dataclass(frozen=True)
class GraphPartition:
    """One device's shard of the graph.

    ``centers`` are the global ids this partition aggregates for (for
    edge-cut these are exactly the owned nodes; for vertex-cut they
    include mirrors of centers owned elsewhere).  ``halo`` are the
    global ids of ghost *source* nodes read here but owned by another
    partition — their features must be exchanged in before every
    layer's aggregation.  ``halo_owner`` aligns with ``halo`` and names
    the owning partition of each ghost, so the transfer model can size
    per-peer traffic.  ``mirrors`` (vertex-cut only) are the centers
    whose partial aggregate this partition must ship to ``mirror_owner``
    for reduction.
    """

    part_id: int
    num_parts: int
    method: str
    centers: np.ndarray            # int64[n_centers] global center ids
    owned_centers: np.ndarray      # int64, subset of centers owned here
    halo: np.ndarray               # int64[n_halo] global ghost source ids
    halo_owner: np.ndarray         # int32[n_halo] owning partition
    local_graph: CSRGraph          # nodes = [centers..., halo-only...]
    edge_start: int                # global positional edge range covered
    edge_stop: int
    mirrors: np.ndarray            # int64[n_mirrors] (vertex-cut; else empty)
    mirror_owner: np.ndarray       # int32[n_mirrors]

    @property
    def num_local_nodes(self) -> int:
        return self.local_graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.local_graph.num_edges

    def halo_count_by_owner(self) -> Dict[int, int]:
        """Ghost-node count per owning peer (transfer sizing)."""
        if self.halo_owner.size == 0:
            return {}
        owners, counts = np.unique(self.halo_owner, return_counts=True)
        return {int(o): int(c) for o, c in zip(owners, counts)}

    def mirror_count_by_owner(self) -> Dict[int, int]:
        """Mirrored-center count per owning peer (reduction sizing)."""
        if self.mirror_owner.size == 0:
            return {}
        owners, counts = np.unique(self.mirror_owner, return_counts=True)
        return {int(o): int(c) for o, c in zip(owners, counts)}


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """The full partitioning of one graph onto ``num_parts`` devices."""

    method: str
    num_parts: int
    graph_name: str
    graph_fingerprint: str
    num_nodes: int
    num_edges: int
    owner: np.ndarray              # int32[num_nodes] owning partition
    parts: Tuple[GraphPartition, ...]

    @property
    def fingerprint(self) -> str:
        """Content address: changes iff the partitioning changes."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            h = hashlib.sha256()
            h.update(json.dumps({
                "method": self.method,
                "parts": self.num_parts,
                "graph": self.graph_fingerprint,
            }, sort_keys=True).encode())
            for p in self.parts:
                h.update(p.centers.tobytes())
                h.update(p.halo.tobytes())
                h.update(p.local_graph.indptr.tobytes())
                h.update(p.local_graph.indices.tobytes())
            cached = h.hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @property
    def total_halo(self) -> int:
        return int(sum(p.halo.size for p in self.parts))

    @property
    def total_mirrors(self) -> int:
        return int(sum(p.mirrors.size for p in self.parts))

    @property
    def replication_factor(self) -> float:
        """Average number of copies (owned + ghost + mirror) per node."""
        n = self.num_nodes
        return (n + self.total_halo + self.total_mirrors) / n if n else 1.0

    def options_blob(self, part_id: int) -> Dict[str, object]:
        """The partitioning blob a per-partition plan key carries.

        Only sharded compilations carry it — the default single-device
        path passes nothing, so default plan ids (and the pinned bench
        hashes) never move.
        """
        return {
            "method": self.method,
            "parts": self.num_parts,
            "part": part_id,
            "shard_fingerprint": self.fingerprint,
        }

    def describe(self) -> str:
        lines = [
            f"shard {self.fingerprint}: {self.graph_name} "
            f"({self.num_nodes:,} nodes / {self.num_edges:,} edges) "
            f"-> {self.num_parts} partition(s), {self.method}",
            f"  total halo {self.total_halo:,}, mirrors "
            f"{self.total_mirrors:,}, replication "
            f"{self.replication_factor:.3f}x",
        ]
        for p in self.parts:
            lines.append(
                f"  part {p.part_id}: {p.owned_centers.size:,} owned, "
                f"{p.centers.size:,} centers, {p.num_edges:,} edges, "
                f"{p.halo.size:,} halo, {p.mirrors.size:,} mirrors"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------

def _balanced_cuts(totals_prefix: np.ndarray, num_parts: int) -> np.ndarray:
    """Split positions so each range carries ~equal prefix-sum weight.

    ``totals_prefix`` is a monotone prefix array (e.g. ``indptr``); the
    returned ``cuts`` (``int64[P+1]``) index into it, with ``cuts[0]=0``
    and ``cuts[-1]=len(totals_prefix)-1``.
    """
    n = totals_prefix.shape[0] - 1
    total = int(totals_prefix[-1])
    targets = (total * np.arange(1, num_parts, dtype=np.int64)) // num_parts
    inner = np.searchsorted(totals_prefix, targets, side="left")
    cuts = np.concatenate(([0], inner, [n])).astype(np.int64)
    # Monotone repair: empty ranges are legal (a partition may own zero
    # edges on degenerate graphs) but cuts must never run backwards.
    return np.maximum.accumulate(cuts)


def _local_csr(
    indptr_local: np.ndarray,
    src_global: np.ndarray,
    center_lo: int,
    center_hi: int,
    owner: np.ndarray,
    edge_weight: Optional[np.ndarray],
    name: str,
) -> Tuple[CSRGraph, np.ndarray, np.ndarray]:
    """Relabel a partition's edges into the local node space.

    Centers are the contiguous global range ``[center_lo, center_hi)``;
    center ``v`` becomes local node ``v - center_lo``, and sources
    outside the range follow as ``n_centers + rank-in-sorted-halo``
    ghost nodes.  Returns ``(local_graph, halo, halo_owner)``.
    """
    n_centers = center_hi - center_lo
    is_center = (src_global >= center_lo) & (src_global < center_hi)
    halo = sorted_unique(src_global[~is_center]).astype(np.int64)
    halo_local = np.searchsorted(halo, src_global)
    src_local = np.where(
        is_center, src_global - center_lo, n_centers + halo_local
    ).astype(np.int32)
    # Halo nodes carry no in-edges here: extend indptr flat.
    full_indptr = np.concatenate([
        indptr_local,
        np.full(halo.shape[0], indptr_local[-1], dtype=np.int64),
    ])
    local = CSRGraph(full_indptr, src_local, edge_weight, name)
    return local, halo, owner[halo].astype(np.int32)


def partition_edge_cut(graph: CSRGraph, num_parts: int) -> ShardPlan:
    """Edge-cut: contiguous center ranges balanced by edge count."""
    indptr = graph.indptr
    cuts = _balanced_cuts(indptr, num_parts)
    owner = np.repeat(
        np.arange(num_parts, dtype=np.int32), np.diff(cuts)
    )
    parts = []
    for p in range(num_parts):
        lo, hi = int(cuts[p]), int(cuts[p + 1])
        e0, e1 = int(indptr[lo]), int(indptr[hi])
        indptr_local = (indptr[lo : hi + 1] - e0).astype(np.int64)
        src = graph.indices[e0:e1].astype(np.int64)
        centers = np.arange(lo, hi, dtype=np.int64)
        ew = (
            graph.edge_weight[e0:e1]
            if graph.edge_weight is not None else None
        )
        local, halo, halo_owner = _local_csr(
            indptr_local, src, lo, hi, owner, ew,
            name=f"{graph.name}:edge_cut{num_parts}.{p}",
        )
        parts.append(GraphPartition(
            part_id=p,
            num_parts=num_parts,
            method="edge_cut",
            centers=centers,
            owned_centers=centers,
            halo=halo,
            halo_owner=halo_owner,
            local_graph=local,
            edge_start=e0,
            edge_stop=e1,
            mirrors=np.zeros(0, dtype=np.int64),
            mirror_owner=np.zeros(0, dtype=np.int32),
        ))
    return ShardPlan(
        method="edge_cut",
        num_parts=num_parts,
        graph_name=graph.name,
        graph_fingerprint=graph.fingerprint,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        owner=owner,
        parts=tuple(parts),
    )


def partition_vertex_cut(graph: CSRGraph, num_parts: int) -> ShardPlan:
    """Vertex-cut: contiguous positional edge ranges; hubs may split.

    Every vertex has exactly one owner — the partition whose edge range
    contains its first in-edge position ``indptr[v]`` (zero-degree
    vertices land where their empty position falls, so ownership stays a
    total, deterministic function of the CSR).  A partition's *centers*
    are the contiguous node range covering both its owned vertices and
    the destinations of its edge range; a hub whose edges spill across a
    cut is aggregated partially on each side and reduced at its owner
    (the spill-side replica is a *mirror*).
    """
    indptr = graph.indptr
    n, e = graph.num_nodes, graph.num_edges
    ecuts = np.concatenate((
        [0],
        (e * np.arange(1, num_parts, dtype=np.int64)) // num_parts,
        [e],
    )).astype(np.int64)
    ecuts = np.maximum.accumulate(ecuts)
    # owner[v]: the edge range containing position indptr[v] (ties at a
    # cut go to the later partition; duplicate cuts collapse to the
    # last, so empty partitions own nothing).
    owner = np.searchsorted(ecuts, indptr[:-1], side="right") - 1
    owner = np.minimum(owner, num_parts - 1).astype(np.int32)
    parts = []
    for p in range(num_parts):
        e0, e1 = int(ecuts[p]), int(ecuts[p + 1])
        # Owned node range (owner is non-decreasing in v).
        o_lo = int(np.searchsorted(owner, p, side="left"))
        o_hi = int(np.searchsorted(owner, p, side="right"))
        # Destination node range of the edge slice.
        if e1 > e0:
            d_lo = int(np.searchsorted(indptr, e0, side="right")) - 1
            d_hi = int(np.searchsorted(indptr, e1 - 1, side="right"))
        else:
            d_lo, d_hi = o_lo, o_lo
        c_lo = min(o_lo, d_lo) if o_hi > o_lo else d_lo
        c_hi = max(o_hi, d_hi) if o_hi > o_lo else d_hi
        centers = np.arange(c_lo, c_hi, dtype=np.int64)
        # Clip each center's global edge range to this partition's edge
        # slice: spilled hub edges fall away, local rows keep positional
        # (dst-grouped, src-sorted) order.
        indptr_local = (
            np.clip(indptr[c_lo : c_hi + 1], e0, e1) - e0
        ).astype(np.int64)
        src = graph.indices[e0:e1].astype(np.int64)
        ew = (
            graph.edge_weight[e0:e1]
            if graph.edge_weight is not None else None
        )
        local, halo, halo_owner = _local_csr(
            indptr_local, src, c_lo, c_hi, owner, ew,
            name=f"{graph.name}:vertex_cut{num_parts}.{p}",
        )
        center_owner = owner[centers] if centers.size else (
            np.zeros(0, dtype=np.int32)
        )
        mirror_mask = center_owner != p
        parts.append(GraphPartition(
            part_id=p,
            num_parts=num_parts,
            method="vertex_cut",
            centers=centers,
            owned_centers=centers[~mirror_mask],
            halo=halo,
            halo_owner=halo_owner,
            local_graph=local,
            edge_start=e0,
            edge_stop=e1,
            mirrors=centers[mirror_mask],
            mirror_owner=center_owner[mirror_mask].astype(np.int32),
        ))
    return ShardPlan(
        method="vertex_cut",
        num_parts=num_parts,
        graph_name=graph.name,
        graph_fingerprint=graph.fingerprint,
        num_nodes=n,
        num_edges=e,
        owner=owner,
        parts=tuple(parts),
    )


def partition_graph(
    graph: CSRGraph, num_parts: int, method: str = "edge_cut"
) -> ShardPlan:
    """Partition ``graph`` onto ``num_parts`` simulated devices."""
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    if method == "edge_cut":
        return partition_edge_cut(graph, num_parts)
    if method == "vertex_cut":
        return partition_vertex_cut(graph, num_parts)
    raise ValueError(
        f"unknown partition method {method!r}; choose from {METHODS}"
    )


# ----------------------------------------------------------------------
# Content-addressed persistence
# ----------------------------------------------------------------------

def shard_path(out_dir: str, plan: ShardPlan) -> str:
    return os.path.join(out_dir, f"shard_{plan.fingerprint}.npz")


def save_shard_plan(out_dir: str, plan: ShardPlan) -> str:
    """Persist a shard plan as one content-addressed npz artifact."""
    os.makedirs(out_dir, exist_ok=True)
    arrays: Dict[str, np.ndarray] = {"owner": plan.owner}
    meta = {
        "method": plan.method,
        "num_parts": plan.num_parts,
        "graph_name": plan.graph_name,
        "graph_fingerprint": plan.graph_fingerprint,
        "num_nodes": plan.num_nodes,
        "num_edges": plan.num_edges,
        "fingerprint": plan.fingerprint,
        "parts": [],
    }
    for p in plan.parts:
        k = f"p{p.part_id}_"
        arrays[k + "centers"] = p.centers
        arrays[k + "owned"] = p.owned_centers
        arrays[k + "halo"] = p.halo
        arrays[k + "halo_owner"] = p.halo_owner
        arrays[k + "indptr"] = p.local_graph.indptr
        arrays[k + "indices"] = p.local_graph.indices
        arrays[k + "mirrors"] = p.mirrors
        arrays[k + "mirror_owner"] = p.mirror_owner
        if p.local_graph.edge_weight is not None:
            arrays[k + "edge_weight"] = p.local_graph.edge_weight
        meta["parts"].append({
            "part_id": p.part_id,
            "edge_start": p.edge_start,
            "edge_stop": p.edge_stop,
            "local_name": p.local_graph.name,
        })
    path = shard_path(out_dir, plan)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, meta=json.dumps(meta), **arrays)
    os.replace(tmp, path)
    return path


def load_shard_plan(path: str) -> Optional[ShardPlan]:
    """Load a saved shard plan; ``None`` on unreadable artifacts."""
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["meta"]))
            owner = z["owner"]
            parts = []
            for pm in meta["parts"]:
                k = f"p{pm['part_id']}_"
                ew = z[k + "edge_weight"] if k + "edge_weight" in z else None
                local = CSRGraph(
                    z[k + "indptr"], z[k + "indices"], ew,
                    pm["local_name"],
                )
                parts.append(GraphPartition(
                    part_id=pm["part_id"],
                    num_parts=meta["num_parts"],
                    method=meta["method"],
                    centers=z[k + "centers"],
                    owned_centers=z[k + "owned"],
                    halo=z[k + "halo"],
                    halo_owner=z[k + "halo_owner"],
                    local_graph=local,
                    edge_start=pm["edge_start"],
                    edge_stop=pm["edge_stop"],
                    mirrors=z[k + "mirrors"],
                    mirror_owner=z[k + "mirror_owner"],
                ))
    except (OSError, ValueError, KeyError) as exc:
        import warnings

        warnings.warn(f"cannot load shard plan {path}: {exc}",
                      stacklevel=2)
        return None
    return ShardPlan(
        method=meta["method"],
        num_parts=meta["num_parts"],
        graph_name=meta["graph_name"],
        graph_fingerprint=meta["graph_fingerprint"],
        num_nodes=meta["num_nodes"],
        num_edges=meta["num_edges"],
        owner=owner,
        parts=tuple(parts),
    )
