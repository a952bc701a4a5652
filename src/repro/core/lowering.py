"""Lowering: from operator chains / layouts to simulator kernels.

This module is the single place where execution strategies become
:class:`~repro.gpusim.kernel.KernelSpec` objects.  Baseline frameworks
and our runtime all lower through these builders, so cost accounting is
identical and only the *strategies* differ:

* task layout — :class:`ExecLayout` carries the neighbor-grouping plan,
  the (optional) locality-aware center issue order, and the feature-lane
  mapping the tuner picks;
* fusion — a :class:`~repro.core.compgraph.FusionPlan` maps each fusion
  group to one kernel, charging intermediate tensors only at group
  boundaries (that is precisely what kernel fusion saves).

Cost conventions (DESIGN.md §5): feature-row reads are cacheable and
travel through the L2 model at ``row_bytes`` granularity (padded to
cache lines unless the layout packs rows); CSR structure, per-edge
scalars and writes are streaming DRAM traffic; atomics carry a per-op
charge.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..gpusim.config import GPUConfig
from ..gpusim.kernel import KernelDataflow, KernelSpec
from ..graph.csr import CSRGraph
from .adapter import postponable_into_aggregate
from .compgraph import FusionGroup, FusionPlan, OpKind
from .grouping import GroupingPlan, identity_grouping

__all__ = [
    "ExecLayout",
    "effective_row_bytes",
    "compute_waste",
    "aggregation_kernel",
    "edge_chain_kernel",
    "scalar_segment_reduce_kernel",
    "edge_gather_kernel",
    "gemm_kernel",
    "node_map_kernel",
    "edge_expansion_kernel",
    "scatter_reduce_kernel",
    "gather_rows_kernel",
    "lower_plan",
]


@dataclasses.dataclass(frozen=True)
class ExecLayout:
    """How graph-operation tasks map onto the machine.

    ``grouping`` is the neighbor-grouping plan (identity = one task per
    center, the DGL default).  ``center_order`` is the locality-aware
    issue order (None = natural order).  ``lanes`` is the number of
    threads mapped along the feature dimension; ``packed_rows`` marks the
    tuned access path that packs feature rows tightly instead of padding
    to cache lines.
    """

    grouping: GroupingPlan
    center_order: Optional[np.ndarray] = None
    lanes: int = 32
    packed_rows: bool = False

    @staticmethod
    def default(graph: CSRGraph) -> "ExecLayout":
        return ExecLayout(grouping=identity_grouping(graph))

    def block_permutation(self) -> Optional[np.ndarray]:
        """Permutation of group-blocks implied by the center order: the
        int64 stable argsort of each group's center rank.

        ``center_order`` is a permutation of the centers.  Groups of one
        center are consecutive and ``group_center`` does not decrease,
        so the sort is the centers' group ranges laid out in issue
        order: one ``np.repeat`` of each center's first group minus its
        output offset, plus an ``arange``; with one group per center
        (group ``c`` owned by center ``c``) it is the order itself.  A
        grouping whose centers decrease, or are not all issued, takes
        the argsort.  Memoized per instance: lowering applies the same
        layout to every kernel of a pass, and a stable long-lived
        permutation array also lets the content-digest identity cache
        skip re-hashing it downstream.
        """
        order = self.center_order
        if order is None:
            return None
        cached = self.__dict__.get("_block_perm")
        if cached is not None:
            return cached
        centers = self.grouping.group_center
        n, num_groups = order.shape[0], centers.shape[0]
        step = np.diff(centers)
        perm = None
        if num_groups == n and (not n or centers[0] == 0) and (
            step == 1
        ).all():
            perm = order.astype(np.int64)
        elif not num_groups or (centers[0] >= 0 and (step >= 0).all()):
            count = np.bincount(centers, minlength=n)
            first = np.cumsum(count) - count
            issued = count[order]
            if int(issued.sum()) == num_groups:
                offset = np.cumsum(issued) - issued
                perm = np.repeat(first[order] - offset, issued)
                perm += np.arange(num_groups)
        if perm is None:
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n)
            perm = np.argsort(rank[centers], kind="stable")
        object.__setattr__(self, "_block_perm", perm)
        return perm


def effective_row_bytes(
    feat_len: int, config: GPUConfig, packed: bool
) -> int:
    """Bytes actually moved per feature-row access.

    Unpacked rows round up to whole cache lines — the source of the
    sawtooth in Fig. 4 (a 48-float row moves two 128 B lines, wasting a
    third of the traffic).  The tuned path (Fig. 12) packs rows.
    """
    useful = feat_len * 4
    if packed:
        return useful
    line = config.line_bytes
    return int(-(-useful // line) * line)


def compute_waste(feat_len: int, lanes: int) -> float:
    """Warp-lane waste factor: idle lanes when F is not a multiple."""
    lanes = max(1, lanes)
    return (-(-feat_len // lanes) * lanes) / feat_len


def _apply_order(kernel: KernelSpec, layout: ExecLayout) -> KernelSpec:
    perm = layout.block_permutation()
    if perm is None:
        return kernel
    return kernel.reordered(perm)


def aggregation_kernel(
    graph: CSRGraph,
    feat_len: int,
    config: GPUConfig,
    layout: ExecLayout,
    *,
    name: str = "aggregate",
    tag: str = "graph",
    flops_per_edge_elem: float = 2.0,
    edge_stream_bytes_per_edge: float = 4.0,
    extra_flops_per_edge: float = 0.0,
    extra_block_flops: float | np.ndarray | None = None,
    extra_block_stream: float | np.ndarray | None = None,
    compute_scale: float = 1.0,
    uncoalesced: float = 1.0,
    counts_launch: bool = True,
) -> KernelSpec:
    """The center-neighbor feature aggregation kernel.

    One block per neighbor group; each block gathers its neighbors'
    feature rows (cacheable), streams the CSR slice and any per-edge
    scalars, and writes one partial/full output row.  Covers DGL's SpMM
    (identity layout), our NG/LAS variants, and fused GAT aggregation
    (via the ``extra_*`` hooks; ``extra_block_*`` add one value, or one
    per group, to every block).  ``compute_scale`` models serialized
    hand-rolled kernels (DGL's non-cuSPARSE center-neighbor path maps a
    center to a thread loop rather than warp lanes).
    """
    g = layout.grouping
    sizes = g.group_sizes.astype(np.float64)
    waste = compute_waste(feat_len, layout.lanes) * compute_scale
    recipe = (
        "aggregate", graph.indices, g.group_ptr, g.needs_atomic,
        feat_len, waste, float(flops_per_edge_elem),
        float(extra_flops_per_edge), float(edge_stream_bytes_per_edge),
        extra_block_flops, extra_block_stream,
    )
    flops = sizes * feat_len * flops_per_edge_elem * waste
    flops += sizes * extra_flops_per_edge
    if extra_block_flops is not None:
        flops = flops + extra_block_flops
    structure = sizes * 4.0 + 16.0
    edge_scalars = sizes * edge_stream_bytes_per_edge
    writes = np.full(g.num_groups, feat_len * 4.0)
    stream = structure + edge_scalars + writes
    if extra_block_stream is not None:
        stream = stream + extra_block_stream
    atomics = np.where(
        g.needs_atomic, max(1, -(-feat_len // 4)), 0
    ).astype(np.int64)
    kernel = KernelSpec(
        name=name,
        block_flops=flops,
        row_ptr=g.group_ptr,
        row_ids=graph.indices,
        row_bytes=int(
            effective_row_bytes(feat_len, config, layout.packed_rows)
            * uncoalesced
        ),
        stream_bytes=stream,
        atomics=atomics,
        counts_launch=counts_launch,
        tag=tag,
        block_center=g.group_center,
        recipe=recipe,
        rows_recipe=("agg_rows", graph.indices, g.group_ptr),
    )
    return _apply_order(kernel, layout)


def edge_chain_kernel(
    graph: CSRGraph,
    config: GPUConfig,
    *,
    name: str,
    reads_per_edge: float,
    writes_per_edge: float,
    flops_per_edge: float,
    seg_reduce: bool = False,
    counts_launch: bool = True,
) -> KernelSpec:
    """Edge-parallel elementwise kernel over per-edge scalars.

    Used for DGL's leaky_relu/exp/div passes and for our fused
    edge-weight chain (several ops, one pass).  ``seg_reduce`` adds the
    atomic partial-sum epilogue when a segment reduction is fused in.
    """
    e = graph.num_edges
    elems_per_block = config.threads_per_block * 4
    blocks = max(1, -(-e // elems_per_block))
    stream = (reads_per_edge + writes_per_edge) * e / blocks
    atomics = 0
    if seg_reduce:
        stream = stream + 4.0 * e / blocks  # structure (dst ids)
        # One atomic per block-local segment tail; amortized ~1 per
        # distinct center in the block plus one remainder.
        per_block_centers = max(1.0, graph.num_nodes / blocks)
        atomics = int(per_block_centers) + 1
    return KernelSpec.filled(
        name, blocks, flops_per_edge * e / blocks, stream, atomics,
        counts_launch=counts_launch, tag="edge",
    )


def scalar_segment_reduce_kernel(
    graph: CSRGraph,
    config: GPUConfig,
    *,
    name: str = "seg_reduce",
    counts_launch: bool = True,
) -> KernelSpec:
    """Center-parallel scalar reduction (DGL's ``reduce_edge``).

    One block task per center node reading its per-edge scalars; this is
    the node-granularity layout, so it inherits the same long-tail
    imbalance as feature aggregation.
    """
    deg = graph.degrees.astype(np.float64)
    flops = deg  # one add per edge scalar
    stream = deg * 4.0 + 4.0 + 8.0  # edge scalars + write + row ptrs
    return KernelSpec(
        name=name,
        block_flops=flops,
        stream_bytes=stream,
        counts_launch=counts_launch,
        tag="graph",
        block_center=np.arange(graph.num_nodes, dtype=np.int64),
        recipe=("segment_reduce", graph.indptr),
    )


def edge_gather_kernel(
    graph: CSRGraph,
    config: GPUConfig,
    *,
    name: str,
    node_values_read: int = 1,
    writes_per_edge: float = 4.0,
    flops_per_edge: float = 1.0,
    counts_launch: bool = True,
) -> KernelSpec:
    """Edge-parallel gather of per-node scalars (u_add_v / broadcast)."""
    e = graph.num_edges
    reads = 4.0 * node_values_read + 4.0  # gathered scalars + edge ids
    return edge_chain_kernel(
        graph,
        config,
        name=name,
        reads_per_edge=reads,
        writes_per_edge=writes_per_edge,
        flops_per_edge=flops_per_edge,
        counts_launch=counts_launch,
    )


def gemm_kernel(
    rows: int,
    f_in: int,
    f_out: int,
    config: GPUConfig,
    *,
    name: str = "gemm",
    counts_launch: bool = True,
) -> KernelSpec:
    """Dense transform ``[rows, f_in] @ [f_in, f_out]`` (cuBLAS-like)."""
    flops = 2.0 * rows * f_in * f_out
    bytes_moved = 4.0 * (rows * f_in + f_in * f_out + rows * f_out)
    tiles = max(1, -(-rows // 64)) * max(1, -(-f_out // 64))
    return KernelSpec.uniform_dense(
        name, flops, bytes_moved, tiles, counts_launch=counts_launch
    )


def node_map_kernel(
    num_nodes: int,
    feat_len: int,
    config: GPUConfig,
    *,
    name: str,
    flops_per_elem: float = 1.0,
    extra_reads_per_node: float = 4.0,
    counts_launch: bool = True,
) -> KernelSpec:
    """Elementwise map over node features (e.g. GCN's norm scaling)."""
    elems = num_nodes * feat_len
    bytes_moved = elems * 8.0 + num_nodes * extra_reads_per_node
    blocks = max(1, -(-elems // (config.threads_per_block * 4)))
    return KernelSpec.uniform_dense(
        name, flops_per_elem * elems, bytes_moved, blocks,
        counts_launch=counts_launch,
    )


def edge_expansion_kernel(
    graph: CSRGraph,
    feat_len: int,
    config: GPUConfig,
    *,
    name: str = "expand",
    counts_launch: bool = True,
) -> KernelSpec:
    """PyG's index-select: materialize ``[E, F]`` source features.

    Blocks chunk the edge list; each edge gathers one (cacheable) feature
    row and streams it back out — the duplication Observation 1 costs.
    """
    e = graph.num_edges
    edges_per_block = max(1, config.threads_per_block // min(feat_len, 32))
    blocks = max(1, -(-e // edges_per_block))
    row_ptr = np.minimum(
        np.arange(blocks + 1, dtype=np.int64) * edges_per_block, e
    )
    sizes = np.diff(row_ptr).astype(np.float64)
    stream = sizes * (feat_len * 4.0 + 4.0)  # expanded writes + indices
    return KernelSpec(
        name=name,
        block_flops=np.zeros(blocks),
        row_ptr=row_ptr,
        row_ids=graph.indices,
        row_bytes=effective_row_bytes(feat_len, config, False),
        stream_bytes=stream,
        counts_launch=counts_launch,
        tag="graph",
        recipe=("expand", graph.indices, edges_per_block, feat_len),
        rows_recipe=("expand_rows", graph.indices, edges_per_block),
    )


def scatter_reduce_kernel(
    graph: CSRGraph,
    feat_len: int,
    config: GPUConfig,
    *,
    name: str = "scatter_reduce",
    counts_launch: bool = True,
) -> KernelSpec:
    """PyG's scatter-add over the expanded ``[E, F]`` matrix.

    The expanded matrix is too large to hit in L2 (it is written then
    read once), so it is pure streaming traffic plus per-edge atomics.
    """
    e = graph.num_edges
    elems = e * feat_len
    elems_per_block = config.threads_per_block * 4
    blocks = max(1, -(-elems // elems_per_block))
    flops = 2.0 * elems / blocks
    stream = (elems * 4.0 + e * 4.0) / blocks
    per_block = max(1, (e * max(1, feat_len // 4)) // blocks)
    # Atomic adds into one hub destination serialize across all of its
    # edges: the kernel's critical path carries max_degree x F/4 vector
    # atomics regardless of how edges are chunked.
    hub = graph.max_degree * max(1, feat_len // 4)
    atomics = np.full(blocks, per_block, dtype=np.int64)
    atomics[-1] += hub
    return KernelSpec(
        name=name,
        block_flops=np.full(blocks, flops),
        stream_bytes=np.full(blocks, stream),
        atomics=atomics,
        counts_launch=counts_launch,
        tag="edge",
        recipe=("scatter_reduce", e, feat_len, elems_per_block,
                graph.max_degree),
    )


def gather_rows_kernel(
    row_ids: np.ndarray,
    feat_len: int,
    config: GPUConfig,
    *,
    name: str = "gather_rows",
    write_back: bool = True,
    counts_launch: bool = True,
    rows_recipe: Optional[tuple] = None,
) -> KernelSpec:
    """Gather arbitrary feature rows (SAGE-LSTM expansion / sparse fetch).

    ``row_ids`` is the flat gather index (e.g. ``neighbor_index[:, t]``
    or the full ``[N, k]`` flattened); the kernel holds it as int32 node
    ids.  With ``write_back`` the gathered rows are materialized
    (expansion); without, they feed a fused consumer in registers (sparse
    fetching).  ``rows_recipe`` names what ``row_ids`` was built from,
    for a fresh index array that would otherwise be hashed to key the
    kernel memo and the stream-analysis tier.
    """
    r = int(row_ids.shape[0])
    rows_per_block = max(1, config.threads_per_block // min(feat_len, 32))
    blocks = max(1, -(-r // rows_per_block))
    row_ptr = np.minimum(
        np.arange(blocks + 1, dtype=np.int64) * rows_per_block, r
    )
    sizes = np.diff(row_ptr).astype(np.float64)
    stream = sizes * 4.0  # index reads
    if write_back:
        stream = stream + sizes * feat_len * 4.0
    rows = (row_ids if rows_recipe is None else rows_recipe, rows_per_block)
    return KernelSpec(
        name=name,
        block_flops=np.zeros(blocks),
        row_ptr=row_ptr,
        row_ids=row_ids,
        row_bytes=effective_row_bytes(feat_len, config, False),
        stream_bytes=stream,
        counts_launch=counts_launch,
        tag="graph",
        recipe=("gather", rows, feat_len if write_back else None),
        rows_recipe=rows,
    )


# ----------------------------------------------------------------------
# FusionPlan lowering (the GAT/GCN op chains)
# ----------------------------------------------------------------------

def _group_kinds(group: FusionGroup) -> set:
    return {op.kind for op in group.ops}


def _plan_dataflow(plan: FusionPlan, prefix: str) -> List[KernelDataflow]:
    """Logical cross-kernel dataflow of each fusion group's kernel.

    Walks the plan in execution order resolving every op's operands the
    same way the chain executes them (postponed ops run inside their
    host group, reading only their reduced/broadcast operand — their
    edge-aligned value is never materialized; they transform the
    aggregate's output in-kernel).  A buffer appears in the metadata
    only when it crosses a kernel boundary: produced in one group and
    consumed in a later one, or the chain's final output.  Buffer names
    are ``prefix + op.name`` — the per-layer prefixes keep them unique
    across a whole :class:`~repro.core.plan.CompiledPlan` stream.
    """
    num = len(plan.groups)
    reads: List[set] = [set() for _ in range(num)]
    consumers: dict = {}
    producer_group: dict = {}
    sync_names: set = set()
    # Producer trackers: (walk step, group index, buffer name).
    last_e1 = last_e1_nonbcast = last_bcast = last_reduce = last_nf = None

    def read(gi: int, src) -> None:
        if src is not None and src[1] != gi:
            reads[gi].add(src[2])
            consumers.setdefault(src[2], set()).add(gi)

    step = 0
    final_name = ""
    for gi, group in enumerate(plan.groups):
        entries = [(op, False) for op in group.ops] + [
            (op, True) for op in group.postponed
        ]
        group_reduced = False  # an in-group reduction precedes this op
        for op, postponed in entries:
            kind = op.kind
            if kind in (OpKind.EDGE_MAP, OpKind.SEG_REDUCE):
                if not postponed:
                    read(gi, last_e1)
            elif kind == OpKind.BCAST:
                read(gi, last_reduce)
            elif kind == OpKind.EDGE_DIV:
                if not postponed:
                    read(gi, last_e1_nonbcast)
                denom = last_bcast if (
                    last_bcast is not None
                    and (last_reduce is None
                         or last_bcast[0] > last_reduce[0])
                ) else last_reduce
                read(gi, denom)
            elif kind == OpKind.AGGREGATE:
                read(gi, last_e1)
                read(gi, last_nf)
            elif kind in (OpKind.NODE_MAP, OpKind.DENSE):
                read(gi, last_nf)
            if postponed:
                continue  # applied to the aggregate output in-kernel
            name = prefix + op.name
            producer_group[name] = gi
            final_name = name
            if kind in (OpKind.SEG_REDUCE, OpKind.AGGREGATE):
                group_reduced = True
            if group_reduced:
                # Reduced values — and any epilogue value derived from
                # them inside the same kernel — are complete only at the
                # kernel's completion sync (atomic partial merges).
                sync_names.add(name)
            src = (step, gi, name)
            step += 1
            out = op.out_shape
            if out in ("E1", "EF") and kind != OpKind.SEG_REDUCE:
                last_e1 = src
                if kind == OpKind.BCAST:
                    last_bcast = src
                else:
                    last_e1_nonbcast = src
            if out == "NF":
                last_nf = src
            if kind == OpKind.SEG_REDUCE:
                last_reduce = src

    flows: List[KernelDataflow] = []
    for gi, group in enumerate(plan.groups):
        writes = tuple(sorted(
            name for name, pg in producer_group.items()
            if pg == gi and (consumers.get(name) or name == final_name)
        ))
        flows.append(KernelDataflow(
            reads=tuple(sorted(reads[gi])),
            writes=writes,
            sync_writes=tuple(n for n in writes if n in sync_names),
            postponable=bool(group.ops) and not group.postponed and all(
                postponable_into_aggregate(op) for op in group.ops
            ),
            aggregate=OpKind.AGGREGATE in _group_kinds(group),
        ))
    return flows


def lower_plan(
    plan: FusionPlan,
    graph: CSRGraph,
    feat_len: int,
    config: GPUConfig,
    layout: ExecLayout,
    *,
    prefix: str = "",
    agg_compute_scale: float = 1.0,
    agg_uncoalesced: float = 1.0,
) -> List[KernelSpec]:
    """Lower a fusion plan for one layer's graph-side op chain.

    Each fusion group becomes one kernel.  Within a group, intermediate
    tensors stay in registers/shared memory (no traffic); only group
    inputs and outputs are charged.  Postponed (linear-property) ops are
    charged per *output* element instead of per edge.
    """
    kernels: List[KernelSpec] = []
    for group in plan.groups:
        kinds = _group_kinds(group)
        kname = prefix + "+".join(op.name for op in group.ops)
        edge_flops = sum(
            op.flops_per_elem
            for op in group.ops
            if op.out_shape in ("E1",)
        )
        if OpKind.AGGREGATE in kinds:
            # Feature aggregation, possibly with fused edge chain and
            # postponed linear ops.
            node_map_flops = sum(
                op.flops_per_elem * feat_len
                for op in group.ops
                if op.kind == OpKind.NODE_MAP
            )
            post_flops = sum(
                op.flops_per_elem for op in group.postponed
            )  # per output element (applied at group granularity)
            extra_block_flops = float(post_flops * feat_len + node_map_flops)
            # Per-edge scalar weights are read when any edge-aligned
            # producer or the GAT weight stream feeds the aggregate.
            has_edge_weights = any(
                op.out_shape == "E1" for op in group.ops
            ) or bool(group.postponed)
            # Fused BCAST/EDGE_DIV ops gather their per-center operand
            # once per edge; the linear property postpones them, turning
            # that gather into once-per-output-row work instead.
            per_edge_gathers = sum(
                1
                for op in group.ops
                if op.kind in (OpKind.BCAST, OpKind.EDGE_DIV)
            )
            edge_stream = (4.0 if has_edge_weights else 0.0) + (
                4.0 * per_edge_gathers
            )
            kernels.append(
                aggregation_kernel(
                    graph,
                    feat_len,
                    config,
                    layout,
                    name=kname,
                    flops_per_edge_elem=2.0,
                    edge_stream_bytes_per_edge=edge_stream,
                    extra_flops_per_edge=edge_flops,
                    extra_block_flops=extra_block_flops,
                    compute_scale=agg_compute_scale,
                    uncoalesced=agg_uncoalesced,
                    tag="fused" if len(group.ops) > 1 else "graph",
                )
            )
        elif kinds == {OpKind.SEG_REDUCE}:
            kernels.append(
                scalar_segment_reduce_kernel(graph, config, name=kname)
            )
        elif OpKind.DENSE in kinds:
            kernels.append(
                gemm_kernel(graph.num_nodes, feat_len, feat_len, config,
                            name=kname)
            )
        elif kinds <= {OpKind.NODE_MAP}:
            kernels.append(
                node_map_kernel(
                    graph.num_nodes, feat_len, config, name=kname,
                    flops_per_elem=sum(
                        op.flops_per_elem for op in group.ops
                    ),
                )
            )
        else:
            # Edge-aligned chain (possibly with gathers and a fused
            # segment reduction).
            gathers = sum(
                2 if op.kind == OpKind.U_ADD_V else
                1 if op.kind in (OpKind.BCAST, OpKind.EDGE_DIV) else 0
                for op in group.ops
            )
            has_reduce = OpKind.SEG_REDUCE in kinds
            kernels.append(
                edge_chain_kernel(
                    graph,
                    config,
                    name=kname,
                    reads_per_edge=4.0 * max(1, gathers) + 4.0,
                    writes_per_edge=4.0,
                    flops_per_edge=max(edge_flops, 1.0),
                    seg_reduce=has_reduce,
                )
            )
    for kernel, flow in zip(kernels, _plan_dataflow(plan, prefix)):
        kernel.dataflow = flow
    return kernels
