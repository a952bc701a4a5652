"""Multi-device executor: per-partition kernel streams on shared timelines.

The single-device executor prices one launch-ordered kernel stream.
This module generalizes it to the execution model of the multi-GPU GNN
systems (ROC, NeuGraph): the graph is sharded
(:mod:`repro.shard.partition`), each simulated device runs its own
partition's compiled plan as a sequential stream, and the streams are
stitched together with first-class transfer kernels
(:mod:`repro.shard.cost`):

* before every aggregation round, a **halo exchange** pulls the ghost
  source rows this device reads from their owners' published features;
* for vertex-cut shards, a **mirror reduction** at each center's owner
  adds the partial aggregates spilled to peers back into the owner's
  output before anything downstream reads it.

Cross-device ordering is explicit: a dependency edge ``(d, i) <- (q, j)``
says stream ``d``'s kernel ``i`` may not start before stream ``q``'s
kernel ``j`` completes.  The same (streams, deps) structure drives both
the BSP timeline here and the generalized happens-before checker
(:func:`repro.analysis.hb.check_happens_before_multidev`), so a stream
the lint pass proves race-free is exactly the stream the timeline
executes.

Compute kernels are priced by the ordinary (memoized) single-device
machinery; transfer kernels are priced by the
:class:`~repro.shard.cost.LinkConfig` link model.  The resulting
:class:`~repro.gpusim.metrics.RunReport` carries all device streams'
kernels (``total_time`` is therefore aggregate
device-seconds); the multi-device *wall* clock and the per-device /
cross-device breakdown land in ``report.extra["perf"]["shard"]``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..perf import PERF
from ..shard.cost import (
    LinkConfig,
    ghost_buffer,
    halo_exchange_kernel,
    mirror_reduce_kernel,
    out_buffer,
    partial_buffer,
)
from ..shard.partition import ShardPlan
from .config import GPUConfig
from .kernel import KernelDataflow, KernelSpec
from .metrics import KernelStats, RunReport

__all__ = [
    "ShardStreams",
    "build_shard_streams",
    "run_multidev",
    "shard_peak_mem_bytes",
    "corrupt_stream_drop_exchange",
    "corrupt_stream_duplicate_exchange",
]

Node = Tuple[int, int]


@dataclasses.dataclass
class TransferInfo:
    """Link pricing of one transfer kernel."""

    kind: str                 # "halo_exchange" | "mirror_reduce"
    round_idx: int
    payload_bytes: float
    messages: int
    reduce_flops: float = 0.0


@dataclasses.dataclass
class ShardStreams:
    """Per-device kernel streams plus their cross-device ordering."""

    shard: ShardPlan
    streams: Dict[int, List[KernelSpec]]
    deps: Dict[Node, List[Node]]
    transfers: Dict[Node, TransferInfo]
    dispatch_overhead: float
    label: str

    @property
    def num_devices(self) -> int:
        return len(self.streams)

    def compute_nodes(self) -> List[Node]:
        return [
            (d, i)
            for d in sorted(self.streams)
            for i in range(len(self.streams[d]))
            if (d, i) not in self.transfers
        ]


def _prefixed(flow: Optional[KernelDataflow], device: int,
              ) -> Optional[KernelDataflow]:
    if flow is None:
        return None
    pre = f"d{device}/"
    return KernelDataflow(
        reads=tuple(pre + b for b in flow.reads),
        writes=tuple(pre + b for b in flow.writes),
        sync_writes=tuple(pre + b for b in flow.sync_writes),
        postponable=flow.postponable,
        aggregate=flow.aggregate,
    )


def _with_flow(kernel: KernelSpec, flow: Optional[KernelDataflow],
               ) -> KernelSpec:
    return dataclasses.replace(kernel, dataflow=flow)


def _agg_rounds(plan) -> List[int]:
    """Indices of the plan layers that aggregate over the graph."""
    rounds = []
    for li, rec in enumerate(plan.layers):
        seg = plan.kernels[rec.kernel_start : rec.kernel_stop]
        if any(k.row_ptr is not None for k in seg):
            rounds.append(li)
    return rounds


def build_shard_streams(
    shard: ShardPlan,
    plans: Sequence,
    link: LinkConfig = LinkConfig(),
) -> ShardStreams:
    """Stitch per-partition compiled plans into ordered device streams.

    ``plans[p]`` is the :class:`~repro.core.plan.CompiledPlan` compiled
    for partition ``p``'s local graph (same framework/model across
    partitions — their layer structure must line up).  Exchange payloads
    are sized from each partition's halo/mirror sets and the plan's
    per-layer feature lengths; publisher positions become the transfer
    dependency edges.
    """
    num = shard.num_parts
    if len(plans) != num:
        raise ValueError(
            f"{len(plans)} plans for {num} partitions"
        )
    rounds0 = _agg_rounds(plans[0])
    for p in range(1, num):
        if _agg_rounds(plans[p]) != rounds0:
            raise ValueError(
                "partition plans disagree on aggregation layers - all "
                "partitions must compile the same model"
            )
    # Who sends mirror partials to whom (vertex-cut spill).
    incoming: Dict[int, Dict[int, int]] = {p: {} for p in range(num)}
    for part in shard.parts:
        for owner, count in part.mirror_count_by_owner().items():
            incoming[owner][part.part_id] = count

    streams: Dict[int, List[KernelSpec]] = {}
    transfers: Dict[Node, TransferInfo] = {}
    # Positions needed for the dependency pass:
    pub_pos: Dict[int, Dict[int, Optional[int]]] = {}   # dev -> round -> pos
    exch_pos: Dict[int, Dict[int, int]] = {}
    reduce_pos: Dict[int, Dict[int, int]] = {}
    seg_last_pos: Dict[int, Dict[int, int]] = {}

    for p in range(num):
        plan = plans[p]
        part = shard.parts[p]
        halo_by_owner = part.halo_count_by_owner()
        outgoing = part.mirror_count_by_owner()
        has_halo = bool(halo_by_owner) and num > 1
        stream: List[KernelSpec] = []
        pub_pos[p] = {}
        exch_pos[p] = {}
        reduce_pos[p] = {}
        seg_last_pos[p] = {}
        round_of_start = {
            plan.layers[li].kernel_start: (r, li)
            for r, li in enumerate(rounds0)
        }
        seg_stop = -1
        round_feat = 0
        cur_round = -1
        for ki, kernel in enumerate(plan.kernels):
            hit = round_of_start.get(ki)
            if hit is not None and num > 1:
                r, li = hit
                rec = plan.layers[li]
                round_feat = rec.feat_len
                cur_round = r
                seg_stop = rec.kernel_stop
                # Publisher: the kernel just before this segment holds
                # the fully transformed features peers pull (ROC-style
                # ship-transformed-features); it publishes the round's
                # out buffer whether or not this device has halo of its
                # own — its peers read it through their exchanges.
                pub = len(stream) - 1 if stream else None
                pub_pos[p][r] = pub
                if pub is not None:
                    pk = stream[pub]
                    pf = pk.dataflow or KernelDataflow()
                    ob = (out_buffer(p, r),)
                    pf = dataclasses.replace(
                        pf,
                        writes=pf.writes + ob,
                        sync_writes=pf.sync_writes + ob,
                    )
                    stream[pub] = _with_flow(pk, pf)
                if has_halo:
                    upstream = r if pub is not None else None
                    xk = halo_exchange_kernel(
                        p, r, halo_by_owner, round_feat,
                        upstream_round=upstream,
                    )
                    exch_pos[p][r] = len(stream)
                    transfers[(p, len(stream))] = TransferInfo(
                        kind="halo_exchange",
                        round_idx=r,
                        payload_bytes=float(xk.stream_bytes.sum()),
                        messages=len(
                            [q for q in halo_by_owner if q != p]
                        ),
                    )
                    stream.append(xk)
            flow = _prefixed(kernel.dataflow, p)
            in_segment = cur_round >= 0 and ki < seg_stop
            if in_segment and kernel.row_ptr is not None and has_halo:
                # Aggregations gather ghost source rows: order them
                # after the exchange that delivers those rows.
                if flow is None:
                    flow = KernelDataflow()
                flow = dataclasses.replace(
                    flow,
                    reads=flow.reads + (ghost_buffer(p, cur_round),),
                )
            if (
                in_segment and ki == seg_stop - 1
                and outgoing and num > 1
            ):
                # Last segment kernel: its aggregate rows for mirrored
                # centers are partial sums bound for their owners.
                if flow is None:
                    flow = KernelDataflow()
                extra = tuple(
                    partial_buffer(p, cur_round, owner)
                    for owner in sorted(outgoing)
                )
                flow = dataclasses.replace(
                    flow,
                    writes=flow.writes + extra,
                    sync_writes=flow.sync_writes + extra,
                )
            stream.append(_with_flow(kernel, flow))
            if in_segment and ki == seg_stop - 1:
                seg_last_pos[p][cur_round] = len(stream) - 1
                if incoming[p] and num > 1:
                    publishes = (flow.writes if flow is not None
                                 else ())
                    rk = mirror_reduce_kernel(
                        p, cur_round, incoming[p], round_feat,
                        publishes=publishes,
                    )
                    reduce_pos[p][cur_round] = len(stream)
                    transfers[(p, len(stream))] = TransferInfo(
                        kind="mirror_reduce",
                        round_idx=cur_round,
                        payload_bytes=float(rk.stream_bytes.sum()),
                        messages=len(
                            [q for q in incoming[p] if q != p]
                        ),
                        reduce_flops=float(rk.block_flops.sum()),
                    )
                    stream.append(rk)
                cur_round = -1
        streams[p] = stream

    # Dependency pass: transfer edges across device streams.
    deps: Dict[Node, List[Node]] = {}
    for p in range(num):
        part = shard.parts[p]
        for r, pos in exch_pos[p].items():
            edges = []
            for q in sorted(part.halo_count_by_owner()):
                if q == p:
                    continue
                src = pub_pos.get(q, {}).get(r)
                if src is not None:
                    edges.append((q, src))
            if edges:
                deps[(p, pos)] = edges
        for r, pos in reduce_pos[p].items():
            edges = []
            for q in sorted(incoming[p]):
                if q == p:
                    continue
                src = seg_last_pos.get(q, {}).get(r)
                if src is not None:
                    edges.append((q, src))
            if edges:
                deps[(p, pos)] = edges

    return ShardStreams(
        shard=shard,
        streams=streams,
        deps=deps,
        transfers=transfers,
        dispatch_overhead=float(plans[0].dispatch_overhead),
        label=f"shard{num}x{shard.method}:{plans[0].label}",
    )


def shard_peak_mem_bytes(ss: ShardStreams, plans: Sequence) -> int:
    """Aggregate peak device memory of a sharded run.

    Each partition's compiled plan already accounts its resident
    buffers — including the ghost feature rows, because the local node
    space ``[centers..., halo...]`` is what it compiles against.  What
    the per-partition peak does *not* see is the transfer machinery:
    an arriving exchange/reduction payload lands in a staging buffer
    before it is applied, so a device's true high-water mark is its
    compile-time peak plus the largest payload it receives in any one
    round.  The old ``max(plan peaks)`` silently dropped that term.
    """
    by_round: Dict[int, Dict[int, float]] = {}
    for (d, _i), info in ss.transfers.items():
        by_round.setdefault(d, {})
        by_round[d][info.round_idx] = (
            by_round[d].get(info.round_idx, 0.0) + info.payload_bytes
        )
    peak = 0
    for d in sorted(ss.streams):
        staged = max(by_round.get(d, {}).values(), default=0.0)
        peak = max(peak, int(plans[d].peak_mem_bytes + staged))
    return peak


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------

def _timeline(
    streams: Dict[int, List[KernelSpec]],
    deps: Dict[Node, List[Node]],
    durations: Dict[Node, float],
) -> Tuple[Dict[Node, float], Dict[Node, float]]:
    """Per-kernel (start, end) under sequential streams + dep edges."""
    starts: Dict[Node, float] = {}
    ends: Dict[Node, float] = {}
    pointer = dict.fromkeys(streams, 0)
    device_free = dict.fromkeys(streams, 0.0)
    remaining = sum(len(s) for s in streams.values())
    while remaining:
        progressed = False
        for d in sorted(streams):
            while pointer[d] < len(streams[d]):
                node = (d, pointer[d])
                blockers = deps.get(node, ())
                if any(b not in ends for b in blockers):
                    break
                ready = device_free[d]
                for b in blockers:
                    ready = max(ready, ends[b])
                starts[node] = ready
                ends[node] = ready + durations[node]
                device_free[d] = ends[node]
                pointer[d] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            stuck = [
                (d, pointer[d]) for d in streams
                if pointer[d] < len(streams[d])
            ]
            raise RuntimeError(
                f"cyclic transfer dependencies; stuck at {stuck[:4]}"
            )
    return starts, ends


def _transfer_stats(
    kernel: KernelSpec,
    info: TransferInfo,
    seconds: float,
    config: GPUConfig,
) -> KernelStats:
    return KernelStats(
        name=kernel.name,
        tag=kernel.tag,
        makespan=seconds,
        launch_overhead=config.kernel_launch_overhead,
        flops=info.reduce_flops,
        bytes_dram=info.payload_bytes,
        bytes_l2=0.0,
        row_accesses=0,
        row_hits=0,
        num_blocks=max(info.messages, 1),
        balanced_time=seconds,
        occupancy={1.0: 0.0, 0.5: 0.0, 0.1: 0.0},
    )


def run_multidev(
    shard: ShardPlan,
    plans: Sequence,
    config: GPUConfig,
    link: LinkConfig = LinkConfig(),
    *,
    streams: Optional[ShardStreams] = None,
) -> RunReport:
    """Execute per-partition plans on simulated devices + links.

    Returns one :class:`RunReport` holding every device's kernels (its
    ``total_time`` is aggregate device-seconds); the multi-device wall
    clock, per-device compute/transfer split and cross-device traffic
    totals are in ``report.extra["perf"]["shard"]``.
    """
    ss = streams if streams is not None else build_shard_streams(
        shard, plans, link
    )
    snap = PERF.snapshot()
    num = ss.num_devices

    # Price compute kernels through the ordinary (memoized) executor,
    # looked up at call time so patches of the executor module apply.
    from .executor import simulate_kernel

    stats: Dict[Node, KernelStats] = {
        (d, i): simulate_kernel(
            ss.streams[d][i], config, ss.dispatch_overhead
        )
        for d, i in ss.compute_nodes()
    }

    # Price transfers on the link model.
    flops_per_second = config.peak_flops
    for node, info in ss.transfers.items():
        kernel = ss.streams[node[0]][node[1]]
        seconds = link.seconds(info.payload_bytes, info.messages)
        if info.reduce_flops:
            seconds += info.reduce_flops / flops_per_second
        stats[node] = _transfer_stats(kernel, info, seconds, config)

    durations = {node: st.time for node, st in stats.items()}
    starts, ends = _timeline(ss.streams, ss.deps, durations)
    wall = max(ends.values()) if ends else 0.0

    report = RunReport(
        label=ss.label,
        peak_mem_bytes=shard_peak_mem_bytes(ss, plans),
    )
    devices = []
    total_transfer_bytes = 0.0
    total_transfer_seconds = 0.0
    for d in sorted(ss.streams):
        compute_s = 0.0
        transfer_s = 0.0
        for i in range(len(ss.streams[d])):
            st = stats[(d, i)]
            report.add(st)
            if (d, i) in ss.transfers:
                transfer_s += st.time
            else:
                compute_s += st.time
        part = ss.shard.parts[d]
        finish = max(
            (ends[(d, i)] for i in range(len(ss.streams[d]))),
            default=0.0,
        )
        halo_bytes = sum(
            info.payload_bytes
            for node, info in ss.transfers.items()
            if node[0] == d and info.kind == "halo_exchange"
        )
        mirror_bytes = sum(
            info.payload_bytes
            for node, info in ss.transfers.items()
            if node[0] == d and info.kind == "mirror_reduce"
        )
        total_transfer_bytes += halo_bytes + mirror_bytes
        total_transfer_seconds += transfer_s
        # PERF counters: the validation cross-check hooks the shard
        # lint tests compare against the SH002 symbolic prediction.
        PERF.count("shard_halo_bytes", int(halo_bytes))
        PERF.count("shard_mirror_bytes", int(mirror_bytes))
        devices.append({
            "device": d,
            "kernels": len(ss.streams[d]),
            "compute_seconds": compute_s,
            "transfer_seconds": transfer_s,
            "finish_seconds": finish,
            "idle_seconds": finish - (compute_s + transfer_s),
            "owned_nodes": int(part.owned_centers.size),
            "local_edges": int(part.num_edges),
            "halo_nodes": int(part.halo.size),
            "halo_bytes": halo_bytes,
            "mirror_nodes": int(part.mirrors.size),
            "mirror_bytes": mirror_bytes,
        })
    serial_seconds = sum(
        d["compute_seconds"] + d["transfer_seconds"] for d in devices
    )
    delta = PERF.delta_since(snap)
    report.extra["perf"] = {
        "cache_model_seconds": delta["seconds"].get("cache_model", 0.0),
        "schedule_seconds": delta["seconds"].get("schedule", 0.0),
        "shard": {
            "method": ss.shard.method,
            "num_parts": num,
            "fingerprint": ss.shard.fingerprint,
            "wall_seconds": wall,
            "serial_seconds": serial_seconds,
            "parallel_efficiency": (
                serial_seconds / (num * wall) if wall > 0 else 0.0
            ),
            "devices": devices,
            "cross_device": {
                "transfer_bytes": total_transfer_bytes,
                "transfer_seconds": total_transfer_seconds,
                "num_transfers": len(ss.transfers),
                "transfer_fraction": (
                    total_transfer_seconds / serial_seconds
                    if serial_seconds > 0 else 0.0
                ),
                "link_bandwidth": link.bandwidth,
                "link_latency": link.latency,
            },
        },
    }
    return report


def corrupt_stream_drop_exchange(
    ss: ShardStreams, device: int, round_idx: int = 0
) -> ShardStreams:
    """Testing hook: delete one device's halo exchange from its stream.

    The aggregation that follows still reads the ghost buffer the
    exchange would have written — exactly the cross-device stale-read
    bug class the generalized happens-before pass (HB004 via the
    missing producer path, or HB002 when nothing writes the ghost
    buffer at all) must catch.  Dependency edges and transfer records
    are re-indexed for the shortened stream.
    """
    stream = ss.streams[device]
    drop = None
    for i, kernel in enumerate(stream):
        info = ss.transfers.get((device, i))
        if (
            info is not None
            and info.kind == "halo_exchange"
            and info.round_idx == round_idx
        ):
            drop = i
            break
    if drop is None:
        raise ValueError(
            f"device {device} has no halo exchange for round {round_idx}"
        )

    def remap(node: Node) -> Optional[Node]:
        d, i = node
        if d != device:
            return node
        if i == drop:
            return None
        return (d, i - 1) if i > drop else node

    new_streams = dict(ss.streams)
    new_streams[device] = stream[:drop] + stream[drop + 1:]
    new_deps = {}
    for node, blockers in ss.deps.items():
        nn = remap(node)
        if nn is None:
            continue
        nb = [b for b in (remap(b) for b in blockers) if b is not None]
        if nb:
            new_deps[nn] = nb
    new_transfers = {}
    for node, info in ss.transfers.items():
        nn = remap(node)
        if nn is not None:
            new_transfers[nn] = info
    return ShardStreams(
        shard=ss.shard,
        streams=new_streams,
        deps=new_deps,
        transfers=new_transfers,
        dispatch_overhead=ss.dispatch_overhead,
        label=ss.label + ":corrupted",
    )


def corrupt_stream_duplicate_exchange(
    ss: ShardStreams, device: int, round_idx: int = 0
) -> ShardStreams:
    """Testing hook: re-issue one device's halo exchange immediately.

    The duplicate overwrites the ghost buffer before anything reads
    the first delivery, and doubles the priced transfer bytes past
    what the partition's halo sets predict — exactly the duplicated
    exchange (SH005) and transfer-conservation drift (SH002) the
    static shard-dataflow pass must catch.  Dependency edges and
    transfer records are re-indexed for the lengthened stream.
    """
    stream = ss.streams[device]
    dup = None
    for i in range(len(stream)):
        info = ss.transfers.get((device, i))
        if (
            info is not None
            and info.kind == "halo_exchange"
            and info.round_idx == round_idx
        ):
            dup = i
            break
    if dup is None:
        raise ValueError(
            f"device {device} has no halo exchange for round {round_idx}"
        )

    def remap(node: Node) -> Node:
        d, i = node
        if d != device or i <= dup:
            return node
        return (d, i + 1)

    new_streams = dict(ss.streams)
    new_streams[device] = (
        stream[: dup + 1] + [stream[dup]] + stream[dup + 1:]
    )
    new_deps = {
        remap(node): [remap(b) for b in blockers]
        for node, blockers in ss.deps.items()
    }
    # The duplicate waits on the same publishers as the original.
    if (device, dup) in new_deps:
        new_deps[(device, dup + 1)] = list(new_deps[(device, dup)])
    new_transfers = {
        remap(node): info for node, info in ss.transfers.items()
    }
    new_transfers[(device, dup + 1)] = dataclasses.replace(
        ss.transfers[(device, dup)]
    )
    return ShardStreams(
        shard=ss.shard,
        streams=new_streams,
        deps=new_deps,
        transfers=new_transfers,
        dispatch_overhead=ss.dispatch_overhead,
        label=ss.label + ":duplicated",
    )
