"""Shard-aware static analysis: the SH pass family.

The multi-device milestone exposed a regime — the ~49M-edge
``ogb_scale_graph`` that OOMs monolithic and at P <= 4 — that used to
be discoverable only by *running* the simulator (the per-partition
compile raises :class:`~repro.gpusim.memory.SimulatedOOM`).  Every
quantity behind that verdict is a pure function of the partition
structure, so this module computes them symbolically from a
:class:`~repro.shard.partition.ShardPlan` alone:

* **SH001** (error) — a device's symbolic peak memory (the
  :func:`~repro.analysis.footprint.model_live_sets` closed form over
  the partition's C/H/M/E stats) exceeds the declared
  :class:`~repro.shard.cost.DeviceConfig` capacity.  This statically
  reproduces the simulator's compile-time OOM, byte-for-byte.
* **SH002** (error) — transfer-volume conservation: the symbolic
  halo-exchange and mirror-reduce bytes derived from the partitioner's
  halo/mirror sets (DESIGN §5's ``4*F`` bytes/row convention) must
  equal the priced ``tag="transfer"`` kernels the stream builder
  emitted.  Drift means the partition metadata and the executed
  transfers disagree — one of them is lying about the traffic.
* **SH003** (info) — load-imbalance advisory: max/mean per-device
  symbolic flops beyond a threshold.
* **SH004** (info) — replication-blowup advisory: summed per-device
  footprints exceed a multiple of the monolithic footprint (with the
  default threshold P, sharding costs more aggregate memory than P
  full replicas — pure replication overhead).
* **SH005** (warning) — dead/duplicated exchange: a halo exchange
  writes a ghost buffer no downstream kernel on the destination device
  reads, or a second exchange overwrites it unread.  This subsumes the
  dynamic-only HB005 path for exchanges, statically.

SH001/SH003/SH004 need only the :class:`ShardPlan` and a model config
— zero compiles, zero simulation.  SH002/SH005 additionally inspect
per-partition plans / stitched streams and are skipped when those are
not supplied (``repro shard lint --no-plans``).

:func:`choose_partitioning` ranks (method x P) candidates by these
passes' verdicts and symbolic quantities (``repro shard choose``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.csr import CSRGraph
from ..shard.cost import FLOAT_BYTES, DeviceConfig, LinkConfig
from .findings import ERROR, INFO, WARNING, AnalysisReport, Finding, \
    make_finding, register_code
from .footprint import model_flops_expr, model_live_sets, shard_env
from .registry import LintPass, register_pass

__all__ = [
    "ShardChoice",
    "ShardLintContext",
    "ShardScore",
    "choose_partitioning",
    "lint_shard",
    "round_feat_lens",
    "shard_transfer_bytes",
    "shard_peak_bytes",
    "resolve_model",
    "DEFAULT_IMBALANCE_THRESHOLD",
]

PASS_SHARDMEM = "shardmem"
PASS_SHARDFLOW = "shardflow"

#: Advisory when the busiest device carries > 25% more symbolic flops
#: than the average one.
DEFAULT_IMBALANCE_THRESHOLD = 1.25

SH001 = register_code(
    "SH001", PASS_SHARDMEM, ERROR,
    "per-device symbolic peak memory exceeds the declared capacity",
    """The symbolic peak footprint of one partition's compiled plan —
the model's DeviceMemory allocation schedule in closed form over the
partition's centers, halo, mirrors and local edges — exceeds the
declared ``DeviceConfig.mem_bytes``.  The closed form reproduces the
per-partition compile's recorded ``peak_mem_bytes`` exactly, so this
finding *is* the simulator's compile-time SimulatedOOM verdict,
reached without compiling or simulating anything: a partitioning that
fires SH001 on any device cannot run.  Repartition with more devices
or a cheaper method.""",
)
SH002 = register_code(
    "SH002", PASS_SHARDFLOW, ERROR,
    "transfer volume disagrees with the partition's halo/mirror sets",
    """Transfer-volume conservation: the bytes the priced
``tag="transfer"`` kernels move must equal the symbolic prediction
from the partitioner's halo/mirror sets — per aggregation round, each
ghost row costs ``4*F`` bytes from its owner and each mirrored center
ships a ``4*F``-byte partial row to its owner (DESIGN §5).  A
mismatch means the stream builder and the partition metadata disagree
about the traffic: a stale halo set, a dropped or duplicated exchange,
or a mis-sized payload.  Either the simulated cost model is pricing
phantom bytes or the partition is under-declaring real ones.""",
)
SH003 = register_code(
    "SH003", PASS_SHARDMEM, INFO,
    "per-device symbolic flops are imbalanced beyond the threshold",
    """The max/mean ratio of per-device symbolic flops exceeds the
imbalance threshold: the slowest device will gate every BSP round
while the others idle.  The flops closed form is coarse (dense
transforms + aggregation MACs), but every device's estimate carries
the same constants, so the *ratio* is trustworthy.  Contiguous
range partitioning balances edge counts, not feature-transform work —
a skewed center/edge mix shows up here before any timeline is built.""",
)
SH004 = register_code(
    "SH004", PASS_SHARDMEM, INFO,
    "replication makes sharding cost more memory than full replicas",
    """The summed per-device symbolic footprint exceeds the blowup
threshold times the monolithic footprint.  With the default threshold
P this means the halo/mirror replication factor has grown to the
point where P partitions hold more aggregate bytes than P complete
copies of the graph would — partitioning is no longer buying memory
headroom, only exchange traffic.  Vertex-cut mirror sets on dense
graphs are the usual culprit; prefer fewer parts or edge-cut.""",
)
SH005 = register_code(
    "SH005", PASS_SHARDFLOW, WARNING,
    "dead or duplicated halo exchange on the destination device",
    """A halo exchange writes a ghost buffer that no downstream kernel
on the destination device reads (dead: link time and launch overhead
paid for data nobody consumes), or a second exchange overwrites the
same ghost buffer before anything reads the first delivery
(duplicated: the first transfer was wasted).  This is the static
subsumption of the dynamic HB005 path for exchanges — detected from
the stream structure alone, before any timeline is priced.""",
)


@dataclasses.dataclass(frozen=True)
class ShardLintContext:
    """Everything a shard-scope pass may inspect.

    ``plans`` / ``streams`` are optional: the memory/balance checks
    (SH001/SH003/SH004) are pure functions of the shard plan and the
    model config, while the flow checks (SH002/SH005) verify the
    stitched streams and are skipped without them.
    """

    shard: object                      # shard.partition.ShardPlan
    model_name: str
    model: object                      # GCNConfig / GATConfig / ...
    device: DeviceConfig
    link: LinkConfig
    plans: Optional[Sequence] = None   # CompiledPlan per partition
    streams: Optional[object] = None   # gpusim.multidev.ShardStreams
    imbalance_threshold: float = DEFAULT_IMBALANCE_THRESHOLD
    blowup_threshold: Optional[float] = None  # default: num_parts


def resolve_model(model_name: str, model=None):
    """Default model config for a model name (the shipped paper dims)."""
    if model is not None:
        return model
    from ..models.gat import GATConfig
    from ..models.gcn import GCNConfig
    from ..models.sage_lstm import SageLSTMConfig

    defaults = {
        "gcn": GCNConfig,
        "gat": GATConfig,
        "sage_lstm": SageLSTMConfig,
    }
    if model_name not in defaults:
        raise KeyError(f"no default model config for {model_name!r}")
    return defaults[model_name]()


def round_feat_lens(model_name: str, model, plans=None) -> List[int]:
    """Feature length of each aggregation round, in round order.

    With per-partition plans available the rounds come from the plans
    themselves (the same ``_agg_rounds`` walk the stream builder uses);
    otherwise from the model config — GCN/GAT aggregate once per layer
    at the layer's output width, GraphSAGE-LSTM lowers outside the
    layered path and exchanges nothing.
    """
    if plans:
        from ..gpusim.multidev import _agg_rounds

        plan = plans[0]
        return [plan.layers[li].feat_len for li in _agg_rounds(plan)]
    if model_name in ("gcn", "gat"):
        return list(model.dims[1:])
    if model_name == "sage_lstm":
        return []
    raise KeyError(f"no aggregation-round model for {model_name!r}")


def shard_transfer_bytes(
    shard, feats: Sequence[int]
) -> Dict[int, Dict[str, float]]:
    """Symbolic per-device transfer bytes from the halo/mirror sets.

    Returns ``{device: {"halo": bytes, "mirror": bytes}}`` summed over
    the aggregation rounds ``feats``: a device's halo exchange pulls
    ``4*F`` bytes per ghost row per round from each owning peer, and a
    device owning mirrored centers receives ``4*F`` bytes per mirror
    per round from each mirroring peer.  This is exactly the payload
    arithmetic of :func:`repro.shard.cost.halo_exchange_kernel` /
    :func:`mirror_reduce_kernel` — integer byte counts, so equality
    against the priced kernels is exact, not approximate.
    """
    num = shard.num_parts
    incoming: Dict[int, Dict[int, int]] = {p: {} for p in range(num)}
    for part in shard.parts:
        for owner, count in part.mirror_count_by_owner().items():
            incoming[owner][part.part_id] = count
    round_rows = sum(FLOAT_BYTES * f for f in feats)
    out: Dict[int, Dict[str, float]] = {}
    for part in shard.parts:
        p = part.part_id
        halo = 0.0
        if num > 1:
            halo = float(sum(
                count * round_rows
                for owner, count in part.halo_count_by_owner().items()
                if owner != p
            ))
        mirror = float(sum(
            count * round_rows
            for q, count in incoming[p].items()
            if q != p
        )) if num > 1 else 0.0
        out[p] = {"halo": halo, "mirror": mirror}
    return out


def shard_peak_bytes(
    shard, model_name: str, model
) -> List[Tuple[int, float, str]]:
    """Per-device symbolic peak memory: ``(device, bytes, layer)``."""
    live = model_live_sets(model_name, model)
    out = []
    for part in shard.parts:
        env = shard_env(part)
        label, peak = max(
            ((lbl, expr.evaluate(env)) for lbl, expr in live),
            key=lambda kv: kv[1],
        )
        out.append((part.part_id, peak, label))
    return out


# ----------------------------------------------------------------------
# shardmem pass: SH001 / SH003 / SH004
# ----------------------------------------------------------------------

def check_shard_memory(ctx: ShardLintContext) -> List[Finding]:
    findings: List[Finding] = []
    shard = ctx.shard
    live = model_live_sets(ctx.model_name, ctx.model)

    # SH001 — per-device symbolic peak vs declared capacity.
    peaks = shard_peak_bytes(shard, ctx.model_name, ctx.model)
    cap = ctx.device.mem_bytes
    for p, peak, label in peaks:
        if peak > cap:
            expr = dict(live)[label]
            findings.append(make_finding(
                SH001, f"device {p}",
                f"symbolic peak {peak:,.0f} B at layer {label} "
                f"({expr}) exceeds the declared device capacity "
                f"{cap:,} B — this partition cannot compile; "
                f"repartition with more devices or a cheaper method",
            ))

    # SH003 — symbolic flops imbalance.
    if shard.num_parts > 1:
        flops_expr = model_flops_expr(ctx.model_name, ctx.model)
        flops = [
            flops_expr.evaluate(shard_env(part)) for part in shard.parts
        ]
        mean = sum(flops) / len(flops)
        if mean > 0:
            ratio = max(flops) / mean
            if ratio > ctx.imbalance_threshold:
                worst = max(range(len(flops)), key=flops.__getitem__)
                findings.append(make_finding(
                    SH003, f"device {worst}",
                    f"symbolic flops imbalance max/mean = {ratio:.2f} "
                    f"exceeds {ctx.imbalance_threshold:.2f}: device "
                    f"{worst} carries {flops[worst]:,.0f} flops vs "
                    f"{mean:,.0f} average — it gates every BSP round",
                ))

    # SH004 — replication blowup vs the monolithic footprint.
    mono_env = {
        "C": float(shard.num_nodes), "H": 0.0, "M": 0.0,
        "E": float(shard.num_edges),
    }
    mono = max(expr.evaluate(mono_env) for _, expr in live)
    total = sum(peak for _, peak, _ in peaks)
    threshold = (
        ctx.blowup_threshold if ctx.blowup_threshold is not None
        else float(shard.num_parts)
    )
    if shard.num_parts > 1 and mono > 0 and total > threshold * mono:
        findings.append(make_finding(
            SH004, f"shard {shard.fingerprint}",
            f"summed per-device footprint {total:,.0f} B exceeds "
            f"{threshold:g}x the monolithic {mono:,.0f} B "
            f"(replication factor {shard.replication_factor:.2f}, "
            f"{shard.total_halo:,} halo + {shard.total_mirrors:,} "
            f"mirror rows) — partitioning buys exchange traffic, "
            f"not memory headroom",
        ))
    return findings


# ----------------------------------------------------------------------
# shardflow pass: SH002 / SH005
# ----------------------------------------------------------------------

def check_shard_flow(ctx: ShardLintContext) -> List[Finding]:
    findings: List[Finding] = []
    streams = ctx.streams
    if streams is None:
        return findings
    shard = ctx.shard
    feats = round_feat_lens(ctx.model_name, ctx.model, ctx.plans)

    # SH002 — priced transfer kernels vs symbolic halo/mirror bytes.
    symbolic = shard_transfer_bytes(shard, feats)
    priced: Dict[int, Dict[str, float]] = {
        p: {"halo": 0.0, "mirror": 0.0} for p in streams.streams
    }
    for (d, _i), info in streams.transfers.items():
        kind = "halo" if info.kind == "halo_exchange" else "mirror"
        priced[d][kind] += info.payload_bytes
    for p in sorted(streams.streams):
        for kind in ("halo", "mirror"):
            want = symbolic.get(p, {}).get(kind, 0.0)
            got = priced[p][kind]
            if got != want:
                findings.append(make_finding(
                    SH002, f"device {p}",
                    f"{kind} transfer bytes: priced kernels move "
                    f"{got:,.0f} B but the partition's "
                    f"{kind}/ownership sets predict {want:,.0f} B over "
                    f"{len(feats)} round(s) — the stream builder and "
                    f"the partition metadata disagree about traffic",
                ))

    # SH005 — dead / duplicated halo exchanges, statically.
    for d in sorted(streams.streams):
        stream = streams.streams[d]
        # ghost buffer -> ordered (position, event) timeline
        events: Dict[str, List[Tuple[int, str]]] = {}
        exch_at: Dict[int, str] = {}
        for i, kernel in enumerate(stream):
            info = streams.transfers.get((d, i))
            is_exchange = (
                info is not None and info.kind == "halo_exchange"
            )
            if kernel.dataflow is None:
                continue
            for buf in kernel.dataflow.reads:
                if buf in events:
                    events[buf].append((i, "r"))
            if is_exchange:
                for buf in kernel.dataflow.writes:
                    events.setdefault(buf, []).append((i, "w"))
                    exch_at[i] = buf
        for buf, timeline in events.items():
            for j, (pos, ev) in enumerate(timeline):
                if ev != "w":
                    continue
                later = timeline[j + 1:]
                nxt = later[0] if later else None
                if nxt is None:
                    findings.append(make_finding(
                        SH005,
                        f"device {d} kernel {pos}: {stream[pos].name}",
                        f"dead exchange: ghost buffer {buf!r} is never "
                        f"read downstream — link time paid for data "
                        f"nobody consumes",
                    ))
                elif nxt[1] == "w":
                    findings.append(make_finding(
                        SH005,
                        f"device {d} kernel {pos}: {stream[pos].name}",
                        f"duplicated exchange: ghost buffer {buf!r} is "
                        f"overwritten by kernel {nxt[0]} "
                        f"({stream[nxt[0]].name}) before anything "
                        f"reads this delivery",
                    ))
    return findings


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def lint_shard(
    shard,
    *,
    model_name: str,
    model=None,
    device: Optional[DeviceConfig] = None,
    link: Optional[LinkConfig] = None,
    plans: Optional[Sequence] = None,
    streams: Optional[object] = None,
    imbalance_threshold: float = DEFAULT_IMBALANCE_THRESHOLD,
    blowup_threshold: Optional[float] = None,
) -> AnalysisReport:
    """Run every registered shard-scope pass over one partitioning.

    With only ``shard`` + a model name this is fully static —
    SH001/SH003/SH004 verdicts with zero compiles and zero simulator
    invocations.  Pass ``plans`` (per-partition :class:`CompiledPlan`)
    and/or ``streams`` (:class:`ShardStreams`) to additionally verify
    transfer conservation (SH002) and exchange liveness (SH005).
    """
    from .registry import lint_passes

    ctx = ShardLintContext(
        shard=shard,
        model_name=model_name,
        model=resolve_model(model_name, model),
        device=device if device is not None else DeviceConfig(),
        link=link if link is not None else LinkConfig(),
        plans=plans,
        streams=streams,
        imbalance_threshold=imbalance_threshold,
        blowup_threshold=blowup_threshold,
    )
    report = AnalysisReport(
        label=(
            f"shardlint:{shard.graph_name or 'graph'}:{model_name}:"
            f"{shard.method}x{shard.num_parts}"
        ),
        checked=1,
    )
    for p in lint_passes():
        if p.shard is not None:
            report.extend(p.shard(ctx))
    return report


register_pass(LintPass(
    name=PASS_SHARDMEM,
    doc="per-device symbolic peak memory, flops balance, replication",
    shard=check_shard_memory,
))

register_pass(LintPass(
    name=PASS_SHARDFLOW,
    doc="transfer-volume conservation and exchange liveness",
    shard=check_shard_flow,
))


# ----------------------------------------------------------------------
# Partitioning choice: the shard analyses as the planner's oracle
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, order=True)
class ShardScore:
    """Lexicographic partitioning cost: smaller is better on every axis.

    Feasibility dominates (``infeasible`` counts SH001 verdicts — a
    partitioning that cannot compile never beats one that can), then
    symbolic cross-device traffic (the quantity that gates multi-GPU
    scaling), then the per-device symbolic peak, then device count —
    P=1 wins whenever it fits, because it moves zero bytes.
    """

    infeasible: int       # SH001 findings (devices that cannot compile)
    transfer_bytes: float  # total symbolic halo+mirror bytes
    peak_bytes: float      # max per-device symbolic peak
    num_parts: int

    def to_dict(self) -> Dict[str, float]:
        return {
            "infeasible": int(self.infeasible),
            "transfer_bytes": float(self.transfer_bytes),
            "peak_bytes": float(self.peak_bytes),
            "num_parts": int(self.num_parts),
        }


@dataclasses.dataclass
class ShardChoice:
    """One scored (method, P) candidate partitioning."""

    method: str
    num_parts: int
    score: ShardScore
    shard: object          # shard.partition.ShardPlan
    report: AnalysisReport  # from lint_shard

    @property
    def feasible(self) -> bool:
        return self.score.infeasible == 0


def choose_partitioning(
    graph: CSRGraph,
    model_name: str,
    *,
    model=None,
    device=None,
    link=None,
    methods: Optional[Tuple[str, ...]] = None,
    parts: Tuple[int, ...] = (1, 2, 4, 8),
    imbalance_threshold: Optional[float] = None,
    blowup_threshold: Optional[float] = None,
) -> List[ShardChoice]:
    """Score every (strategy x P) candidate and rank them, statically.

    Each candidate partitioning is verified by the registered shard
    passes (:func:`lint_shard`, symbolic-only — zero compiles, zero
    simulation) and scored by the lexicographic :class:`ShardScore`.
    Returns candidates best-first; ``[0]`` is the cheapest *feasible*
    partitioning whenever any candidate fits the declared
    :class:`~repro.shard.cost.DeviceConfig` capacity.
    """
    from ..shard.partition import METHODS, partition_graph

    model = resolve_model(model_name, model)
    if imbalance_threshold is None:
        imbalance_threshold = DEFAULT_IMBALANCE_THRESHOLD
    feats = round_feat_lens(model_name, model)
    candidates: List[ShardChoice] = []
    for method in (methods or METHODS):
        for p in parts:
            if p < 1 or p > graph.num_nodes:
                continue
            shard = partition_graph(graph, p, method)
            report = lint_shard(
                shard, model_name=model_name, model=model,
                device=device, link=link,
                imbalance_threshold=imbalance_threshold,
                blowup_threshold=blowup_threshold,
            )
            transfer = sum(
                sum(kinds.values())
                for kinds in shard_transfer_bytes(shard, feats).values()
            )
            peaks = shard_peak_bytes(shard, model_name, model)
            score = ShardScore(
                infeasible=sum(
                    1 for f in report.findings if f.code == "SH001"
                ),
                transfer_bytes=float(transfer),
                peak_bytes=max(peak for _, peak, _ in peaks),
                num_parts=p,
            )
            candidates.append(ShardChoice(
                method=method, num_parts=p, score=score,
                shard=shard, report=report,
            ))
    candidates.sort(key=lambda c: c.score)
    return candidates
