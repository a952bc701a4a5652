"""Passes 6 & 7 — symbolic memory footprint and missed-opportunity
analysis.

Both passes abstract-interpret a fusion plan's buffers into a tiny
**symbolic cost language**: closed-form expressions over the graph size
symbols ``N`` (nodes), ``E`` (edges) and ``F`` (feature length), with
byte coefficients (float32 throughout the simulator, so every shape
class costs ``4·|shape|``).  The buffers are exactly the cross-kernel
materializations the lowering stamps into
:class:`~repro.gpusim.kernel.KernelDataflow` — values that stay in
registers inside a fused kernel never appear, which is the point: the
footprint *is* the fusion plan's memory story.

**footprint** (artifact scope) — rebuild each layer's peak live set
symbolically (a buffer is live from its producing kernel through its
last consuming kernel; layer inputs are live throughout), evaluate the
closed form on the plan's graph, and cross-check it against the
recorded :attr:`~repro.core.plan.CompiledPlan.peak_mem_bytes`.  The
closed form is a *lower bound* on any faithful accounting — it counts
only the chain's own buffers, none of the CSR structure or parameters —
so a recorded peak below it is impossible: **FP001** (error), the
artifact's memory metadata is corrupt or under-accounted.

**opportunity** (lowering scope) — two advisory findings:

* **FP002** (info) — an O(E)-materialized buffer with an O(N)
  equivalent: a BCAST output (per-center constant replicated along
  edges) written to DRAM, or an ``EF`` edge-feature transform that
  could be hoisted to ``NF`` before the scatter.  Missed redundancy
  bypassing — the paper's Table 5 optimization.
* **FP003** (info) — an adjacent kernel pair admitting a legal fusion
  the planner skipped (an elementwise producer, or a linear elementwise
  consumer of a reduction output — the Listing 1 fusions).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.compgraph import OP_EFFECTS, FusionPlan, Op, OpKind
from ..gpusim.kernel import KernelSpec
from .findings import ERROR, INFO, Finding, make_finding, register_code
from .registry import LintContext, LintPass, register_pass

__all__ = [
    "SymExpr",
    "ShardSymExpr",
    "shape_bytes",
    "shard_term",
    "layer_footprint",
    "model_live_sets",
    "model_flops_expr",
    "shard_env",
    "check_footprint",
    "check_opportunities",
]

PASS_FOOTPRINT = "footprint"
PASS_OPPORTUNITY = "opportunity"

FP001 = register_code(
    "FP001", PASS_FOOTPRINT, ERROR,
    "recorded peak memory below the plan's provable lower bound",
    """The symbolic footprint of a layer's fusion plan — its cross-kernel
buffers sized as closed forms over N (nodes), E (edges) and F (feature
length), with liveness from producing kernel to last consumer —
evaluates, on the plan's own graph, to more bytes than the artifact's
recorded ``peak_mem_bytes``.  The closed form counts only the chain's
own materializations (no CSR structure, no parameters), so it is a
lower bound on any faithful accounting: a smaller recorded peak means
the artifact's memory metadata is corrupt, or the framework
under-accounted a buffer its fusion config actually materializes.""",
)
FP002 = register_code(
    "FP002", PASS_OPPORTUNITY, INFO,
    "O(E) materialization with an O(N) equivalent (Table 5)",
    """A kernel writes an edge-aligned buffer to DRAM whose information
content is node-aligned: a BCAST output replicates one per-center
scalar along every edge, and an edge-feature (``EF``) transform of
gathered node features can be hoisted before the gather to ``NF``.
Redundancy bypassing (the paper's Table 5) replaces the O(E) buffer
with its O(N) equivalent — on power-law graphs an order of magnitude of
memory traffic.  The planner left that on the table.""",
)
FP003 = register_code(
    "FP003", PASS_OPPORTUNITY, INFO,
    "adjacent kernels admit a legal fusion the planner skipped",
    """Two consecutive kernels are dataflow-adjacent and their boundary
satisfies the data-visible-range fusion rules (an elementwise producer
whose output each consumer thread can recompute or read at thread
scope, or a linear elementwise consumer of a global-scope producer that
can run as its epilogue) — the Listing 1 fusions.  Fusing them deletes
a kernel launch and the boundary buffer's DRAM round-trip.""",
)


# ----------------------------------------------------------------------
# Symbolic cost language
# ----------------------------------------------------------------------

#: shape class -> (N-power, E-power, F-power) monomial
_SHAPE_MONOMIAL = {
    "N1": (1, 0, 0),
    "NF": (1, 0, 1),
    "E1": (0, 1, 0),
    "EF": (0, 1, 1),
}

_SYMBOLS = ("N", "E", "F")


@dataclasses.dataclass(frozen=True)
class SymExpr:
    """A linear combination of monomials over N, E and F.

    ``terms`` maps ``(n_pow, e_pow, f_pow)`` to a numeric coefficient;
    the expression is their sum.  Immutable — arithmetic returns new
    expressions — so per-kernel live sets can share sub-expressions.
    """

    terms: Tuple[Tuple[Tuple[int, int, int], float], ...] = ()

    @staticmethod
    def of(monomial: Tuple[int, int, int], coeff: float) -> "SymExpr":
        if coeff == 0:
            return SymExpr()
        return SymExpr(((monomial, float(coeff)),))

    def __add__(self, other: "SymExpr") -> "SymExpr":
        merged: Dict[Tuple[int, int, int], float] = dict(self.terms)
        for mono, coeff in other.terms:
            merged[mono] = merged.get(mono, 0.0) + coeff
        return SymExpr(tuple(sorted(
            (m, c) for m, c in merged.items() if c != 0
        )))

    def evaluate(self, n: int, e: int, f: int) -> float:
        vals = (n, e, f)
        total = 0.0
        for mono, coeff in self.terms:
            prod = coeff
            for sym_val, power in zip(vals, mono):
                prod *= sym_val ** power
            total += prod
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # Highest-degree terms first reads like a cost bound.
        for mono, coeff in sorted(self.terms, key=lambda t: t[0],
                                  reverse=True):
            syms = "".join(
                f"*{s}" for s, p in zip(_SYMBOLS, mono) for _ in range(p)
            )
            parts.append(f"{coeff:g}{syms}")
        return " + ".join(parts)


def shape_bytes(shape: str) -> SymExpr:
    """Bytes of one float32 buffer of a shape class, symbolically."""
    return SymExpr.of(_SHAPE_MONOMIAL[shape], 4.0)


# ----------------------------------------------------------------------
# Shard symbol vocabulary: per-device closed forms
# ----------------------------------------------------------------------
#
# The single-device language above speaks N/E/F of *the* graph.  On a
# sharded run every device sees its own local graph, whose node space
# is [centers..., halo...]: the same closed forms apply per device, but
# the memory story now depends on *which kind* of row a local node is —
# owned centers are the useful work, halo (ghost) rows are replicated
# reads, mirrors are replicated partial aggregates.  ``ShardSymExpr``
# therefore splits the node axis into C (centers, mirrors included), H
# (halo) and M (mirrors), keeps E (local edges) and F (feature length),
# and evaluates against one device's partition stats.  ``P`` enters by
# evaluation: a shard-level quantity is the max or sum of a per-device
# expression over the P partitions.

#: shard symbol order: centers, halo, mirrors, local edges, feat len
_SHARD_SYMBOLS = ("C", "H", "M", "E", "F")

_SHARD_INDEX = {s: i for i, s in enumerate(_SHARD_SYMBOLS)}


def _shard_monomial(symbols: str) -> Tuple[int, ...]:
    powers = [0] * len(_SHARD_SYMBOLS)
    for s in symbols:
        powers[_SHARD_INDEX[s]] += 1
    return tuple(powers)


@dataclasses.dataclass(frozen=True)
class ShardSymExpr:
    """A linear combination of monomials over C, H, M, E and F.

    Same algebra as :class:`SymExpr`, over the per-device shard
    vocabulary.  ``N`` (local nodes) is not a symbol: it is the sum
    ``C + H`` — :func:`shard_term` expands ``"N"`` accordingly so model
    closed forms can be written against local-node counts and still
    report which bytes are replication.
    """

    terms: Tuple[Tuple[Tuple[int, ...], float], ...] = ()

    @staticmethod
    def of(symbols: str, coeff: float) -> "ShardSymExpr":
        if coeff == 0:
            return ShardSymExpr()
        return ShardSymExpr(((_shard_monomial(symbols), float(coeff)),))

    def __add__(self, other: "ShardSymExpr") -> "ShardSymExpr":
        merged: Dict[Tuple[int, ...], float] = dict(self.terms)
        for mono, coeff in other.terms:
            merged[mono] = merged.get(mono, 0.0) + coeff
        return ShardSymExpr(tuple(sorted(
            (m, c) for m, c in merged.items() if c != 0
        )))

    def scaled(self, factor: float) -> "ShardSymExpr":
        if factor == 0:
            return ShardSymExpr()
        return ShardSymExpr(tuple(
            (m, c * factor) for m, c in self.terms
        ))

    def evaluate(self, env: Dict[str, float]) -> float:
        """Evaluate under ``{"C": ..., "H": ..., "M": ..., "E": ...,
        "F": ...}`` (missing symbols default to 0)."""
        vals = tuple(float(env.get(s, 0)) for s in _SHARD_SYMBOLS)
        total = 0.0
        for mono, coeff in self.terms:
            prod = coeff
            for val, power in zip(vals, mono):
                prod *= val ** power
            total += prod
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms, key=lambda t: t[0],
                                  reverse=True):
            syms = "".join(
                f"*{s}" for s, p in zip(_SHARD_SYMBOLS, mono)
                for _ in range(p)
            )
            parts.append(f"{coeff:g}{syms}")
        return " + ".join(parts)


def shard_term(symbols: str, coeff: float) -> ShardSymExpr:
    """One shard-vocabulary term; ``"N"`` expands to ``C + H``.

    ``shard_term("NF", 4.0)`` is one float32 feature row per local node
    — ``4*C*F + 4*H*F`` — which is exactly how a per-partition compile
    allocates it (the local node space includes ghosts).
    """
    expanded = [""]
    for s in symbols:
        if s == "N":
            expanded = [pre + alt for pre in expanded for alt in "CH"]
        else:
            expanded = [pre + s for pre in expanded]
    out = ShardSymExpr()
    for mono in expanded:
        out = out + ShardSymExpr.of(mono, coeff)
    return out


def shard_env(part) -> Dict[str, float]:
    """The evaluation environment of one
    :class:`~repro.shard.partition.GraphPartition` (``F`` left to the
    caller: it varies per layer)."""
    return {
        "C": float(part.centers.size),
        "H": float(part.halo.size),
        "M": float(part.mirrors.size),
        "E": float(part.local_graph.num_edges),
    }


def model_live_sets(model_name: str, model) -> List[Tuple[str, ShardSymExpr]]:
    """Per-layer symbolic live-set peaks of one device's compiled plan.

    Mirrors the :class:`~repro.gpusim.memory.DeviceMemory` accounting
    of the DGL-style framework (the allocation schedule in
    :meth:`repro.frameworks.dgl_like.DGLLike.compile_gcn` and friends)
    closed-form: each entry is the live bytes at the layer's allocation
    high-water mark, over local nodes ``N = C + H`` and local edges
    ``E``.  The max over entries *is* the compile-time
    ``peak_mem_bytes`` of a per-partition plan — bit-for-bit, which is
    what lets SH001 reproduce the simulator's OOM verdict without
    compiling anything (``tests/test_shardlint.py`` pins the equality).
    """
    graph_csr = shard_term("N", 4.0) + shard_term("E", 4.0)
    if model_name == "gcn":
        dims = model.dims
        out = []
        for li in range(len(dims) - 1):
            f_in, f_out = dims[li], dims[li + 1]
            # live: CSR + h_li [N,f_in] + hw_li [N,f_out] + h_{li+1}
            expr = graph_csr + shard_term("N", 4.0 * (f_in + 2 * f_out))
            out.append((f"gcn{li}", expr))
        return out
    if model_name == "gat":
        dims = model.dims
        out = []
        for li in range(len(dims) - 1):
            f_in, f_out = dims[li], dims[li + 1]
            # live: CSR + h_li + hw_li + h_{li+1} + att [N,2] + edge [E,3]
            expr = (
                graph_csr
                + shard_term("N", 4.0 * (f_in + 2 * f_out + 2))
                + shard_term("E", 12.0)
            )
            out.append((f"gat{li}", expr))
        return out
    if model_name == "sage_lstm":
        # No frees: the peak is the running total of every allocation.
        expr = graph_csr + shard_term("N", 4.0 * (
            model.f_in                          # h0
            + model.num_neighbors * model.f_in  # expanded [N,k,F]
            + 2 * model.hidden                  # LSTM state
            + model.f_out                       # projection output
        ))
        return [("sage", expr)]
    raise KeyError(f"no symbolic memory model for {model_name!r}")


def model_flops_expr(model_name: str, model) -> ShardSymExpr:
    """Symbolic per-device flops of one model, for load-imbalance
    ratios (SH003).  Deliberately coarse — dense transforms at
    ``2*N*f_in*f_out``, aggregations at ``2*E*f_out`` — because only
    the max/mean *ratio* across devices matters, and every device's
    estimate carries the same constants."""
    expr = ShardSymExpr()
    if model_name in ("gcn", "gat"):
        dims = model.dims
        for li in range(len(dims) - 1):
            f_in, f_out = dims[li], dims[li + 1]
            expr = expr + shard_term("N", 2.0 * f_in * f_out)
            expr = expr + shard_term("E", 2.0 * f_out)
            if model_name == "gat":
                # att gemm [N,f_out]x[f_out,2] + per-edge softmax chain
                expr = expr + shard_term("N", 4.0 * f_out)
                expr = expr + shard_term("E", 8.0)
        return expr
    if model_name == "sage_lstm":
        k, h, f = model.num_neighbors, model.hidden, model.f_in
        # k LSTM cells of 8*h*(f+h) MACs each, plus the projection.
        expr = expr + shard_term("N", 8.0 * k * h * (f + h))
        expr = expr + shard_term("N", 2.0 * (f + h) * model.f_out)
        return expr
    raise KeyError(f"no symbolic flops model for {model_name!r}")


# ----------------------------------------------------------------------
# Liveness over the stamped dataflow
# ----------------------------------------------------------------------

def _ops_by_name(plan: FusionPlan) -> Dict[str, Op]:
    out: Dict[str, Op] = {}
    for group in plan.groups:
        for op in list(group.ops) + list(group.postponed):
            out[op.name] = op
    return out


def _buffer_op(buf: str, ops: Dict[str, Op]) -> Optional[Op]:
    # Artifact kernel streams carry per-layer name prefixes
    # ("gat0.exp"); op names never contain dots.
    return ops.get(buf.rsplit(".", 1)[-1])


def layer_footprint(
    plan: FusionPlan, kernels: Sequence[KernelSpec]
) -> Optional[List[Tuple[int, SymExpr]]]:
    """Per-kernel symbolic live set of one layer's lowering.

    Returns ``[(kernel_index, live_bytes_expr), ...]`` or None when the
    kernels carry no dataflow metadata (pre-v2 artifact).  The live set
    of kernel ``k`` holds every cross-kernel buffer whose lifetime
    [producer, last consumer] covers ``k`` plus the layer's standing
    inputs: the node-feature operand every chain aggregates or maps,
    and the two attention scalars when the chain combines node pairs.
    """
    if any(k.dataflow is None for k in kernels) or not kernels:
        return None
    ops = _ops_by_name(plan)

    produced: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for ki, kernel in enumerate(kernels):
        for buf in kernel.dataflow.writes:
            produced.setdefault(buf, ki)
            last_use.setdefault(buf, ki)
        for buf in kernel.dataflow.reads:
            if buf in produced:
                last_use[buf] = max(last_use[buf], ki)

    inputs = shape_bytes("NF")  # the feature matrix the chain consumes
    if any(op.kind == OpKind.U_ADD_V for op in ops.values()):
        inputs = inputs + shape_bytes("N1") + shape_bytes("N1")

    live_sets: List[Tuple[int, SymExpr]] = []
    for ki in range(len(kernels)):
        expr = inputs
        for buf, pi in produced.items():
            op = _buffer_op(buf, ops)
            if op is None:
                continue
            if pi <= ki <= last_use[buf]:
                expr = expr + shape_bytes(op.out_shape)
        live_sets.append((ki, expr))
    return live_sets


# ----------------------------------------------------------------------
# footprint pass (artifact scope): FP001
# ----------------------------------------------------------------------

def check_footprint(plan, graph, config) -> List[Finding]:
    """Cross-check a :class:`CompiledPlan`'s recorded peak memory
    against each layer's symbolic lower bound evaluated on its graph."""
    findings: List[Finding] = []
    n, e = graph.num_nodes, graph.num_edges
    for rec in plan.layers:
        if rec.chain is None or rec.fusion is None:
            continue
        kernels = plan.kernels[rec.kernel_start:rec.kernel_stop]
        live_sets = layer_footprint(rec.fusion, kernels)
        if live_sets is None:
            continue
        peak_ki, peak_expr = max(
            live_sets,
            key=lambda kv, f=rec.feat_len: kv[1].evaluate(n, e, f),
        )
        bound = peak_expr.evaluate(n, e, rec.feat_len)
        if bound > plan.peak_mem_bytes:
            findings.append(make_finding(
                FP001, f"layer {rec.label}",
                f"symbolic footprint lower bound {peak_expr} = "
                f"{bound:,.0f} B at N={n}, E={e}, F={rec.feat_len} "
                f"(peak at kernel {peak_ki}: "
                f"{kernels[peak_ki].name}) exceeds the recorded "
                f"peak_mem_bytes={plan.peak_mem_bytes:,} — the "
                f"artifact's memory accounting cannot be faithful",
            ))
    return findings


# ----------------------------------------------------------------------
# opportunity pass (lowering scope): FP002 / FP003
# ----------------------------------------------------------------------

def _materialized_buffers(
    kernels: Sequence[KernelSpec],
) -> List[Tuple[int, str]]:
    """(kernel index, buffer) pairs the lowering writes to DRAM."""
    out = []
    for ki, kernel in enumerate(kernels):
        if kernel.dataflow is None:
            continue
        out.extend((ki, buf) for buf in kernel.dataflow.writes)
    return out


def check_opportunities(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    ops = _ops_by_name(ctx.plan)

    # FP002 — O(E) materializations with O(N) equivalents.
    for ki, buf in _materialized_buffers(ctx.kernels):
        op = _buffer_op(buf, ops)
        if op is None:
            continue
        where = f"kernel {ki}: {ctx.kernels[ki].name}"
        if op.kind == OpKind.BCAST:
            findings.append(make_finding(
                FP002, where,
                f"materializes {op.name!r}: an O(E) buffer holding one "
                f"per-center scalar replicated along every edge — its "
                f"O(N) equivalent (read the center value directly) "
                f"needs no DRAM round-trip (redundancy bypassing, "
                f"Table 5)",
            ))
        elif op.out_shape == "EF" and OP_EFFECTS[op.kind].elementwise:
            findings.append(make_finding(
                FP002, where,
                f"materializes {op.name!r}: an O(E*F) edge-feature "
                f"transform of gathered node rows — hoisting it before "
                f"the gather costs O(N*F) (redundancy bypassing, "
                f"Table 5)",
            ))

    # FP003 — legal fusions across adjacent kernel boundaries.
    for gi in range(len(ctx.plan.groups) - 1):
        left, right = ctx.plan.groups[gi], ctx.plan.groups[gi + 1]
        if not left.ops or not right.ops:
            continue
        p, c = left.ops[-1], right.ops[0]
        p_eff, c_eff = OP_EFFECTS[p.kind], OP_EFFECTS[c.kind]
        if p.kind == OpKind.SEG_REDUCE:
            # The consumer needs the completed reduction: only the
            # linear-property transform crosses this boundary, and that
            # is HB003's finding, not a visible-range fusion.
            continue
        fusible = reason = None
        if p_eff.elementwise:
            fusible = True
            reason = (
                f"{p.name!r} is elementwise — each consumer thread can "
                f"read or recompute it at thread visible range"
            )
        elif c_eff.elementwise and c.linear:
            fusible = True
            reason = (
                f"{c.name!r} is linear and elementwise — it can run as "
                f"the producer kernel's epilogue on the completed output"
            )
        if fusible:
            findings.append(make_finding(
                FP003,
                f"kernel boundary {gi}|{gi + 1}: {p.name}->{c.name}",
                f"legal fusion skipped: {reason}; merging removes one "
                f"launch and the {p.name!r} boundary buffer's DRAM "
                f"round-trip (Listing 1)",
            ))
    return findings


register_pass(LintPass(
    name=PASS_FOOTPRINT,
    doc="symbolic peak-footprint lower bound vs recorded peak memory",
    artifact=check_footprint,
))

register_pass(LintPass(
    name=PASS_OPPORTUNITY,
    doc="missed redundancy-bypassing and fusion opportunities",
    lowering=check_opportunities,
))
