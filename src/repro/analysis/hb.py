"""Pass 5 — cross-kernel happens-before synchronization safety.

The gpusim executor runs kernels **sequentially in launch order**
(null-stream semantics): every kernel's completion is a device-wide
synchronization, and blocks inside a kernel are list-scheduled in issue
order.  Under that model the happens-before relation over a lowered
kernel stream is the total launch order — a buffer's *producing sync*
is the completion of the kernel that writes it, so a read is safe iff
every writer of the buffer launches strictly before the reader.

That sounds trivial until the adapter starts moving synchronizations:
linear-property postponement deletes kernel boundaries, and a bug there
(PR 2 found one by luck) reorders a consumer *before* the completion of
the reduction it reads — a stale read that no per-kernel pass can see.
This pass proves the ordering from the
:class:`~repro.gpusim.kernel.KernelDataflow` metadata lowering stamps
onto every kernel (excluded from memo fingerprints like
``block_center``):

* **HB001** (error) — a kernel reads a buffer whose producing sync has
  not happened at its launch (the producer launches at or after the
  reader): a stale read.
* **HB002** (warning) — a kernel reads a buffer no kernel in the stream
  writes: the ordering cannot be proven (a dropped producer, or
  metadata drift).
* **HB003** (info) — a provably removable sync: a kernel whose every op
  the adapter could postpone into a downstream aggregate (its ops
  commute with the sum) still runs as its own kernel, so the sync after
  it is paid for nothing.  This fires on unfused plans and is exactly
  the discount the ``linear`` fusion config takes.

Kernels without dataflow metadata (lowered outside the shared
``lower_plan`` path — GEMMs, SAGE phases) take part in the launch order
but carry no buffer obligations, mirroring how ``lint_plan`` skips
``chain=None`` layers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..gpusim.kernel import KernelSpec
from .findings import ERROR, INFO, WARNING, Finding, register_code
from .findings import make_finding
from .registry import LintPass, register_pass

__all__ = [
    "check_happens_before",
    "check_happens_before_multidev",
]

PASS = "hb"

HB001 = register_code(
    "HB001", PASS, ERROR,
    "stale read: buffer read before its producing sync",
    """A kernel reads a buffer whose writer launches at or after it.
Under the gpusim scheduling model (sequential launch order, each
kernel completion a device-wide sync) the value is not published yet —
for reduced buffers the reader would observe partial sums, for others
garbage.  This is the cross-kernel bug class sync postponement can
introduce: the adapter moved or removed a kernel boundary that the
dataflow still relies on.""",
)
HB002 = register_code(
    "HB002", PASS, WARNING,
    "dangling read: no kernel in the stream writes the buffer",
    """A kernel's dataflow metadata names a read buffer that no kernel
in the analyzed stream produces.  The happens-before relation cannot be
proven: either a producer kernel was dropped from the stream, or the
lowering's dataflow stamping drifted from the plan.""",
)
HB003 = register_code(
    "HB003", PASS, INFO,
    "provably removable sync: postponable kernel before an aggregate",
    """Every op in this kernel commutes with the downstream sum
aggregation (linear property / BCAST materialization), and its output
feeds an aggregate later in the stream — the kernel boundary (global
sync) after it is provably removable by linear-property postponement,
which the planner did not apply.  The §4.2 K1/K2 normalization discount
is left on the table.""",
)
HB004 = register_code(
    "HB004", PASS, ERROR,
    "cross-device stale read: ghost data read before its transfer "
    "completes",
    """Under the per-device stream model (each device runs its kernels
sequentially; devices are ordered only by explicit transfer-dependency
edges) a kernel reads a buffer whose only writers live on *other*
devices, and no dependency path orders any of those writes before this
launch.  For halo exchanges this means a partition aggregates over
ghost feature rows the exchange has not delivered yet — the
multi-device analogue of HB001, invisible to any single-stream
checker.""",
)
HB005 = register_code(
    "HB005", PASS, WARNING,
    "dead transfer: moved bytes are never read",
    """A transfer kernel (halo exchange or mirror reduction) writes a
buffer no later kernel on any device reads.  The link time and launch
overhead are paid for data nobody consumes — a stale halo set, an
over-wide exchange, or dataflow metadata drift in the stream
builder.""",
)


def _reaches_aggregate(
    start: int, kernels: Sequence[KernelSpec],
    readers: Dict[str, List[int]],
) -> bool:
    """Does ``start``'s output feed a downstream aggregate kernel,
    possibly through other postponable kernels?"""
    frontier = [start]
    seen = set()
    while frontier:
        ki = frontier.pop()
        if ki in seen:
            continue
        seen.add(ki)
        flow = kernels[ki].dataflow
        for buf in flow.writes:
            for reader in readers.get(buf, []):
                if reader <= ki:
                    continue
                rflow = kernels[reader].dataflow
                if rflow.aggregate:
                    return True
                if rflow.postponable:
                    frontier.append(reader)
    return False


def check_happens_before(
    kernels: Sequence[KernelSpec], *, opportunities: bool = True
) -> List[Finding]:
    """Verify the happens-before order of one lowered kernel stream.

    ``kernels`` is a launch-ordered stream — one layer's lowering or a
    whole :class:`~repro.core.plan.CompiledPlan` kernel list (per-layer
    name prefixes keep buffers distinct).  ``opportunities=False``
    silences HB003 (used when the same stream is linted twice at
    different scopes, so advisories are not duplicated).
    """
    findings: List[Finding] = []
    writers: Dict[str, List[int]] = {}
    readers: Dict[str, List[int]] = {}
    for ki, kernel in enumerate(kernels):
        flow = kernel.dataflow
        if flow is None:
            continue
        for buf in flow.writes:
            writers.setdefault(buf, []).append(ki)
        for buf in flow.reads:
            readers.setdefault(buf, []).append(ki)

    for ki, kernel in enumerate(kernels):
        flow = kernel.dataflow
        if flow is None:
            continue
        where = f"kernel {ki}: {kernel.name}"
        for buf in flow.reads:
            producing = writers.get(buf)
            if not producing:
                findings.append(make_finding(
                    HB002, where,
                    f"reads buffer {buf!r} that no kernel in the stream "
                    f"writes — the happens-before order cannot be "
                    f"proven (dropped producer or stale dataflow "
                    f"metadata)",
                ))
                continue
            late = [w for w in producing if w >= ki]
            if late:
                wk = kernels[late[0]]
                sync = (
                    "producing sync (atomic partial-sum completion)"
                    if wk.dataflow is not None
                    and buf in wk.dataflow.sync_writes
                    else "producing kernel's completion sync"
                )
                findings.append(make_finding(
                    HB001, where,
                    f"reads buffer {buf!r} but its {sync} — kernel "
                    f"{late[0]} ({wk.name}) — happens at or after this "
                    f"launch: a stale read under the sequential "
                    f"launch-order model",
                ))
    if opportunities:
        for ki, kernel in enumerate(kernels):
            flow = kernel.dataflow
            if flow is None or not flow.postponable:
                continue
            if _reaches_aggregate(ki, kernels, readers):
                findings.append(make_finding(
                    HB003, f"kernel {ki}: {kernel.name}",
                    "every op commutes with the downstream aggregation "
                    "— the global sync after this kernel is provably "
                    "removable by linear-property postponement, which "
                    "the planner did not apply",
                ))
    return findings


def check_happens_before_multidev(
    streams: Mapping[int, Sequence[KernelSpec]],
    deps: Mapping[Tuple[int, int], Sequence[Tuple[int, int]]],
) -> List[Finding]:
    """Happens-before verification over per-device kernel streams.

    Generalizes :func:`check_happens_before` from the single null-stream
    model to the multi-device model :mod:`repro.gpusim.multidev`
    executes: each device ``d`` runs ``streams[d]`` sequentially in
    launch order (every completion a device-local sync), and the only
    cross-device ordering is the explicit dependency edges ``deps`` —
    ``deps[(d, i)]`` lists the ``(q, j)`` kernels that must complete
    before ``streams[d][i]`` may start (transfer edges: an exchange
    waits on the peers' layer outputs, an aggregation on its ghost
    delivery).

    The proof runs on vector clocks: ``clock[(d, i)][q]`` is the number
    of device-``q`` kernels provably complete when ``(d, i)`` launches,
    propagated along same-device program order and the dependency edges
    in topological order.  A read of a buffer is safe iff some writer
    ``(q, j)`` satisfies ``j < clock[(d, i)][q]``.

    Findings: HB002 for buffers nobody writes, HB001 when an unordered
    writer shares the reader's device (the single-stream bug class),
    HB004 when every unordered writer is remote (a ghost read racing
    its transfer), HB005 for transfer kernels whose written buffers no
    later kernel reads.
    """
    devices = sorted(streams)
    writers: Dict[str, List[Tuple[int, int]]] = {}
    readers: Dict[str, List[Tuple[int, int]]] = {}
    for d in devices:
        for i, kernel in enumerate(streams[d]):
            flow = kernel.dataflow
            if flow is None:
                continue
            for buf in flow.writes:
                writers.setdefault(buf, []).append((d, i))
            for buf in flow.reads:
                readers.setdefault(buf, []).append((d, i))

    # Vector clocks in dependency order (Kahn).  Graph nodes are every
    # kernel; edges: (d, i-1) -> (d, i) plus the explicit deps.
    succs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    indeg: Dict[Tuple[int, int], int] = {}
    for d in devices:
        for i in range(len(streams[d])):
            node = (d, i)
            indeg[node] = 0
    for d in devices:
        for i in range(1, len(streams[d])):
            succs.setdefault((d, i - 1), []).append((d, i))
            indeg[(d, i)] += 1
    for node, preds in deps.items():
        for pred in preds:
            if pred not in indeg or node not in indeg:
                continue
            succs.setdefault(pred, []).append(node)
            indeg[node] += 1
    clock: Dict[Tuple[int, int], Dict[int, int]] = {
        node: dict.fromkeys(devices, 0) for node in indeg
    }
    frontier = sorted(n for n, k in indeg.items() if k == 0)
    order: List[Tuple[int, int]] = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        d, i = node
        # Knowledge a successor inherits: everything this kernel knew
        # at launch, plus this kernel's own completion.
        done = dict(clock[node])
        done[d] = max(done[d], i + 1)
        for nxt in succs.get(node, ()):
            cn = clock[nxt]
            for q, v in done.items():
                if v > cn[q]:
                    cn[q] = v
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                frontier.append(nxt)
    findings: List[Finding] = []
    if len(order) < len(indeg):
        # Cyclic dependency edges: the unprocessed kernels keep their
        # partial clocks (racing reads below still surface), but the
        # cycle itself is a deadlock — same-device program order is
        # acyclic, so the cycle necessarily crosses devices.
        stuck = sorted(n for n in indeg if indeg[n] > 0)
        d, i = stuck[0]
        findings.append(make_finding(
            HB004, f"device {d} kernel {i}: {streams[d][i].name}",
            f"transfer dependency edges form a cycle through "
            f"{len(stuck)} kernels — the streams deadlock; no "
            f"happens-before order exists",
        ))
    for d in devices:
        for i, kernel in enumerate(streams[d]):
            flow = kernel.dataflow
            if flow is None:
                continue
            where = f"device {d} kernel {i}: {kernel.name}"
            c = clock[(d, i)]
            for buf in flow.reads:
                producing = writers.get(buf)
                if not producing:
                    findings.append(make_finding(
                        HB002, where,
                        f"reads buffer {buf!r} that no kernel on any "
                        f"device writes — the happens-before order "
                        f"cannot be proven (dropped producer or stale "
                        f"dataflow metadata)",
                    ))
                    continue
                ordered = any(j < c[q] for q, j in producing)
                if ordered:
                    continue
                local = [(q, j) for q, j in producing if q == d]
                if local:
                    q, j = local[0]
                    wk = streams[q][j]
                    findings.append(make_finding(
                        HB001, where,
                        f"reads buffer {buf!r} but its producing "
                        f"kernel — device {q} kernel {j} ({wk.name}) — "
                        f"launches at or after it in the same device "
                        f"stream: a stale read",
                    ))
                else:
                    q, j = producing[0]
                    wk = streams[q][j]
                    findings.append(make_finding(
                        HB004, where,
                        f"reads buffer {buf!r} whose writer — device "
                        f"{q} kernel {j} ({wk.name}) — is on another "
                        f"device with no dependency path ordering the "
                        f"transfer before this launch: the aggregation "
                        f"races its ghost delivery",
                    ))
    for d in devices:
        for i, kernel in enumerate(streams[d]):
            flow = kernel.dataflow
            if flow is None or kernel.tag != "transfer":
                continue
            for buf in flow.writes:
                consumed = any(
                    (q, j) != (d, i) for q, j in readers.get(buf, ())
                )
                if consumed:
                    continue
                # Re-published compute buffers (a reduction adding into
                # a buffer a compute kernel also writes) alias compute
                # output whose downstream dataflow may be elided — only
                # transfer-exclusive buffers are provably dead traffic.
                republished = any(
                    streams[q][j].tag != "transfer"
                    for q, j in writers.get(buf, ())
                    if (q, j) != (d, i)
                )
                if not republished:
                    findings.append(make_finding(
                        HB005, f"device {d} kernel {i}: {kernel.name}",
                        f"transfer writes buffer {buf!r} that no kernel "
                        f"on any device reads — link time paid for data "
                        f"nobody consumes",
                    ))
    return findings


register_pass(LintPass(
    name=PASS,
    doc="happens-before sync safety over the lowered kernel stream",
    lowering=lambda ctx: check_happens_before(ctx.kernels),
    # Whole-plan scope: the same checker over the full launch-ordered
    # stream catches cross-layer ordering damage; advisories already
    # fired per layer.
    artifact=lambda plan, graph, config: check_happens_before(
        plan.kernels, opportunities=False
    ),
))
