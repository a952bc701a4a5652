"""Training-epoch simulation: forward + backward kernel plans.

The paper times forward passes but motivates everything by *training*
("each run may involve thousands of epochs", §4.4).  This extension
lowers the GCN backward pass too, so a full epoch can be simulated:

* the adjoint of aggregation over G is aggregation over G-reversed
  (see :func:`repro.ops.grads.copy_u_sum_vjp`), so the backward graph
  kernel is the same center-neighbor aggregation on the reversed CSR —
  every forward optimization (grouping, scheduling, fusion) applies
  symmetrically;
* each layer adds two GEMMs (weight gradient, input gradient) and the
  activation/norm backward maps.

DGL-style lowering runs each backward op as its own kernel; our runtime
fuses the norm/activation maps into the reverse aggregation, mirroring
the forward plans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.grouping import identity_grouping, neighbor_grouping
from ..core.lowering import (
    ExecLayout,
    aggregation_kernel,
    gemm_kernel,
    node_map_kernel,
)
from ..gpusim.config import GPUConfig
from ..gpusim.executor import simulate_kernels
from ..gpusim.kernel import KernelSpec
from ..gpusim.metrics import RunReport
from ..graph.csr import CSRGraph
from ..models.gcn import GCNConfig
from .base import Framework
from .ours import OursRuntime

__all__ = ["lower_gcn_backward", "gcn_epoch_report"]

_REVERSE_CACHE: Dict[str, CSRGraph] = {}


def _reversed(graph: CSRGraph) -> CSRGraph:
    key = graph.fingerprint
    if key not in _REVERSE_CACHE:
        _REVERSE_CACHE[key] = graph.reverse()
    return _REVERSE_CACHE[key]


def lower_gcn_backward(
    graph: CSRGraph,
    model: GCNConfig,
    sim: GPUConfig,
    *,
    fused: bool,
    layout_for: Optional[callable] = None,
) -> List[KernelSpec]:
    """Backward kernels of one GCN training step.

    ``fused`` selects our adapter-style lowering (norm/activation maps
    folded into the reverse aggregation) vs the per-op baseline.
    ``layout_for(graph, feat_len)`` supplies the task layout for the
    reverse aggregation (defaults to the ungrouped natural order).
    """
    rev = _reversed(graph)
    dims = model.dims
    n = graph.num_nodes
    kernels: List[KernelSpec] = []
    for li in reversed(range(model.num_layers)):
        f_in, f_out = dims[li], dims[li + 1]
        layout = (
            layout_for(rev, f_out)
            if layout_for is not None
            else ExecLayout.default(rev)
        )
        if not fused:
            if li < model.num_layers - 1:
                kernels.append(
                    node_map_kernel(n, f_out, sim,
                                    name=f"bwd{li}.relu_grad")
                )
            kernels.append(
                node_map_kernel(n, f_out, sim, name=f"bwd{li}.norm_dst")
            )
            kernels.append(
                aggregation_kernel(
                    rev, f_out, sim, layout,
                    name=f"bwd{li}.rev_aggregate",
                    edge_stream_bytes_per_edge=0.0,
                    tag="cusparse",
                )
            )
            kernels.append(
                node_map_kernel(n, f_out, sim, name=f"bwd{li}.norm_src")
            )
        else:
            # Fused: relu/norm epilogues ride the reverse aggregation.
            kernels.append(
                aggregation_kernel(
                    rev, f_out, sim, layout,
                    name=f"bwd{li}.fused_rev_aggregate",
                    edge_stream_bytes_per_edge=0.0,
                    extra_block_flops=3.0 * f_out,
                    tag="fused",
                )
            )
        # Weight gradient [f_in, f_out] and input gradient [N, f_in].
        kernels.append(
            gemm_kernel(f_in, n, f_out, sim, name=f"bwd{li}.grad_w")
        )
        if li > 0:
            kernels.append(
                gemm_kernel(n, f_out, f_in, sim,
                            name=f"bwd{li}.grad_input")
            )
    return kernels


def gcn_epoch_report(
    framework: Framework,
    graph: CSRGraph,
    model: GCNConfig,
    sim: GPUConfig,
) -> Tuple[RunReport, RunReport]:
    """(forward report, backward report) of one training epoch under the
    given framework's strategy."""
    fwd = framework.run_gcn(graph, model, sim).report
    if isinstance(framework, OursRuntime):
        def layout_for(rev_graph, feat_len):
            bound = framework.ng_bound(rev_graph, feat_len, sim)
            grouping = (
                neighbor_grouping(rev_graph, bound)
                if bound is not None
                else identity_grouping(rev_graph)
            )
            return ExecLayout(
                grouping=grouping,
                center_order=framework.center_order(rev_graph),
                packed_rows=framework.options.tuned,
            )

        kernels = lower_gcn_backward(
            graph, model, sim, fused=framework.options.adapter,
            layout_for=layout_for,
        )
    else:
        kernels = lower_gcn_backward(graph, model, sim, fused=False)
    bwd = simulate_kernels(
        kernels, sim, dispatch_overhead=framework.dispatch_overhead,
        label=f"{framework.name}:gcn-backward:{graph.name}",
    )
    return fwd, bwd
