"""Sparse fetching and redundancy bypassing (paper §4.3).

For neural operations executed in the center-neighbor pattern (the
GraphSAGE-LSTM aggregator of Fig. 6), three execution strategies exist:

* ``BASE`` — expand neighbor features into a dense ``[N, k, F]`` tensor
  (a separate graph-operation kernel) and transform each cell's slice
  with the input weights inside the cell (DGL's approach; the expansion
  and transformation costs of Table 5).
* ``SPARSE_FETCH`` — no expansion kernel: each LSTM-cell kernel gathers
  the rows it needs through the neighbor index at its start, hiding the
  access under the heavy neural math that follows.
* ``REDUNDANCY_BYPASS`` — additionally hoist the input transformation
  out of the cells: transform the O(N) feature matrix once, then
  sparse-fetch *pre-transformed* rows per cell, reducing transformation
  work from O(E) to O(N).

:func:`run_sage_lstm` executes any strategy functionally (identical
outputs, test-enforced) and returns a phase-attributed kernel plan for
the simulator.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Tuple

import numpy as np

from ..gpusim.config import GPUConfig
from ..gpusim.kernel import KernelSpec
from ..graph.csr import CSRGraph
from ..ops.lstm import (
    LSTMParams,
    lstm_cell_flops,
    lstm_over_expanded,
    lstm_pretransformed,
)
from .lowering import gather_rows_kernel, gemm_kernel

__all__ = [
    "SageStrategy",
    "sample_neighbors",
    "run_sage_lstm_functional",
    "lower_sage_lstm",
]


class SageStrategy(enum.Enum):
    BASE = "base"
    SPARSE_FETCH = "sparse_fetch"
    REDUNDANCY_BYPASS = "redundancy_bypass"


def sample_neighbors(
    graph: CSRGraph, k: int, seed: int = 0
) -> np.ndarray:
    """Sample ``k`` neighbors per center (with replacement; isolated
    centers sample themselves), as GraphSAGE's fixed-size sampling does.
    Deterministic given the seed; shared by all strategies/frameworks.
    Returns a fresh ``int32[N, k]`` of node ids.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    deg = graph.degrees
    picks = (rng.random((n, k)) * np.maximum(deg, 1)[:, None]).astype(
        np.int64
    )
    starts = graph.indptr[:-1]
    idx = starts[:, None] + picks
    out = np.where(
        deg[:, None] > 0,
        graph.indices[np.minimum(idx, graph.num_edges - 1)],
        np.arange(n, dtype=np.int32)[:, None],
    )
    return out


def _sample_columns(graph: CSRGraph, k: int, seed: int) -> np.ndarray:
    """``sample_neighbors(graph, k, seed)`` as contiguous read-only
    ``int32[k, N]`` columns, drawn once per graph instance and
    ``(k, seed)``: every lowering and functional run of the same graph
    shares one sample, as every default layout shares
    :func:`~repro.core.grouping.identity_grouping`.  Each LSTM cell
    reads one column, so the columns are the stored form; ``.T`` is the
    ``[N, k]`` sample.
    """
    samples = graph.__dict__.get("_sample_columns")
    if samples is None:
        samples = {}
        object.__setattr__(graph, "_sample_columns", samples)
    columns = samples.get((k, seed))
    if columns is None:
        columns = np.ascontiguousarray(sample_neighbors(graph, k, seed).T)
        columns.setflags(write=False)
        samples[k, seed] = columns
    return columns


def run_sage_lstm_functional(
    graph: CSRGraph,
    feat: np.ndarray,
    params: LSTMParams,
    k: int = 16,
    strategy: SageStrategy = SageStrategy.BASE,
    seed: int = 0,
) -> np.ndarray:
    """Compute the LSTM aggregation under the given strategy.

    All strategies are mathematically identical; BASE materializes the
    expanded tensor, the others do not.
    """
    nbr = _sample_columns(graph, k, seed).T
    if strategy == SageStrategy.BASE:
        expanded = feat[nbr]  # [N, k, F] — the footprint Table 5 measures
        return lstm_over_expanded(expanded, params)
    if strategy == SageStrategy.SPARSE_FETCH:
        # Same math as BASE but fetching rows per cell (no [N,k,F] buffer).
        from ..ops.lstm import lstm_cell

        n = nbr.shape[0]
        hidden = params.hidden_size
        h = np.zeros((n, hidden), dtype=np.float32)
        c = np.zeros((n, hidden), dtype=np.float32)
        for t in range(k):
            h, c = lstm_cell(feat[nbr[:, t]], h, c, params)
        return h
    if strategy == SageStrategy.REDUNDANCY_BYPASS:
        return lstm_pretransformed(feat, nbr, params)
    raise ValueError(f"unknown strategy {strategy}")


@dataclasses.dataclass(frozen=True)
class SagePhase:
    """Phase attribution for Table 5: which kernels are 'expansion',
    'transformation' or 'core' LSTM work."""

    kernel_index: int
    phase: str  # "expansion" | "transformation" | "core"


def lower_sage_lstm(
    graph: CSRGraph,
    feat_len: int,
    hidden: int,
    k: int,
    config: GPUConfig,
    strategy: SageStrategy,
    seed: int = 0,
) -> Tuple[List[KernelSpec], List[SagePhase]]:
    """Kernel plan + phase attribution for one SAGE-LSTM aggregation."""
    # Each cell fetches one column; contiguous columns spare every
    # consumer of a fetch kernel's row stream a strided copy.
    columns = _sample_columns(graph, k, seed)
    # What the fetch kernels' index columns are built from: the CSR
    # that ``sample_neighbors`` reads, the draw count and the seed.
    sampled = ("sampled", graph.indptr, graph.indices, k, seed)
    n = graph.num_nodes
    kernels: List[KernelSpec] = []
    phases: List[SagePhase] = []

    def add(kernel: KernelSpec, phase: str) -> None:
        phases.append(SagePhase(len(kernels), phase))
        kernels.append(kernel)

    ew_flops = lstm_cell_flops(n, feat_len, hidden,
                               include_input_transform=False) \
        - 2 * n * hidden * 4 * hidden  # element-wise part only
    if strategy == SageStrategy.BASE:
        # One expansion kernel materializing [N, k, F].
        add(
            gather_rows_kernel(
                columns.T.reshape(-1), feat_len, config, name="sage.expand",
                write_back=True, rows_recipe=sampled,
            ),
            "expansion",
        )
        for t in range(k):
            add(
                gemm_kernel(n, feat_len, 4 * hidden, config,
                            name=f"sage.cell{t}.transform_x"),
                "transformation",
            )
            add(
                gemm_kernel(n, hidden, 4 * hidden, config,
                            name=f"sage.cell{t}.recurrent"),
                "core",
            )
            add(
                KernelSpec.uniform_dense(
                    f"sage.cell{t}.gates", ew_flops,
                    n * hidden * 4 * 6.0, max(1, n * hidden // 1024),
                ),
                "core",
            )
        return kernels, phases

    if strategy == SageStrategy.SPARSE_FETCH:
        # No expansion kernel; each cell's transform gathers its rows.
        for t in range(k):
            fetch = gather_rows_kernel(
                columns[t], feat_len, config,
                name=f"sage.cell{t}.spfetch", write_back=False,
                counts_launch=False, rows_recipe=(sampled, t),
            )
            add(fetch, "core")
            add(
                gemm_kernel(n, feat_len, 4 * hidden, config,
                            name=f"sage.cell{t}.transform_x"),
                "transformation",
            )
            add(
                gemm_kernel(n, hidden, 4 * hidden, config,
                            name=f"sage.cell{t}.recurrent"),
                "core",
            )
            add(
                KernelSpec.uniform_dense(
                    f"sage.cell{t}.gates", ew_flops,
                    n * hidden * 4 * 6.0, max(1, n * hidden // 1024),
                ),
                "core",
            )
        return kernels, phases

    # REDUNDANCY_BYPASS: one O(N) pre-transform; cells fetch
    # pre-transformed rows (4*hidden wide) and skip the input GEMM.
    add(
        gemm_kernel(n, feat_len, 4 * hidden, config,
                    name="sage.pretransform"),
        "transformation",
    )
    for t in range(k):
        fetch = gather_rows_kernel(
            columns[t], 4 * hidden, config,
            name=f"sage.cell{t}.spfetch", write_back=False,
            counts_launch=False, rows_recipe=(sampled, t),
        )
        add(fetch, "core")
        add(
            gemm_kernel(n, hidden, 4 * hidden, config,
                        name=f"sage.cell{t}.recurrent"),
            "core",
        )
        add(
            KernelSpec.uniform_dense(
                f"sage.cell{t}.gates", ew_flops,
                n * hidden * 4 * 6.0, max(1, n * hidden // 1024),
            ),
            "core",
        )
    return kernels, phases
