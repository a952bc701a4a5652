"""Reference CSR sparse-matrix × dense-matrix products.

The SUM-reduction path of DGL lowers to cuSPARSE's csrmm (paper §3,
Observation 1).  These functions are the numerical references; the
framework models attach cost/trace information separately.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["spmm_sum", "spmm_scipy", "spmm_flops", "spmm_bytes"]


def spmm_sum(
    graph: CSRGraph, feat: np.ndarray, edge_weight: np.ndarray | None = None
) -> np.ndarray:
    """``out[v] = sum_{u->v} w_e * feat[u]`` via row-contiguous reduceat."""
    from .graphops import copy_u_sum, u_mul_e_sum

    if edge_weight is None:
        return copy_u_sum(graph, feat)
    return u_mul_e_sum(graph, feat, edge_weight)


def spmm_scipy(
    graph: CSRGraph, feat: np.ndarray, edge_weight: np.ndarray | None = None
) -> np.ndarray:
    """Same product via :mod:`scipy.sparse` (cross-validation oracle)."""
    import scipy.sparse as sp  # only here: importing it costs ~0.2 s

    data = (
        np.ones(graph.num_edges, dtype=np.float64)
        if edge_weight is None
        else edge_weight.astype(np.float64)
    )
    mat = sp.csr_matrix(
        (data, graph.indices.astype(np.int64), graph.indptr),
        shape=(graph.num_nodes, graph.num_nodes),
    )
    return (mat @ feat.astype(np.float64)).astype(feat.dtype)


def spmm_flops(num_edges: int, feat_len: int, weighted: bool = True) -> int:
    """FLOPs of the weighted aggregation (mul + add per edge element)."""
    per_edge = 2 if weighted else 1
    return per_edge * num_edges * feat_len


def spmm_bytes(
    num_nodes: int, num_edges: int, feat_len: int, itemsize: int = 4
) -> int:
    """Minimum bytes moved with perfect reuse: N*F in + N*F out + structure."""
    return 2 * num_nodes * feat_len * itemsize + num_edges * 4
