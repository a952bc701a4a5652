"""Graph statistics helpers used by datasets, the tuner and benchmarks."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .csr import CSRGraph, sorted_unique

__all__ = [
    "degree_histogram",
    "degree_cv",
    "neighbor_reuse_factor",
    "summary",
]


def degree_histogram(graph: CSRGraph, bins: int = 32) -> np.ndarray:
    """Histogram of in-degrees with log-spaced bins (``int64[bins]``)."""
    deg = graph.degrees
    if deg.size == 0:
        return np.zeros(bins, dtype=np.int64)
    hi = max(int(deg.max()), 1)
    edges = np.unique(
        np.round(np.logspace(0, np.log10(hi + 1), bins + 1)).astype(np.int64)
    )
    hist, _ = np.histogram(deg, bins=edges)
    out = np.zeros(bins, dtype=np.int64)
    out[: hist.shape[0]] = hist
    return out


def degree_cv(graph: CSRGraph) -> float:
    """Coefficient of variation of degrees — the load-imbalance driver."""
    deg = graph.degrees.astype(np.float64)
    mean = deg.mean() if deg.size else 0.0
    return float(deg.std() / mean) if mean > 0 else 0.0


def neighbor_reuse_factor(graph: CSRGraph) -> float:
    """Average number of times each *referenced* node appears as a neighbor.

    This is E / |unique sources| — the upper bound on feature-load reuse
    that Observation 1 of the paper says frameworks fail to exploit
    (E*Feat loaded vs N*Feat needed).
    """
    if graph.num_edges == 0:
        return 0.0
    uniq = sorted_unique(graph.indices).shape[0]
    return graph.num_edges / uniq


def summary(graph: CSRGraph) -> Dict[str, float]:
    """One-line statistical summary used in reports."""
    return {
        "N": graph.num_nodes,
        "E": graph.num_edges,
        "avg_degree": graph.avg_degree,
        "max_degree": graph.max_degree,
        "degree_var": graph.degree_variance,
        "degree_cv": degree_cv(graph),
        "density": graph.density,
        "reuse_factor": neighbor_reuse_factor(graph),
    }
