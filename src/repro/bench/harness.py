"""Shared experiment infrastructure: runtimes, configs, table formatting.

Tuner results are expensive and graph-invariant, so they are cached per
process in the shared runtimes here (schedules in
:func:`repro.core.pipeline.shared_schedule`) — the library-level mirror
of the paper's "done offline once, reused for many runs" argument (§4.4).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from ..frameworks.ours import OursOptions, OursRuntime
from ..gpusim.config import V100_SCALED, GPUConfig
from ..perf import runtime

__all__ = [
    "bench_config",
    "sweep_config",
    "cached_runtime",
    "format_table",
    "write_result",
    "RESULTS_DIR",
]

#: Where the paper-claim tables are persisted, one ``<out>.txt`` per
#: claim of :mod:`repro.bench.claims`.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    ))),
    "benchmarks", "out",
)

_RUNTIMES: Dict[OursOptions, OursRuntime] = {}


def bench_config() -> GPUConfig:
    """The simulator configuration all benchmarks use."""
    return V100_SCALED


def sweep_config() -> GPUConfig:
    """Faster configuration for dense parameter sweeps (Figs. 4/12):
    shorter cache traces — rates are stationary, so sweeps keep their
    shape at a fraction of the cost."""
    return V100_SCALED.replace(cache_trace_limit=400_000)


def cached_runtime(options: Optional[OursOptions] = None) -> OursRuntime:
    """Shared OursRuntime per option set.

    All runtimes resolve their offline analysis through
    :func:`~repro.core.pipeline.shared_schedule`, so a graph is
    MinHash-clustered once per process no matter how many ablation
    variants run on it.  When no explicit options are given, every
    lowered plan is statically verified under ``runtime().strict``
    (``REPRO_STRICT=1``); off by default so perf runs skip the overhead.
    """
    if options is None:
        options = OursOptions(verify_plans=runtime().strict)
    if options not in _RUNTIMES:
        _RUNTIMES[options] = OursRuntime(options)
    return _RUNTIMES[options]


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    col_width: int = 11,
) -> str:
    """Fixed-width text table (the benchmarks' output format)."""
    lines = [title, "-" * max(len(title), 8)]
    header = "".join(f"{c:>{col_width}s}" for c in columns)
    lines.append(header)
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append(f"{'OOM':>{col_width}s}")
            elif isinstance(v, float):
                cells.append(f"{v:{col_width}.3f}")
            else:
                cells.append(f"{str(v):>{col_width}s}")
        lines.append("".join(cells))
    return "\n".join(lines)


def write_result(name: str, text: str) -> str:
    """Persist a benchmark table under benchmarks/out/ and return text."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text
