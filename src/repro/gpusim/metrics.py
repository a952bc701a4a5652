"""Measurement containers produced by the executor.

:class:`KernelStats` is the simulator's analogue of one nvprof kernel
record: duration, traffic split by where it was served (L2 hit vs DRAM),
the feature-row hit rate (the paper's Fig. 3 / Fig. 9 metric), and the
active-block timeline summaries (Table 4, Fig. 8).

:class:`RunReport` aggregates the kernels of one model forward pass.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..perf import runtime
from . import _native

__all__ = ["KernelStats", "ReadOnlyDict", "RunReport", "occupancy_below"]


def occupancy_below(
    starts: np.ndarray,
    ends: np.ndarray,
    max_active: int,
    fractions: Tuple[float, ...] = (1.0, 0.5, 0.1),
    *,
    sorted_ends: Optional[np.ndarray] = None,
) -> Dict[float, float]:
    """Fraction of kernel time with active blocks < fraction * max_active.

    Computed from the block start/end events of the schedule — exactly the
    quantity Table 4 reports from profiling counters.  A caller that
    already holds ``np.sort(ends)`` (the native list scheduler does)
    passes it as ``sorted_ends`` to spare the native merge its sort.
    """
    if starts.size == 0:
        return {f: 0.0 for f in fractions}
    merged = None
    if runtime().fastpath and _native.available():
        merged = _native.occupancy_merge(starts, ends, sorted_ends)
    if merged is not None:
        span, active = merged
    else:
        times = np.concatenate([starts, ends])
        deltas = np.concatenate(
            [np.ones(starts.size, np.int64), -np.ones(ends.size, np.int64)]
        )
        order = np.argsort(times, kind="stable")
        times, deltas = times[order], deltas[order]
        active = np.cumsum(deltas)
        span = np.diff(times, append=times[-1])
    total = float(span.sum())
    if total <= 0.0:
        return {f: 0.0 for f in fractions}
    out = {}
    for frac in fractions:
        thresh = frac * max_active
        below = float(span[active < thresh].sum())
        out[frac] = below / total
    return out


class ReadOnlyDict(dict):
    """A ``dict`` whose mutators raise ``TypeError`` (it still pickles
    and JSON-encodes as a dict)."""

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclasses.dataclass(frozen=True)
class KernelStats:
    """Per-kernel measurements from one simulated launch.  Frozen, with a
    read-only ``occupancy``, so every holder shares one and none copies."""

    name: str
    tag: str
    makespan: float          # on-device busy span, seconds
    launch_overhead: float   # host launch cost charged to this kernel
    flops: float
    bytes_dram: float        # traffic served from DRAM (misses + streams)
    bytes_l2: float          # traffic served from L2 (row hits)
    row_accesses: int        # cacheable feature-row reads issued
    row_hits: int
    num_blocks: int
    balanced_time: float     # sum(block durations) / slot count  (Fig. 8)
    occupancy: Mapping[float, float]  # fraction of time below 100/50/10%

    def __post_init__(self) -> None:
        occ = self.occupancy
        if type(occ) is not ReadOnlyDict:
            object.__setattr__(self, "occupancy", ReadOnlyDict(occ))

    @property
    def time(self) -> float:
        return self.makespan + self.launch_overhead

    @property
    def l2_hit_rate(self) -> float:
        return self.row_hits / self.row_accesses if self.row_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return 1.0 - self.l2_hit_rate

    @property
    def gflops(self) -> float:
        return self.flops / self.time / 1e9 if self.time > 0 else 0.0


@dataclasses.dataclass
class RunReport:
    """All kernels of one forward pass plus bookkeeping."""

    kernels: List[KernelStats] = dataclasses.field(default_factory=list)
    peak_mem_bytes: int = 0
    label: str = ""
    #: Free-form side data attached by lowerings (e.g. SAGE-LSTM phase
    #: attribution for Table 5, tuning traces).
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: A replay's ``total_time``, carried from its source; ``add`` and
    #: ``extend`` drop it.  Not a field: ``==`` and ``asdict`` ignore it.
    _total = None

    @classmethod
    def replay(cls, kernels, label: str = "", peak_mem_bytes: int = 0,
               total_time: Optional[float] = None) -> "RunReport":
        """A report with its own list of already-simulated ``kernels``.

        The stats are frozen, so sharing them with a plan, a batch leader
        or the kernel memo cannot leak a write back to the source, whose
        ``total_time`` the report carries when given.
        """
        report = cls(kernels=list(kernels), peak_mem_bytes=peak_mem_bytes,
                     label=label)
        report._total = total_time
        return report

    def add(self, stats: KernelStats) -> None:
        self._total = None
        self.kernels.append(stats)

    def extend(self, other: "RunReport") -> None:
        self._total = None
        self.kernels.extend(other.kernels)
        self.peak_mem_bytes = max(self.peak_mem_bytes, other.peak_mem_bytes)

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        if self._total is not None:
            return self._total
        return sum(k.time for k in self.kernels)

    @property
    def total_time_ms(self) -> float:
        return self.total_time * 1e3

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def total_flops(self) -> float:
        return sum(k.flops for k in self.kernels)

    @property
    def total_launch_overhead(self) -> float:
        return sum(k.launch_overhead for k in self.kernels)

    @property
    def bytes_dram(self) -> float:
        return sum(k.bytes_dram for k in self.kernels)

    @property
    def bytes_l2(self) -> float:
        return sum(k.bytes_l2 for k in self.kernels)

    @property
    def gflops(self) -> float:
        t = self.total_time
        return self.total_flops / t / 1e9 if t > 0 else 0.0

    def l2_hit_rate(self, name_filter: str | None = None) -> float:
        """Row-access-weighted L2 hit rate over (filtered) kernels."""
        ks = [
            k
            for k in self.kernels
            if name_filter is None or name_filter in k.name
        ]
        acc = sum(k.row_accesses for k in ks)
        hit = sum(k.row_hits for k in ks)
        return hit / acc if acc else 0.0

    def occupancy_below(self, fraction: float) -> float:
        """Makespan-weighted fraction of time under the occupancy bar."""
        total = sum(k.makespan for k in self.kernels)
        if total <= 0:
            return 0.0
        acc = sum(
            k.occupancy.get(fraction, 0.0) * k.makespan for k in self.kernels
        )
        return acc / total

    def by_name(self, substring: str) -> List[KernelStats]:
        return [k for k in self.kernels if substring in k.name]

    def time_of(self, substring: str) -> float:
        return sum(k.time for k in self.by_name(substring))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunReport(label={self.label!r}, kernels={self.num_kernels}, "
            f"time={self.total_time_ms:.3f}ms, gflops={self.gflops:.1f})"
        )
