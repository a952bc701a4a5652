"""Lightweight performance instrumentation for the simulator itself.

The paper's thesis is that GNN runtimes lose their time to
interpreter-granularity work; this package is the reproduction's guard
against the same disease one level up.  It provides:

* :data:`PERF` — a process-wide registry of stage timers (cache-model
  seconds, schedule seconds, ...) and counters (memo hits/misses).  The
  executor reports a per-:class:`~repro.gpusim.metrics.RunReport` delta
  under ``report.extra["perf"]``.
* fast-path / memoization switches — every vectorized hot path keeps its
  reference implementation; :func:`configure` selects between them (both
  on by default), and the equivalence tests assert both modes are
  bit-identical.
* :func:`env_flag` — the one parser for the package's boolean
  ``REPRO_*`` environment switches.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, Optional

from .latency import LatencyHistogram, percentile

__all__ = [
    "PerfRegistry",
    "PERF",
    "configure",
    "env_flag",
    "fastpath_enabled",
    "memo_enabled",
    "LatencyHistogram",
    "percentile",
]


def env_flag(name: str, default: bool) -> bool:
    """A boolean environment switch; unset means ``default``.

    ``0``/``false``/``no``/``off`` (any case) and the empty string mean
    off; any other value means on.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


#: Module state for the switches; both on unless :func:`configure`d off.
_FASTPATH = True
_MEMO = True


def fastpath_enabled() -> bool:
    """Whether vectorized fast paths replace reference implementations."""
    return _FASTPATH


def memo_enabled() -> bool:
    """Whether content-addressed kernel/stream memoization is active."""
    return _MEMO


def configure(
    fastpath: Optional[bool] = None,
    memo: Optional[bool] = None,
) -> None:
    """Override the performance switches at runtime.

    ``None`` leaves a switch unchanged.
    """
    global _FASTPATH, _MEMO
    if fastpath is not None:
        _FASTPATH = bool(fastpath)
    if memo is not None:
        _MEMO = bool(memo)


class PerfRegistry:
    """Accumulating stage timers and event counters.

    Cheap enough to stay always-on: one ``perf_counter`` pair per stage
    entry and dictionary adds.  ``snapshot``/``delta_since`` let callers
    attribute costs to a region (e.g. one ``simulate_kernels`` run).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time a block of work under ``name`` (re-entrant, accumulating)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds[name] = self.seconds.get(name, 0.0) + dt
            self.calls[name] = self.calls.get(name, 0) + 1

    def add_seconds(self, name: str, dt: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def delta_since(
        self, snap: Dict[str, Dict[str, float]]
    ) -> Dict[str, Dict[str, float]]:
        """Difference between now and an earlier :meth:`snapshot`."""
        out: Dict[str, Dict[str, float]] = {}
        for section, current in (
            ("seconds", self.seconds),
            ("calls", self.calls),
            ("counts", self.counts),
        ):
            base = snap.get(section, {})
            delta = {
                k: v - base.get(k, 0)
                for k, v in current.items()
                if v != base.get(k, 0)
            }
            out[section] = delta
        return out

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counts.clear()

    # ------------------------------------------------------------------
    def memo_hit_rate(self, kind: str = "kernel_memo") -> float:
        """Hit rate of a memo tier from its ``*_hit``/``*_miss`` counters."""
        hits = self.counts.get(f"{kind}_hit", 0)
        misses = self.counts.get(f"{kind}_miss", 0)
        total = hits + misses
        return hits / total if total else 0.0


#: The process-wide registry.
PERF = PerfRegistry()
