"""Lightweight performance instrumentation for the simulator itself.

The paper's thesis is that GNN runtimes lose their time to
interpreter-granularity work; this package is the reproduction's guard
against the same disease one level up.  It provides:

* :data:`PERF` — a process-wide registry of stage timers (cache-model
  seconds, schedule seconds, ...) and counters (memo hits/misses).  The
  executor reports a per-:class:`~repro.gpusim.metrics.RunReport` delta
  under ``report.extra["perf"]``.
* :class:`RuntimeConfig` — the package's one runtime configuration:
  the native lane, the vectorized fast paths, the memo tiers, strict
  checking and the plan cache's disk directory.  :func:`runtime` reads
  it (resolved from the ``REPRO_*`` environment on first use) and
  :func:`override` changes it for a block.  Every fast path keeps its
  reference implementation and every axis preserves the simulated
  numbers; ``tests/test_invariants.py`` asserts that across one grid.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from typing import Dict, Iterator, Mapping, Optional

from .latency import LatencyHistogram, percentile

__all__ = [
    "PerfRegistry",
    "PERF",
    "RuntimeConfig",
    "runtime",
    "override",
    "LatencyHistogram",
    "percentile",
]


def _flag(environ: Mapping[str, str], name: str, default: bool) -> bool:
    """``0``/``false``/``no``/``off`` (any case) and the empty string
    mean off; any other value means on; unset means ``default``."""
    raw = environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """How the package runs.  No field changes a simulated number.

    * ``native`` — use the compiled C kernels when a C compiler is
      present (``REPRO_NATIVE``, default on);
    * ``fastpath`` — vectorized paths instead of the reference loops;
    * ``memo`` — the content-addressed memo tiers and the plan cache;
    * ``strict`` — deep-validate every ``KernelSpec``, statically
      verify every plan the benchmark runtimes lower and check every
      recipe-keyed kernel-memo hit against the arrays' content
      (``REPRO_STRICT``, default off);
    * ``plan_cache_dir`` — the plan cache's disk tier, off when None
      (``REPRO_PLAN_CACHE_DIR``).
    """

    native: bool = True
    fastpath: bool = True
    memo: bool = True
    strict: bool = False
    plan_cache_dir: Optional[str] = None

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "RuntimeConfig":
        """The configuration the ``REPRO_*`` variables select; the one
        place the package reads them."""
        env = os.environ if environ is None else environ
        return cls(
            native=_flag(env, "REPRO_NATIVE", True),
            strict=_flag(env, "REPRO_STRICT", False),
            plan_cache_dir=env.get("REPRO_PLAN_CACHE_DIR") or None,
        )


#: The current configuration; resolved by the first :func:`runtime` call.
#: A plain module global: the package starts no threads.
_RUNTIME: Optional[RuntimeConfig] = None


def runtime() -> RuntimeConfig:
    """The current configuration (from the environment on first use)."""
    global _RUNTIME
    if _RUNTIME is None:
        _RUNTIME = RuntimeConfig.from_env()
    return _RUNTIME


@contextlib.contextmanager
def override(**fields: object) -> Iterator[RuntimeConfig]:
    """Run a block under :func:`runtime` with ``fields`` replaced;
    the previous configuration comes back on exit."""
    global _RUNTIME
    previous = runtime()
    _RUNTIME = dataclasses.replace(previous, **fields)
    try:
        yield _RUNTIME
    finally:
        _RUNTIME = previous


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
