"""Span tracer for the benchmark suite: layer self-times from outside.

The tracer wraps the public function at each layer boundary of the
``repro`` package and keeps one call tree in memory.  A node of the tree
is a span *path* (``bench;bench.pass;frameworks.compile;core.tune``) and
accumulates calls and self seconds: each span's duration minus the part
its child spans cover.  Self-times therefore sum to the
root span's wall time by construction, and a span is never counted
under two parents: each call is charged to the path it ran on.

Spans are folded into the tree as they close, so memory stays bounded
by the number of distinct paths, not the number of calls; the tree is
written out when the workload ends (:meth:`Tracer.folded`).

Wrapping is by identity.  ``from x import f`` copies the binding, so
replacing ``x.f`` alone would miss every importer: :func:`install`
scans every loaded ``repro.*`` module (and each class defined in one)
for bindings that *are* the target object and replaces each of them.
A target with no binding raises, so a renamed layer function fails the
benchmark instead of silently dropping out of the profile.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYER_TARGETS", "Node", "Tracer", "install"]

#: span name -> the functions it wraps, as ``module:attribute`` paths.
#: One entry per layer boundary; the span name's prefix is the layer (the
#: ``repro`` subpackage) whose self time it measures.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "graph.load": ("repro.graph.datasets:load_dataset",),
    "graph.sample": ("repro.graph.sampling:khop_sampled_subgraph",),
    "core.schedule": ("repro.core.scheduling:locality_aware_schedule",),
    "core.tune": ("repro.core.tuner:tune",),
    # Every entry point that lowers to KernelSpecs: the frameworks go
    # through lower_plan, the section 5.2 experiments call the two
    # kernel builders directly.
    "core.lower": ("repro.core.lowering:lower_plan",
                   "repro.core.lowering:aggregation_kernel",
                   "repro.core.sparse_fetch:lower_sage_lstm"),
    "core.plan_key": ("repro.core.plan:plan_key",),
    "frameworks.compile": ("repro.frameworks.base:Framework.compile",),
    "frameworks.execute": ("repro.frameworks.base:Framework.execute",),
    "gpusim.cache_model": ("repro.gpusim.executor:block_durations",),
    "gpusim.kernel_sim": ("repro.gpusim.executor:simulate_kernel",),
    "gpusim.digest": ("repro.gpusim.memo:array_digest",),
    "gpusim.plan_replay": ("repro.gpusim.executor:simulate_plan",),
    "serve.admit": ("repro.serve.admission:admit",),
    "serve.batch": ("repro.serve.batching:plan_batches",),
    "serve.flush": ("repro.serve.server:PlanServer.flush",),
}


class Node:
    """One span path of the call tree."""

    __slots__ = ("name", "children", "calls", "self_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: Dict[str, "Node"] = {}
        self.calls = 0
        self.self_s = 0.0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self, path: Tuple[str, ...] = ()) -> Iterator[
        Tuple[Tuple[str, ...], "Node"]
    ]:
        path = path + (self.name,)
        yield path, self
        for node in self.children.values():
            yield from node.walk(path)


class Tracer:
    """An in-memory span stack over one call tree rooted at ``bench``."""

    def __init__(self) -> None:
        self.root = Node("bench")
        # One frame per open span: [node, start time, seconds covered by
        # its closed child spans].
        self._stack: List[list] = []

    def _open(self, name: str) -> None:
        node = self._stack[-1][0].child(name)
        self._stack.append([node, time.perf_counter(), 0.0])

    def _close(self) -> float:
        node, t0, covered = self._stack.pop()
        dt = time.perf_counter() - t0
        node.calls += 1
        node.self_s += dt - covered
        if self._stack:
            self._stack[-1][2] += dt
        return dt

    def start(self) -> None:
        """Open the root span."""
        self._stack = [[self.root, time.perf_counter(), 0.0]]

    def stop(self) -> float:
        """Close the root span; returns its wall seconds."""
        if len(self._stack) != 1:
            open_spans = [frame[0].name for frame in self._stack]
            raise RuntimeError(f"unbalanced spans at stop: {open_spans}")
        return self._close()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. a phase)."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside the root span: not measured
                return fn(*args, **kwargs)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Span name -> {"self_s", "calls"} summed over every path."""
        out: Dict[str, Dict[str, float]] = {}
        for _, node in self.root.walk():
            entry = out.setdefault(node.name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += node.self_s
            entry["calls"] += node.calls
        return out

    def calls_under(self, ancestor: str, name: str) -> int:
        """Calls of ``name`` made while a span ``ancestor`` was open."""
        return sum(
            node.calls for path, node in self.root.walk()
            if path[-1] == name and ancestor in path[:-1]
        )

    def folded(self) -> List[str]:
        """Folded-stack lines (``a;b;c <self microseconds>``), one per
        path -- the input format of common flame-graph tools."""
        return [
            f"{';'.join(path)} {round(node.self_s * 1e6)}"
            for path, node in self.root.walk()
            if node.calls
        ]


def _resolve(path: str):
    module, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"trace target {path}: {exc}") from exc
    return obj


def _bindings(target) -> List[Tuple[object, str]]:
    """Every ``(namespace, name)`` binding of ``target`` in a loaded
    ``repro`` module or in a class one of them defines."""
    found = []
    seen_classes = set()
    for modname, module in list(sys.modules.items()):
        if module is None or not (
            modname == "repro" or modname.startswith("repro.")
        ):
            continue
        for key, value in list(vars(module).items()):
            if value is target:
                found.append((module, key))
            elif isinstance(value, type) and id(value) not in seen_classes:
                if not getattr(value, "__module__", "").startswith("repro"):
                    continue
                seen_classes.add(id(value))
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is target:
                        found.append((value, ckey))
    return found


def install(
    tracer: Tracer, targets: Optional[Dict[str, Tuple[str, ...]]] = None
) -> None:
    """Wrap every binding of every target in a span of ``tracer``.

    Raises ``LookupError`` when a target is missing or resolves to an
    object with no binding at all (it cannot be measured, so it must not
    be reported as zero).
    """
    targets = LAYER_TARGETS if targets is None else targets
    for name, paths in targets.items():
        for path in paths:
            target = _resolve(path)
            sites = _bindings(target)
            if not sites:
                raise LookupError(
                    f"trace target {path} ({name}) has no binding in any "
                    f"loaded repro module"
                )
            wrapper = tracer.wrap(name, target)
            for namespace, key in sites:
                setattr(namespace, key, wrapper)
