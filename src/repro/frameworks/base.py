"""Framework interface: staged compilation + plan execution.

A *framework* here is an execution strategy: how GNN layers lower to
kernels and device allocations.  All frameworks share the functional
operators (outputs are numerically identical where supported — the
paper's "semantics unchanged" property, enforced by tests) and the same
simulator cost model; they differ exactly in the strategies the paper
analyzes: task granularity, kernel decomposition, expansion vs. fused
access, and memory behaviour.

Since the compile-once/run-many refactor, every framework is split into
two halves:

* ``compile_<model>(graph, model, sim) -> CompiledPlan`` — the staged
  pipeline (``trace -> schedule -> group -> adapt -> lower -> tune``)
  producing a frozen, content-addressed plan artifact;
* ``execute(plan, ...) -> ForwardResult`` — run a plan through the
  simulator (and optionally the functional reference operators).

The generic ``run_*`` entry points are provided here: they resolve the
plan through the process-wide content-addressed plan cache
(:data:`repro.core.plan.PLAN_CACHE`, with an optional on-disk tier), so
executing the same (graph, model, config) twice runs the plan-stage
pipeline exactly once.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Dict, Optional

import numpy as np

from ..core.pipeline import PlanBuilder
from ..core.plan import PLAN_CACHE, CompiledPlan, plan_key
from ..core.sparse_fetch import SageStrategy
from ..gpusim.config import GPUConfig
from ..gpusim.executor import simulate_plan
from ..gpusim.metrics import RunReport
from ..graph.csr import CSRGraph
from ..models.gat import GATConfig, gat_reference_forward
from ..models.gcn import GCNConfig, gcn_reference_forward
from ..models.sage_lstm import SageLSTMConfig, sage_lstm_reference_forward
from ..perf import PERF

__all__ = [
    "Framework",
    "ForwardResult",
    "NotSupported",
    "MODEL_CONFIGS",
    "make_features",
    "record_plan",
    "BASELINE_DISPATCH",
    "FUSED_DISPATCH",
]

#: Per-operator host dispatch cost in the baseline frameworks: every
#: computation-graph op goes through Python bindings + the framework
#: scheduler before its kernel launches (Observation 3's "intensive
#: function calls with large overhead of kernel launch and framework
#: scheduling").  25 us is a typical DGL/PyG-on-PyTorch figure.
BASELINE_DISPATCH = 25e-6

#: All frameworks (ours included — it is wrapped in PyTorch, §5) pay the
#: same per-op dispatch; fused runtimes win by launching fewer ops.
FUSED_DISPATCH = BASELINE_DISPATCH


class NotSupported(NotImplementedError):
    """The framework does not implement this model (the paper's '×')."""


@dataclasses.dataclass
class ForwardResult:
    """Simulated performance report plus (optionally) the real output."""

    report: RunReport
    output: Optional[np.ndarray] = None

    @property
    def time_ms(self) -> float:
        return self.report.total_time_ms


def make_features(
    graph: CSRGraph, feat_len: int, seed: int = 0
) -> np.ndarray:
    """Seeded input features shared across frameworks for comparisons."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((graph.num_nodes, feat_len)).astype(
        np.float32
    )


#: Model name -> its config dataclass (whose defaults a ``None`` config
#: means).
MODEL_CONFIGS = {
    "gcn": GCNConfig,
    "gat": GATConfig,
    "sage_lstm": SageLSTMConfig,
}


def record_plan(
    report: RunReport, plan: CompiledPlan, execute_seconds: float
) -> Dict[str, object]:
    """Attach ``plan``'s side data and ``perf["plan"]`` entry to a report.

    Returns the ``perf["plan"]`` dict so callers can annotate it (cache
    hit, batch size, fan-out).
    """
    for key, value in plan.extra.items():
        report.extra.setdefault(key, value)
    perf = report.extra.setdefault("perf", {})
    opt = plan.extra.get("optimize")
    if isinstance(opt, dict):
        perf["optimize"] = dict(opt)
    perf["plan"] = {
        "plan_id": plan.plan_id,
        "compile_seconds": plan.compile_seconds,
        "stage_seconds": dict(plan.stage_seconds),
        "execute_seconds": execute_seconds,
    }
    return perf["plan"]


class Framework(abc.ABC):
    """Abstract execution strategy: compile to a plan, execute the plan."""

    name: str = "abstract"
    #: Host-side per-operator dispatch overhead, seconds.
    dispatch_overhead: float = BASELINE_DISPATCH

    # ------------------------------------------------------------------
    # Compilation (the staged pipeline; one per supported model)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def compile_gcn(
        self, graph: CSRGraph, model: GCNConfig, sim: GPUConfig
    ) -> CompiledPlan:
        """Compile one forward pass of the stacked GCN into a plan.

        Raises :class:`~repro.gpusim.memory.SimulatedOOM` when the
        strategy's footprint exceeds the simulated device memory, and
        :class:`NotSupported` when the framework lacks the model.
        """

    @abc.abstractmethod
    def compile_gat(
        self, graph: CSRGraph, model: GATConfig, sim: GPUConfig
    ) -> CompiledPlan:
        """Compile one forward pass of the stacked GAT into a plan."""

    @abc.abstractmethod
    def compile_sage_lstm(
        self, graph: CSRGraph, model: SageLSTMConfig, sim: GPUConfig
    ) -> CompiledPlan:
        """Compile one forward pass of GraphSAGE-LSTM into a plan."""

    # ------------------------------------------------------------------
    # Plan-cache plumbing
    # ------------------------------------------------------------------
    def plan_options(self) -> Dict[str, object]:
        """Framework options that enter the plan's content address."""
        return {}

    def builder(
        self, model_name: str, graph: CSRGraph, model, sim: GPUConfig
    ) -> PlanBuilder:
        """A stage-attributing builder for one compilation of ``model``."""
        return PlanBuilder(
            self.name, model_name, graph, sim,
            model_config=model,
            options=self.plan_options(),
            dispatch_overhead=self.dispatch_overhead,
            label=f"{self.name}:{model_name}:{graph.name}",
        )

    def plan_signature(
        self,
        model_name: str,
        graph: CSRGraph,
        sim: GPUConfig,
        model=None,
        shard_options: Optional[Dict[str, object]] = None,
    ):
        """The content address :meth:`compile` resolves — no compiling.

        Returns ``(key, model)``.  The serve layer's batcher
        groups requests by this key: two requests with the same
        signature share one compilation and one simulated execution.
        Sharded compilation folds the partitioning blob
        (method/parts/part/shard fingerprint) into the options only
        when present, so every single-device plan id stays put while
        per-partition plans get their own content addresses.
        """
        if model_name not in MODEL_CONFIGS:
            raise KeyError(f"unknown model {model_name!r}")
        if model is None:
            model = MODEL_CONFIGS[model_name]()
        options = self.plan_options()
        if shard_options:
            options = {**options, "shard": dict(shard_options)}
        key = plan_key(
            self.name, model_name, graph,
            model_config=model,
            options=options,
            gpu_config=sim,
            dispatch_overhead=self.dispatch_overhead,
        )
        return key, model

    def compile(
        self,
        model_name: str,
        graph: CSRGraph,
        sim: GPUConfig,
        model=None,
        shard_options: Optional[Dict[str, object]] = None,
        signature=None,
    ) -> CompiledPlan:
        """Resolve a plan for (model, graph, sim): cache hit or compile.

        The content address is computed from the compilation inputs, so
        a hit skips the staged pipeline entirely — the compile-once half
        of the compile-once/run-many contract.  A caller that already
        holds this compilation's :meth:`plan_signature` result (the
        serve batcher computes one per request) passes it as
        ``signature`` to skip recomputing the content address.
        """
        if signature is not None:
            key, model = signature
        else:
            key, model = self.plan_signature(
                model_name, graph, sim, model=model,
                shard_options=shard_options,
            )
        cached = PLAN_CACHE.get(key)
        if cached is not None:
            return cached
        compile_fn = getattr(self, f"compile_{model_name}")
        with PERF.stage("plan_compile"):
            plan = compile_fn(graph, model, sim)
        if shard_options and plan.plan_id != key:
            # The builder addresses the plan from its own options blob,
            # which never sees the partitioning metadata: fold it in so
            # sharded and monolithic compilations of byte-identical
            # graphs never share a content address.
            plan = dataclasses.replace(plan, plan_id=key)
        PLAN_CACHE.put(plan)
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: CompiledPlan,
        sim: Optional[GPUConfig] = None,
        *,
        graph: Optional[CSRGraph] = None,
        model=None,
        compute: bool = False,
        feat: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> ForwardResult:
        """Run a compiled plan: simulate its kernels (replayed from the
        plan's own stats after its first run) and, when ``compute`` is
        set, evaluate the functional reference operators for the real
        output."""
        t0 = time.perf_counter()
        with PERF.stage("plan_execute"):
            report = simulate_plan(plan, sim)
        record_plan(report, plan, time.perf_counter() - t0)
        output = None
        if compute:
            if graph is None:
                raise ValueError("compute=True requires the graph")
            if model is None:
                model = MODEL_CONFIGS[plan.model]()
            output = self.reference_output(
                plan.model, graph, model, feat=feat, seed=seed
            )
        return ForwardResult(report, output)

    # ------------------------------------------------------------------
    # Functional reference semantics (shared; PyG overrides with its
    # gather/scatter composition, Ours overrides the SAGE strategy)
    # ------------------------------------------------------------------
    def sage_strategy(self) -> SageStrategy:
        return SageStrategy.BASE

    def reference_output(
        self,
        model_name: str,
        graph: CSRGraph,
        model,
        *,
        feat: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> np.ndarray:
        if model_name == "gcn":
            feat = feat if feat is not None else make_features(
                graph, model.dims[0], seed
            )
            return gcn_reference_forward(graph, feat, model.params(seed))
        if model_name == "gat":
            feat = feat if feat is not None else make_features(
                graph, model.dims[0], seed
            )
            return gat_reference_forward(
                graph, feat, model.params(seed), model.negative_slope
            )
        if model_name == "sage_lstm":
            feat = feat if feat is not None else make_features(
                graph, model.f_in, seed
            )
            return sage_lstm_reference_forward(
                graph, feat, model.params(seed), model,
                strategy=self.sage_strategy(),
            )
        raise KeyError(f"unknown model {model_name!r}")

    # ------------------------------------------------------------------
    # Generic run = one request through the serving pipeline
    # ------------------------------------------------------------------
    def _run(
        self, model_name: str, graph: CSRGraph, model, sim: GPUConfig,
        *, compute: bool, feat, seed: int,
    ) -> ForwardResult:
        # The run path *is* the single-request case of the serving
        # pipeline (admission -> plan resolution -> execution -> report);
        # routing it through repro.serve keeps one implementation of
        # plan-cache bookkeeping for interactive runs and PlanServer
        # batches alike.  Imported lazily: serve depends on this module.
        from ..serve import execute_one

        return execute_one(
            self, model_name, graph, sim, model=model,
            compute=compute, feat=feat, seed=seed,
        )

    def run_gcn(self, graph, model: GCNConfig, sim: GPUConfig, *,
                compute=False, feat=None, seed=0) -> ForwardResult:
        """One forward pass of the stacked GCN (compile-or-load + run)."""
        return self._run("gcn", graph, model, sim,
                         compute=compute, feat=feat, seed=seed)

    def run_gat(self, graph, model: GATConfig, sim: GPUConfig, *,
                compute=False, feat=None, seed=0) -> ForwardResult:
        """One forward pass of the stacked GAT."""
        return self._run("gat", graph, model, sim,
                         compute=compute, feat=feat, seed=seed)

    def run_sage_lstm(self, graph, model: SageLSTMConfig, sim: GPUConfig, *,
                      compute=False, feat=None, seed=0) -> ForwardResult:
        """One forward pass of GraphSAGE-LSTM."""
        return self._run("sage_lstm", graph, model, sim,
                         compute=compute, feat=feat, seed=seed)

    def run_model(
        self, model_name: str, graph: CSRGraph, sim: GPUConfig, **kwargs
    ) -> ForwardResult:
        """Dispatch by model name ('gcn', 'gat', 'sage_lstm')."""
        if model_name == "gcn":
            return self.run_gcn(graph, GCNConfig(), sim, **kwargs)
        if model_name == "gat":
            return self.run_gat(graph, GATConfig(), sim, **kwargs)
        if model_name == "sage_lstm":
            return self.run_sage_lstm(graph, SageLSTMConfig(), sim, **kwargs)
        raise KeyError(f"unknown model {model_name!r}")
