"""The four workloads of the benchmark suite, one pass per process.

A child process runs exactly one *pass* of one workload::

    imports -> [tracer install] -> setup -> timed pass -> checks -> record

and prints the record as its last line of JSON.  ``run.py`` starts the
children in a pinned environment and aggregates their records; this
file is not meant to be run by hand, but can be::

    PYTHONPATH=src python benchmarks/suite/workloads.py \\
        '{"workload": "serve-hot", "seed": 0, "size": "smoke", "trace": true}'
    PYTHONPATH=src python benchmarks/suite/workloads.py --prepare

The serve-* inputs (sampled subgraphs, request draws) are derived from
the seed, so the same seed gives the same inputs.  The paper-* inputs
are the paper's fixed datasets and grids, run in the paper's order
whatever the seed: their result hashes are the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import sys
import time
from typing import Dict, List

#: When this child started running Python code: ``setup_s`` counts from
#: here, so it covers the imports but not the parent's process spawn.
T_START = time.perf_counter()

TENANTS = (("tenant-a", "dgl"), ("tenant-b", "ours"), ("tenant-c", "pyg"))

#: Work per pass.  ``full`` is what the benchmark measures; ``smoke`` is
#: a seconds-long version for tests (its paper-grid spec is the one
#: ``bench_speed.py --quick`` times, hash a52a3f53968f6bd5).
SIZES = {
    "full": {
        "paper-grid": {
            "models": ["gcn", "gat", "sage_lstm"],
            "datasets": ["reddit", "products"],
            "fig12_datasets": ["reddit"],
            "fig12_feats": [32, 64, 96, 128, 192, 256],
        },
        "paper-analysis": {
            "datasets": ["arxiv", "collab", "citation", "ddi", "protein",
                         "ppa", "reddit", "products"],
            "fig4_feats": list(range(16, 257, 16)),
        },
        "serve-hot": {"datasets": ["arxiv", "ddi"], "models": ["gcn", "gat"],
                      "pool_per_dataset": 4, "requests": 19200,
                      "window": 64},
        "serve-fresh": {"datasets": ["arxiv", "ddi"],
                        "models": ["gcn", "gat"], "requests": 200,
                        "recheck_every": 10},
    },
    "smoke": {
        "paper-grid": {
            "models": ["gcn", "gat"],
            "datasets": ["arxiv", "ddi"],
            "fig12_datasets": ["arxiv"],
            "fig12_feats": [32, 64],
        },
        "paper-analysis": {"datasets": ["arxiv", "ddi"],
                           "fig4_feats": [16, 32, 48, 64]},
        "serve-hot": {"datasets": ["arxiv", "ddi"], "models": ["gcn", "gat"],
                      "pool_per_dataset": 2, "requests": 640,
                      "window": 64},
        "serve-fresh": {"datasets": ["arxiv", "ddi"],
                        "models": ["gcn", "gat"], "requests": 12,
                        "recheck_every": 4},
    },
}


def result_hash(obj) -> str:
    """Content hash of simulated numbers (the ``bench_speed.py`` hash)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


def canon(obj):
    """JSON-stable form of an experiment result (string keys, lists)."""
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


class Pass:
    """What one timed pass produced.

    ``windows`` holds the client-side wall seconds of each serve window
    (serve-* only).  Every request of a window is sent at its start and
    answered at its end, so a request's latency is its window's time.
    """

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.windows: List[float] = []
        self.failed = 0
        self.errors: List[str] = []
        self.results: Dict[str, object] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


# ----------------------------------------------------------------------
# Workloads: ``run`` is the timed pass, ``check`` verifies it untimed.
# ``repro`` is reached through module attributes only, so every call
# goes through whatever binding the tracer installed.
# ----------------------------------------------------------------------

class PaperGrid:
    """Fig. 7 forward-pass grid plus the Fig. 12 tuned sweep, cold: the
    ``bench_speed.py`` workload, as one operation."""

    def __init__(self, spec, seed, repro) -> None:
        self.r, self.spec = repro, spec
        for name in set(spec["datasets"]) | set(spec["fig12_datasets"]):
            repro.datasets.load_dataset(name)

    def run(self) -> Pass:
        b, spec = self.r.bench, self.spec
        out = Pass(attempted=1)
        grid = b.fig7_overall(tuple(spec["models"]), spec["datasets"])
        sweep = b.fig12_tuned_sweep(
            spec["fig12_datasets"], spec["fig12_feats"], b.sweep_config()
        )
        # The results dict ``bench_speed.py`` hashes.
        out.results = {
            "fig7": {
                m: {f: {d: cell.time_ms for d, cell in row.items()}
                    for f, row in frameworks.items()}
                for m, frameworks in grid.items()
            },
            "fig12": {
                d: {str(f): round(v, 9) for f, v in series.items()}
                for d, series in sweep.items()
            },
        }
        return out

    def check(self, out: Pass) -> None:
        """The result hash is the whole check."""


class PaperAnalysis:
    """Every section 3 / 5.2 experiment on every dataset, cold."""

    def __init__(self, spec, seed, repro) -> None:
        for name in spec["datasets"]:
            repro.datasets.load_dataset(name)
        feats = spec["fig4_feats"]
        b = repro.bench

        def fig4(ds):
            return b.fig4_throughput_sweep(
                ds, feats, b.sweep_config(), tuned=False
            )

        self.experiments = {
            "fig3": b.fig3_l2_miss_rates,
            "table4": b.table4_occupancy,
            "table5": b.table5_expansion_transform,
            "fig4": fig4,
            "fig8": b.fig8_ng_balance,
            "fig9": b.fig9_l2_hit_rates,
            "fig10_gat": lambda ds: b.fig10_adapter("gat", ds),
            "fig10_gcn": lambda ds: b.fig10_adapter("gcn", ds),
            "fig11": b.fig11_sage_strategies,
            "table6": b.table6_gat_ablation,
        }
        self.ops = [
            (e, d) for e in self.experiments for d in spec["datasets"]
        ]

    def run(self) -> Pass:
        out = Pass(attempted=len(self.ops))
        for exp, d in self.ops:
            try:
                value = self.experiments[exp]([d])[d]
                out.results.setdefault(exp, {})[d] = canon(value)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                out.fail(f"{exp}/{d}: {exc!r}")
        return out

    def check(self, out: Pass) -> None:
        """The result hash is the whole check."""


class _Serve:
    """A closed loop of one client pushing ``self.trace`` through a
    ``PlanServer`` with :func:`repro.serve.replay`, one batching window
    at a time; the client times each window."""

    window = 1

    def run(self) -> Pass:
        out = Pass(attempted=len(self.trace))
        replay, clock = self.r.replay.replay, time.perf_counter
        for start in range(0, len(self.trace), self.window):
            requests = self.trace[start:start + self.window]
            t0 = clock()
            rows = replay(self.server, requests, window=self.window)
            out.windows.append(clock() - t0)
            for row in rows:
                if row["status"] != "ok":
                    out.fail(f"{row['request_id']}: {row['reason']}")
                else:
                    out.results[row["request_id"]] = (
                        row["time_ms"], row["num_kernels"]
                    )
        return out


class ServeHot(_Serve):
    """The ``repro serve replay`` traffic over a warm plan pool.

    The trace is :func:`repro.serve.synthetic_trace`: three tenants on
    dgl/ours/pyg draw at random from a pool of sampled shapes, and the
    server batches them in 64-request windows, as in ``bench_serve.py``.
    """

    def __init__(self, spec, seed, repro) -> None:
        r = self.r = repro
        self.window = spec["window"]
        sim = r.bench.bench_config()
        self.trace = r.replay.synthetic_trace(r.replay.TraceSpec(
            num_requests=spec["requests"],
            datasets=tuple(spec["datasets"]),
            models=tuple(spec["models"]),
            tenants=TENANTS,
            pool_per_dataset=spec["pool_per_dataset"],
            seed=seed,
        ))
        frameworks = r.frameworks.all_frameworks()
        self.server = r.server.PlanServer(frameworks=frameworks, sim=sim)
        # Warm pass: one sequential execute_one per distinct (shape,
        # model, framework) fills every cache and is the reference each
        # served reply must equal bit for bit.
        reference = {}
        self.expected = {}
        for req in self.trace:
            key = (id(req.graph), req.model, req.framework)
            if key not in reference:
                res = r.server.execute_one(
                    frameworks[req.framework], req.model, req.graph, sim
                )
                reference[key] = (res.time_ms, res.report.num_kernels)
            self.expected[req.request_id] = reference[key]

    def check(self, out: Pass) -> None:
        """Batched replies equal their sequential warm references."""
        for request_id, got in out.results.items():
            if got != self.expected[request_id]:
                out.fail(f"{request_id}: {got} != warm "
                         f"{self.expected[request_id]}")


class ServeFresh(_Serve):
    """One request per window; every request is a never-seen sampled
    subgraph, so every cache misses."""

    def __init__(self, spec, seed, repro) -> None:
        import numpy as np

        r = self.r = repro
        self.spec = spec
        self.sim = r.bench.bench_config()
        parents = [r.datasets.load_dataset(d) for d in spec["datasets"]]
        rng = np.random.default_rng(seed)
        Request = r.request.InferenceRequest
        self.trace = []
        for i in range(spec["requests"]):
            parent = parents[i % len(parents)]
            seeds = rng.choice(
                parent.num_nodes, size=min(256, parent.num_nodes),
                replace=False,
            )
            graph = r.sampling.khop_sampled_subgraph(
                parent, seeds, (10, 10), seed=seed * 1_000_003 + i
            ).graph
            tenant, fw = TENANTS[i % len(TENANTS)]
            model = spec["models"][(i // 6) % len(spec["models"])]
            self.trace.append(Request(
                model=model, graph=graph, framework=fw, tenant=tenant,
                request_id=f"fresh/{i}",
            ))
        self.server = r.server.PlanServer(
            frameworks=r.frameworks.all_frameworks(), sim=self.sim
        )

    def check(self, out: Pass) -> None:
        """Cold sequential recomputation of every k-th request.

        All caches are dropped and fresh framework instances compile
        from scratch, so a served result that a cache or the batcher
        got wrong cannot match.
        """
        r = self.r
        r.memo.clear_caches()
        frameworks = r.frameworks.all_frameworks()
        for req in self.trace[::self.spec["recheck_every"]]:
            res = r.server.execute_one(
                frameworks[req.framework], req.model, req.graph, self.sim
            )
            got = (res.time_ms, res.report.num_kernels)
            if out.results.get(req.request_id) != got:
                out.fail(f"{req.request_id}: served "
                         f"{out.results.get(req.request_id)} != cold {got}")


WORKLOADS = {
    "paper-grid": PaperGrid,
    "paper-analysis": PaperAnalysis,
    "serve-hot": ServeHot,
    "serve-fresh": ServeFresh,
}


# ----------------------------------------------------------------------
# Child entry points
# ----------------------------------------------------------------------

def _import_repro():
    """The ``repro`` modules the workloads call into, by short name."""
    import types

    names = {
        "bench": "repro.bench",
        "frameworks": "repro.frameworks",
        "memo": "repro.gpusim.memo",
        "datasets": "repro.graph.datasets",
        "sampling": "repro.graph.sampling",
        "perf": "repro.perf",
        "replay": "repro.serve.replay",
        "request": "repro.serve.request",
        "server": "repro.serve.server",
    }
    return types.SimpleNamespace(**{
        short: importlib.import_module(full) for short, full in names.items()
    })


def suite_module(name: str):
    """A sibling file of this one, imported as ``suite_<name>``.

    Loaded by path: ``trace`` is also the name of a standard-library
    module, which a plain import could return instead.
    """
    full = f"suite_{name}"
    if full not in sys.modules:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            f"{name}.py")
        spec = importlib.util.spec_from_file_location(full, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wall: float, perf, server) -> Dict[str, float]:
    """Per-layer metrics of one traced child (whole child: setup + pass).

    Each span reports its self seconds, its share of the traced wall
    ``wall`` and its call count; ``bench.*`` is the benchmark's own time.
    """
    spans = tracer.by_name()
    targets = suite_module("trace").LAYER_TARGETS
    self_s = {n: spans.get(n, {}).get("self_s", 0.0) for n in targets}
    self_s["bench.self"] = sum(
        spans.get(n, {}).get("self_s", 0.0)
        for n in ("bench", "bench.setup", "bench.pass")
    )
    out: Dict[str, float] = {"bench.traced_wall_s": wall}
    for name, seconds in self_s.items():
        out[f"{name}_s"] = seconds
        out[f"{name}_share"] = _ratio(seconds, wall)
    for name in targets:
        out[f"{name}.calls"] = spans.get(name, {}).get("calls", 0)
    out["core.tune_sims"] = tracer.calls_under("core.tune", "gpusim.kernel_sim")
    c = perf.counts
    hits = c.get("plan_cache_hit", 0) + c.get("plan_cache_disk_hit", 0)
    out["core.plans_compiled"] = perf.calls.get("plan_compile", 0)
    out["core.plan_cache_hit_rate"] = _ratio(
        hits, hits + c.get("plan_cache_miss", 0)
    )
    out["gpusim.kernels_simulated"] = c.get("kernel_memo_miss", 0)
    for tier, key in (("kernel_memo", "gpusim.kernel_memo_hit_rate"),
                      ("stream_cache", "gpusim.stream_cache_hit_rate"),
                      ("plan_memo", "gpusim.plan_memo_hit_rate")):
        out[key] = _ratio(c.get(f"{tier}_hit", 0),
                          c.get(f"{tier}_hit", 0) + c.get(f"{tier}_miss", 0))
    stats = server.stats() if server is not None else {}
    served = stats.get("served", 0)
    out["serve.batch_size_mean"] = _ratio(served, stats.get("batches", 0))
    out["serve.fanout_frac"] = _ratio(stats.get("fanned_out", 0), served)
    return out


def run_child(job: dict) -> dict:
    """One pass of ``job["workload"]``; returns the child's record."""
    repro = _import_repro()
    tracer = None
    if job["trace"]:
        trace = suite_module("trace")
        tracer = trace.Tracer()
        trace.install(tracer)
        tracer.start()
    t_root = time.perf_counter()
    spec = SIZES[job["size"]][job["workload"]]
    cls = WORKLOADS[job["workload"]]

    def phase(name):
        return contextlib.nullcontext() if tracer is None else tracer.span(name)

    with phase("bench.setup"):
        workload = cls(spec, job["seed"], repro)
    t_pass = time.perf_counter()
    with phase("bench.pass"):
        out = workload.run()
    t_end = time.perf_counter()
    record = {
        "setup_s": t_pass - T_START,
        "pass_s": t_end - t_pass,
        "root_s": tracer.stop() if tracer else t_end - t_root,
        "windows": out.windows,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, record["root_s"], repro.perf.PERF,
            getattr(workload, "server", None),
        )
        record["folded"] = tracer.folded()
    workload.check(out)
    record.update(
        attempted=out.attempted,
        failed=out.failed,
        errors=out.errors,
        result_hash=result_hash(out.results),
    )
    return record


def prepare() -> dict:
    """Untimed once-per-run step: build the native lane, compile the
    imported modules' bytecode, describe the configuration."""
    import dataclasses

    import numpy as np

    from repro.bench import bench_config, sweep_config
    from repro.gpusim import _native

    _import_repro()
    return {
        "native": _native.available(),
        "gpu_config": repr(dataclasses.astuple(bench_config())),
        "sweep_config": repr(dataclasses.astuple(sweep_config())),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def main(argv: List[str]) -> int:
    if argv == ["--prepare"]:
        print(json.dumps(prepare()))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_child(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
