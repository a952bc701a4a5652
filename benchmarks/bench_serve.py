#!/usr/bin/env python
"""Serving-path benchmark: replay a multi-tenant trace through PlanServer.

Replays a deterministic mixed-tenant trace (sampled-subgraph requests
across >= 3 tenants on different frameworks, see
``repro.serve.TraceSpec``) twice, in separate subprocesses:

* ``sequential`` — every request runs on its own through
  ``execute_one`` (the unbatched run path every ``run_*`` entry point
  uses): the live baseline;
* ``batched`` — the same trace through ``PlanServer`` with
  compatibility batching.

Both modes must produce *identical simulated results* — a content hash
over every request's simulated latency and kernel count is compared —
so the serving layer's throughput win is attributable to batching and
caching alone, never to changed answers.  Each invocation appends one
record (workload ``serve-quick`` / ``serve-full``) to
``BENCH_speed.json`` at the repo root, alongside the simulator's own
perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--check]

``--quick`` shrinks the trace (200 requests) for CI smoke runs; the
full trace serves 1000 requests across 3 tenants.  ``--check`` is the
CI perf gate and reuses the two-signal rule from ``bench_speed.py``:
fail only when *both* the batched wall-clock and the
sequential/batched speedup ratio regress more than ``--tolerance``
(default 20%) against the median comparable prior record (same
workload and result hash).  The ratio
is measured within one invocation, so machine-wide slow phases cancel
out of it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_speed.json")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_speed import _load_trajectory, gate_verdict  # noqa: E402

FULL = {
    "num_requests": 1000,
    "datasets": ["arxiv", "ddi"],
    "models": ["gcn", "gat"],
    "pool_per_dataset": 4,
    "window": 64,
    "seed": 0,
}
QUICK = {
    "num_requests": 200,
    "datasets": ["arxiv", "ddi"],
    "models": ["gcn", "gat"],
    "pool_per_dataset": 3,
    "window": 64,
    "seed": 0,
}

#: The multi-tenant axis: who asks, and which execution strategy
#: serves them.  Three tenants on three frameworks, per the trace spec.
TENANTS = (
    ("tenant-a", "dgl"),
    ("tenant-b", "ours"),
    ("tenant-c", "pyg"),
)


def _result_hash(obj) -> str:
    """Stable content hash of the simulated numbers (not wall-clock)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


# ----------------------------------------------------------------------
# Worker (runs once per mode, in a fresh process)
# ----------------------------------------------------------------------

def _trace(spec):
    from repro.serve import TraceSpec, synthetic_trace

    ts = TraceSpec(
        num_requests=spec["num_requests"],
        datasets=tuple(spec["datasets"]),
        models=tuple(spec["models"]),
        tenants=TENANTS,
        pool_per_dataset=spec["pool_per_dataset"],
        seed=spec["seed"],
    )
    return ts, synthetic_trace(ts)


def run_workload(spec, mode: str) -> dict:
    from repro.bench import bench_config
    from repro.frameworks import all_frameworks
    from repro.perf import PERF
    from repro.serve import PlanServer, execute_one, replay

    ts, trace = _trace(spec)
    sim = bench_config()
    frameworks = all_frameworks()

    t0 = time.perf_counter()
    if mode == "sequential":
        # The unbatched baseline: each request runs exactly the way a
        # run_* entry point would run it, one at a time.
        summaries = []
        for req in trace:
            res = execute_one(
                frameworks[req.framework_name()], req.model, req.graph,
                sim, model=req.model_config, compute=req.compute,
                feat=req.feat, seed=req.seed,
            )
            summaries.append({
                "request_id": req.request_id,
                "time_ms": res.time_ms,
                "num_kernels": res.report.num_kernels,
            })
        stats = {}
    else:
        server = PlanServer(frameworks=frameworks, sim=sim)
        rows = replay(server, trace, window=spec["window"])
        summaries = [
            {
                "request_id": r["request_id"],
                "time_ms": r["time_ms"],
                "num_kernels": r["num_kernels"],
            }
            for r in rows
        ]
        stats = server.stats()
    seconds = time.perf_counter() - t0

    # Test hook for the --check gate (mirrors bench_speed.py): scale
    # the batched wall-clock as if the serving layer had slowed down.
    # The simulated numbers, and hence the result hash, are untouched;
    # sequential timings stay honest so the ratio signal drops too.
    inject = float(os.environ.get("REPRO_BENCH_INJECT_SLOWDOWN", "0"))
    if inject and mode == "batched":
        seconds *= 1.0 + inject

    out = {
        "seconds": round(seconds, 3),
        "requests": len(summaries),
        "rps": round(len(summaries) / max(seconds, 1e-9), 2),
        "result_hash": _result_hash(summaries),
        "plan_seconds": round(PERF.seconds.get("plan_compile", 0.0), 3),
        "run_seconds": round(PERF.seconds.get("plan_execute", 0.0), 3),
    }
    if stats:
        lat = stats["latency"]
        out.update(
            p50_ms=round(lat["p50"] * 1e3, 3),
            p95_ms=round(lat["p95"] * 1e3, 3),
            p99_ms=round(lat["p99"] * 1e3, 3),
            tenants=len(stats["tenants"]),
            batches=stats["batches"],
            max_batch=stats["max_batch"],
            batch_dedup_rate=stats["batch_dedup_rate"],
            plan_cache_hit_rate=stats["plan_cache_hit_rate"],
            plan_cache=stats["plan_cache"],
        )
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def _run_mode(mode: str, quick: bool, repeats: int = 1) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(ROOT, "src"), env.get("PYTHONPATH")] if p
    )
    env.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
    env.setdefault("MALLOC_TRIM_THRESHOLD_", "1073741824")
    args = [sys.executable, os.path.abspath(__file__), "--worker", mode]
    if quick:
        args.append("--quick")

    def one_run() -> dict:
        proc = subprocess.run(
            args, env=env, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{mode} worker failed ({proc.returncode})")
        return json.loads(proc.stdout.splitlines()[-1])

    if repeats <= 1:
        return one_run()
    one_run()  # warmup: page caches, imports, dataset construction
    runs = [one_run() for _ in range(repeats)]
    hashes = {r["result_hash"] for r in runs}
    if len(hashes) != 1:
        raise SystemExit(
            f"FAIL: {mode} result hash unstable across repeats: {hashes}"
        )
    runs.sort(key=lambda r: r["seconds"])
    median = runs[len(runs) // 2]
    median["seconds_runs"] = [r["seconds"] for r in runs]
    return median


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small trace (200 requests) for CI smoke runs")
    ap.add_argument("--check", action="store_true",
                    help="CI perf gate: replay the quick trace in both "
                         "modes and fail when BOTH the batched seconds "
                         "and the sequential/batched speedup regress "
                         "beyond --tolerance vs the median comparable "
                         "prior record (implies --quick; does not "
                         "append a record)")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional regression for --check "
                         "(default 0.20)")
    ap.add_argument("--worker", choices=["sequential", "batched"],
                    help=argparse.SUPPRESS)
    ap.add_argument("--output", default=TRAJECTORY,
                    help="trajectory JSON file to append to")
    ns = ap.parse_args()

    if ns.worker:
        spec = QUICK if ns.quick else FULL
        print(json.dumps(run_workload(spec, ns.worker)))
        return

    quick = ns.quick or ns.check
    workload = "serve-quick" if quick else "serve-full"
    repeats = int(os.environ.get(
        "REPRO_BENCH_REPEATS", "3" if quick else "1"
    ))
    print(f"workload: {workload}")
    batched = _run_mode("batched", quick, repeats=repeats)
    print(f"batched:    {batched['seconds']:8.2f}s  "
          f"{batched['rps']:7.1f} req/s  "
          f"p50 {batched['p50_ms']:.1f}ms  p95 {batched['p95_ms']:.1f}ms  "
          f"p99 {batched['p99_ms']:.1f}ms  "
          f"cache hit {batched['plan_cache_hit_rate']:.2f}  "
          f"fanned out {batched['batch_dedup_rate']:.2f}")

    sequential = _run_mode("sequential", quick, repeats=repeats)
    print(f"sequential: {sequential['seconds']:8.2f}s  "
          f"{sequential['rps']:7.1f} req/s")

    if sequential["result_hash"] != batched["result_hash"]:
        raise SystemExit(
            "FAIL: batched serving results differ from sequential "
            f"({batched['result_hash']} vs {sequential['result_hash']})"
        )
    speedup = sequential["seconds"] / max(batched["seconds"], 1e-9)

    if ns.check:
        record = {
            "workload": "serve-quick",
            "fast_seconds": batched["seconds"],
            "speedup": round(speedup, 2),
            "result_hash": batched["result_hash"],
        }
        error = gate_verdict(
            _load_trajectory(ns.output), record, ns.tolerance
        )
        print(f"measured:   {batched['seconds']:.3f}s  "
              f"hash {batched['result_hash']}")
        print(f"speedup:    {speedup:8.2f}x")
        if error:
            raise SystemExit(f"FAIL: {error}")
        print(f"perf gate: pass (tolerance {ns.tolerance:.0%})")
        return
    print(f"speedup:    {speedup:8.2f}x  (results identical: "
          f"{batched['result_hash']})")

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload,
        # bench_speed schema: fast_seconds is the optimized mode, the
        # speedup ratio is phase-immune — so the serve records gate
        # through the same two-signal rule as the simulator's own.
        "reference_seconds": sequential["seconds"],
        "fast_seconds": batched["seconds"],
        "speedup": round(speedup, 2),
        "result_hash": batched["result_hash"],
        "requests": batched["requests"],
        "tenants": batched["tenants"],
        "rps": batched["rps"],
        "p50_ms": batched["p50_ms"],
        "p95_ms": batched["p95_ms"],
        "p99_ms": batched["p99_ms"],
        "batches": batched["batches"],
        "max_batch": batched["max_batch"],
        "batch_dedup_rate": batched["batch_dedup_rate"],
        "plan_cache_hit_rate": batched["plan_cache_hit_rate"],
    }
    if "seconds_runs" in batched:
        record["fast_seconds_runs"] = batched["seconds_runs"]
    trajectory = _load_trajectory(ns.output)
    trajectory.append(record)
    with open(ns.output, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    print(f"recorded -> {os.path.relpath(ns.output, ROOT)}")


if __name__ == "__main__":
    main()
