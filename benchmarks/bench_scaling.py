#!/usr/bin/env python
"""Multi-device scaling curves (the ROC/NeuGraph Fig. 7/8 experiment).

For each (dataset, model) cell, runs the sharded executor on 1/2/4/8
simulated devices and records the wall-clock of the multi-device
timeline, the serial-equivalent device-seconds, and the per-device
compute/transfer breakdown.  The curve shape is the multi-GPU GNN
story in miniature: small graphs stop scaling once halo latency
dominates, large graphs scale near-linearly, and the largest only
*run* sharded — the monolithic plan exceeds simulated device memory
(recorded as an OOM cell, not an error).

Records append to ``BENCH_speed.json`` under the ``scaling-quick`` /
``scaling-full`` workload names — deliberately distinct from the
``quick``/``full`` perf-gate workloads, so scaling records are never
gate-comparable to simulator-speed records.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py [--quick]
        [--parts 1 2 4 8] [--method edge_cut]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_speed.json")

FULL = {
    "datasets": ["reddit", "products", "ogb49m"],
    "models": ["gcn", "gat"],
}
QUICK = {
    "datasets": ["arxiv"],
    "models": ["gcn", "gat"],
}

PARTS = [1, 2, 4, 8]


def _load_graph(name):
    from repro.graph import load_dataset
    from repro.graph.generators import ogb_scale_graph

    if name == "ogb49m":
        return ogb_scale_graph()
    return load_dataset(name)


def run_cell(fw, model, graph, sim, num_parts, method) -> dict:
    from repro.gpusim.memory import SimulatedOOM
    from repro.shard import run_sharded

    t0 = time.perf_counter()
    try:
        res = run_sharded(
            fw, model, graph, sim,
            num_parts=num_parts, method=method, lint=True,
        )
    except SimulatedOOM as exc:
        return {
            "oom": True,
            "detail": str(exc),
            "harness_seconds": round(time.perf_counter() - t0, 3),
        }
    sh = res.report.extra["perf"]["shard"]
    lint = sh.get("lint", {})
    return {
        "wall_ms": round(sh["wall_seconds"] * 1e3, 6),
        "serial_ms": round(sh["serial_seconds"] * 1e3, 6),
        "transfer_fraction": round(
            sh["cross_device"]["transfer_fraction"], 6
        ),
        "transfer_mb": round(
            sh["cross_device"]["transfer_bytes"] / 1e6, 3
        ),
        "replication_factor": round(res.shard.replication_factor, 4),
        "hb_findings": lint.get("findings", 0),
        "devices": [
            {
                "device": d["device"],
                "compute_ms": round(d["compute_seconds"] * 1e3, 6),
                "transfer_ms": round(d["transfer_seconds"] * 1e3, 6),
                "finish_ms": round(d["finish_seconds"] * 1e3, 6),
                "halo_nodes": d["halo_nodes"],
                "mirror_nodes": d["mirror_nodes"],
            }
            for d in sh["devices"]
        ],
        "harness_seconds": round(time.perf_counter() - t0, 3),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="arxiv-only cells for CI smoke runs")
    ap.add_argument("--parts", type=int, nargs="*", default=None,
                    help=f"device counts (default: {PARTS})")
    ap.add_argument("--method", choices=["edge_cut", "vertex_cut"],
                    default="edge_cut")
    ap.add_argument("--datasets", nargs="*", default=None)
    ap.add_argument("--models", nargs="*", default=None)
    ap.add_argument("--output", default=TRAJECTORY,
                    help="trajectory JSON file to append to")
    ns = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench import bench_config
    from repro.frameworks.dgl_like import DGLLike

    spec = QUICK if ns.quick else FULL
    datasets = ns.datasets or spec["datasets"]
    models = ns.models or spec["models"]
    parts = ns.parts or PARTS

    fw = DGLLike()
    sim = bench_config()
    t_all = time.perf_counter()
    curves: dict = {}
    for ds in datasets:
        graph = _load_graph(ds)
        curves[ds] = {}
        for model in models:
            row = {}
            base_wall = None
            for p in parts:
                cell = run_cell(fw, model, graph, sim, p, ns.method)
                if "wall_ms" in cell:
                    if p == 1:
                        base_wall = cell["wall_ms"]
                    if base_wall:
                        cell["speedup_vs_1dev"] = round(
                            base_wall / cell["wall_ms"], 4
                        )
                row[str(p)] = cell
                status = (
                    "OOM" if cell.get("oom")
                    else f"{cell['wall_ms']:10.3f} ms wall, "
                         f"{100 * cell['transfer_fraction']:5.1f}% xfer"
                         + (f", {cell['speedup_vs_1dev']:.2f}x"
                            if "speedup_vs_1dev" in cell else "")
                )
                print(f"{ds:10s} {model:4s} P={p}: {status}",
                      flush=True)
            curves[ds][model] = row
        del graph

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": "scaling-quick" if ns.quick else "scaling-full",
        "method": ns.method,
        "curves": curves,
        "harness_seconds": round(time.perf_counter() - t_all, 3),
    }
    trajectory = []
    if os.path.exists(ns.output):
        try:
            with open(ns.output) as fh:
                trajectory = json.load(fh)
        except (ValueError, OSError):
            trajectory = []
    trajectory.append(record)
    with open(ns.output, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    print(f"recorded -> {os.path.relpath(ns.output, ROOT)}")


if __name__ == "__main__":
    main()
