#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and per layer.

Usage::

    python3 benchmarks/suite/run.py [--workload W ...] [--seed S]
        [--seconds T] [--trace [0|1]] [--repeat N] [--smoke] [--json OUT]

Each workload runs as a sequence of fresh, single-threaded child
processes (``workloads.py``), one pass each, until ``--seconds`` of
wall time is used (default: ``run_seconds`` of ``BENCHMARK.json``, the
value the benchmark is invoked with); the children's records are pooled
into the metrics named in ``BENCHMARK.json``:

* untraced children give the end-to-end metrics (``setup_s``,
  ``wall_s``, ``peak_rss_mb``), the failure count and, for serve-*,
  throughput and request latency percentiles (reported, not gated);
* with ``--trace`` (or ``--trace 1``) every second child runs under the
  span tracer of ``trace.py`` and gives the per-layer metrics -- layer
  self-times and their share of the traced wall, call counts and cache
  counters -- plus ``bench.trace_overhead``, the traced/untraced wall
  ratio minus one.

Every child's result hash is checked against the pinned one, and the
children of a run must agree with each other; a mismatch fails every
operation of the run.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics traced).  ``--repeat N`` measures N
times and reports the median with its quartiles.  ``--smoke`` runs tiny
inputs, one child per workload (two with ``--trace``), for tests.

The runner builds nothing but the native scheduler lane, once, untimed;
it reads and writes only inside the checkout (the lane's build cache
goes to ``.bench_build/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "workloads.py")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "suite")

WORKLOAD_NAMES = ("paper-grid", "paper-analysis", "serve-hot", "serve-fresh")

#: Result hashes pinned at the commit that defined the benchmark.  The
#: paper-* inputs do not depend on the seed, so their hash holds for
#: every seed; the serve-* inputs are sampled from the seed, so theirs is
#: pinned for seed 0 and printed for comparison otherwise.
EXPECTED = {
    "full": {
        "paper-grid": "b39fb8cbcca8ef22",
        "paper-analysis": "8fe7af1a738ec046",
        "serve-hot": "21296fdbc1595372",
        "serve-fresh": "f49f67349ecd7f81",
    },
    "smoke": {
        "paper-grid": "a52a3f53968f6bd5",
        "paper-analysis": "10399f14deb80f41",
        "serve-hot": "ec822e5ea463f347",
        "serve-fresh": "da76d71ac4cee074",
    },
}
SEED_FREE = ("paper-grid", "paper-analysis")

#: Units of the metrics whose name does not end in a unit suffix.
UNITS = {
    "throughput_rps": "req/s",
    "error_rate": "ratio",
    "bench.trace_overhead": "ratio",
    "core.tune_sims": "count",
    "core.plans_compiled": "count",
    "gpusim.kernels_simulated": "count",
    "serve.batch_size_mean": "req/batch",
}
SUFFIX_UNITS = (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), (".calls", "count"),
                ("_rate", "ratio"), ("_frac", "ratio"), ("_share", "ratio"))

CHILD_TIMEOUT_S = 150


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name}")


def nearest_rank(values: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 100]).

    The same rule as ``repro.perf.latency``, kept here so that what the
    benchmark measures cannot change with the program it measures.
    """
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

#: Settings every child runs with.  BLAS and OpenMP run one thread,
#: glibc keeps freed arenas mapped (page faults on re-touch otherwise
#: add multi-percent noise, as in ``bench_speed.py``) and string hashing
#: is fixed.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "1073741824",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
}


def child_env() -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` switch (so no
    disk tier, worker pool, approximate cache model or plan verification
    leaks in), plus :data:`PINNED_ENV`, ``src`` on the path and a
    temporary directory inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV, PYTHONPATH=SRC,
               TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    return env


def _spawn(args: List[str], env: Dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, CHILD, *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def _last_json(proc: subprocess.CompletedProcess) -> Optional[dict]:
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except ValueError:
        return None


def prepare(env: Dict[str, str]) -> dict:
    """Build the native lane once (untimed) and fingerprint the setup."""
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = _spawn(["--prepare"], env)
    info = _last_json(proc)
    if info is None:
        raise RuntimeError(f"prepare step failed:\n{proc.stderr[-2000:]}")
    info["env"] = PINNED_ENV
    info["fingerprint"] = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()
    ).hexdigest()[:16]
    return info


def run_child(job: dict, env: Dict[str, str]) -> dict:
    try:
        proc = _spawn([json.dumps(job)], env)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S}s",
                "traced": job["trace"]}
    record = _last_json(proc)
    if record is None:
        return {"crashed": proc.stderr[-2000:] or f"exit {proc.returncode}",
                "traced": job["trace"]}
    record["traced"] = job["trace"]
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str, env: Dict[str, str]) -> List[dict]:
    """Children until ``seconds`` of wall time is used.

    A further child starts while the run would end nearer to
    ``seconds`` with it than without it.  With tracing, children
    alternate untraced/traced and at least one of each runs; that
    minimum is all a smoke run does.
    """
    records: List[dict] = []
    t0 = time.monotonic()
    while True:
        traced = trace and len(records) % 2 == 1
        record = run_child({"workload": workload, "seed": seed,
                            "size": size, "trace": traced}, env)
        records.append(record)
        if "crashed" in record:
            break
        if len(records) < (2 if trace else 1):
            continue
        elapsed = time.monotonic() - t0
        if size == "smoke" or elapsed + elapsed / len(records) / 2 > seconds:
            break
    return records


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def summarize(workload: str, seed: int, size: str,
              records: List[dict]) -> dict:
    """One measurement of one workload: metrics, counts, verdict."""
    crashed = [r["crashed"] for r in records if "crashed" in r]
    good = [r for r in records if "crashed" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    attempted = sum(r["attempted"] for r in good) or 1
    failed = sum(r["failed"] for r in good)
    hashes = sorted({r["result_hash"] for r in good})
    expected = EXPECTED[size][workload]
    if workload not in SEED_FREE and seed != 0:
        expected = None
    wrong = []
    if len(hashes) > 1:
        wrong.append(f"children disagree on the result hash: {hashes}")
    elif expected is not None and hashes and hashes != [expected]:
        wrong.append(f"result hash {hashes[0]} != expected {expected}")
    if crashed or wrong:
        failed = attempted
    problems = crashed + wrong + [e for r in good for e in r["errors"]]

    metrics: Dict[str, float] = {}
    windows = [t for r in plain for t in r["windows"]]
    if plain:
        metrics.update(
            setup_s=statistics.median(r["setup_s"] for r in plain),
            wall_s=statistics.median(r["pass_s"] for r in plain),
            peak_rss_mb=statistics.median(r["maxrss_mb"] for r in plain),
        )
    if windows:
        # serve-*: every request of a window waits for the whole window
        # and the windows are equally full, so the request-latency
        # percentiles are those of the window times.
        metrics.update(
            throughput_rps=sum(r["attempted"] for r in plain)
            / sum(r["pass_s"] for r in plain),
            p50_ms=nearest_rank(windows, 50) * 1e3,
            p95_ms=nearest_rank(windows, 95) * 1e3,
        )
        metrics["serve.round_p99_ms"] = nearest_rank(windows, 99) * 1e3
    metrics["error_rate"] = failed / attempted
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(
                r["layers"][name] for r in traced
            )
        if plain:
            metrics["bench.trace_overhead"] = statistics.median(
                r["root_s"] for r in traced
            ) / statistics.median(r["root_s"] for r in plain) - 1.0
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "children": len(records),
        "traced_children": len(traced),
        "result_hash": hashes[0] if len(hashes) == 1 else None,
        "expected_hash": expected,
        "attempted": attempted,
        "failed": failed,
        "windows": len(windows),
        "per_child": [
            {k: r[k] for k in ("traced", "setup_s", "pass_s", "maxrss_mb")}
            for r in good
        ],
        "problems": problems[:10],
        "metrics": metrics,
        "folded": traced[0]["folded"] if traced else [],
    }


def combine(runs: List[dict]) -> dict:
    """Median and quartiles of each metric over repeated measurements."""
    out = dict(runs[0])
    out["repeats"] = len(runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    out["windows"] = sum(r["windows"] for r in runs)
    out["per_child"] = [c for r in runs for c in r["per_child"]]
    out["problems"] = [p for r in runs for p in r["problems"]][:10]
    out["per_repeat"] = [r["metrics"] for r in runs]
    out["metrics"], out["quartiles"] = {}, {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        out["metrics"][name] = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            out["quartiles"][name] = [q1, q3]
    return out


def report(summary: dict) -> None:
    m, q = summary["metrics"], summary.get("quartiles", {})
    expected = summary["expected_hash"]
    verdict = "FAIL" if summary["failed"] else "ok"
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"size {summary['size']}  {summary['children']} children "
          f"({summary['traced_children']} traced)"
          + (f"  x{summary['repeats']}" if summary.get("repeats", 1) > 1
             else ""))
    print(f"   result hash {summary['result_hash']}  expected "
          f"{expected or '(not pinned for this seed)'}  {verdict}")
    print(f"   attempted {summary['attempted']}  failed {summary['failed']}"
          + (f"  latency percentiles over {summary['windows']} windows"
             if summary["windows"] else ""))
    for problem in summary["problems"]:
        print(f"   ! {problem}")
    for name in m:
        spread = ""
        if name in q:
            spread = f"  [q1 {q[name][0]:.6g}, q3 {q[name][1]:.6g}]"
        print(f"   {name:<32} {m[name]:>14.6g} {unit_of(name)}{spread}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="wall time per workload measurement (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="also run traced children; print per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1,
                    help="measure N times; report median and quartiles")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one child per workload, for tests")
    ap.add_argument("--json", dest="json_out",
                    help="write the full records (incl. folded spans) here")
    return ap.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    ns = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            contract = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        info = prepare(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    size = "smoke" if ns.smoke else "full"
    seconds = contract["run_seconds"] if ns.seconds is None else ns.seconds
    print(f"environment {info['fingerprint']}  native lane "
          f"{'on' if info['native'] else 'off'}  python {info['python']}  "
          f"numpy {info['numpy']}")
    summaries = []
    for workload in ns.workload or WORKLOAD_NAMES:
        runs = [
            summarize(workload, ns.seed, size, measure(
                workload, ns.seed, seconds, bool(ns.trace), size, env
            ))
            for _ in range(max(1, ns.repeat))
        ]
        summary = combine(runs)
        report(summary)
        summaries.append(summary)

    if ns.json_out:
        with open(ns.json_out, "w") as fh:
            json.dump({"environment": info, "workloads": summaries}, fh,
                      indent=1)
    section = contract["per_layer" if ns.trace else "end_to_end"]
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}:"
        for entry in section:
            name = entry["name"]
            metrics[prefix + name] = {
                "value": s["metrics"].get(name),
                "unit": entry["unit"],
            }
    failed = sum(s["failed"] for s in summaries)
    correct = failed == 0 and all(
        e["name"] in s["metrics"] for s in summaries for e in section
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
