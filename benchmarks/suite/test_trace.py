"""Self-tests of the span tracer (``trace.py``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import workloads

trace = workloads.suite_module("trace")
run = workloads.suite_module("run")


def _nested_tracer():
    """bench > phase > mid(2) -> mid(1) -> mid(0), each calling leaf."""
    tracer = trace.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))

    def _mid(n):
        leaf()
        if n:
            mid(n - 1)  # recursion through the traced binding

    mid = tracer.wrap("mid", _mid)
    tracer.start()
    with tracer.span("phase"):
        mid(2)
        leaf()
    return tracer, tracer.stop()


def test_self_times_sum_to_root_wall():
    tracer, wall = _nested_tracer()
    spans = tracer.by_name()
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(
        wall, rel=1e-9
    )
    assert spans["mid"]["calls"] == 3
    assert spans["leaf"]["calls"] == 4
    assert spans["leaf"]["self_s"] >= 4 * 0.002


def test_each_call_is_charged_to_exactly_one_path():
    tracer, _ = _nested_tracer()
    paths = {path: node for path, node in tracer.root.walk()}
    base = ("bench", "phase")
    for depth in range(1, 4):
        assert paths[base + ("mid",) * depth + ("leaf",)].calls == 1
    assert paths[base + ("leaf",)].calls == 1
    assert tracer.calls_under("mid", "leaf") == 3
    assert all(line.startswith("bench") for line in tracer.folded())


def test_calls_outside_the_root_span_are_not_recorded():
    tracer = trace.Tracer()
    double = tracer.wrap("double", lambda x: 2 * x)
    assert double(4) == 8
    assert tracer.by_name()["bench"]["calls"] == 0


@pytest.mark.parametrize("target", [
    "repro.core.plan:PLAN_CACHE.get",    # exists, bound nowhere
    "repro.core.tuner:tune_renamed",     # renamed away
])
def test_target_without_binding_raises(target):
    with pytest.raises(LookupError):
        trace.install(trace.Tracer(), {"core.missing": (target,)})


def _traced_child(workload: str) -> dict:
    env = run.child_env()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    job = {"workload": workload, "seed": 0, "size": "smoke", "trace": True}
    proc = subprocess.run(
        [sys.executable, run.CHILD, json.dumps(job)], env=env,
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_layer_self_times_sum_to_traced_wall(workload):
    record = _traced_child(workload)
    assert record["failed"] == 0, record["errors"]
    layers = record["layers"]
    total = layers["bench.self_s"] + sum(
        layers[f"{name}_s"] for name in trace.LAYER_TARGETS
    )
    assert total == pytest.approx(record["root_s"], rel=0.01)
    if workload == "paper-analysis":
        # Reached only through ``from ..gpusim.executor import
        # simulate_kernel`` bindings: the identity scan found them.
        assert layers["gpusim.kernel_sim.calls"] > 0
        assert layers["core.tune.calls"] == 0
    if workload == "serve-hot":
        spec = workloads.SIZES["smoke"]["serve-hot"]
        assert layers["serve.flush.calls"] == spec["requests"] // spec["window"]


def test_trace_overhead_is_printed_per_workload(smoke_traced):
    returncode, stdout, _, record = smoke_traced
    assert returncode == 0, stdout
    for summary in record["workloads"]:
        assert "bench.trace_overhead" in summary["metrics"]
    printed = [line.split()[0] for line in stdout.splitlines()
               if line.strip().startswith("bench.trace_overhead")]
    assert len(printed) == len(run.WORKLOAD_NAMES)
