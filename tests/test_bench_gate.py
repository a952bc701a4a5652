"""The CI speed gate (``benchmarks/gate.py``) on synthetic suite records.

Each record has the shape ``benchmarks/suite/run.py --json`` writes:
``{"workloads": [{"workload", "attempted", "failed", "metrics"}, ...]}``.
"""

import copy
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-grid", "paper-analysis", "serve-hot", "serve-fresh")


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", os.path.join(ROOT, "benchmarks", "gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


@pytest.fixture(scope="module")
def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def _record(setup_s=2.0, wall_s=5.0, peak_rss_mb=500.0, failed=0):
    return {"workloads": [
        {"workload": name, "attempted": 10, "failed": failed,
         "metrics": {"setup_s": setup_s, "wall_s": wall_s,
                     "peak_rss_mb": peak_rss_mb, "error_rate": failed / 10}}
        for name in WORKLOADS
    ]}


def _scaled(record, metric, factor, workload="serve-hot"):
    out = copy.deepcopy(record)
    for w in out["workloads"]:
        if w["workload"] == workload:
            w["metrics"][metric] *= factor
    return out


@pytest.mark.parametrize("metric", ["setup_s", "wall_s", "peak_rss_mb"])
def test_slowdown_beyond_bound_fails(bounds, metric):
    base = _record()
    errors = gate.verdict(base, _scaled(base, metric, 1 + bounds[metric]
                                        + 0.01))
    assert len(errors) == 1
    assert errors[0].startswith(f"serve-hot: {metric}")


@pytest.mark.parametrize("metric", ["setup_s", "wall_s", "peak_rss_mb"])
def test_within_bound_passes(bounds, metric):
    base = _record()
    assert gate.verdict(
        base, _scaled(base, metric, 1 + bounds[metric] - 0.01)
    ) == []


def test_faster_passes():
    base = _record()
    assert gate.verdict(base, _record(1.0, 2.5, 400.0)) == []


def test_failed_operations_fail():
    errors = gate.verdict(_record(), _record(failed=1))
    assert len(errors) == len(WORKLOADS)
    assert "1 of 10 operations failed" in errors[0]


def test_missing_workload_fails():
    base = _record()
    change = copy.deepcopy(base)
    change["workloads"] = [w for w in change["workloads"]
                           if w["workload"] != "serve-fresh"]
    assert gate.verdict(base, change) == [
        "serve-fresh: missing from the change"
    ]


def test_missing_metric_fails():
    base = _record()
    change = copy.deepcopy(base)
    del change["workloads"][0]["metrics"]["wall_s"]
    assert gate.verdict(base, change) == [
        "paper-grid: wall_s missing from the change"
    ]


def test_bounds_come_from_benchmark_json(tmp_path, monkeypatch):
    base = _record()
    change = _scaled(base, "wall_s", 1.05)
    assert gate.verdict(base, change) == []
    with open(gate.CONTRACT) as fh:
        contract = json.load(fh)
    for metric in contract["end_to_end"]:
        metric["bound"] = 0.01
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(contract))
    monkeypatch.setattr(gate, "CONTRACT", str(path))
    assert len(gate.verdict(base, change)) == 1


def test_cli_exit_codes(tmp_path, capsys):
    base, slow = _record(), _scaled(_record(), "wall_s", 2.0)
    paths = {}
    for name, record in (("base", base), ("slow", slow)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(record))
    assert gate.main([str(paths["base"]), str(paths["base"])]) == 0
    assert gate.main([str(paths["base"]), str(paths["slow"])]) == 1
    assert "FAIL serve-hot: wall_s" in capsys.readouterr().out
    assert gate.main([]) == 2
