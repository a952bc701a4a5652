"""Tests of the benchmark runner (``run.py``) and its contract file."""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import workloads

run = workloads.suite_module("run")


def test_contract_shape(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in contract["workloads"]] == list(
        run.WORKLOAD_NAMES
    )
    names = [m["name"] for s in ("end_to_end", "per_layer")
             for m in contract[s]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_contract_metric_is_printed_with_its_unit(
    contract, smoke_plain, smoke_traced
):
    for section, (returncode, stdout, final, _) in (
        ("end_to_end", smoke_plain), ("per_layer", smoke_traced),
    ):
        assert returncode == 0, stdout
        assert final["correct"] and final["failed"] == 0
        rows = [line.split() for line in stdout.splitlines()]
        for entry in contract[section]:
            name, unit = entry["name"], entry["unit"]
            assert run.unit_of(name) == unit
            for workload in run.WORKLOAD_NAMES:
                got = final["metrics"][f"{workload}:{name}"]
                assert got["unit"] == unit
                assert isinstance(got["value"], (int, float))
            printed = [r for r in rows if r[:1] == [name] and r[2] == unit]
            assert len(printed) == len(run.WORKLOAD_NAMES), name


def test_wrong_expected_hash_fails_every_operation(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setitem(run.EXPECTED["smoke"], "serve-hot", "0" * 16)
    out = tmp_path / "record.json"
    assert run.main(["--smoke", "--workload", "serve-hot",
                     "--json", str(out)]) == 1
    summary = json.loads(out.read_text())["workloads"][0]
    assert summary["metrics"]["error_rate"] == 1.0
    assert summary["failed"] == summary["attempted"]
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert final["correct"] is False


def test_repeat_reports_median_and_quartiles(tmp_path, capsys):
    out = tmp_path / "record.json"
    assert run.main(["--smoke", "--workload", "serve-hot",
                     "--repeat", "3", "--json", str(out)]) == 0
    summary = json.loads(out.read_text())["workloads"][0]
    assert summary["repeats"] == 3
    for name, value in summary["metrics"].items():
        values = [m[name] for m in summary["per_repeat"]]
        assert value == statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert summary["quartiles"][name] == [q1, q3]
    assert "[q1 " in capsys.readouterr().out


def test_paper_hashes_do_not_depend_on_the_seed():
    assert run.main(["--smoke", "--workload", "paper-grid", "--workload",
                     "paper-analysis", "--seed", "1"]) == 0


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, no result.

    The arguments are those the benchmark contract invokes it with.
    """
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "serve-hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
