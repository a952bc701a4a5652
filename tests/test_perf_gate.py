"""CI perf gate (``benchmarks/bench_speed.py --check``) tests.

The gate compares a fresh quick measurement against the best prior
quick record in ``BENCH_speed.json`` and fails when both the absolute
fast-mode seconds and the phase-immune fast/reference speedup ratio
regress beyond the tolerance.  The regression logic is unit-tested
directly (including the headline case: an injected 25% slowdown must
fail a 20% gate), and one subprocess test drives the real CLI end to
end with ``REPRO_BENCH_INJECT_SLOWDOWN`` so the gate's failure path is
exercised through the same entry point CI uses.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks", "bench_speed.py")


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_speed", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _record(seconds, workload="quick", result_hash="abc123",
            speedup=None):
    rec = {
        "workload": workload,
        "fast_seconds": seconds,
        "result_hash": result_hash,
    }
    if speedup is not None:
        rec["speedup"] = speedup
    return rec


class TestCheckRegression:
    def test_25_percent_slowdown_fails_20_percent_gate(self):
        trajectory = [_record(10.0)]
        error = bench.check_regression(
            trajectory, _record(12.5), tolerance=0.20
        )
        assert error is not None
        assert "12.50s" in error and "10.00s" in error

    def test_within_tolerance_passes(self):
        trajectory = [_record(10.0)]
        assert bench.check_regression(
            trajectory, _record(11.9), tolerance=0.20
        ) is None

    def test_faster_run_passes(self):
        trajectory = [_record(10.0)]
        assert bench.check_regression(
            trajectory, _record(7.0), tolerance=0.20
        ) is None

    def test_median_prior_record_is_the_baseline(self):
        # The median (10.0s here) is the baseline: one slow outlier in
        # the history neither drags the gate loose, nor does one lucky
        # fast record ratchet it ever tighter.
        trajectory = [_record(10.0), _record(10.0), _record(14.0)]
        assert bench.check_regression(
            trajectory, _record(12.5), tolerance=0.20
        ) is not None
        # A single lucky 7.0s record among typical 10.0s runs must not
        # make an honest 10.5s run fail.
        lucky = [_record(10.0), _record(7.0), _record(10.0)]
        assert bench.check_regression(
            lucky, _record(10.5), tolerance=0.20
        ) is None

    def test_hash_mismatch_resets_baseline(self):
        """A changed workload/simulator output never gates."""
        trajectory = [_record(10.0, result_hash="old")]
        assert bench.check_regression(
            trajectory, _record(50.0, result_hash="new"), tolerance=0.20
        ) is None

    def test_workload_mismatch_ignored(self):
        trajectory = [_record(10.0, workload="full")]
        assert bench.check_regression(
            trajectory, _record(50.0, workload="quick"), tolerance=0.20
        ) is None

    def test_empty_trajectory_passes(self):
        assert bench.check_regression([], _record(99.0)) is None


class TestComparableRecordFields:
    """Newer records carry extra fields; the gate must stay keyed to
    like-for-like configurations and simply ignore the additions."""

    def test_worker_count_mismatch_never_gates(self):
        prior = _record(10.0)
        prior["workers"] = 4  # legacy pool-parallel record
        assert bench.check_regression(
            [prior], _record(50.0), tolerance=0.20
        ) is None

    def test_unknown_extra_fields_are_tolerated(self):
        # warm-plan and (legacy) pool-utilization fields ride along
        # without entering the comparability key.
        prior = _record(10.0)
        prior.update(warm_seconds=1.0, pool_utilization=0.9)
        fresh = _record(12.5)
        fresh.update(warm_seconds=0.9, pool_utilization=0.8)
        assert bench.check_regression(
            [prior], fresh, tolerance=0.20
        ) is not None
        assert bench.check_regression(
            [prior], _record(10.1), tolerance=0.20
        ) is None

    def test_scaling_records_never_gate_quick(self):
        # bench_scaling.py appends "scaling-quick"/"scaling-full"
        # records to the same trajectory file; they have no
        # fast_seconds and a different workload name.
        scaling = {
            "workload": "scaling-quick",
            "method": "edge_cut",
            "workers": 1,
            "curves": {"arxiv": {"gcn": {"1": {"wall_ms": 2.0}}}},
        }
        assert bench.check_regression(
            [scaling], _record(50.0), tolerance=0.20
        ) is None


class TestGateVerdict:
    """The combined two-signal gate (``gate_verdict``)."""

    def test_25_percent_fast_path_slowdown_fails(self):
        # A genuine fast-path regression moves both signals: seconds up
        # 25%, speedup down the same factor (reference unchanged).
        trajectory = [_record(10.0, speedup=8.0)]
        error = bench.gate_verdict(
            trajectory, _record(12.5, speedup=6.4), tolerance=0.20
        )
        assert error is not None
        assert "12.50s" in error and "6.40x" in error

    def test_machine_slow_phase_passes(self):
        # A machine-wide slow phase inflates the absolute seconds well
        # past the tolerance but leaves the within-invocation ratio
        # intact — the gate must not flake on it.
        trajectory = [_record(10.0, speedup=8.0)]
        assert bench.gate_verdict(
            trajectory, _record(14.0, speedup=7.8), tolerance=0.20
        ) is None

    def test_time_signal_alone_decides_without_ratio_baseline(self):
        trajectory = [_record(10.0)]  # no speedup field recorded
        assert bench.gate_verdict(
            trajectory, _record(12.5, speedup=6.4), tolerance=0.20
        ) is not None

    def test_ratio_regression_with_good_seconds_passes(self):
        # Absolute time within tolerance never gates, whatever the
        # ratio did (e.g. the reference implementations got faster).
        trajectory = [_record(10.0, speedup=8.0)]
        assert bench.gate_verdict(
            trajectory, _record(10.5, speedup=5.0), tolerance=0.20
        ) is None

    def test_speedup_check_boundary(self):
        trajectory = [_record(10.0, speedup=8.0)]
        # 8.0 / 1.25 = 6.4: a 25% drop trips a 20% tolerance...
        assert bench.check_speedup_regression(
            trajectory, _record(12.5, speedup=6.4), tolerance=0.20
        ) is not None
        # ...while a 15% drop does not.
        assert bench.check_speedup_regression(
            trajectory, _record(11.5, speedup=6.96), tolerance=0.20
        ) is None


class TestCheckEndToEnd:
    def _run_check(self, output, extra_env=None, tolerance="0.05"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.path.join(ROOT, "src"),
                        env.get("PYTHONPATH")] if p
        )
        env["REPRO_BENCH_REPEATS"] = "1"  # single timed run per mode
        env.update(extra_env or {})
        return subprocess.run(
            [sys.executable, BENCH, "--check", "--tolerance", tolerance,
             "--output", output],
            env=env, capture_output=True, text=True, check=False,
        )

    def test_injected_slowdown_fails_gate(self, tmp_path):
        output = str(tmp_path / "trajectory.json")
        # Baseline measurement through the real CLI (empty trajectory
        # passes and prints the measured seconds and hash).
        base = self._run_check(output)
        assert base.returncode == 0, base.stdout + base.stderr
        m = re.search(
            r"measured:\s+([0-9.]+)s\s+hash\s+(\w+)", base.stdout
        )
        assert m, base.stdout
        seconds, result_hash = float(m.group(1)), m.group(2)
        ms = re.search(r"speedup:\s+([0-9.]+)x", base.stdout)
        assert ms, base.stdout
        with open(output, "w") as fh:
            json.dump([{
                "workload": "quick",
                "fast_seconds": seconds,
                "speedup": float(ms.group(1)),
                "result_hash": result_hash,
            }], fh)
        # A 3x injected fast-path slowdown moves both gate signals and
        # must trip any sane tolerance, machine noise notwithstanding
        # (the 25%-vs-20% boundary is unit-tested above where
        # wall-clock noise cannot flake it).
        slow = self._run_check(
            output, extra_env={"REPRO_BENCH_INJECT_SLOWDOWN": "2.0"}
        )
        assert slow.returncode != 0
        assert "perf gate" in (slow.stdout + slow.stderr)
        # And without the injection the same baseline passes a generous
        # tolerance.
        ok = self._run_check(output, tolerance="2.0")
        assert ok.returncode == 0, ok.stdout + ok.stderr

    @pytest.mark.skipif(not os.path.exists(
        os.path.join(ROOT, "BENCH_speed.json")
    ), reason="no recorded trajectory in this checkout")
    def test_repo_trajectory_loads(self):
        records = bench._load_trajectory(
            os.path.join(ROOT, "BENCH_speed.json")
        )
        assert isinstance(records, list)
