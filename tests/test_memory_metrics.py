"""Tests for device-memory accounting and the metrics containers."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.gpusim import (
    DeviceMemory,
    KernelStats,
    RunReport,
    SimulatedOOM,
    occupancy_below,
    tensor_bytes,
)


class TestTensorBytes:
    def test_basic(self):
        assert tensor_bytes(10, 20) == 800
        assert tensor_bytes(10, 20, itemsize=8) == 1600
        assert tensor_bytes(7) == 28


class TestDeviceMemory:
    def test_alloc_free_cycle(self):
        mem = DeviceMemory(1000)
        mem.alloc("a", 400)
        mem.alloc("b", 500)
        assert mem.live == 900
        mem.free("a")
        assert mem.live == 500
        assert mem.peak == 900

    def test_oom_raises_with_context(self):
        mem = DeviceMemory(100)
        mem.alloc("a", 60)
        with pytest.raises(SimulatedOOM) as exc:
            mem.alloc("big", 50)
        assert exc.value.requested == 50
        assert exc.value.live == 60
        assert exc.value.budget == 100
        assert "big" in str(exc.value)

    def test_oom_leaves_state_unchanged(self):
        mem = DeviceMemory(100)
        mem.alloc("a", 60)
        with pytest.raises(SimulatedOOM):
            mem.alloc("b", 50)
        assert mem.live == 60

    def test_free_unknown_is_noop(self):
        mem = DeviceMemory(100)
        mem.free("ghost")
        assert mem.live == 0

    def test_alloc_tensor(self):
        mem = DeviceMemory(10_000)
        mem.alloc_tensor("t", 10, 20)
        assert mem.live == 800

    def test_repeated_name_accumulates(self):
        mem = DeviceMemory(1000)
        mem.alloc("a", 100)
        mem.alloc("a", 100)
        assert mem.live == 200
        mem.free("a")
        assert mem.live == 0

    def test_would_fit(self):
        mem = DeviceMemory(100)
        assert mem.would_fit(100)
        assert not mem.would_fit(101)

    def test_free_all(self):
        mem = DeviceMemory(100)
        mem.alloc("a", 50)
        mem.free_all()
        assert mem.live == 0


class TestOccupancyBelow:
    def test_always_full(self):
        # 4 blocks on 2 slots, back to back: always 2 active except ends.
        starts = np.array([0.0, 0.0, 1.0, 1.0])
        ends = np.array([1.0, 1.0, 2.0, 2.0])
        occ = occupancy_below(starts, ends, 2)
        assert occ[1.0] == pytest.approx(0.0, abs=0.05)

    def test_long_tail(self):
        # One straggler runs alone for 9 of 10 time units on 2 slots.
        starts = np.array([0.0, 0.0])
        ends = np.array([1.0, 10.0])
        occ = occupancy_below(starts, ends, 2)
        assert occ[1.0] == pytest.approx(0.9, abs=0.02)
        assert occ[0.5] == pytest.approx(0.0, abs=0.02)

    def test_empty(self):
        occ = occupancy_below(np.array([]), np.array([]), 4)
        assert occ == {1.0: 0.0, 0.5: 0.0, 0.1: 0.0}

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(0)
        starts = rng.random(50)
        ends = starts + rng.random(50)
        occ = occupancy_below(starts, ends, 8)
        assert occ[0.1] <= occ[0.5] <= occ[1.0]


def _stats(name="k", time=1e-3, flops=1e6, tag=""):
    return KernelStats(
        name=name, tag=tag, makespan=time, launch_overhead=1e-5,
        flops=flops, bytes_dram=1e6, bytes_l2=2e5, row_accesses=100,
        row_hits=60, num_blocks=10, balanced_time=time * 0.8,
        occupancy={1.0: 0.3, 0.5: 0.1, 0.1: 0.0},
    )


class TestKernelStats:
    def test_derived_metrics(self):
        s = _stats()
        assert s.time == pytest.approx(1e-3 + 1e-5)
        assert s.l2_hit_rate == pytest.approx(0.6)
        assert s.l2_miss_rate == pytest.approx(0.4)
        assert s.gflops == pytest.approx(1e6 / s.time / 1e9)

    def test_zero_rows(self):
        s = dataclasses.replace(_stats(), row_accesses=0, row_hits=0)
        assert s.l2_hit_rate == 0.0

    def test_frozen_with_read_only_occupancy(self):
        occ = {1.0: 0.3, 0.5: 0.1, 0.1: 0.0}
        s = dataclasses.replace(_stats(), occupancy=occ)
        occ[1.0] = -1.0  # the caller's dict is copied, not aliased
        assert s.occupancy == {1.0: 0.3, 0.5: 0.1, 0.1: 0.0}
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.makespan = 0.0
        with pytest.raises(TypeError):
            s.occupancy[1.0] = 0.0
        assert dataclasses.asdict(s)["occupancy"] == s.occupancy
        for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s
            with pytest.raises(TypeError):
                twin.occupancy.clear()


class TestRunReport:
    def test_aggregates(self):
        rep = RunReport()
        rep.add(_stats("a"))
        rep.add(_stats("b", flops=2e6))
        assert rep.num_kernels == 2
        assert rep.total_flops == pytest.approx(3e6)
        assert rep.total_time_ms == pytest.approx(rep.total_time * 1e3)
        assert rep.l2_hit_rate() == pytest.approx(0.6)
        assert len(rep.by_name("a")) == 1
        assert rep.time_of("b") == rep.kernels[1].time

    def test_filtered_hit_rate(self):
        rep = RunReport()
        s = _stats("aggregate")
        rep.add(s)
        rep.add(dataclasses.replace(_stats("gemm"), row_hits=0))
        assert rep.l2_hit_rate("aggregate") == pytest.approx(0.6)
        assert rep.l2_hit_rate() == pytest.approx(0.3)

    def test_occupancy_weighted(self):
        rep = RunReport()
        rep.add(_stats("a"))
        assert rep.occupancy_below(1.0) == pytest.approx(0.3)

    def test_extend(self):
        a = RunReport(peak_mem_bytes=10)
        a.add(_stats())
        b = RunReport(peak_mem_bytes=99)
        b.add(_stats())
        a.extend(b)
        assert a.num_kernels == 2
        assert a.peak_mem_bytes == 99
