"""Tests for KernelSpec and the block-level executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    KernelSpec,
    V100,
    simulate_kernel,
    simulate_kernels,
)
from repro.gpusim import memo
from repro.gpusim.cache import previous_occurrence
from repro.gpusim.executor import (
    _cold_stream_plan,
    _list_schedule,
    _plan_hits,
    _row_hit_counts,
    _stream_plan,
    interleaved_order,
)
from repro.perf import PERF, override


def ragged_kernel(lengths, row_bytes=128, flops_per_row=2.0):
    lengths = np.asarray(lengths, dtype=np.int64)
    ptr = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 1000, size=int(ptr[-1]))
    return KernelSpec(
        "test",
        block_flops=lengths * flops_per_row,
        row_ptr=ptr,
        row_ids=ids,
        row_bytes=row_bytes,
        stream_bytes=lengths * 4.0,
    )


class TestKernelSpec:
    def test_validation_row_ptr_len(self):
        with pytest.raises(ValueError):
            KernelSpec(
                "bad",
                block_flops=np.ones(3),
                row_ptr=np.array([0, 1]),
                row_ids=np.array([5]),
                row_bytes=4,
            )

    def test_validation_row_ptr_tail(self):
        with pytest.raises(ValueError):
            KernelSpec(
                "bad",
                block_flops=np.ones(1),
                row_ptr=np.array([0, 2]),
                row_ids=np.array([5]),
                row_bytes=4,
            )

    def test_validation_stream_len(self):
        with pytest.raises(ValueError):
            KernelSpec(
                "bad", block_flops=np.ones(2),
                stream_bytes=np.ones(3),
            )

    def test_uniform_dense(self):
        k = KernelSpec.uniform_dense("d", 1000.0, 4000.0, 10)
        assert k.num_blocks == 10
        assert k.total_flops == pytest.approx(1000.0)
        assert k.total_bytes == pytest.approx(4000.0)
        assert k.tag == "dense"

    def test_totals(self):
        k = ragged_kernel([2, 0, 3])
        assert k.num_blocks == 3
        assert k.num_row_accesses == 5
        assert k.total_bytes == pytest.approx(5 * 128 + 5 * 4)

    def test_reordered_preserves_multiset(self):
        k = ragged_kernel([3, 1, 4, 2])
        perm = np.array([2, 0, 3, 1])
        r = k.reordered(perm)
        assert sorted(r.row_ids.tolist()) == sorted(k.row_ids.tolist())
        assert np.allclose(sorted(r.block_flops), sorted(k.block_flops))
        # Block 0 of the reordered kernel is old block 2.
        assert np.array_equal(
            r.row_ids[: int(np.diff(r.row_ptr)[0])],
            k.row_ids[k.row_ptr[2] : k.row_ptr[3]],
        )

    def test_reordered_identity(self):
        k = ragged_kernel([3, 1, 4])
        r = k.reordered(np.arange(3))
        assert np.array_equal(r.row_ids, k.row_ids)


class TestListSchedule:
    def test_fits_in_slots(self):
        starts, ends = _list_schedule(np.array([1.0, 2.0]), 8)
        assert starts.tolist() == [0.0, 0.0]

    def test_uniform_fast_path_matches_heap(self):
        durations = np.full(100, 2.0)
        s1, e1 = _list_schedule(durations, 8)
        # Perturb one element epsilon to force the heap path.
        d2 = durations.copy()
        d2[0] += 1e-9
        s2, e2 = _list_schedule(d2, 8)
        assert np.allclose(s1, s2, atol=1e-6)
        assert np.allclose(e1, e2, atol=1e-6)

    def test_makespan_bounds(self):
        rng = np.random.default_rng(5)
        durations = rng.random(500) + 0.01
        starts, ends = _list_schedule(durations, 16)
        makespan = ends.max()
        balanced = durations.sum() / 16
        assert makespan >= balanced - 1e-12
        assert makespan <= balanced + durations.max() + 1e-12

    def test_long_tail(self):
        durations = np.concatenate([np.full(100, 1.0), [50.0]])
        starts, ends = _list_schedule(durations, 10)
        # The straggler dominates the makespan.
        assert ends.max() >= 50.0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 32))
    @settings(max_examples=30, deadline=None)
    def test_no_slot_overlap(self, seed, slots):
        rng = np.random.default_rng(seed)
        durations = rng.random(64) + 1e-3
        starts, ends = _list_schedule(durations, slots)
        # At any block start, at most `slots` blocks are active.
        active = [
            ((starts < s + 1e-15) & (ends > s + 1e-15)).sum()
            for s in starts
        ]
        assert max(active) <= slots


class TestInterleavedOrder:
    def test_is_permutation(self):
        ptr = np.array([0, 3, 3, 8, 9])
        perm = interleaved_order(ptr, 2)
        assert np.array_equal(np.sort(perm), np.arange(9))

    def test_uniform_blocks_round_robin(self):
        # 4 blocks x 2 rows, 2 slots: waves of 2 blocks interleave.
        ptr = np.array([0, 2, 4, 6, 8])
        perm = interleaved_order(ptr, 2)
        block_of = np.repeat(np.arange(4), 2)
        first_four = block_of[perm[:4]]
        # The first wave mixes blocks 0 and 1 before 2 and 3 appear.
        assert set(first_four.tolist()) == {0, 1}

    def test_preserves_within_block_order(self):
        ptr = np.array([0, 5])
        perm = interleaved_order(ptr, 4)
        assert np.array_equal(perm, np.arange(5))


class TestSimulateKernel:
    def test_time_positive_and_composed(self):
        k = ragged_kernel([10, 20, 5])
        stats = simulate_kernel(k, V100)
        assert stats.makespan > 0
        assert stats.time == pytest.approx(
            stats.makespan + stats.launch_overhead
        )

    def test_makespan_at_least_balanced(self):
        k = ragged_kernel(np.random.default_rng(1).integers(1, 50, 300))
        stats = simulate_kernel(k, V100)
        assert stats.makespan >= stats.balanced_time - 1e-12

    def test_traffic_conservation(self):
        k = ragged_kernel([4, 4, 4])
        stats = simulate_kernel(k, V100)
        total = stats.bytes_dram + stats.bytes_l2
        assert total == pytest.approx(k.total_bytes, rel=1e-6)

    def test_hit_rate_in_unit_interval(self):
        k = ragged_kernel([30] * 20)
        stats = simulate_kernel(k, V100)
        assert 0.0 <= stats.l2_hit_rate <= 1.0
        assert stats.l2_miss_rate == pytest.approx(
            1.0 - stats.l2_hit_rate
        )

    def test_dispatch_overhead_added(self):
        k = KernelSpec.uniform_dense("d", 1e6, 1e6, 4)
        a = simulate_kernel(k, V100, dispatch_overhead=0.0)
        b = simulate_kernel(k, V100, dispatch_overhead=1e-3)
        assert b.time - a.time == pytest.approx(1e-3)

    def test_no_launch_kernels_skip_overhead(self):
        k = KernelSpec.uniform_dense("d", 1e6, 1e6, 4,
                                     counts_launch=False)
        stats = simulate_kernel(k, V100, dispatch_overhead=1e-3)
        assert stats.launch_overhead == 0.0

    def test_atomics_increase_time(self):
        base = ragged_kernel([8] * 50)
        with_atomics = ragged_kernel([8] * 50)
        with_atomics.atomics = np.full(50, 1000, dtype=np.int64)
        a = simulate_kernel(base, V100)
        b = simulate_kernel(with_atomics, V100)
        assert b.makespan > a.makespan

    def test_memory_bound_scaling(self):
        """Doubling row bytes of a memory-bound kernel ~doubles time."""
        k1 = ragged_kernel([64] * 100, row_bytes=128, flops_per_row=0.0)
        k2 = ragged_kernel([64] * 100, row_bytes=256, flops_per_row=0.0)
        cfg = V100.replace(l2_bytes=1024)  # force misses
        t1 = simulate_kernel(k1, cfg).makespan
        t2 = simulate_kernel(k2, cfg).makespan
        assert t2 > 1.5 * t1

    def test_trace_limit_sampling(self):
        """Rates from a sampled prefix stay close to the full trace."""
        rng = np.random.default_rng(7)
        lengths = rng.integers(1, 30, size=4000)
        k = ragged_kernel(lengths)
        full = simulate_kernel(k, V100)
        sampled = simulate_kernel(
            k, V100.replace(cache_trace_limit=k.num_row_accesses // 4)
        )
        assert abs(full.l2_hit_rate - sampled.l2_hit_rate) < 0.15


class TestSimulateKernels:
    def test_report_aggregation(self):
        ks = [
            KernelSpec.uniform_dense("a", 1e6, 1e6, 4),
            KernelSpec.uniform_dense("b", 2e6, 1e6, 4),
        ]
        rep = simulate_kernels(ks, V100, label="x", peak_mem_bytes=42)
        assert rep.num_kernels == 2
        assert rep.total_flops == pytest.approx(3e6)
        assert rep.peak_mem_bytes == 42
        assert rep.total_time == sum(k.time for k in rep.kernels)
        assert rep.time_of("a") == rep.kernels[0].time


class TestStreamTierLanes:
    """A fixed kernel sequence gives the same per-block hit counts and
    drives the stream and perm tiers through the same hits, misses and
    evictions in the native lane and under ``override(fastpath=False)``.

    The budgets are patched to fixed fractions of the module budgets,
    too small for every analysis of the sequence, so both tiers hit,
    miss and evict; the pinned counts hold as long as entry sizes and
    budgets scale together."""

    TIER_COUNTERS = tuple(
        f"{tier}_{event}"
        for tier in ("stream_cache", "perm_cache")
        for event in ("hit", "miss", "evict")
    )
    #: (stream hit, miss, evict, perm hit, miss, evict) per cache model.
    PINNED = {"window": (4, 12, 3, 5, 7, 3), "lru": (3, 13, 7, 6, 7, 3)}

    @staticmethod
    def _kernels():
        """Four block layouts of ~6k accesses and one of ~15k (cut to a
        prefix at the trace limit below), each paired with one or two
        row streams; then repeats in an order that hits some cached
        analyses and misses evicted ones."""
        rng = np.random.default_rng(21)
        layouts = [rng.integers(0, 20, size=600) for _ in range(4)]
        layouts.append(rng.integers(0, 20, size=1_500))
        kernels = {}
        for li, lengths in enumerate(layouts):
            for ri in range(2):
                k = ragged_kernel(lengths)
                k.row_ids = rng.integers(0, 3_000, size=k.num_row_accesses)
                kernels[li, ri] = k
        order = [
            (0, 0), (1, 0), (0, 1), (2, 0), (0, 0), (3, 1), (4, 0),
            (1, 1), (0, 0), (4, 1), (2, 0), (3, 0), (2, 1), (4, 0),
            (1, 0), (0, 1),
        ]
        return [kernels[i] for i in order]

    def _run(self, kernels, config):
        memo.clear_caches()
        before = dict(PERF.counts)
        results = [_row_hit_counts(k, config) for k in kernels]
        counters = {
            name: PERF.counts.get(name, 0) - before.get(name, 0)
            for name in self.TIER_COUNTERS
        }
        memo.clear_caches()
        return results, counters

    @pytest.mark.parametrize("model", ["window", "lru"])
    def test_lanes_agree_through_evictions(self, monkeypatch, model):
        monkeypatch.setattr(
            memo.STREAM_CACHE, "max_bytes", memo.STREAM_CACHE_BYTES >> 9
        )
        monkeypatch.setattr(
            memo.PERM_CACHE, "max_bytes", memo.PERM_CACHE_BYTES >> 9
        )
        config = V100.replace(cache_model=model, cache_trace_limit=10_000)
        kernels = self._kernels()
        native, native_counters = self._run(kernels, config)
        with override(fastpath=False):
            ref, ref_counters = self._run(kernels, config)
        for (counts, rate), (ref_counts, ref_rate) in zip(native, ref):
            assert counts.tobytes() == ref_counts.tobytes()
            assert rate.hex() == ref_rate.hex()
        assert native_counters == ref_counters
        assert tuple(
            native_counters[name] for name in self.TIER_COUNTERS
        ) == self.PINNED[model]


class TestInt32StreamAnalyses:
    """Stream analyses hold int32 positions in both lanes, and the
    stream and perm tiers charge 4 bytes per position and array."""

    @pytest.mark.parametrize("fastpath", [True, False], ids=["native", "ref"])
    def test_int32_in_both_lanes(self, fastpath):
        k = ragged_kernel(np.random.default_rng(3).integers(0, 20, size=400))
        n = k.num_row_accesses
        with override(fastpath=fastpath):
            memo.clear_caches()
            assert previous_occurrence(k.row_ids).dtype == np.int32
            plan = _stream_plan(k.row_ptr, k.row_ids, 160, key=("k",))
            assert plan.perm.dtype == plan.prev.dtype == np.int32
            assert plan.nbytes == 8 * n
            assert memo.STREAM_CACHE.nbytes == 8 * n
            assert memo.PERM_CACHE.nbytes == 4 * n
            _plan_hits(plan, 64, "lru", key=("k",))
            assert plan.lru_distances.dtype == np.int32
            assert memo.STREAM_CACHE.nbytes == plan.nbytes == 12 * n
            memo.clear_caches()

    def test_too_long_stream_raises_before_reading(self):
        """A zero-stride view of 2**31 positions allocates nothing;
        narrowing its positions to int32 is refused before any pass."""
        stream = np.lib.stride_tricks.as_strided(
            np.zeros(1, np.int64), shape=(2**31,), strides=(0,)
        )
        row_ptr = np.array([0, 2**31], dtype=np.int64)
        for fastpath in (True, False):
            with override(fastpath=fastpath):
                with pytest.raises(ValueError, match="2\\*\\*31"):
                    previous_occurrence(stream)
                with pytest.raises(ValueError, match="2\\*\\*31"):
                    _cold_stream_plan(row_ptr, stream, 160)
                with pytest.raises(ValueError, match="2\\*\\*31"):
                    interleaved_order(row_ptr, 160)
