"""Bit-identity tests for the native accelerator (``repro.gpusim._native``).

Every C kernel must return *exactly* what its pure-Python/numpy
counterpart returns — the fast path's contract is identity, not
approximation.  Each test compares the two sides on randomized inputs;
the whole module degrades to trivially-passing skips when no C compiler
is available, mirroring the library's own graceful fallback.
"""

import heapq
import logging
import tempfile

import numpy as np
import pytest

from repro.gpusim import _native
from repro.gpusim import executor as ex
from repro.gpusim.cache import previous_occurrence, window_hits_from_prev
from repro.core.scheduling import locality_aware_schedule
from repro.graph import load_dataset
from repro.perf import configure

needs_native = pytest.mark.skipif(
    not _native.available(), reason="no C compiler / native lane disabled"
)


@pytest.fixture(autouse=True)
def _restore_perf():
    yield
    configure(fastpath=True, memo=True)


def _ragged(rng, n_blocks=400, lo=1, hi=40):
    lengths = rng.integers(lo, hi, size=n_blocks)
    row_ptr = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    return row_ptr


@needs_native
class TestNativeBitIdentity:
    def test_prev_occurrence(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 500, size=20_000)
        configure(fastpath=False)
        ref = previous_occurrence(stream)
        configure(fastpath=True)
        fast = previous_occurrence(stream)
        direct = _native.prev_occurrence(
            np.ascontiguousarray(stream, dtype=np.int64), 500
        )
        assert np.array_equal(ref, fast)
        assert np.array_equal(ref, direct)

    def test_interleave_order(self):
        rng = np.random.default_rng(1)
        for slots in (1, 7, 80):
            row_ptr = _ragged(rng)
            configure(fastpath=False)
            ref = ex.interleaved_order(row_ptr, slots)
            configure(fastpath=True)
            fast = ex.interleaved_order(row_ptr, slots)
            assert np.array_equal(ref, fast)

    @staticmethod
    def _stream_layouts(rng):
        """Ragged layouts the tick sweep must order exactly: zero-length
        blocks, one hub block longer than the rest of the stream, a
        uniform-length layout and a mostly-empty one."""
        yield "ragged", _ragged(rng, lo=0, hi=40)
        hub = _ragged(rng, n_blocks=300, lo=0, hi=6)
        lengths = np.diff(hub)
        lengths[17] = 2 * int(hub[-1])
        hub[1:] = np.cumsum(lengths)
        yield "hub", hub
        yield "uniform", np.arange(0, 5 * 257, 5, dtype=np.int64)
        yield "mostly-empty", _ragged(rng, n_blocks=500, lo=0, hi=3)

    def test_stream_plan_matches_reference(self):
        rng = np.random.default_rng(6)
        for name, row_ptr in self._stream_layouts(rng):
            n = int(row_ptr[-1])
            row_ids = rng.integers(0, max(n // 4, 1), size=n)
            for slots in (1, 7, 160):
                configure(fastpath=False)
                perm = ex.interleaved_order(row_ptr, slots)
                prev = previous_occurrence(row_ids[perm])
                configure(fastpath=True)
                got = _native.stream_plan(row_ptr, row_ids, slots)
                assert got is not None, (name, slots)
                assert np.array_equal(got[0], perm), (name, slots)
                assert np.array_equal(got[1], prev), (name, slots)

    def test_stream_plan_on_prefix_cut(self):
        """The sampled prefix ``_row_hit_counts`` analyses: a row_ptr
        prefix up to the cut block and the matching row-id view."""
        rng = np.random.default_rng(7)
        row_ptr = _ragged(rng, n_blocks=2_000, lo=0, hi=30)
        row_ids = rng.integers(0, 3_000, size=int(row_ptr[-1]))
        limit = int(row_ptr[-1]) // 3
        cut_block = int(np.searchsorted(row_ptr, limit, side="right")) - 1
        sub_ptr = row_ptr[: cut_block + 1]
        sub_ids = row_ids[: int(row_ptr[cut_block])]
        configure(fastpath=False, memo=False)
        ref = ex._stream_plan(sub_ptr, sub_ids, 160)
        configure(fastpath=True, memo=False)
        fast = ex._stream_plan(sub_ptr, sub_ids, 160)
        assert np.array_equal(ref.perm, fast.perm)
        assert np.array_equal(ref.prev, fast.prev)

    def test_stream_plan_declines_what_c_cannot_take(self):
        row_ptr = _ragged(np.random.default_rng(8), n_blocks=50)
        n = int(row_ptr[-1])
        big = np.full(n, 60_000_000, dtype=np.int64)
        assert _native.stream_plan(row_ptr, big, 7) is None
        assert _native.stream_plan(row_ptr, -big, 7) is None
        ids = big % 97
        falling = row_ptr.copy()
        falling[5] = falling[6] + 1
        assert _native.stream_plan(falling, ids, 7) is None
        assert _native.stream_plan(row_ptr, ids[:-1], 7) is None
        assert _native.stream_plan(row_ptr, ids, 0) is None
        configure(memo=False)
        plan = ex._stream_plan(row_ptr, big, 7)  # numpy lane answers
        assert np.array_equal(plan.perm, ex.interleaved_order(row_ptr, 7))

    def test_list_schedule_matches_reference(self):
        """One native heap call over every block equals the heapq
        reference on the shapes the numpy wave lane special-cases: long
        constant runs, irregular stretches and a hub block."""
        rng = np.random.default_rng(9)
        for slots in (1, 7, 160):
            parts = [
                np.full(6 * slots, 2.5),
                rng.random(3 * slots) * 4.0,
                np.full(9 * slots + 3, 0.75),
                np.array([400.0]),
                rng.choice([0.5, 1.0, 3.0], size=20 * slots),
                np.zeros(2 * slots),
                np.full(5 * slots, 0.1),
            ]
            durations = np.concatenate(parts)
            s_ref, e_ref = ex._list_schedule_reference(durations, slots)
            s, e = ex._list_schedule(durations, slots)
            assert np.array_equal(s, s_ref), slots
            assert np.array_equal(e, e_ref), slots

    def test_count_and_estimate_first_touch(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 300, size=8_000)
        prev = previous_occurrence(stream).astype(np.int32)
        n = prev.shape[0]
        for window, stride in ((64, 1), (1000, 3), (n, 16)):
            starts = np.linspace(0, n - window, num=8).astype(np.int64)
            expected = 0.0
            for t in starts:
                seg = prev[t:t + window:stride]
                count = np.count_nonzero(seg < t)
                expected += count * stride
                one = _native.estimate_first_touch(
                    prev, np.array([t], dtype=np.int64), window, stride
                )
                assert one == count * stride
            got = _native.estimate_first_touch(
                prev, starts, window, stride
            )
            assert got == expected  # exact, not approx

    def test_window_mask(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 200, size=5_000)
        prev = previous_occurrence(stream)
        for capacity in (16, 64, 256):
            configure(fastpath=False)
            ref = window_hits_from_prev(prev, capacity)
            configure(fastpath=True)
            fast = window_hits_from_prev(prev, capacity)
            assert np.array_equal(ref, fast)

    def test_greedy_schedule_matches_heapq(self):
        rng = np.random.default_rng(4)
        durations = rng.random(3_000) * 10.0
        for k in (1, 4, 33):
            heap = list(np.zeros(k))
            starts_ref = np.empty(durations.shape[0])
            ends_ref = np.empty(durations.shape[0])
            heapq.heapify(heap)
            for i, d in enumerate(durations):
                s = heapq.heappop(heap)
                e = s + d
                starts_ref[i] = s
                ends_ref[i] = e
                heapq.heappush(heap, e)
            heap_arr = np.zeros(k)
            starts = np.empty(durations.shape[0])
            ends = np.empty(durations.shape[0])
            _native.greedy_schedule(
                np.ascontiguousarray(durations), heap_arr, starts, ends
            )
            assert np.array_equal(starts_ref, starts)
            assert np.array_equal(ends_ref, ends)

    def test_merge_pairs_partition_identical(self):
        g = load_dataset("ddi")
        configure(fastpath=False)
        ref = locality_aware_schedule(g)
        configure(fastpath=True)
        fast = locality_aware_schedule(g)
        assert np.array_equal(ref.order, fast.order)
        assert np.array_equal(ref.cluster_id, fast.cluster_id)
        assert ref.num_clusters == fast.num_clusters


class TestNativeDisabled:
    def test_repro_native_0_falls_back(self, monkeypatch):
        """With the native lane forced off, numpy paths carry the same
        results — the accelerator is an implementation detail."""
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 300, size=10_000)
        row_ptr = _ragged(rng)
        with_native_prev = previous_occurrence(stream)
        with_native_order = ex.interleaved_order(row_ptr, 13)
        with_native_mask = window_hits_from_prev(with_native_prev, 64)
        row_ids = rng.integers(0, 500, size=int(row_ptr[-1]))
        configure(memo=False)
        with_native_plan = ex._stream_plan(row_ptr, row_ids, 13)
        durations = np.concatenate(
            [np.full(200, 1.5), rng.random(300) * 3.0]
        )
        with_native_sched = ex._list_schedule(durations, 13)
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_TRIED", True)
        assert not _native.available()
        assert np.array_equal(
            with_native_prev, previous_occurrence(stream)
        )
        assert np.array_equal(
            with_native_order, ex.interleaved_order(row_ptr, 13)
        )
        assert np.array_equal(
            with_native_mask,
            window_hits_from_prev(with_native_prev, 64),
        )
        plan = ex._stream_plan(row_ptr, row_ids, 13)
        assert np.array_equal(with_native_plan.perm, plan.perm)
        assert np.array_equal(with_native_plan.prev, plan.prev)
        for a, b in zip(with_native_sched, ex._list_schedule(durations, 13)):
            assert np.array_equal(a, b)

    def test_env_var_disables_build(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_TRIED", False)
        with caplog.at_level(logging.WARNING, logger=_native.__name__):
            assert not _native.available()
        assert not caplog.records  # an explicit opt-out is not a fault

    @pytest.mark.parametrize("value", ["false", "off", "no"])
    def test_off_spellings_select_numpy_lane(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NATIVE", value)
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_TRIED", False)
        assert not _native.available()

    def test_missing_compiler_warns_and_cleans_up(
        self, monkeypatch, tmp_path, caplog
    ):
        missing = str(tmp_path / "no-such-cc")
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("CC", missing)
        # A fresh temp dir: no previously cached shared object is found.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_TRIED", False)
        with caplog.at_level(logging.WARNING, logger=_native.__name__):
            assert not _native.available()
        warnings = [
            r for r in caplog.records if r.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert missing in warnings[0].getMessage()
        leftovers = [
            p.name for p in tmp_path.iterdir()
            if p.suffix in (".c", ".so")
        ]
        assert leftovers == []
