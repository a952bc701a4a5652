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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpusim import _native
from repro.gpusim import executor as ex
from repro.gpusim.cache import (
    effective_window,
    previous_occurrence,
    window_hits_from_prev,
)
from repro.gpusim.config import V100_SCALED
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.metrics import occupancy_below
from repro.core import minhash
from repro.core.minhash import (
    MinHashSignature,
    lsh_candidate_pairs,
    minhash_signatures,
    signature_similarity,
)
from repro.core.scheduling import locality_aware_schedule
from repro.graph import coo_to_csr, khop_sampled_subgraph, load_dataset
from repro.graph.csr import sorted_unique
from repro.perf import RuntimeConfig, override

needs_native = pytest.mark.skipif(
    not _native.available(), reason="no C compiler / native lane disabled"
)


def _ragged(rng, n_blocks=400, lo=1, hi=40):
    lengths = rng.integers(lo, hi, size=n_blocks)
    row_ptr = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    return row_ptr


@st.composite
def csr_graphs(draw):
    """Random CSR graphs: N = 1 and E = 0 included, with empty rows and,
    from a small source pool, rows with equal neighbor sets (buckets
    larger than the pair window)."""
    n = draw(st.integers(1, 48))
    e = draw(st.integers(0, 4 * n))
    pool = draw(st.integers(1, n))
    src = draw(st.lists(st.integers(0, pool - 1), min_size=e, max_size=e))
    # Destinations from a subset of the nodes, so some rows stay empty.
    hubs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    dst = draw(st.lists(st.sampled_from(hubs), min_size=e, max_size=e))
    return coo_to_csr(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n
    )


def _duration_mixes(rng):
    b = int(rng.integers(1, 1500))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return rng.uniform(0.1, 1.0, b)
    if kind == 1:  # heavy tail (hub blocks)
        return rng.pareto(1.1, b) + 0.01
    if kind == 2:  # near-uniform with float jitter
        return 1.0 + rng.normal(0, 1e-6, b)
    if kind == 3:  # heavy duplication / ties
        return rng.choice([0.5, 1.0, 2.0], b)
    d = rng.uniform(0.01, 0.02, b)  # one giant hub among tiny blocks
    d[rng.integers(0, b)] = 50.0
    return d


#: Slot counts around the scheduler's padding: powers of two and their
#: neighbours, and V100_SCALED's 160 slots.
_SLOT_COUNTS = (1, 2, 3, 127, 128, 129, 160, 255, 256, 257)


def _tuner_durations(rng, n):
    """Durations shaped like the tuner's schedules: 94% of the blocks
    share one duration, the rest (the last block always among them)
    spread over 15 others."""
    durations = np.full(n, 3.25e-6)
    rare = rng.random(n) >= 0.94
    rare[-1] = True
    durations[rare] = rng.choice(
        rng.uniform(1e-6, 9e-6, 15), size=int(rare.sum())
    )
    return durations


def _alphabet_durations(rng, n):
    """Durations drawn evenly from a nine-value alphabet."""
    return rng.choice(rng.uniform(0.5, 4.0, 9), size=n)


def _khop_sample():
    """One serve-fresh-style request graph: 256 seeds, fanouts (10, 10)."""
    parent = load_dataset("arxiv")
    seeds = np.random.default_rng(0).choice(
        parent.num_nodes, size=256, replace=False
    )
    return khop_sampled_subgraph(parent, seeds, (10, 10), seed=0).graph


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@needs_native
class TestNativeBitIdentity:
    def test_prev_occurrence(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 500, size=20_000)
        with override(fastpath=False):
            ref = previous_occurrence(stream)
        fast = previous_occurrence(stream)
        direct = _native.prev_occurrence(
            np.ascontiguousarray(stream, dtype=np.int64), 500
        )
        assert np.array_equal(ref, fast)
        assert np.array_equal(ref, direct)

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
                with override(fastpath=False):
                    perm = ex.interleaved_order(row_ptr, slots)
                    prev = previous_occurrence(row_ids[perm])
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
        with override(fastpath=False, memo=False):
            ref = ex._stream_plan(sub_ptr, sub_ids, 160)
        with override(memo=False):
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
        with override(memo=False):
            plan = ex._stream_plan(row_ptr, big, 7)  # the reference answers
        assert np.array_equal(plan.perm, ex.interleaved_order(row_ptr, 7))

    def test_list_schedule_matches_reference(self):
        """One native winner-tree call over every block equals the heapq
        reference: long constant runs, irregular stretches and a hub
        block in one stream, 80 random duration mixes, and tuner-shaped
        and nine-value durations on slot counts around every padding
        boundary, with more, fewer and as many blocks as slots."""
        rng = np.random.default_rng(9)
        cases = []
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
            cases.append((np.concatenate(parts), slots))
        fuzz = np.random.default_rng(11)
        for _ in range(80):
            durations = _duration_mixes(fuzz)
            cases.append((durations, int(fuzz.integers(1, 170))))
        for slots in _SLOT_COUNTS:
            cases += [
                (_tuner_durations(rng, 12 * slots + 5), slots),
                (_alphabet_durations(rng, 12 * slots + 5), slots),
                (_tuner_durations(rng, max(slots - 1, 1)), slots),  # n < k
                (_alphabet_durations(rng, slots), slots),  # n = k
            ]
        for durations, slots in cases:
            s_ref, e_ref = ex._list_schedule_reference(durations, slots)
            s, e = ex._list_schedule(durations, slots)
            assert np.array_equal(s, s_ref), slots  # bit-identical
            assert np.array_equal(e, e_ref), slots

    @staticmethod
    def _schedules(rng):
        """(starts, ends, slots) for ``occupancy_below``: integer
        durations (many ends equal to starts), Pareto durations, uniform
        waves, one wave of ``b <= slots`` blocks, each also with its
        blocks shuffled (unsorted starts), and the empty schedule."""
        yield np.zeros(0), np.zeros(0), 8
        for case in range(400):
            slots = int(rng.choice([1, 3, 16, 160]))
            b = int(rng.integers(1, 1200))
            kind = case % 4
            if kind == 0:
                d = rng.integers(1, 4, b).astype(np.float64)
            elif kind == 1:
                d = rng.pareto(1.1, b) + 0.01
            elif kind == 2:
                d = np.full(b, 0.75)
            else:
                b = int(rng.integers(1, slots + 1))
                d = rng.uniform(0.1, 1.0, b)
            starts, ends = ex._list_schedule(d, slots)
            yield starts, ends, slots
            order = rng.permutation(b)
            yield starts[order], ends[order], slots

    def test_occupancy_below_matches_reference(self):
        """The fast timeline merge equals the concatenated stable-argsort
        reference bit for bit."""
        def bits(occ):
            return {f: v.hex() for f, v in occ.items()}

        for starts, ends, slots in self._schedules(np.random.default_rng(12)):
            with override(fastpath=False):
                ref = occupancy_below(starts, ends, slots)
            got = occupancy_below(starts, ends, slots)
            assert bits(got) == bits(ref), (starts.size, slots)
        assert _native.occupancy_merge(np.zeros(3), np.ones(2)) is None

    @staticmethod
    def _window_cases(rng):
        """(stream, capacities): random, Zipf and repeated-block streams,
        n < 16, an all-distinct and a single-row stream, and long streams
        whose searches probe windows above 131 072 (stride >= 2).  Every
        search first probes the whole stream, whose eight starts are all
        0 (the duplicate-start case ``n - w < 7``)."""
        for n in (1, 2, 7, 15):
            yield rng.integers(0, 5, size=n), (0, 1, 2, 3, n, n + 4)
        for _ in range(300):  # short searches end on every stop-rule gap
            n = int(rng.integers(16, 400))
            stream = rng.integers(0, int(rng.integers(2, n)), size=n)
            yield stream, rng.integers(0, n, size=4)
        for n, m in ((500, 40), (5_000, 300), (60_000, 4_000)):
            for stream in (
                rng.integers(0, m, size=n),
                rng.zipf(1.3, size=n) % m,
                np.tile(rng.permutation(m // 4), 4 * n // m),
            ):
                d = np.unique(stream).size
                caps = (0, 1, 2, 16, d // 3, d // 2, d - 1, d, d + 1,
                        stream.shape[0], stream.shape[0] + 7)
                yield stream, caps + tuple(rng.integers(0, d + 1, size=6))
        yield np.arange(3_000), (0, 1, 100, 2_999, 3_000, 5_000)
        yield np.zeros(3_000, dtype=np.int64), (0, 1, 2, 3_000)
        long_random = rng.integers(0, 20_000, size=300_000)
        yield long_random, (1, 5_000, 19_000, 19_990, 19_999, 20_000)
        yield np.arange(300_000), (150_000, 200_000, 299_999, 300_000)
        yield rng.zipf(1.1, size=300_000) % 50_000, (2_000, 20_000, 40_000)

    def test_window_search_matches_reference(self):
        """``effective_window`` returns the same window in the default
        lane, without the native lane and on the numpy reference."""
        widest = 0
        for stream, caps in self._window_cases(np.random.default_rng(2)):
            prev = previous_occurrence(stream)
            for cap in caps:
                cap = int(cap)
                got = effective_window(None, cap, prev=prev)
                with override(native=False):
                    numpy_lane = effective_window(None, cap, prev=prev)
                with override(fastpath=False):
                    ref = effective_window(None, cap, prev=prev)
                assert got == numpy_lane == ref, (stream.shape[0], cap)
                widest = max(widest, ref)
        assert widest > 2 * 65_536  # strided probes were exercised

    def test_window_mask(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 200, size=5_000)
        prev = previous_occurrence(stream)
        for capacity in (16, 64, 256):
            with override(fastpath=False):
                ref = window_hits_from_prev(prev, capacity)
            fast = window_hits_from_prev(prev, capacity)
            assert np.array_equal(ref, fast)

    def test_window_hit_count(self):
        rng = np.random.default_rng(3)
        streams = [
            previous_occurrence(rng.integers(0, 200, size=5_000)),
            previous_occurrence(np.repeat(np.arange(50), 3)),  # gap 1
            np.zeros(0, dtype=np.int32),
            np.full(64, -1, dtype=np.int32),
        ]
        for prev in streams:
            n = prev.shape[0]
            for w in (0, 1, 2, 17, n, n + 5):
                mask = _native.window_mask(prev, w)
                assert _native.window_hit_count(prev, w) == (
                    np.count_nonzero(mask)
                )

    @pytest.mark.parametrize("n", [0, 1, 2, 1_000, 2**20 - 1, 2**20, 2**20 + 3])
    def test_window_counts_match_numpy(self, n):
        """The mask and the count equal the numpy lane's ``(prev >= 0) &
        (i - prev <= w)`` on short streams, across the 2**20-position
        count chunk, with first touches (-1) throughout and for windows
        of one position up to past the stream's end."""
        rng = np.random.default_rng(n)
        streams = (
            previous_occurrence(rng.integers(0, max(n // 7, 1), size=n)),
            np.full(n, -1, dtype=np.int32),
        )
        for prev in streams:
            gap = np.arange(n, dtype=np.int64) - prev
            for w in sorted({1, max(n - 1, 1), max(n, 1), n + 5}):
                want = (prev >= 0) & (gap <= w)
                assert np.array_equal(_native.window_mask(prev, w), want), w
                assert _native.window_hit_count(prev, w) == (
                    np.count_nonzero(want)
                ), w

    def test_greedy_schedule_matches_heapq(self):
        """Starts, ends and the final free multiset equal ``heapq``'s on
        float durations from idle slots, integer durations with many
        ties from slots freeing in no order, a dominant duration, a
        nine-value alphabet, and fewer or as many blocks as slots, on
        slot counts around every padding boundary."""
        rng = np.random.default_rng(4)

        def idle(k):
            return np.zeros(k)

        def busy(k):
            return rng.integers(0, 5, size=k).astype(np.float64)

        def scattered(k):
            return rng.uniform(0.0, 3.0, size=k)

        for k in _SLOT_COUNTS:
            streams = (
                (rng.random(3_000) * 10.0, idle),
                (rng.integers(0, 4, size=3_000).astype(np.float64), busy),
                (_tuner_durations(rng, 3_000), idle),
                (_tuner_durations(rng, 3_000), scattered),
                (_alphabet_durations(rng, 3_000), idle),
                (_alphabet_durations(rng, 3_000), busy),
                (rng.random(max(k - 1, 1)), scattered),  # n < k
                (rng.random(k), idle),  # n = k
            )
            for durations, free_at in streams:
                initial = free_at(k)
                heap = list(initial)
                starts_ref = np.empty(durations.shape[0])
                ends_ref = np.empty(durations.shape[0])
                heapq.heapify(heap)
                for i, d in enumerate(durations):
                    s = heapq.heappop(heap)
                    e = s + d
                    starts_ref[i] = s
                    ends_ref[i] = e
                    heapq.heappush(heap, e)
                heap_arr = initial.copy()
                starts = np.empty(durations.shape[0])
                ends = np.empty(durations.shape[0])
                _native.greedy_schedule(
                    np.ascontiguousarray(durations), heap_arr, starts, ends
                )
                assert _same_bits(starts_ref, starts), k
                assert _same_bits(ends_ref, ends), k
                assert _same_bits(np.sort(heap_arr), np.sort(heap)), k

    @pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
    def test_scheduler_declines_to_heapq(self, monkeypatch, bad):
        """A NaN, negative or infinite duration never reaches the native
        scheduler: ``heapq`` answers the schedule and the makespan."""
        durations = np.random.default_rng(17).random(500)
        durations[[3, 250]] = bad
        with override(native=False):
            want = ex._list_schedule(durations, 16)
        monkeypatch.setattr(
            _native, "greedy_schedule",
            lambda *a: pytest.fail("native scheduler called"),
        )
        got = ex._list_schedule(durations, 16)
        ref = ex._list_schedule_reference(durations, 16)
        for a, b, c in zip(got, want, ref):
            assert _same_bits(a, b) and _same_bits(a, c)
        assert ex._makespan(durations, 16).hex() == float(ref[1].max()).hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.0])
    def test_scheduler_declines_free_times_it_could_misorder(self, bad):
        """A NaN, infinite or ``-0.0`` initial free time, or a bad
        duration, declines before any block is placed: ``free_at`` is
        left as it was."""
        durations = np.random.default_rng(18).random(300)
        free_at = np.zeros(8)
        free_at[5] = bad
        before = free_at.copy()
        assert not _native.greedy_schedule(
            durations, free_at, np.empty(300), np.empty(300)
        )
        assert _same_bits(free_at, before)
        durations[299] = np.nan
        free_at = np.zeros(8)
        assert not _native.greedy_schedule(durations, free_at)
        assert _same_bits(free_at, np.zeros(8))

    def test_makespan_is_the_largest_end(self):
        """The makespan-only schedule (no starts or ends) returns the
        largest end of the full one, bit for bit."""
        rng = np.random.default_rng(19)
        cases = [(_duration_mixes(rng), int(rng.integers(1, 300)))
                 for _ in range(60)]
        for slots in _SLOT_COUNTS:
            cases.append((_tuner_durations(rng, 20 * slots), slots))
            cases.append((np.zeros(3 * slots), slots))
        for durations, slots in cases:
            _, ends = ex._list_schedule(durations, slots)
            assert ex._makespan(durations, slots).hex() == (
                float(ends.max()).hex()
            )

    @pytest.mark.parametrize("tag", ["dense", "fused"])
    def test_block_prices_match_numpy(self, monkeypatch, tag):
        """The compiled pricing pass equals ``block_durations``' numpy
        lines bit for bit: zero-row blocks and no rows at all, NaN and
        infinite FLOPs, ``+-0.0`` ties between compute and memory time
        (``np.maximum`` keeps its second argument), atomics of 0 and
        2**31, and dense and irregular rates."""
        rng = np.random.default_rng(20)
        b = 96
        hits = np.floor(rng.random(b) * 6.0)
        flops = rng.uniform(0.0, 4e5, b)
        flops[:4] = (np.nan, np.inf, -0.0, 0.0)
        stream = rng.uniform(0.0, 9e3, b)
        stream[2:8] = -0.0
        atomics = np.where(rng.random(b) < 0.5, 0, 2**31)
        lengths = rng.integers(0, 9, b)
        lengths[:8] = 0  # zero-row blocks where the ties are
        hits[:8] = 0.0
        hits = np.minimum(hits, lengths)
        row_ptr = np.concatenate([[0], np.cumsum(lengths)])
        row_ids = rng.integers(0, 50, int(row_ptr[-1]))
        monkeypatch.setattr(
            ex, "_row_hit_counts", lambda kernel, config: (hits, 0.5)
        )
        configs = (
            V100_SCALED,
            # -0.0 charges keep a -0.0 price visible in the result.
            V100_SCALED.replace(block_overhead=-0.0, atomic_cost=-0.0),
        )
        # A negative row size makes the memory time -0.0 on empty rows.
        with override(strict=False):
            kernels = [
                KernelSpec(
                    name="k", block_flops=flops, row_ptr=row_ptr,
                    row_ids=row_ids, row_bytes=row_bytes,
                    stream_bytes=stream, atomics=atomics, tag=tag,
                )
                for row_bytes in (0, 192, -8)
            ]
            kernels.append(KernelSpec(
                name="k", block_flops=flops, stream_bytes=stream,
                atomics=atomics, tag=tag,
            ))
        for config in configs:
            for kernel in kernels:
                got, _, _ = ex.block_durations(kernel, config)
                with override(native=False):
                    want, _, _ = ex.block_durations(kernel, config)
                assert _same_bits(got, want), (config, kernel.row_bytes)
        assert _native.block_prices(
            None, hits[:-1], stream, flops, atomics,
            1.0, 1.0, 1.0, 1.0, 0.0, 0.0,
        ) is None

    @staticmethod
    def _sorted_end_schedules(rng):
        """(durations, slots): random, heavy-tailed, tied (integer
        durations 0-3, many equal ends) and mostly-zero durations, from
        one slot to 160."""
        for slots in (1, 2, 7, 160):
            yield rng.random(2_000) * 10.0, slots
            yield rng.pareto(1.1, 2_000) + 0.01, slots
            yield rng.integers(0, 4, size=2_000).astype(np.float64), slots
            zeros = np.zeros(2_000)
            zeros[rng.integers(0, 2_000, size=40)] = 1.5
            yield zeros, slots

    def test_sorted_ends_are_the_sort_of_ends(self):
        """The native winner tree's sorted ends equal ``np.sort(ends)`` bit
        for bit, and hand the occupancy merge the same timeline."""
        rng = np.random.default_rng(15)
        for durations, slots in self._sorted_end_schedules(rng):
            starts, ends, sorted_ends = ex._list_schedule_sorted(
                durations, slots
            )
            assert sorted_ends is not None
            assert _same_bits(sorted_ends, np.sort(ends))
            assert occupancy_below(
                starts, ends, slots, sorted_ends=sorted_ends
            ) == occupancy_below(starts, ends, slots)

    def test_sorted_ends_only_from_the_heap_path(self):
        """Fewer blocks than slots, near-uniform durations and negative
        or NaN durations leave the sort to ``occupancy_below``."""
        rng = np.random.default_rng(16)
        mixed = rng.random(500)
        negative = mixed.copy()
        negative[7] = -0.5
        nan = mixed.copy()
        nan[9] = np.nan
        for durations, slots in (
            (mixed[:10], 16),
            (np.full(500, 2.0), 16),
            (1.0 + rng.normal(0, 1e-14, 500), 16),
            (negative, 16),
            (nan, 16),
            (np.zeros(500), 16),
        ):
            *_, sorted_ends = ex._list_schedule_sorted(durations, slots)
            assert sorted_ends is None
        with override(native=False):
            *_, sorted_ends = ex._list_schedule_sorted(mixed, 16)
        assert sorted_ends is None

    def test_block_hit_counts_declines_what_c_cannot_take(self):
        """Malformed ``row_ptr`` or ``perm`` leaves the reference to
        answer (and to raise where it would)."""
        rng = np.random.default_rng(14)
        row_ptr = _ragged(rng, n_blocks=60, lo=0, hi=9)
        n = int(row_ptr[-1])
        hits = rng.random(n) < 0.5
        perm = rng.permutation(n)
        scattered = np.empty_like(hits)
        scattered[perm] = hits
        want = np.array(
            [scattered[a:b].sum() for a, b in zip(row_ptr, row_ptr[1:])],
            dtype=np.float64,
        )
        assert _same_bits(_native.block_hit_counts(hits, perm, row_ptr), want)
        falling = row_ptr.copy()
        falling[5] = falling[6] + 1
        for bad_ptr in (row_ptr + 1, np.append(row_ptr, n + 3), falling):
            assert _native.block_hit_counts(hits, perm, bad_ptr) is None
        outside = perm.copy()
        outside[3] = n
        for bad_perm in (perm[:-1], outside, outside - n - 1):
            assert _native.block_hit_counts(hits, bad_perm, row_ptr) is None

    @staticmethod
    def _hit_count_streams(rng):
        """(row_ptr, row_ids) for ``_row_hit_counts``: ragged blocks with
        empty ones among them, a stream of zero accesses, one row id
        throughout (every access but the first hits) and all-distinct
        row ids (every access misses)."""
        ragged = _ragged(rng, n_blocks=700, lo=0, hi=25)
        n = int(ragged[-1])
        yield ragged, rng.integers(0, 2_000, size=n)
        yield np.zeros(9, dtype=np.int64), np.zeros(0, dtype=np.int64)
        yield ragged, np.zeros(n, dtype=np.int64)
        yield ragged, np.arange(n, dtype=np.int64)

    @pytest.mark.parametrize("model", ["window", "lru"])
    def test_row_hit_counts_lanes_agree(self, monkeypatch, model):
        """Per-block hit counts and the hit rate are bit-identical in the
        default lane and under ``override(fastpath=False)``, also for
        hit masks forced all-hit and all-miss."""
        config = V100_SCALED.replace(cache_model=model)

        def both_lanes(kernel):
            got = ex._row_hit_counts(kernel, config)
            with override(fastpath=False):
                ref = ex._row_hit_counts(kernel, config)
            assert _same_bits(got[0], ref[0])
            assert got[1].hex() == ref[1].hex()
            return got

        for row_ptr, row_ids in self._hit_count_streams(
            np.random.default_rng(13)
        ):
            kernel = KernelSpec(
                name="k", block_flops=np.ones(row_ptr.shape[0] - 1),
                row_ptr=row_ptr, row_ids=row_ids, row_bytes=256,
            )
            counts, _ = both_lanes(kernel)
            with override(fastpath=False, memo=False):
                ref = ex._row_hit_counts(kernel, config)
            assert _same_bits(counts, ref[0])
            for fill in (True, False):
                with monkeypatch.context() as m:
                    m.setattr(
                        ex, "_plan_hits",
                        lambda plan, *_, **__: np.full(
                            plan.perm.shape[0], fill
                        ),
                    )
                    counts, rate = both_lanes(kernel)
                lengths = np.diff(row_ptr).astype(np.float64)
                assert _same_bits(counts, lengths * fill)
                assert rate == (float(fill) if row_ids.size else 0.0)

    def test_merge_pairs_partition_identical(self):
        graphs = [load_dataset("ddi"), load_dataset("arxiv"), _khop_sample()]
        for g in graphs:
            with override(fastpath=False):
                ref = locality_aware_schedule(g)
            fast = locality_aware_schedule(g)
            assert np.array_equal(ref.order, fast.order), g.name
            assert np.array_equal(ref.cluster_id, fast.cluster_id), g.name
            assert ref.num_clusters == fast.num_clusters, g.name
            assert (ref.num_candidate_pairs
                    == fast.num_candidate_pairs), g.name

    @given(csr_graphs(), st.integers(0, 40), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_minhash_rows_match_reference(self, g, num_hashes, seed):
        native = minhash_signatures(g, num_hashes=num_hashes, seed=seed)
        with override(native=False):
            ref = minhash_signatures(g, num_hashes=num_hashes, seed=seed)
        assert _same_bits(native.rows, ref.rows)
        assert np.array_equal(native.empty, ref.empty)
        assert (native.rows[native.empty] == np.iinfo(np.int64).max).all()

    def test_minhash_rows_declines_out_of_range_neighbors(self):
        indptr = np.array([0, 2, 3], dtype=np.int64)
        a = np.array([3, 5], dtype=np.int64)
        for bad in (2, -1):
            indices = np.array([0, bad, 1], dtype=np.int32)
            assert _native.minhash_rows(indptr, indices, a, a) is None

    @given(
        csr_graphs(),
        st.sampled_from([(32, 16), (30, 7), (16, 2), (24, 3), (5, 5)]),
        st.one_of(st.integers(0, 3), st.integers(4, 60)),
        st.integers(0, 2**32),
    )
    # Eight rows with one shared neighbor fill one bucket in every band,
    # wider than the window, so the ring must hold the last members.
    @example(
        coo_to_csr(np.zeros(8, np.int64), np.arange(8), 10), (16, 2), 2, 0
    )
    @settings(max_examples=80, deadline=None)
    def test_lsh_pairs_match_reference(self, g, shape, pair_window, seed):
        """Native banding equals the stable-argsort reference: hash
        counts not divisible by the band count, 8 rows per band (keys
        wrap negative) and windows at least as wide as the graph."""
        num_hashes, bands = shape
        sig = minhash_signatures(g, num_hashes=num_hashes, seed=seed)
        pairs, sims = lsh_candidate_pairs(
            sig, bands=bands, pair_window=pair_window, seed=seed + 1
        )
        with override(native=False):
            ref_pairs, ref_sims = lsh_candidate_pairs(
                sig, bands=bands, pair_window=pair_window, seed=seed + 1
            )
        assert _same_bits(pairs, ref_pairs)
        assert _same_bits(sims, ref_sims)

    def test_lsh_pairs_band_key_collides_with_empty_sentinel(self):
        """With 8 rows per band a real key wraps negative and can equal
        an empty row's ``-1 - k`` key; both lanes then bucket the two
        together.  Eight entries of P - 1 under unit multipliers sum to
        2**64 - 16, i.e. key -16: the 16th empty row's sentinel."""
        n, rows = 40, 8
        sig_rows = np.random.default_rng(3).integers(
            0, minhash._MERSENNE_P, size=(n, rows), dtype=np.int64
        )
        empty = np.zeros(n, dtype=bool)
        empty[:20] = True
        sig_rows[empty] = np.iinfo(np.int64).max
        sig_rows[20:26] = minhash._MERSENNE_P - 1
        sig = MinHashSignature(rows=sig_rows, empty=empty)
        mix = np.ones((1, rows), dtype=np.int64)
        for w in (1, 3, 50):
            got = _native.lsh_pairs(sig_rows, empty, mix, w)
            ref = minhash._banded_pairs(sig, mix, w)
            assert np.array_equal(sorted_unique(got), sorted_unique(ref))
            assert 15 * n + 20 in set(got.tolist())

    @given(csr_graphs(), st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_pair_similarity_matches_numpy(self, g, num_hashes, seed):
        sig = minhash_signatures(g, num_hashes=num_hashes, seed=seed)
        rng = np.random.default_rng(seed)
        n = g.num_nodes
        u = rng.integers(0, n, size=3 * n)
        v = rng.integers(0, n, size=3 * n)
        got = _native.pair_similarity(
            sig.rows, sig.empty, np.ascontiguousarray(u),
            np.ascontiguousarray(v),
        )
        assert _same_bits(got, signature_similarity(sig, u, v))


@needs_native
class TestChoiceRows:
    """``choice_rows`` against one ``rng.choice(d, k, replace=False)`` per
    row: same draws, same generator state afterwards."""

    @given(
        st.integers(0, 39),
        st.lists(
            st.one_of(
                st.integers(0, 3), st.integers(4, 200),
                st.integers(2**16, 2**20),
            ),
            max_size=6,
        ),
        st.integers(0, 2**63),
    )
    @example(0, [0, 5], 1)                      # k = 0
    @example(1, [0, 1, 2**16], 2)               # k = 1, d = k and d = k + 1
    @example(10, [1, 1, 1], 3)                  # d = k + 1
    @example(39, [1, 0, 2, 1], 4)               # set collisions
    @example(3, [2**32 - 4, 2**31 + 2], 5)      # d = 2**32 - 1, rejections
    @settings(max_examples=150, deadline=None)
    def test_matches_rng_choice(self, k, extra, seed):
        deg = [k + e for e in extra]
        got_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = _native.choice_rows(got_rng, np.array(deg, dtype=np.int64), k)
        ref = np.concatenate([np.empty(0, np.int64)] + [
            ref_rng.choice(d, k, replace=False) for d in deg
        ])
        assert got is not None
        assert _same_bits(got, ref)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert got_rng.integers(2**62) == ref_rng.integers(2**62)

    @pytest.mark.parametrize("deg, k", [
        ([50, 3], 4),                   # d < k
        ([50, 2**32], 4),               # d > 2**32 - 1
        ([50, 20_000], 401),            # tail shuffle: k > d // 50
        ([50], -1),
    ])
    def test_declines_before_drawing(self, deg, k):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert _native.choice_rows(
            rng, np.array(deg, dtype=np.int64), k
        ) is None
        assert rng.bit_generator.state == before

    def test_tail_shuffle_row_gives_same_subgraph(self):
        """A hub with 12 000 in-neighbors sampled at fanout 300 sits on
        numpy's tail-shuffle branch, next to a 500-neighbor row on the
        Floyd branch: the hop declines to ``rng.choice`` for both rows
        and the subgraph is unchanged."""
        src = np.concatenate([np.arange(1, 12_001), np.arange(1, 501)])
        dst = np.repeat(np.array([0, 12_001]), [12_000, 500])
        hub = coo_to_csr(src, dst, 12_002)
        seeds = np.array([12_001, 0], dtype=np.int64)
        assert _native.choice_rows(
            np.random.default_rng(0), hub.degrees[seeds], 300
        ) is None
        got = khop_sampled_subgraph(hub, seeds, (300,), seed=9)
        with override(native=False):
            ref = khop_sampled_subgraph(hub, seeds, (300,), seed=9)
        assert got.graph.degrees[:2].tolist() == [300, 300]
        assert np.array_equal(got.node_map, ref.node_map)
        assert np.array_equal(got.graph.indptr, ref.graph.indptr)
        assert np.array_equal(got.graph.indices, ref.graph.indices)


def _cdf(weights):
    """numpy's ``Generator.choice`` cdf: a cumulative sum scaled to 1."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


@needs_native
class TestGuideSearch:
    """``weighted_search`` against ``np.searchsorted(cdf, u,
    side="right")``, and its guide table against its definition,
    ``guide[b] = #{cdf <= b/K}`` for K buckets."""

    @staticmethod
    def _check(cdf, u):
        u = np.asarray(u, dtype=np.float64)
        got, guide = _native._guide_search(_native._load(), cdf, u)
        k = guide.shape[0]
        n = cdf.shape[0]
        assert k & (k - 1) == 0 and k >= n and (k == 1 or 2 * n > k)
        edges = np.arange(k) / k
        assert _same_bits(guide, np.searchsorted(cdf, edges, side="right"))
        assert _same_bits(got, np.searchsorted(cdf, u, side="right"))
        assert _same_bits(_native.weighted_search(cdf, u), got)

    @pytest.mark.parametrize("weights", [
        [1.0],                                  # n = 1
        np.ones(8),                             # every cdf entry on an edge
        np.arange(1.0, 65.0),                   # n a power of two
        np.arange(1.0, 66.0),                   # n one past a power of two
        [0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],  # repeated cdf values
        [1.0, 0.0, 0.0, 0.0, 0.0],              # all mass on the first
        [0.0, 0.0, 0.0, 0.0, 1.0],              # all mass on the last
    ])
    def test_matches_searchsorted_at_the_edges(self, weights):
        cdf = _cdf(weights)
        k = 1 << max(cdf.shape[0] - 1, 0).bit_length()
        one_below = np.nextafter(1.0, 0.0)
        inner = cdf[cdf < 1.0]
        u = np.concatenate([
            [0.0, one_below],
            inner,                                  # u equal to a cdf entry
            np.nextafter(inner, 0.0),
            np.nextafter(inner, 1.0),
            np.arange(k) / k,                       # bucket edges b/K
            np.nextafter(np.arange(1, k + 1) / k, 0.0),
            np.random.default_rng(len(cdf)).random(500),
        ])
        self._check(cdf, u)

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
            min_size=1, max_size=300,
        ).filter(lambda w: sum(w) > 0),
        st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_searchsorted(self, weights, seed):
        cdf = _cdf(weights)
        rng = np.random.default_rng(seed)
        self._check(cdf, np.concatenate([rng.random(200), cdf[cdf < 1.0]]))

    def test_reads_strided_and_float32_inputs(self):
        cdf = _cdf(np.arange(1.0, 40.0)).astype(np.float32)
        u = np.random.default_rng(3).random(400)[::2]
        assert _same_bits(
            _native.weighted_search(cdf, u),
            np.searchsorted(cdf, u, side="right"),
        )

    @pytest.mark.parametrize("bad", [1.0, -1e-300, np.nan, 2.5])
    def test_declines_u_outside_unit_interval(self, bad):
        cdf = _cdf(np.ones(5))
        assert _native.weighted_search(cdf, np.array([0.5, bad])) is None

    def test_no_native_lane_declines(self):
        with override(native=False):
            assert _native.weighted_search(_cdf([1.0]), np.zeros(3)) is None


def _edge_inputs(seed, n=300, max_deg=12, relabel=True):
    """One generator's per-node windows and per-edge draws."""
    rng = np.random.default_rng(seed)
    deg = rng.integers(0, max_deg + 1, n)
    e = int(deg.sum())
    lo = rng.integers(0, n, n)
    width = np.maximum((rng.random(n) * (n - lo)).astype(np.int64), 1)
    return dict(
        deg=deg, lo=lo, width=width, u_pick=rng.random(e), threshold=0.75,
        u_off=rng.random(e), alt=rng.integers(0, n, e),
        relabel=rng.permutation(n) if relabel else None,
    )


def _reference_keys(deg, lo, width, u_pick, threshold, u_off, alt, relabel):
    """The generators' numpy lane up to the packed keys."""
    n = deg.shape[0]
    src = np.repeat(lo, deg) + (u_off * np.repeat(width, deg)).astype(
        np.int64
    )
    src = np.where(u_pick < threshold, src, alt)
    dst = np.repeat(np.arange(n, dtype=np.int64), deg)
    if relabel is not None:
        src, dst = relabel[src], relabel[dst]
    keep = src != dst
    return dst[keep] * n + src[keep]


@needs_native
class TestEdgeKeys:
    """``edge_keys`` and ``distinct_keys_csr`` against the generators'
    numpy steps; each declines, so the numpy lane takes over, on input
    it does not take."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threshold", [0.0, 0.75, 1.0])
    @pytest.mark.parametrize("relabel", [True, False])
    def test_matches_numpy_steps(self, seed, threshold, relabel):
        args = _edge_inputs(seed, relabel=relabel)
        args["threshold"] = threshold
        keys = _native.edge_keys(**args)
        assert _same_bits(keys, _reference_keys(**args))
        keys.sort()
        n = args["deg"].shape[0]
        indptr, indices = _native.distinct_keys_csr(keys, n)
        want = sorted_unique(keys)
        assert _same_bits(
            indptr, want.searchsorted(np.arange(n + 1) * n)
        )
        assert _same_bits(indices, (want % n).astype(np.int32))
        assert indices.base is None  # owns exactly its entries

    def test_draws_at_the_edges(self):
        """Truncation toward zero at the last double below 1.0, on wide
        windows, and exact multiples, as ``astype(int64)`` does it; and a
        pick draw equal to the threshold takes the alternative."""
        n = 1_000_003
        deg = np.zeros(n, dtype=np.int64)
        deg[:4] = 3
        lo = np.zeros(n, dtype=np.int64)
        width = np.full(n, n, dtype=np.int64)
        width[1] = 3
        u_off = np.tile([0.0, np.nextafter(1.0, 0.0), 0.5], 4)
        u_pick = np.repeat([0.0, np.nextafter(0.5, 0.0), 0.5], 4)
        args = dict(
            deg=deg, lo=lo, width=width, u_pick=u_pick, threshold=0.5,
            u_off=u_off, alt=np.full(12, n - 1, dtype=np.int64),
            relabel=None,
        )
        assert _same_bits(_native.edge_keys(**args), _reference_keys(**args))

    def test_no_edges(self):
        args = _edge_inputs(0, n=5, max_deg=0)
        keys = _native.edge_keys(**args)
        assert keys.shape == (0,)
        indptr, indices = _native.distinct_keys_csr(keys, 5)
        assert _same_bits(indptr, np.zeros(6, dtype=np.int64))
        assert indices.shape == (0,) and indices.dtype == np.int32

    def test_declines_degrees_not_summing_to_the_draws(self):
        args = _edge_inputs(1)
        args["deg"] = args["deg"].copy()
        args["deg"][7] += 1
        assert _native.edge_keys(**args) is None

    def test_declines_a_negative_degree(self):
        args = _edge_inputs(2)
        deg = args["deg"] = args["deg"].copy()
        deg[4] += deg[3] + 1
        deg[3] = -1                     # the sum still matches the draws
        assert int(deg.sum()) == args["u_pick"].shape[0]
        assert _native.edge_keys(**args) is None

    @pytest.mark.parametrize("bad", [-1, 300, 10**12])
    @pytest.mark.parametrize("relabel", [True, False])
    def test_declines_an_alt_source_outside_the_nodes(self, bad, relabel):
        """Checked before the source indexes ``relabel``: 10**12 would
        read far outside it."""
        args = _edge_inputs(3, relabel=relabel)
        args["alt"] = args["alt"].copy()
        args["alt"][5] = bad
        args["threshold"] = 0.0  # every edge takes its alt source
        assert _native.edge_keys(**args) is None

    def test_declines_draws_that_are_not_float64(self):
        args = _edge_inputs(7)
        args["u_pick"] = args["u_pick"].astype(np.float32)
        assert _native.edge_keys(**args) is None

    @pytest.mark.parametrize("relabel", [True, False])
    def test_declines_a_window_source_past_the_last_node(self, relabel):
        """An offset draw past 1.0 puts the window source outside
        ``[0, N)``: declined before it indexes ``relabel``."""
        args = _edge_inputs(8, relabel=relabel)
        args["u_off"] = args["u_off"].copy()
        args["u_off"][5] = 1e9
        args["threshold"] = 1.0  # every edge takes its window source
        assert _native.edge_keys(**args) is None

    def test_declines_a_window_past_the_last_node(self):
        args = _edge_inputs(4)
        args["width"] = args["width"].copy()
        args["width"][9] = 300 - args["lo"][9] + 1
        assert _native.edge_keys(**args) is None

    @pytest.mark.parametrize("length", [299, 301])
    def test_declines_a_relabel_of_the_wrong_length(self, length):
        args = _edge_inputs(5)
        args["relabel"] = np.arange(length)
        assert _native.edge_keys(**args) is None

    @pytest.mark.parametrize("keys, n", [
        ([3, 1], 4),          # out of order
        ([-1, 2], 4),         # below the first row
        ([2, 16], 4),         # past the last row
        ([], 0),              # no node
    ])
    def test_distinct_keys_csr_declines(self, keys, n):
        assert _native.distinct_keys_csr(
            np.array(keys, dtype=np.int64), n
        ) is None

    def test_no_native_lane_declines(self):
        args = _edge_inputs(6)
        with override(native=False):
            assert _native.edge_keys(**args) is None
            assert _native.distinct_keys_csr(np.zeros(1, np.int64), 2) is None


class TestNativeDisabled:
    def test_repro_native_0_falls_back(self):
        """With the native lane forced off, the reference paths carry
        the same results — the accelerator is an implementation
        detail."""
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 300, size=10_000)
        row_ptr = _ragged(rng)
        with_native_prev = previous_occurrence(stream)
        with_native_order = ex.interleaved_order(row_ptr, 13)
        with_native_mask = window_hits_from_prev(with_native_prev, 64)
        row_ids = rng.integers(0, 500, size=int(row_ptr[-1]))
        with override(memo=False):
            with_native_plan = ex._stream_plan(row_ptr, row_ids, 13)
        durations = np.concatenate(
            [np.full(200, 1.5), rng.random(300) * 3.0]
        )
        with_native_sched = ex._list_schedule(durations, 13)
        g = load_dataset("ddi")
        with_native_sig = minhash_signatures(g)
        with_native_pairs = lsh_candidate_pairs(with_native_sig)
        with_native_schedule = locality_aware_schedule(g)
        arxiv = load_dataset("arxiv")
        khop_args = (arxiv, np.arange(0, 640, 10), (10, 10), 0)
        with_native_khop = khop_sampled_subgraph(*khop_args)
        with override(native=False, memo=False):
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
            sig = minhash_signatures(g)
            assert np.array_equal(with_native_sig.rows, sig.rows)
            assert np.array_equal(with_native_sig.empty, sig.empty)
            for a, b in zip(with_native_pairs, lsh_candidate_pairs(sig)):
                assert _same_bits(a, b)
            schedule = locality_aware_schedule(g)
            assert np.array_equal(with_native_schedule.order, schedule.order)
            assert np.array_equal(
                with_native_schedule.cluster_id, schedule.cluster_id
            )
            assert (with_native_schedule.num_candidate_pairs
                    == schedule.num_candidate_pairs)
            khop = khop_sampled_subgraph(*khop_args)
            assert np.array_equal(with_native_khop.node_map, khop.node_map)
            assert np.array_equal(with_native_khop.graph.indptr, khop.graph.indptr)
            assert np.array_equal(
                with_native_khop.graph.indices, khop.graph.indices
            )

    def test_env_var_disables_build(self, monkeypatch, caplog):
        """``REPRO_NATIVE=0`` switches the lane off without a build
        attempt, so without a warning."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(
            _native, "_load", lambda: pytest.fail("native build attempted")
        )
        with override(native=RuntimeConfig.from_env().native), \
                caplog.at_level(logging.WARNING, logger=_native.__name__):
            assert not _native.available()
            assert _native.weighted_search(np.ones(1), np.zeros(1)) is None
        assert not caplog.records  # an explicit opt-out is not a fault

    @pytest.mark.parametrize("value", ["false", "off", "no"])
    def test_off_spellings_select_numpy_lane(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NATIVE", value)
        assert not RuntimeConfig.from_env().native

    @needs_native
    def test_compile_command_keys_the_cached_library(
        self, monkeypatch, tmp_path, caplog
    ):
        """A library cached by one compiler is never loaded for another:
        the artifact is named by the compile command and the source."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_TRIED", False)
        with override(native=True):
            assert _native.available()
        built = sorted(p.name for p in tmp_path.iterdir())
        assert len(built) == 1
        # Block pricing rounds ``miss * rb + stream`` twice, as numpy.
        assert "-ffp-contract=off" in _native._command()
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_TRIED", False)
        with override(native=True), \
                caplog.at_level(logging.WARNING, logger=_native.__name__):
            assert not _native.available()
        assert sorted(p.name for p in tmp_path.iterdir()) == built

    def test_missing_compiler_warns_and_cleans_up(
        self, monkeypatch, tmp_path, caplog
    ):
        missing = str(tmp_path / "no-such-cc")
        monkeypatch.setenv("CC", missing)
        # A fresh temp dir: no previously cached shared object is found,
        # and a forgotten earlier load forces the rebuild.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "_TRIED", False)
        with override(native=True), \
                caplog.at_level(logging.WARNING, logger=_native.__name__):
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
