"""Cold-kernel row streams: pinned tier traffic, hit counts and samples.

A fixed sequence of lowerings drives the stream, perm, reorder and
kernel-memo tiers: the three SAGE-LSTM strategies of Table 5 / Fig. 11
at two feature lengths, then a neighbor-grouped aggregation in
locality order (NG+LAS) at two feature lengths and two group bounds,
each once more with a trace limit that samples a block prefix.  The tiers' hits, misses and
evictions are pinned, and so are the per-block hit counts of one
SAGE-LSTM lowering and one NG+LAS aggregation and the value of one
neighbour sample.  Every pin holds in the native lane and under
``override(fastpath=False)``, and does not depend on how a tier keys
an entry or on the integer width of the row ids.

Row ids are int32 node ids from the builders to the reorder tier; a
wider id array is narrowed on entry, after a range check.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    ExecLayout,
    SageStrategy,
    aggregation_kernel,
    gather_rows_kernel,
    locality_aware_schedule,
    lower_sage_lstm,
    neighbor_grouping,
    sample_neighbors,
)
from repro.gpusim import V100, KernelSpec, simulate_kernel
from repro.gpusim import memo
from repro.gpusim.executor import _row_hit_counts
from repro.graph import small_dataset
from repro.models.sage_lstm import SageLSTMConfig
from repro.perf import PERF, override

G = small_dataset()
SAGE = SageLSTMConfig()
#: A trace limit below every stream of the sequence but the fetch
#: columns, so those kernels price a sampled block prefix.
PREFIX = V100.replace(cache_trace_limit=1_500)

LANES = {"native": {}, "reference": {"fastpath": False}}

TIER_COUNTERS = tuple(
    f"{tier}_{event}"
    for tier in ("stream_cache", "perm_cache", "reorder_cache",
                 "kernel_memo_mem")
    for event in ("hit", "miss", "evict")
) + ("kernel_memo_hit", "kernel_memo_miss")


def _ng_las(feat_len, config, bound=8):
    layout = ExecLayout(
        grouping=neighbor_grouping(G, bound),
        center_order=locality_aware_schedule(G).order,
    )
    return aggregation_kernel(G, feat_len, config, layout)


def _sequence():
    """Every kernel of the sequence, lowered and simulated in order."""
    for config in (V100, PREFIX):
        for feat_len in (SAGE.f_in, 2 * SAGE.f_in):
            for strategy in SageStrategy:
                kernels, _ = lower_sage_lstm(
                    G, feat_len, SAGE.hidden, SAGE.num_neighbors, config,
                    strategy,
                )
                for kernel in kernels:
                    simulate_kernel(kernel, config)
        for feat_len, bound in ((32, 8), (64, 8), (32, 16), (32, 8)):
            simulate_kernel(_ng_las(feat_len, config, bound), config)


#: The tiers' counters over :func:`_sequence` under the budgets of
#: ``small_tiers``, in ``TIER_COUNTERS`` order.
PINNED_COUNTERS = (84, 22, 1, 15, 7, 3, 3, 5, 4, 544, 112, 64, 544, 112)


@pytest.fixture
def small_tiers(monkeypatch):
    """Budgets small enough that every tier evicts.  The stream and perm
    tiers are bounded by bytes (their int32 entries keep their size);
    the reorder and kernel tiers by entries, so the pins hold whatever
    the width of a reordered stream's row ids."""
    monkeypatch.setattr(memo.STREAM_CACHE, "max_bytes", 160_000)
    monkeypatch.setattr(memo.PERM_CACHE, "max_bytes", 40_000)
    monkeypatch.setattr(memo.REORDER_CACHE, "max_entries", 1)
    monkeypatch.setattr(memo.REORDER_CACHE, "max_bytes", None)
    monkeypatch.setattr(memo.KERNEL_MEMO, "max_entries", 48)
    memo.clear_caches()
    yield
    memo.clear_caches()


@pytest.mark.parametrize("lane", sorted(LANES))
def test_tier_traffic_is_pinned(small_tiers, lane):
    before = dict(PERF.counts)
    with override(**LANES[lane]):
        _sequence()
    counters = tuple(
        PERF.counts.get(name, 0) - before.get(name, 0)
        for name in TIER_COUNTERS
    )
    assert dict(zip(TIER_COUNTERS, counters)) == dict(
        zip(TIER_COUNTERS, PINNED_COUNTERS)
    )


def _hit_digest(kernels, config):
    h = hashlib.sha256()
    for kernel in kernels:
        counts, rate = _row_hit_counts(kernel, config)
        h.update(counts.tobytes())
        h.update(rate.hex().encode())
    return h.hexdigest()[:16]


def _sage_fetches(config):
    """A table5-style BASE expansion plus the fig11 sparse-fetch and
    redundancy-bypass cells' fetch kernels."""
    kernels = []
    for strategy in SageStrategy:
        lowered, _ = lower_sage_lstm(
            G, SAGE.f_in, SAGE.hidden, SAGE.num_neighbors, config, strategy
        )
        kernels += [k for k in lowered if k.row_ptr is not None]
    return kernels


#: case -> digest of the per-block hit counts and hit rates.
PINNED_HITS = {
    "ng-las": "e2d3f078c3b2b4fc",
    "ng-las-prefix": "8d241bec9b51bdbd",
    "sage": "1e876481afa623e7",
    "sage-prefix": "3e44e3faf6e52624",
}

HIT_CASES = {
    "sage": lambda: _hit_digest(_sage_fetches(V100), V100),
    "sage-prefix": lambda: _hit_digest(_sage_fetches(PREFIX), PREFIX),
    "ng-las": lambda: _hit_digest([_ng_las(32, V100)], V100),
    "ng-las-prefix": lambda: _hit_digest([_ng_las(32, PREFIX)], PREFIX),
}


@pytest.mark.parametrize("lane", sorted(LANES))
@pytest.mark.parametrize("case", sorted(HIT_CASES))
def test_per_block_hit_counts_are_pinned(lane, case):
    memo.clear_caches()
    try:
        with override(**LANES[lane]):
            assert HIT_CASES[case]() == PINNED_HITS[case]
    finally:
        memo.clear_caches()


#: sha256 prefix of ``sample_neighbors(G, 16, 0)`` widened to int64.
PINNED_SAMPLE = "5838e6ae97c263d7"


@pytest.mark.parametrize("lane", sorted(LANES))
def test_neighbour_sample_is_pinned(lane):
    with override(**LANES[lane]):
        sample = sample_neighbors(G, 16, 0)
    assert sample.shape == (G.num_nodes, 16)
    digest = hashlib.sha256(sample.astype(np.int64).tobytes()).hexdigest()
    assert digest[:16] == PINNED_SAMPLE


@pytest.mark.parametrize("lane", sorted(LANES))
@pytest.mark.parametrize("bad", [-1, 2**31, 2**40])
def test_row_id_outside_int32_raises(lane, bad):
    ids = np.array([1, bad], dtype=np.int64)
    with override(**LANES[lane]):
        with pytest.raises(ValueError, match="row id"):
            KernelSpec("k", block_flops=np.ones(1),
                       row_ptr=np.array([0, 2]), row_ids=ids)
        kernel = KernelSpec("k", block_flops=np.ones(1),
                            row_ptr=np.array([0, 2]), row_ids=ids % 7)
        with pytest.raises(ValueError, match="row id"):
            kernel.row_ids = ids
        with pytest.raises(ValueError, match="row id"):
            gather_rows_kernel(ids, 32, V100)


@pytest.mark.parametrize("lane", sorted(LANES))
def test_row_ids_are_int32_end_to_end(lane):
    memo.clear_caches()
    try:
        with override(**LANES[lane]):
            top = np.array([0, 2**31 - 1], dtype=np.int64)
            narrowed = KernelSpec("k", block_flops=np.ones(1),
                                  row_ptr=np.array([0, 2]), row_ids=top)
            assert narrowed.row_ids.dtype == np.int32
            assert narrowed.row_ids.tolist() == top.tolist()
            kernels = _sage_fetches(V100) + [_ng_las(32, V100)]
            for kernel in kernels:
                assert kernel.row_ids.dtype == np.int32, kernel.name
                assert kernel.row_ptr.dtype == np.int64, kernel.name
            # The NG+LAS kernel is reordered: its rows sit in the tier.
            _, ((row_ptr, row_ids), _) = memo.REORDER_CACHE._data.popitem()
            assert (row_ptr.dtype, row_ids.dtype) == (np.int64, np.int32)
    finally:
        memo.clear_caches()
