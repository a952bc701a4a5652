"""Fast paths must be bit-identical to their reference implementations.

The performance layer (vectorized reuse distances, wave-decomposed list
scheduling, batched MinHash, kernel memoization) is only admissible
because it changes *nothing* about simulated results.  These tests pin
that contract with seeded property-style sweeps over the regimes the
simulator actually produces: uniform blocks, heavy-tailed hub blocks,
duplicated durations, short streams, empty rows.
"""

import dataclasses
import hashlib
import json
import logging
import weakref

import numpy as np
import pytest

from repro import perf
from repro.bench import fig7_overall, fig12_tuned_sweep, harness, sweep_config
from repro.core import PLAN_CACHE, pipeline, save_plan
from repro.core.lowering import ExecLayout, aggregation_kernel
from repro.core.minhash import minhash_signatures
from repro.frameworks import DGLLike
from repro.graph import small_dataset
from repro.graph.generators import power_law_graph
from repro.gpusim.cache import (
    _reuse_distances_reference,
    previous_occurrence,
    reuse_distances,
    reuse_distances_from_prev,
    window_hits,
    window_hits_from_prev,
)
from repro.gpusim.config import V100_SCALED
from repro.gpusim.executor import (
    _list_schedule,
    _list_schedule_reference,
    _wave_schedule,
    simulate_kernel,
    simulate_kernels,
)
from repro.gpusim import memo
from repro.gpusim.memo import (
    KERNEL_MEMO,
    STREAM_CACHE,
    array_digest,
    clear_caches,
    kernel_fingerprint,
    memo_stats,
)


@pytest.fixture(autouse=True)
def _clean_state():
    """Each test starts with cold caches and the default switches."""
    clear_caches()
    perf.configure(fastpath=True, memo=True)
    yield
    clear_caches()
    perf.configure(fastpath=True, memo=True)


# ----------------------------------------------------------------------
# Exact LRU reuse distances
# ----------------------------------------------------------------------

def _random_stream(rng):
    n = int(rng.integers(1, 400))
    universe = int(rng.integers(1, 60))
    if rng.random() < 0.3:  # skewed hub reuse
        p = rng.pareto(1.0, universe) + 1
        return rng.choice(universe, size=n, p=p / p.sum())
    return rng.integers(0, universe, size=n)


def test_reuse_distances_matches_reference_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(60):
        stream = _random_stream(rng)
        assert np.array_equal(
            reuse_distances_from_prev(previous_occurrence(stream)),
            _reuse_distances_reference(stream),
        )


def test_reuse_distances_edge_cases():
    for stream in (
        np.empty(0, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(64, dtype=np.int64),          # one row, max reuse
        np.arange(64),                          # all first touches
        np.array([5, 4, 3, 2, 1, 2, 3, 4, 5]),  # nested reuse
    ):
        assert np.array_equal(
            reuse_distances(stream), _reuse_distances_reference(stream)
        )


def test_reuse_distances_dispatch_respects_fastpath_flag():
    stream = np.array([1, 2, 1, 3, 2, 1])
    perf.configure(fastpath=False)
    slow = reuse_distances(stream)
    perf.configure(fastpath=True)
    fast = reuse_distances(stream)
    assert np.array_equal(slow, fast)


def test_window_hits_from_prev_matches_whole_pipeline():
    rng = np.random.default_rng(3)
    stream = rng.integers(0, 40, size=500)
    prev = previous_occurrence(stream)
    for cap in (1, 4, 16, 64):
        assert np.array_equal(
            window_hits(stream, cap), window_hits_from_prev(prev, cap)
        )


# ----------------------------------------------------------------------
# Wave-decomposed list scheduling
# ----------------------------------------------------------------------

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


def test_wave_schedule_matches_heap_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(80):
        d = _duration_mixes(rng)
        slots = int(rng.integers(1, 170))
        s_ref, e_ref = _list_schedule_reference(d, slots)
        s_fast, e_fast = _wave_schedule(d, slots)
        assert np.array_equal(s_ref, s_fast)  # bit-identical, not approx
        assert np.array_equal(e_ref, e_fast)


def test_list_schedule_dispatch_and_trivial_paths():
    d = np.array([3.0, 1.0, 2.0])
    s, e = _list_schedule(d, slots=8)  # fewer blocks than slots
    assert np.array_equal(s, np.zeros(3)) and np.array_equal(e, d)
    s0, e0 = _list_schedule(np.empty(0), slots=4)
    assert s0.size == 0 and e0.size == 0
    perf.configure(fastpath=False)
    ref = _list_schedule(np.array([1.0, 5.0, 2.0, 2.0, 1.0]), 2)
    perf.configure(fastpath=True)
    fast = _list_schedule(np.array([1.0, 5.0, 2.0, 2.0, 1.0]), 2)
    assert np.array_equal(ref[0], fast[0])
    assert np.array_equal(ref[1], fast[1])


# ----------------------------------------------------------------------
# Batched MinHash
# ----------------------------------------------------------------------

def test_minhash_batched_matches_reference():
    for seed in range(4):
        g = power_law_graph(
            1200 + 400 * seed, avg_degree=4 + 3 * seed, seed=seed
        )
        perf.configure(fastpath=False)
        ref = minhash_signatures(g, num_hashes=19 + seed, seed=seed)
        perf.configure(fastpath=True)
        fast = minhash_signatures(g, num_hashes=19 + seed, seed=seed)
        assert np.array_equal(ref.matrix, fast.matrix)
        assert np.array_equal(ref.empty, fast.empty)


# ----------------------------------------------------------------------
# Kernel memoization
# ----------------------------------------------------------------------

def _sample_kernel(seed=1, feat=64):
    g = power_law_graph(3000, avg_degree=11, seed=seed)
    return aggregation_kernel(g, feat, V100_SCALED, ExecLayout.default(g))


def test_memoized_simulation_equals_cold_run():
    k = _sample_kernel()
    perf.configure(fastpath=False, memo=False)
    cold = simulate_kernel(k, V100_SCALED)
    perf.configure(fastpath=True, memo=True)
    first = simulate_kernel(k, V100_SCALED)   # miss: fills the memo
    second = simulate_kernel(k, V100_SCALED)  # hit: served from it
    for f in dataclasses.fields(cold):
        assert getattr(cold, f.name) == getattr(first, f.name) == \
            getattr(second, f.name), f.name
    assert len(KERNEL_MEMO) == 1
    assert len(STREAM_CACHE) == 1


def test_memo_restores_caller_name_and_isolates_occupancy():
    perf.configure(memo=True)
    k = _sample_kernel()
    a = simulate_kernel(k, V100_SCALED)
    renamed = dataclasses.replace(k, name="other")
    b = simulate_kernel(renamed, V100_SCALED)
    assert b.name == "other" and a.name == k.name
    assert b.makespan == a.makespan
    b.occupancy[0.5] = -1.0  # mutating a hit must not poison the cache
    c = simulate_kernel(k, V100_SCALED)
    assert c.occupancy == a.occupancy


def test_memo_distinguishes_config_and_overhead():
    perf.configure(memo=True)
    k = _sample_kernel()
    base = simulate_kernel(k, V100_SCALED)
    other_cfg = simulate_kernel(
        k, V100_SCALED.replace(kernel_launch_overhead=123e-6)
    )
    other_ovh = simulate_kernel(k, V100_SCALED, dispatch_overhead=1e-3)
    assert other_cfg.launch_overhead != base.launch_overhead
    assert other_ovh.launch_overhead != base.launch_overhead
    assert len(KERNEL_MEMO) == 3


def test_array_digest_not_fooled_by_recycled_ids():
    digests = set()
    for i in range(20):
        arr = np.arange(100) + i  # same shape/dtype, new allocation
        digests.add(array_digest(arr))
        del arr  # allocator is free to recycle the address
    assert len(digests) == 20


class _NoScanDict(dict):
    """A digest cache that fails any whole-cache scan."""

    def _scan(self, *args, **kwargs):
        raise AssertionError("array_digest scanned the identity cache")

    items = values = keys = __iter__ = _scan


def test_array_digest_cold_path_never_scans_live_cache(monkeypatch):
    alive = [np.arange(4) + i for i in range(10_000)]
    for arr in alive:
        array_digest(arr)
    assert len(memo._DIGESTS) == len(alive)
    monkeypatch.setattr(memo, "_DIGESTS", _NoScanDict(memo._DIGESTS))
    fresh = np.arange(7)
    assert array_digest(fresh) == array_digest(np.arange(7))
    assert id(fresh) in memo._DIGESTS


def test_array_digest_entry_dies_with_its_array():
    arr = np.arange(8)
    array_digest(arr)
    key = id(arr)
    assert key in memo._DIGESTS
    del arr
    assert key not in memo._DIGESTS


def test_stale_keyed_ref_leaves_newer_entry_alone():
    old, new = np.arange(3), np.arange(5)
    digest = array_digest(new)
    key = id(new)
    memo._forget(weakref.KeyedRef(old, None, key))
    assert memo._DIGESTS[key][0]() is new
    assert memo._DIGESTS[key][1] == digest


def test_array_digest_of_non_weakrefable_input_is_uncached():
    values = [3, 1, 4, 1, 5]
    digest = array_digest(values)
    assert not memo._DIGESTS
    assert digest == array_digest(np.asarray(values))


def test_digest_cache_entries_falls_back_after_arrays_drop():
    alive = [np.arange(4) + i for i in range(50)]
    for arr in alive:
        array_digest(arr)
    report = simulate_kernels([_sample_kernel()], V100_SCALED)
    assert report.extra["perf"]["memo"]["digest_cache_entries"] >= 50
    grown = memo_stats()["digest_cache_entries"]
    del alive, arr
    assert memo_stats()["digest_cache_entries"] == grown - 50


def test_stream_cache_off_and_on_identical():
    k = _sample_kernel(seed=5)
    perf.configure(fastpath=True, memo=False)
    no_cache = simulate_kernel(k, V100_SCALED)
    perf.configure(fastpath=True, memo=True)
    cached = simulate_kernel(k, V100_SCALED)
    for f in dataclasses.fields(no_cache):
        assert getattr(no_cache, f.name) == getattr(cached, f.name), f.name


# ----------------------------------------------------------------------
# End to end: the quick paper grid, reference vs fast
# ----------------------------------------------------------------------

def _quick_grid_hash():
    """Content hash of the quick Fig. 7 grid + tuned Fig. 12 sweep."""
    grid = fig7_overall(models=("gcn", "gat"), datasets=["arxiv", "ddi"])
    sweep = fig12_tuned_sweep(["arxiv"], [32, 64], sweep_config())
    results = {
        "fig7": {
            m: {f: {d: cell.time_ms for d, cell in row.items()}
                for f, row in frameworks.items()}
            for m, frameworks in grid.items()
        },
        "fig12": {
            d: {str(f): round(v, 9) for f, v in series.items()}
            for d, series in sweep.items()
        },
    }
    return hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()
    ).hexdigest()[:16]


@pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
def test_quick_grid_hash_in_both_modes(monkeypatch, fast):
    """Reference and fast modes reproduce the pinned quick-grid hash.

    Each mode starts from cold caches, the offline schedule and the
    shared runtime's tuning included, so the reference run exercises
    every reference implementation."""
    pipeline._SCHEDULES.clear()
    monkeypatch.setattr(harness, "_RUNTIMES", {})
    perf.configure(fastpath=fast, memo=fast)
    assert _quick_grid_hash() == "a52a3f53968f6bd5"


# ----------------------------------------------------------------------
# Plan-cache disk tier
# ----------------------------------------------------------------------

class TestDiskTierHardening:
    """The plan cache's disk tier degrades to a warning, never to a
    failed compile: a damaged artifact is a miss that recompiles, and an
    unwritable directory keeps the plan in memory only."""

    @pytest.fixture(autouse=True)
    def _plan_tier(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.core")
        perf.configure(memo=True)
        yield
        PLAN_CACHE.set_disk_dir(None)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, caplog):
        g = small_dataset()
        fresh = DGLLike().compile("gcn", g, V100_SCALED)
        clear_caches()
        PLAN_CACHE.set_disk_dir(str(tmp_path))
        DGLLike().compile("gcn", g, V100_SCALED)
        path = tmp_path / f"plan_{fresh.plan_id}.npz"
        good = path.read_bytes()
        cases = {
            "truncated to 40 bytes": good[:40],
            "truncated to half": good[:len(good) // 2],
            "last 10 bytes cut": good[:-10],
            "empty": b"",
            "garbage": b"not an npz",
        }
        for label, damaged in cases.items():
            path.write_bytes(damaged)
            clear_caches()
            caplog.clear()
            disk_hits = perf.PERF.counts.get("plan_cache_disk_hit", 0)
            plan = DGLLike().compile("gcn", g, V100_SCALED)
            assert plan.plan_id == fresh.plan_id, label
            assert [k.name for k in plan.kernels] == \
                [k.name for k in fresh.kernels], label
            assert [kernel_fingerprint(k, V100_SCALED, 0.0)
                    for k in plan.kernels] == \
                [kernel_fingerprint(k, V100_SCALED, 0.0)
                 for k in fresh.kernels], label
            assert perf.PERF.counts.get("plan_cache_disk_hit", 0) \
                == disk_hits, label
            assert str(path) in caplog.text, label

    def test_unwritable_disk_dir_keeps_plan_in_memory(self, tmp_path,
                                                      caplog):
        # A regular file where the directory should be: unwritable even
        # for root, unlike a chmod-revoked directory.
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        PLAN_CACHE.set_disk_dir(str(blocker))
        g = small_dataset()
        plan = DGLLike().compile("gcn", g, V100_SCALED)
        assert "could not persist plan" in caplog.text
        assert str(blocker) in caplog.text
        assert DGLLike().compile("gcn", g, V100_SCALED) is plan
        # Only the cache swallows the error: an explicit save still fails.
        with pytest.raises(OSError):
            save_plan(PLAN_CACHE.disk_path(plan.plan_id), plan)

    def test_concurrent_style_tmp_names_unique(self, tmp_path):
        from repro.core.persistence import _tmp_path

        target = str(tmp_path / "plan_z.npz")
        names = {_tmp_path(target) for _ in range(64)}
        assert len(names) == 64
