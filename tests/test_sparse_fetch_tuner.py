"""Tests for sparse fetching / redundancy bypassing and the tuner."""

import numpy as np
import pytest

from repro.core import (
    SageStrategy,
    candidate_bounds,
    lower_sage_lstm,
    pick_lanes,
    run_sage_lstm_functional,
    sample_neighbors,
    tune,
)
from repro import perf
from repro.bench import bench_config, sweep_config
from repro.core import tuner
from repro.core.grouping import identity_grouping, neighbor_grouping
from repro.frameworks import OursRuntime
from repro.gpusim import V100_SCALED, simulate_kernels
from repro.gpusim.memo import KERNEL_MEMO, clear_caches
from repro.perf import PERF
from repro.graph import (
    coo_to_csr,
    khop_sampled_subgraph,
    load_dataset,
    small_dataset,
)
from repro.ops import LSTMParams


@pytest.fixture
def g():
    return small_dataset()


class TestSampleNeighbors:
    def test_shape_and_validity(self, g):
        nbr = sample_neighbors(g, 16, seed=1)
        assert nbr.shape == (g.num_nodes, 16)
        assert nbr.min() >= 0 and nbr.max() < g.num_nodes

    def test_samples_are_real_neighbors(self, g):
        nbr = sample_neighbors(g, 8, seed=2)
        for v in (0, 7, 100):
            if g.degrees[v] > 0:
                assert set(nbr[v].tolist()) <= set(
                    g.neighbors(v).tolist()
                )

    def test_isolated_centers_self_sample(self):
        g = coo_to_csr(np.array([0]), np.array([1]), 4)
        nbr = sample_neighbors(g, 4, seed=0)
        assert (nbr[3] == 3).all()  # isolated node samples itself

    def test_deterministic(self, g):
        a = sample_neighbors(g, 8, seed=3)
        b = sample_neighbors(g, 8, seed=3)
        assert np.array_equal(a, b)


class TestStrategyEquivalence:
    def test_all_strategies_identical(self, g):
        rng = np.random.default_rng(0)
        feat = rng.standard_normal((g.num_nodes, 16)).astype(np.float32)
        params = LSTMParams.init(16, 8, seed=1)
        outs = [
            run_sage_lstm_functional(g, feat, params, k=6, strategy=s,
                                     seed=4)
            for s in SageStrategy
        ]
        assert np.allclose(outs[0], outs[1], atol=1e-5)
        assert np.allclose(outs[0], outs[2], atol=1e-5)


class TestSageLowering:
    def test_base_has_expansion_phase(self, g):
        kernels, phases = lower_sage_lstm(
            g, 32, 32, 4, V100_SCALED, SageStrategy.BASE
        )
        assert any(p.phase == "expansion" for p in phases)
        assert sum(p.phase == "transformation" for p in phases) == 4

    def test_sparse_fetch_drops_expansion(self, g):
        kernels, phases = lower_sage_lstm(
            g, 32, 32, 4, V100_SCALED, SageStrategy.SPARSE_FETCH
        )
        assert not any(p.phase == "expansion" for p in phases)
        assert sum(p.phase == "transformation" for p in phases) == 4

    def test_redundancy_bypass_one_transform(self, g):
        kernels, phases = lower_sage_lstm(
            g, 32, 32, 4, V100_SCALED, SageStrategy.REDUNDANCY_BYPASS
        )
        assert sum(p.phase == "transformation" for p in phases) == 1

    def test_bypass_fewer_flops(self, g):
        def flops(strategy):
            kernels, _ = lower_sage_lstm(
                g, 32, 32, 8, V100_SCALED, strategy
            )
            return sum(k.total_flops for k in kernels)

        assert flops(SageStrategy.REDUNDANCY_BYPASS) < flops(
            SageStrategy.BASE
        )

    def test_bypass_faster(self, g):
        def t(strategy):
            kernels, _ = lower_sage_lstm(
                g, 32, 32, 8, V100_SCALED, strategy
            )
            return simulate_kernels(kernels, V100_SCALED).total_time

        assert t(SageStrategy.REDUNDANCY_BYPASS) < t(SageStrategy.BASE)

    def test_phase_indices_valid(self, g):
        kernels, phases = lower_sage_lstm(
            g, 32, 32, 4, V100_SCALED, SageStrategy.BASE
        )
        assert all(0 <= p.kernel_index < len(kernels) for p in phases)
        assert len(phases) == len(kernels)


class TestTuner:
    def test_candidate_bounds_multiples_of_16(self, g):
        bounds = candidate_bounds(g)
        assert all(b % 16 == 0 for b in bounds)
        assert max(bounds) <= max(16, int(10 * g.avg_degree) + 16)

    def test_candidate_bounds_capped_rounds(self, g):
        assert len(candidate_bounds(g, max_rounds=5)) <= 5

    def test_pick_lanes(self):
        assert pick_lanes(32) == 32
        assert pick_lanes(64) == 32
        assert pick_lanes(48) == 16
        assert pick_lanes(16) == 16
        assert pick_lanes(24) == 8
        assert pick_lanes(4) == 4
        assert pick_lanes(7) == 32  # nothing divides: full warps

    def test_tune_returns_valid_result(self, g):
        res = tune(g, 32, V100_SCALED, max_rounds=6)
        assert res.rounds <= 6
        assert res.lanes == 32
        if res.bound is not None:
            assert res.bound in res.trace
            # The chosen bound beats the ungrouped baseline.
            assert res.trace[res.bound] < res.baseline_seconds

    def test_tune_trace_complete(self, g):
        res = tune(g, 32, V100_SCALED, max_rounds=4)
        assert len(res.trace) == res.rounds

    def test_layout_roundtrip(self, g):
        res = tune(g, 32, V100_SCALED, max_rounds=4)
        layout = res.layout(g)
        layout.grouping.validate(g)
        assert layout.packed_rows


@pytest.mark.parametrize(
    "graph",
    [
        small_dataset(),
        coo_to_csr(np.array([0, 2, 2]), np.array([1, 1, 3]), 5),
        coo_to_csr(np.zeros(0, np.int64), np.zeros(0, np.int64), 3),
        coo_to_csr(np.zeros(0, np.int64), np.zeros(0, np.int64), 1),
    ],
    ids=["small", "isolated-nodes", "no-edges", "one-node"],
)
def test_bound_at_or_above_max_degree_is_the_identity(graph):
    """Why the tuner may skip such bounds: their grouping is the
    identity layout array for array, so their kernel is the baseline."""
    ident = identity_grouping(graph)
    top = max(graph.max_degree, 1)
    for bound in (top, top + 1, 16 * top):
        plan = neighbor_grouping(graph, bound)
        for name in ("group_ptr", "group_center", "needs_atomic"):
            a, b = getattr(plan, name), getattr(ident, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestTuneCache:
    @pytest.fixture(autouse=True)
    def _clean(self):
        clear_caches()
        yield
        clear_caches()

    def test_tune_leaves_no_kernel_memo_trace(self, g):
        snap = PERF.snapshot()
        tune(g, 32, V100_SCALED, max_rounds=6)
        counts = PERF.delta_since(snap).get("counts", {})
        assert len(KERNEL_MEMO) == 0
        assert not [c for c in counts if c.startswith("kernel_memo_")]

    def test_hit_returns_the_same_result_with_its_own_trace(self, g):
        first = tune(g, 32, V100_SCALED, max_rounds=6)
        first.trace.clear()  # the caller's copy, not the cache's
        snap = PERF.snapshot()
        again = tune(g, 32, V100_SCALED, max_rounds=6)
        assert PERF.delta_since(snap)["counts"]["tune_cache_hit"] == 1
        assert len(again.trace) == again.rounds
        again.trace.clear()
        third = tune(g, 32, V100_SCALED, max_rounds=6)
        assert len(third.trace) == third.rounds
        assert third.bound == again.bound

    def test_key_covers_feat_len_config_order_and_rounds(self, g):
        tune(g, 32, V100_SCALED, max_rounds=4)
        tune(g, 64, V100_SCALED, max_rounds=4)
        tune(g, 32, V100_SCALED.replace(cache_model="lru"), max_rounds=4)
        tune(g, 32, V100_SCALED, max_rounds=3)
        order = np.arange(g.num_nodes)[::-1].copy()
        tune(g, 32, V100_SCALED, max_rounds=4, center_order=order)
        assert len(tuner._TUNE_CACHE) == 5

    def test_clear_caches_empties_it(self, g):
        tune(g, 32, V100_SCALED, max_rounds=4)
        assert len(tuner._TUNE_CACHE) == 1
        clear_caches()
        assert len(tuner._TUNE_CACHE) == 0

    def test_memo_off_bypasses_it(self, g):
        with perf.override(memo=False):
            a = tune(g, 32, V100_SCALED, max_rounds=4)
            b = tune(g, 32, V100_SCALED, max_rounds=4)
        assert len(tuner._TUNE_CACHE) == 0
        assert a == b

    def test_two_runtimes_share_one_entry(self, g):
        snap = PERF.snapshot()
        bounds = [
            OursRuntime().ng_bound(g, 32, V100_SCALED) for _ in range(2)
        ]
        assert bounds[0] == bounds[1]
        assert len(tuner._TUNE_CACHE) == 1
        assert PERF.delta_since(snap)["counts"]["tune_cache_hit"] == 1


#: (graph, config, F or sample seed) -> (bound, rounds, float.hex of the
#: baseline seconds, {bound: float.hex of its simulated seconds}).  The
#: fig. 12 graphs exercise real searches (prefix-cut streams under both
#: configs); the arxiv k-hop samples are serving-sized graphs whose every
#: candidate bound is >= the max degree.  Recorded with every round
#: priced by the full ``simulate_kernel``.
TUNE_PINS = {
    ('reddit', 'bench', 32): (
        400, 20, '0x1.dd6def729ffbbp-12',
        {
            16: '0x1.0a6ca05f4e184p-11',
            144: '0x1.a5352fbeac751p-12',
            272: '0x1.a13417664f79ep-12',
            400: '0x1.a0cd997481202p-12',
            528: '0x1.a2acad2ac7aa6p-12',
            640: '0x1.a428a33bfc60ap-12',
            768: '0x1.a5fc8d59fefccp-12',
            896: '0x1.a731ca8ee9920p-12',
            1024: '0x1.a989ed8064bfap-12',
            1152: '0x1.ac17ac89b74afp-12',
            1280: '0x1.ae4062261d17ep-12',
            1408: '0x1.b06b697eb804cp-12',
            1536: '0x1.b31a3bc848257p-12',
            1664: '0x1.b5acf433c4f2ep-12',
            1792: '0x1.b815bb47e2071p-12',
            1904: '0x1.ba032001ba1fap-12',
            2032: '0x1.bc5bf3dfc36f0p-12',
            2160: '0x1.bedb65b68b32fp-12',
            2288: '0x1.c19afe544274ap-12',
            2416: '0x1.c4245153c7e2ap-12',
        },
    ),
    ('reddit', 'bench', 64): (
        272, 20, '0x1.e773a88d212d2p-11',
        {
            16: '0x1.fbca49a48cec2p-11',
            144: '0x1.a8bcb0bd8d028p-11',
            272: '0x1.a62d08c62867ap-11',
            400: '0x1.a636a0b1951cap-11',
            528: '0x1.a847273493cbep-11',
            640: '0x1.aa09d8d4a1ce7p-11',
            768: '0x1.ac19a814c7943p-11',
            896: '0x1.ad54ec163c176p-11',
            1024: '0x1.afc2b49efe0bbp-11',
            1152: '0x1.b27ea4cebc41bp-11',
            1280: '0x1.b4e5f50026d54p-11',
            1408: '0x1.b72bd3622b28ep-11',
            1536: '0x1.b9f34cfbbf864p-11',
            1664: '0x1.bc8a4bbe6ed73p-11',
            1792: '0x1.bc828e3f6efc2p-11',
            1904: '0x1.c0ec170b6fb36p-11',
            2032: '0x1.c36a9bb7009cfp-11',
            2160: '0x1.c6063bf48029ap-11',
            2288: '0x1.c8c2c272d1479p-11',
            2416: '0x1.c9192906e069ap-11',
        },
    ),
    ('reddit', 'sweep', 32): (
        400, 20, '0x1.ddb6fc9257b3dp-12',
        {
            16: '0x1.0a41631698de0p-11',
            144: '0x1.a6597a983ab07p-12',
            272: '0x1.a21e30ce7a9a4p-12',
            400: '0x1.a16ca561651fcp-12',
            528: '0x1.a179162407cd3p-12',
            640: '0x1.a2db8da3dc6d6p-12',
            768: '0x1.a42db2471c169p-12',
            896: '0x1.a54f12ce627cep-12',
            1024: '0x1.a7c5d8855c72cp-12',
            1152: '0x1.aa78e360b5982p-12',
            1280: '0x1.ac4de8623f351p-12',
            1408: '0x1.ae4ee9e5df7ffp-12',
            1536: '0x1.b0a6df3b415f7p-12',
            1664: '0x1.b305b29b86f2ap-12',
            1792: '0x1.b4eddc33f79c7p-12',
            1904: '0x1.b7503fc2492b6p-12',
            2032: '0x1.b97d160220601p-12',
            2160: '0x1.bbe452020df84p-12',
            2288: '0x1.beb2f73dcb4d4p-12',
            2416: '0x1.c0fdf0873da8dp-12',
        },
    ),
    ('reddit', 'sweep', 64): (
        400, 20, '0x1.e6c97c71e83ebp-11',
        {
            16: '0x1.fb8fc2331ce86p-11',
            144: '0x1.a89088dd57d67p-11',
            272: '0x1.a49093fdd4db0p-11',
            400: '0x1.a4630f607bea4p-11',
            528: '0x1.a6a4cb1252ca3p-11',
            640: '0x1.a85453373a172p-11',
            768: '0x1.a9eb77dd212bep-11',
            896: '0x1.ab421c0d55dd6p-11',
            1024: '0x1.ade31bf47669bp-11',
            1152: '0x1.b065ff03a1ac3p-11',
            1280: '0x1.b2901706c6e3ap-11',
            1408: '0x1.b4fc58290c08ap-11',
            1536: '0x1.b78435e4cbfd4p-11',
            1664: '0x1.b9f62af8170cep-11',
            1792: '0x1.bc3b2cef59dd7p-11',
            1904: '0x1.be7a636914c69p-11',
            2032: '0x1.c0e3b27e684dbp-11',
            2160: '0x1.c34b240180d9ep-11',
            2288: '0x1.c60486a548709p-11',
            2416: '0x1.c8bd584488ad4p-11',
        },
    ),
    ('products', 'bench', 32): (
        224, 20, '0x1.afa6deb425a61p-12',
        {
            16: '0x1.b7f08416230a7p-12',
            32: '0x1.8eae32b1d648ep-12',
            48: '0x1.82f12581bd745p-12',
            64: '0x1.7d9ccd779aeb2p-12',
            80: '0x1.7ab0829b0b111p-12',
            112: '0x1.77bffd8e35cf8p-12',
            128: '0x1.7711dc5c1bab1p-12',
            144: '0x1.76b87197dabc3p-12',
            160: '0x1.765940b43d6eep-12',
            176: '0x1.764206ab70c49p-12',
            192: '0x1.7638c04f46574p-12',
            208: '0x1.76148f96f4355p-12',
            224: '0x1.75fbe6ba5a1dfp-12',
            240: '0x1.7627c3d63a958p-12',
            256: '0x1.7647f2583c700p-12',
            288: '0x1.76c2ec4a1b62bp-12',
            304: '0x1.76eef305e0e66p-12',
            320: '0x1.771b5fce9bb71p-12',
            336: '0x1.775849bfbfa1bp-12',
            352: '0x1.77c37864622acp-12',
        },
    ),
    ('products', 'bench', 64): (
        224, 20, '0x1.9ed8d78ace326p-11',
        {
            16: '0x1.98c27deedf667p-11',
            32: '0x1.7816c53b53354p-11',
            48: '0x1.6ecc7de6e28bcp-11',
            64: '0x1.6aabee3c0ded0p-11',
            80: '0x1.6858e7aa50654p-11',
            112: '0x1.663a7162db355p-11',
            128: '0x1.65bd37e8b58f4p-11',
            144: '0x1.6580812428e1bp-11',
            160: '0x1.655eeeba18e00p-11',
            176: '0x1.654e4580ff3dep-11',
            192: '0x1.65510303373c7p-11',
            208: '0x1.65427adde6a50p-11',
            224: '0x1.653704d7d4de1p-11',
            240: '0x1.656117897d8dep-11',
            256: '0x1.659f3396582c9p-11',
            288: '0x1.6626a8863b86ep-11',
            304: '0x1.665e8a81fd33dp-11',
            320: '0x1.66990560ba5aep-11',
            336: '0x1.66d241ecd1de8p-11',
            352: '0x1.6730e01793909p-11',
        },
    ),
    ('products', 'sweep', 32): (
        224, 20, '0x1.af1b5ed96a7b9p-12',
        {
            16: '0x1.b7d8b80e0f60ep-12',
            32: '0x1.8ea110642b5d4p-12',
            48: '0x1.82d6060ba45bap-12',
            64: '0x1.7d91ebee31d08p-12',
            80: '0x1.7a84fa368e46ap-12',
            112: '0x1.77bc93f4f6acap-12',
            128: '0x1.7707a5c22fbbfp-12',
            144: '0x1.768bebf5e7e0ap-12',
            160: '0x1.76313a70e8df1p-12',
            176: '0x1.7600a7537549cp-12',
            192: '0x1.761d22f08fdeep-12',
            208: '0x1.75cf054e18be0p-12',
            224: '0x1.75be5ec228b85p-12',
            240: '0x1.75f3eca66dff6p-12',
            256: '0x1.7616353a85be3p-12',
            288: '0x1.767cc9a05369ep-12',
            304: '0x1.76bc654055909p-12',
            320: '0x1.76ef54daf2f6cp-12',
            336: '0x1.7734e91813c62p-12',
            352: '0x1.7788babf0f2fdp-12',
        },
    ),
    ('products', 'sweep', 64): (
        224, 20, '0x1.9e61765fe6665p-11',
        {
            16: '0x1.98b01a470618ap-11',
            32: '0x1.780293e1c9514p-11',
            48: '0x1.6ebf566f448bfp-11',
            64: '0x1.6aa88ab421c94p-11',
            80: '0x1.6840a1e962c74p-11',
            112: '0x1.6643376e6dbe6p-11',
            128: '0x1.65abf1241b1dcp-11',
            144: '0x1.656ce6193f464p-11',
            160: '0x1.654a9da88a415p-11',
            176: '0x1.652e6c8620f03p-11',
            192: '0x1.65457227c2cb8p-11',
            208: '0x1.652146c0ca671p-11',
            224: '0x1.650839968e970p-11',
            240: '0x1.6536527e8a802p-11',
            256: '0x1.65870f2a93eddp-11',
            288: '0x1.660198405dc3dp-11',
            304: '0x1.664e299a87880p-11',
            320: '0x1.668253aca4554p-11',
            336: '0x1.66bbe860c0928p-11',
            352: '0x1.6703c273d8a2bp-11',
        },
    ),
    ('arxiv-khop', 'bench', 0): (
        None, 1, '0x1.bb5b1fb88dd7ap-18',
        {
            16: '0x1.bb5b1fb88dd7ap-18',
        },
    ),
    ('arxiv-khop', 'bench', 1): (
        None, 1, '0x1.b6c341deee200p-18',
        {
            16: '0x1.b6c341deee200p-18',
        },
    ),
}


def _pinned_graph(name, arg):
    if name == "arxiv-khop":
        arxiv = load_dataset("arxiv")
        rng = np.random.default_rng(arg)
        seeds = rng.choice(arxiv.num_nodes, size=256, replace=False)
        return khop_sampled_subgraph(arxiv, seeds, (10, 10), seed=arg).graph
    return load_dataset(name)


@pytest.mark.parametrize("cell", sorted(TUNE_PINS, key=str), ids=str)
def test_tuner_pin(cell):
    name, cfg_name, arg = cell
    g = _pinned_graph(name, arg)
    config = bench_config() if cfg_name == "bench" else sweep_config()
    feat_len = 32 if name == "arxiv-khop" else arg
    res = tune(g, feat_len, config)
    bound, rounds, baseline, trace = TUNE_PINS[cell]
    if name == "arxiv-khop":
        assert min(res.trace) >= g.max_degree
    assert res.bound == bound
    assert res.rounds == rounds
    assert res.baseline_seconds.hex() == baseline
    assert {b: t.hex() for b, t in res.trace.items()} == trace
