"""The kernel memo's recipe keys are sound.

A lowering builder keys its kernel by a recipe, the inputs it built the
pricing arrays from, instead of hashing the arrays it built
(:func:`repro.gpusim.memo.kernel_fingerprint`).  A recipe that misses an
input would hand one kernel another's statistics.  So every case below
builds two kernels that differ in exactly one input of one builder and
requires different memo keys; it also requires that the input really
changes what is simulated (different content keys) and that rebuilding
from equal inputs gives an equal key.  Under ``runtime().strict`` a
forged recipe collision raises.
"""

import numpy as np
import pytest

from repro.core import (
    ExecLayout,
    SageStrategy,
    aggregation_kernel,
    edge_chain_kernel,
    edge_expansion_kernel,
    gather_rows_kernel,
    gemm_kernel,
    identity_grouping,
    lower_sage_lstm,
    node_map_kernel,
    scalar_segment_reduce_kernel,
    scatter_reduce_kernel,
)
from repro.core.grouping import GroupingPlan
from repro.gpusim import V100, KernelSpec, simulate_kernel
from repro.gpusim import memo
from repro.gpusim.memo import clear_caches, kernel_fingerprint
from repro.graph import small_dataset
from repro.graph.csr import CSRGraph
from repro.perf import PERF, override

G = small_dataset()
N = G.num_nodes
#: G's edges with other sources: same ``indptr``, different ``indices``.
G_SOURCES = CSRGraph(indptr=G.indptr, indices=(G.indices + 1) % N)


def _moved_edge_graph():
    """G's sources under a ``indptr`` that moves one edge to the hub."""
    deg = np.diff(G.indptr)
    deg[int(np.argmax(deg))] += 1
    deg[int(np.flatnonzero(deg == 1)[0])] -= 1
    return CSRGraph(indptr=np.concatenate([[0], np.cumsum(deg)]),
                    indices=G.indices)


G_HUB = _moved_edge_graph()
#: G without its last edge (the hub keeps its degree).
G_FEWER = CSRGraph(indptr=np.minimum(G.indptr, G.num_edges - 1),
                   indices=G.indices[:-1])


def _split_elsewhere():
    """A grouping with the identity's group count and no atomics whose
    boundaries differ: two adjacent centers trade degrees."""
    ident = identity_grouping(G)
    deg = np.diff(ident.group_ptr)
    i = int(np.flatnonzero(deg[:-1] != deg[1:])[0])
    ptr = ident.group_ptr.copy()
    ptr[i + 1] = ptr[i] + deg[i + 1]
    return GroupingPlan(bound=ident.bound, group_ptr=ptr,
                        group_center=ident.group_center,
                        needs_atomic=ident.needs_atomic)


def _all_atomic():
    ident = identity_grouping(G)
    return GroupingPlan(bound=ident.bound, group_ptr=ident.group_ptr,
                        group_center=ident.group_center,
                        needs_atomic=np.ones(N, dtype=bool))


def _order(seed):
    return np.random.default_rng(seed).permutation(N)


def agg(F=24, lanes=8, packed=False, order=None, grouping=None, graph=G,
        config=V100, **kw):
    """``aggregation_kernel`` with one input changed per call.  The
    defaults (F=24 on 8 lanes, unpacked) make F's own recipe entry the
    only difference to F=32: same waste, same 128-byte rows."""
    layout = ExecLayout(
        grouping=grouping if grouping is not None else identity_grouping(graph),
        center_order=order, lanes=lanes, packed_rows=packed,
    )
    return aggregation_kernel(graph, F, config, layout, **kw)


def sage(strategy=SageStrategy.SPARSE_FETCH, k=4, seed=0, index=0,
         config=V100, graph=G):
    kernels, _ = lower_sage_lstm(graph, 32, 16, k, config, strategy,
                                 seed=seed)
    return kernels[index]


def chain(**kw):
    args = dict(name="chain", reads_per_edge=8.0, writes_per_edge=4.0,
                flops_per_edge=1.0)
    args.update(kw)
    config = args.pop("config", V100)
    return edge_chain_kernel(G, config, **args)


def gather(rows=None, F=16, write_back=True, config=V100):
    rows = np.arange(300) % 97 if rows is None else rows
    return gather_rows_kernel(rows, F, config, write_back=write_back)


def _filled(**kw):
    args = dict(num_blocks=10, flops=4.0, stream=8.0, atomics=1)
    args.update(kw)
    return KernelSpec.filled("filled", **args)


FEWER_THREADS = V100.replace(threads_per_block=128)
SHORT_LINES = V100.replace(line_bytes=64)

#: case id -> (first kernel, second kernel), rebuilt on every call.
PAIRS = {
    # aggregation_kernel (and lower_plan, which lowers through it)
    "aggregate/F": lambda: (agg(F=24), agg(F=32)),
    "aggregate/lanes": lambda: (agg(F=48, lanes=32), agg(F=48, lanes=16)),
    "aggregate/packed_rows": lambda: (agg(F=48), agg(F=48, packed=True)),
    "aggregate/centre-order": lambda: (agg(order=_order(1)),
                                       agg(order=_order(2))),
    "aggregate/F-ordered": lambda: (agg(F=24, order=_order(1)),
                                    agg(F=32, order=_order(1))),
    "aggregate/no-order": lambda: (agg(), agg(order=_order(1))),
    "aggregate/tag": lambda: (agg(tag="graph"), agg(tag="fused")),
    "aggregate/counts_launch": lambda: (agg(), agg(counts_launch=False)),
    "aggregate/compute_scale": lambda: (agg(), agg(compute_scale=2.0)),
    "aggregate/uncoalesced": lambda: (agg(), agg(uncoalesced=2.0)),
    "aggregate/flops_per_edge_elem": lambda: (
        agg(), agg(flops_per_edge_elem=3.0)),
    "aggregate/extra_flops_per_edge": lambda: (
        agg(), agg(extra_flops_per_edge=1.0)),
    "aggregate/edge_stream_bytes": lambda: (
        agg(), agg(edge_stream_bytes_per_edge=8.0)),
    "aggregate/extra_block_flops": lambda: (
        agg(extra_block_flops=1.0), agg(extra_block_flops=2.0)),
    "aggregate/extra_block_flops-array": lambda: (
        agg(extra_block_flops=np.arange(N, dtype=np.float64)),
        agg(extra_block_flops=np.arange(N, dtype=np.float64)[::-1].copy())),
    "aggregate/extra_block_stream": lambda: (
        agg(extra_block_stream=1.0), agg(extra_block_stream=2.0)),
    "aggregate/extra_block_stream-array": lambda: (
        agg(extra_block_stream=np.ones(N)), agg(extra_block_stream=np.zeros(N))),
    "aggregate/graph-sources": lambda: (agg(), agg(graph=G_SOURCES)),
    "aggregate/group_ptr": lambda: (agg(), agg(grouping=_split_elsewhere())),
    "aggregate/needs_atomic": lambda: (agg(), agg(grouping=_all_atomic())),
    "aggregate/line_bytes": lambda: (agg(F=48), agg(F=48, config=SHORT_LINES)),
    # edge-parallel and dense builders (KernelSpec.filled recipes)
    "edge_chain/reads": lambda: (chain(), chain(reads_per_edge=12.0)),
    "edge_chain/flops": lambda: (chain(), chain(flops_per_edge=2.0)),
    "edge_chain/seg_reduce": lambda: (chain(), chain(seg_reduce=True)),
    "edge_chain/threads": lambda: (chain(), chain(config=FEWER_THREADS)),
    "filled/num_blocks": lambda: (
        KernelSpec.uniform_dense("d", 100.0, 100.0, 10),
        KernelSpec.uniform_dense("d", 200.0, 200.0, 20)),
    "filled/flops": lambda: (_filled(), _filled(flops=5.0)),
    "filled/stream": lambda: (_filled(), _filled(stream=9.0)),
    "filled/atomics": lambda: (_filled(), _filled(atomics=2)),
    "gemm/f_out": lambda: (gemm_kernel(100, 64, 32, V100),
                           gemm_kernel(100, 64, 48, V100)),
    "node_map/flops": lambda: (
        node_map_kernel(N, 16, V100, name="m"),
        node_map_kernel(N, 16, V100, name="m", flops_per_elem=2.0)),
    # graph-structured builders
    "segment_reduce/indptr": lambda: (
        scalar_segment_reduce_kernel(G, V100),
        scalar_segment_reduce_kernel(G_HUB, V100)),
    "expand/F": lambda: (edge_expansion_kernel(G, 40, V100),
                         edge_expansion_kernel(G, 48, V100)),
    "expand/threads": lambda: (edge_expansion_kernel(G, 8, V100),
                               edge_expansion_kernel(G, 8, FEWER_THREADS)),
    "expand/sources": lambda: (edge_expansion_kernel(G, 8, V100),
                               edge_expansion_kernel(G_SOURCES, 8, V100)),
    "scatter_reduce/F": lambda: (scatter_reduce_kernel(G, 8, V100),
                                 scatter_reduce_kernel(G, 16, V100)),
    "scatter_reduce/hub": lambda: (scatter_reduce_kernel(G, 8, V100),
                                   scatter_reduce_kernel(G_HUB, 8, V100)),
    "scatter_reduce/edges": lambda: (
        scatter_reduce_kernel(G, 8, V100),
        scatter_reduce_kernel(G_FEWER, 8, V100)),
    "scatter_reduce/threads": lambda: (
        scatter_reduce_kernel(G, 8, V100),
        scatter_reduce_kernel(G, 8, FEWER_THREADS)),
    "gather/rows": lambda: (gather(), gather(rows=np.arange(300) % 89)),
    "gather/F": lambda: (gather(F=40), gather(F=48)),
    "gather/write_back": lambda: (gather(), gather(write_back=False)),
    "gather/threads": lambda: (gather(), gather(config=FEWER_THREADS)),
    # lower_sage_lstm: the fetch kernels' sampled index columns
    "sage/seed": lambda: (sage(), sage(seed=1)),
    "sage/k": lambda: (sage(), sage(k=8)),
    "sage/column": lambda: (sage(index=0), sage(index=4)),
    "sage/indptr": lambda: (sage(), sage(graph=G_HUB)),
    "sage/sources": lambda: (sage(), sage(graph=G_SOURCES)),
    "sage/expand-seed": lambda: (sage(SageStrategy.BASE),
                                 sage(SageStrategy.BASE, seed=1)),
    "sage/expand-k": lambda: (sage(SageStrategy.BASE),
                              sage(SageStrategy.BASE, k=8)),
    "sage/threads": lambda: (sage(), sage(config=FEWER_THREADS)),
}


def _key(kernel):
    return kernel_fingerprint(kernel, V100, 0.0)


def _content_key(kernel):
    return kernel_fingerprint(kernel, V100, 0.0, by_content=True)


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_one_input_changes_the_key(case):
    a, b = PAIRS[case]()
    assert a.recipe is not None and b.recipe is not None
    assert _content_key(a) != _content_key(b), "the input changes nothing"
    assert _key(a) != _key(b)
    again, _ = PAIRS[case]()
    assert _key(again) == _key(a)


def test_fetch_key_hashes_no_fresh_column():
    """The point of a recipe: keying a sparse-fetch kernel digests only
    long-lived inputs, never the index column lowering just built."""
    kernel = sage()
    _key(kernel)
    assert id(kernel.row_ids) not in memo._DIGESTS
    _content_key(kernel)
    assert id(kernel.row_ids) in memo._DIGESTS


def test_recipe_key_and_content_key_differ():
    kernel = agg()
    assert _key(kernel) != _content_key(kernel)


def test_reassigned_pricing_array_drops_the_recipe():
    kernel = agg()
    kernel.tag = "fused"  # scalars are keyed beside the recipe
    assert kernel.recipe is not None
    kernel.atomics = kernel.atomics + 1
    assert kernel.recipe is None
    assert _key(kernel) == _content_key(kernel)


def test_reordered_derives_its_recipe():
    perm = np.arange(N)[::-1].copy()
    base = agg()
    assert base.reordered(perm).recipe == (
        "reordered", base.recipe, memo.array_digest(perm))
    hand = KernelSpec("hand", block_flops=np.ones(N))
    assert hand.reordered(perm).recipe is None


def test_forged_recipe_collision_raises_under_strict():
    honest, forged = agg(F=24), agg(F=32)
    forged.recipe = honest.recipe
    clear_caches()
    try:
        with override(strict=True):
            simulate_kernel(honest, V100)
            with pytest.raises(RuntimeError, match="aliases"):
                simulate_kernel(forged, V100)
        clear_caches()
        # Without strict the recipe is trusted: the forgery is served
        # the honest kernel's statistics.
        with override(strict=False):
            first = simulate_kernel(honest, V100)
            assert simulate_kernel(forged, V100) is first
    finally:
        clear_caches()


# ----------------------------------------------------------------------
# Rows recipes: the stream-analysis tier's keys
# ----------------------------------------------------------------------

#: A trace limit below every stream of the cases, so a stream analysis
#: is keyed by the ``"prefix"`` form of its rows recipe.
PREFIX = V100.replace(cache_trace_limit=200)
SLOTS = V100.total_block_slots


def expand(graph=G, F=8, config=V100):
    return edge_expansion_kernel(graph, F, config)


#: case id -> (first kernel, second kernel) that differ in exactly one
#: input of one rows recipe, rebuilt on every call.
ROWS_PAIRS = {
    "agg_rows/graph": lambda: (agg(), agg(graph=G_SOURCES)),
    "agg_rows/group_ptr": lambda: (agg(), agg(grouping=_split_elsewhere())),
    "agg_rows/block-perm": lambda: (agg(order=_order(1)),
                                    agg(order=_order(2))),
    "agg_rows/no-perm": lambda: (agg(), agg(order=_order(1))),
    "expand_rows/graph": lambda: (expand(), expand(graph=G_SOURCES)),
    "expand_rows/edges_per_block": lambda: (expand(F=8), expand(F=16)),
    "gather_rows/rows": lambda: (gather(), gather(rows=np.arange(300) % 89)),
    "gather_rows/rows_per_block": lambda: (gather(F=8), gather(F=16)),
    "sampled/seed": lambda: (sage(), sage(seed=1)),
    "sampled/k": lambda: (sage(), sage(k=8)),
    "sampled/column": lambda: (sage(index=0), sage(index=4)),
    "sampled/indptr": lambda: (sage(), sage(graph=G_HUB)),
    "sampled/sources": lambda: (sage(), sage(graph=G_SOURCES)),
    "sampled/rows_per_block": lambda: (sage(), sage(config=FEWER_THREADS)),
    "sampled/expand-seed": lambda: (sage(SageStrategy.BASE),
                                    sage(SageStrategy.BASE, seed=1)),
}


def _rows_content(kernel):
    return (memo.array_digest(kernel.row_ptr),
            memo.array_digest(kernel.row_ids))


@pytest.mark.parametrize("case", sorted(ROWS_PAIRS))
def test_one_rows_input_changes_the_stream_key(case):
    a, b = ROWS_PAIRS[case]()
    assert a.rows_recipe is not None and b.rows_recipe is not None
    assert _rows_content(a) != _rows_content(b), "the input changes nothing"
    for cut in (None, 1):
        assert memo.stream_key(a, SLOTS, cut) != memo.stream_key(b, SLOTS, cut)
    again, _ = ROWS_PAIRS[case]()
    assert memo.stream_key(again, SLOTS) == memo.stream_key(a, SLOTS)


@pytest.mark.parametrize("config", [V100, PREFIX], ids=["whole", "prefix"])
@pytest.mark.parametrize("case", sorted(ROWS_PAIRS))
def test_one_rows_input_misses_the_stream_tier(case, config):
    """Simulated one after the other, under strict checking, the second
    kernel of a pair misses the stream tier (and raises nothing)."""
    a, b = ROWS_PAIRS[case]()
    clear_caches()
    try:
        with override(strict=True):
            simulate_kernel(a, config)
            misses = PERF.counts.get("stream_cache_miss", 0)
            simulate_kernel(b, config)
            assert PERF.counts.get("stream_cache_miss", 0) == misses + 1
    finally:
        clear_caches()


def test_pricing_inputs_share_one_stream_key():
    """A rows recipe is the rows' own, not the kernel's: kernels that
    differ only in pricing share one stream analysis."""
    for a, b in (
        (agg(F=32), agg(F=48)),
        (agg(F=32, order=_order(1)), agg(F=64, order=_order(1))),
        (expand(F=32), expand(F=48)),
        (sage(SageStrategy.SPARSE_FETCH, index=0),
         sage(SageStrategy.REDUNDANCY_BYPASS, index=1)),
    ):
        assert _key(a) != _key(b)
        assert memo.stream_key(a, SLOTS) == memo.stream_key(b, SLOTS)


def test_stream_key_hashes_no_fresh_rows():
    kernel = agg(order=_order(3))
    memo.stream_key(kernel, SLOTS)
    memo.stream_key(kernel, SLOTS, 5)
    assert id(kernel.row_ptr) not in memo._DIGESTS
    assert id(kernel.row_ids) not in memo._DIGESTS


def test_reassigned_rows_drop_the_rows_recipe():
    kernel = agg()
    kernel.block_flops = kernel.block_flops + 1.0
    assert kernel.rows_recipe is not None
    kernel.row_ids = kernel.row_ids[::-1].copy()
    assert kernel.rows_recipe is None
    assert memo.stream_key(kernel, SLOTS) == (*_rows_content(kernel), SLOTS)


def test_reordered_derives_its_rows_recipe():
    perm = np.arange(N)[::-1].copy()
    base = agg()
    assert base.reordered(perm).rows_recipe == (
        "reordered", base.rows_recipe, memo.array_digest(perm))
    hand = KernelSpec("hand", block_flops=np.ones(N))
    assert hand.reordered(perm).rows_recipe is None


@pytest.mark.parametrize("config", [V100, PREFIX], ids=["whole", "prefix"])
def test_forged_rows_recipe_collision_raises_under_strict(config):
    honest, forged = agg(), agg(grouping=_split_elsewhere())
    forged.rows_recipe = honest.rows_recipe
    clear_caches()
    try:
        with override(strict=True):
            simulate_kernel(honest, config)
            with pytest.raises(RuntimeError, match="aliases a stream"):
                simulate_kernel(forged, config)
        clear_caches()
        # Without strict the rows recipe is trusted: the forgery is
        # priced with the honest kernel's stream analysis.
        with override(strict=False):
            simulate_kernel(honest, config)
            hits = PERF.counts.get("stream_cache_hit", 0)
            simulate_kernel(forged, config)
            assert PERF.counts.get("stream_cache_hit", 0) == hits + 1
    finally:
        clear_caches()
