"""Pinned outputs of graph construction and sampling.

Every cache key, simulated figure and suite hash downstream starts from
these graphs, so a change to how CSRs are built or how neighborhoods
are sampled must leave them bit-identical.  The digests were recorded
with the original lexsort/per-node-loop implementations.
"""

import hashlib
import logging

import numpy as np
import pytest

from repro.gpusim import _native
from repro.graph import (
    DATASET_NAMES,
    DATASETS,
    clustered_graph,
    coo_to_csr,
    dense_graph,
    induced_subgraph,
    khop_sampled_subgraph,
    load_dataset,
    ogb_scale_graph,
    power_law_graph,
    small_dataset,
)
from repro.graph import generators
from repro.perf import override

DATASET_FINGERPRINTS = {
    "arxiv": "e1f3fb6e7056b31b",
    "collab": "28c1b266d929dbeb",
    "citation": "444b1fdf5fa52d4a",
    "ddi": "9b5244a7e926a870",
    "protein": "cac5251e7f81fc2a",
    "ppa": "2bbe54c70de5c5e8",
    "reddit": "42c4cc9370df9bb0",
    "products": "9c95dee21e4f6fd9",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _sample_digest(sub) -> str:
    return _digest(
        sub.node_map,
        sub.graph.indptr,
        sub.graph.indices,
        np.array([sub.num_seeds]),
    )


def test_every_dataset_is_pinned():
    assert sorted(DATASET_FINGERPRINTS) == sorted(DATASET_NAMES)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_fingerprint(name):
    assert load_dataset(name).fingerprint == DATASET_FINGERPRINTS[name]


def test_small_dataset_fingerprint():
    assert small_dataset().fingerprint == "43a46de63baee1e6"


def test_ogb_scale_graph_digest():
    # Same code path as the 49M-edge default, at a size tests can afford.
    g = ogb_scale_graph(5_000, 12.0, max_degree=400, seed=3, name="mini")
    assert g.fingerprint == "14649af262792c17"


# Generator settings the eight dataset recipes do not reach: shuffle off
# and on, a degree cap (down to one edge per node), hub-only and
# community-only sources (hub-only unshuffled too), and tiny graphs where
# most draws are self-loops or duplicates (N=3 keeps all 6 distinct
# pairs; N=2 both; N=1 keeps no edge); one community spanning every node,
# and intra-community draws never or always taken; and the ogb-mini
# graph, so every lane runs it.
GENERATOR_GRID = {
    "pl-plain": (power_law_graph, (400, 8.0), {"shuffle": False}),
    "pl-shuffled": (power_law_graph, (400, 8.0), {"seed": 1}),
    "pl-capped": (power_law_graph, (600, 10.0), {"max_degree": 24, "seed": 2}),
    "pl-capped-plain": (
        power_law_graph, (600, 10.0),
        {"max_degree": 24, "shuffle": False, "seed": 2},
    ),
    "pl-hubs-only": (
        power_law_graph, (500, 6.0), {"locality": 0.0, "exponent": 1.8, "seed": 3}
    ),
    "pl-community-only": (
        power_law_graph, (500, 6.0), {"locality": 1.0, "seed": 4}
    ),
    "pl-community-only-plain": (
        power_law_graph, (500, 6.0),
        {"locality": 1.0, "shuffle": False, "seed": 4},
    ),
    "pl-tiny": (power_law_graph, (3, 5.0), {"seed": 5}),
    "pl-single-node": (power_law_graph, (1, 4.0), {"seed": 6}),
    "pl-max-degree-1": (
        power_law_graph, (300, 6.0), {"max_degree": 1, "seed": 11}
    ),
    "pl-hubs-only-plain": (
        power_law_graph, (500, 6.0),
        {"locality": 0.0, "shuffle": False, "seed": 12},
    ),
    "pl-two-nodes": (power_law_graph, (2, 3.0), {"seed": 13}),
    "clustered-tight": (
        clustered_graph, (400, 8.0), {"num_communities": 8, "seed": 7}
    ),
    "clustered-loose": (
        clustered_graph, (300, 5.0),
        {"num_communities": 64, "intra_prob": 0.5, "seed": 8},
    ),
    "clustered-one-community": (
        clustered_graph, (300, 6.0), {"num_communities": 1, "seed": 14}
    ),
    "clustered-inter-only": (
        clustered_graph, (300, 6.0),
        {"num_communities": 16, "intra_prob": 0.0, "seed": 15},
    ),
    "clustered-intra-only": (
        clustered_graph, (300, 6.0),
        {"num_communities": 16, "intra_prob": 1.0, "seed": 16},
    ),
    "dense-sparse": (dense_graph, (60, 0.1), {"seed": 9}),
    "dense-half": (dense_graph, (40, 0.5), {"seed": 10}),
    "ogb-mini": (
        ogb_scale_graph, (5_000, 12.0), {"max_degree": 400, "seed": 3}
    ),
}

GENERATOR_FINGERPRINTS = {
    "pl-plain": "b0812ccfb2016d29",
    "pl-shuffled": "6444367076f1e530",
    "pl-capped": "376bd1e5535bae6d",
    "pl-capped-plain": "87c6202fb0f4290d",
    "pl-hubs-only": "d4f23dd5b9dcc496",
    "pl-community-only": "3d2db6bbf7cd3c2c",
    "pl-community-only-plain": "143ee8ff459b7ec1",
    "pl-tiny": "bd589131603c5b65",
    "pl-single-node": "374708fff7719dd5",
    "pl-max-degree-1": "01f7d5a746cd2a25",
    "pl-hubs-only-plain": "42a4ee501e945ab6",
    "pl-two-nodes": "359ad77c04cfcb7e",
    "clustered-tight": "f6e72401c7abbd95",
    "clustered-loose": "c39c306916d6d336",
    "clustered-one-community": "c4a6fc195d9a70fd",
    "clustered-inter-only": "68e0af8396411629",
    "clustered-intra-only": "f7835475917990e7",
    "dense-sparse": "ebb1cb4853f64666",
    "dense-half": "795eb3506743bf01",
    "ogb-mini": "14649af262792c17",
}


_LANES = {
    "default": {},
    "numpy": {"native": False},
    "reference": {"fastpath": False},
}


@pytest.fixture(params=list(_LANES))
def lane(request):
    """The default lane, the numpy lane (no native library) and the
    reference lane (``override(fastpath=False)``)."""
    with override(**_LANES[request.param]):
        yield request.param


def test_generator_grid_is_pinned():
    assert sorted(GENERATOR_FINGERPRINTS) == sorted(GENERATOR_GRID)


@pytest.mark.parametrize("case", sorted(GENERATOR_GRID))
def test_generator_fingerprint(case, lane):
    fn, args, kwargs = GENERATOR_GRID[case]
    assert fn(*args, **kwargs).fingerprint == GENERATOR_FINGERPRINTS[case]


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_build_fingerprint(name, lane):
    """Every dataset recipe, built fresh in each lane (``load_dataset``
    caches per process, so it would hand every lane the first lane's
    graph)."""
    assert DATASETS[name].build().fingerprint == DATASET_FINGERPRINTS[name]


@pytest.mark.parametrize("weights, size", [
    (np.ones(1), 50),
    (np.ones(7), 1_000),
    (np.arange(1.0, 65.0), 5_000),                   # n a power of two
    (np.array([0.0, 3.0, 0.0, 0.0, 1.0, 2.0]), 2_000),  # zero weights
    (np.random.default_rng(0).pareto(1.5, 3_001) + 1.0, 20_000),
])
def test_weighted_draw_is_rng_choice(weights, size, lane):
    """Same draws and same generator state after as ``Generator.choice``
    with ``p`` on the installed numpy, in every lane."""
    p = weights / weights.sum()
    got_rng = np.random.default_rng(11)
    ref_rng = np.random.default_rng(11)
    got = generators._weighted_draw(got_rng, size, p)
    ref = ref_rng.choice(p.shape[0], size=size, p=p)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


# (dataset, seeds, fanouts, sampler seed) -> digest.  The arxiv seeds
# 12/14/61 have no in-edges, so the first hop's frontier comes back
# empty; on ddi a 5000 fanout exceeds every degree and the third hop
# finds no unvisited node.  Repeated seeds keep the last index.
KHOP_CASES = {
    "arxiv-10x10": ("arxiv", np.arange(0, 640, 10), (10, 10), 0),
    "arxiv-hubs": ("arxiv", np.array([1525, 3024, 5, 3622]), (25, 10, 5), 1),
    "arxiv-empty-frontier": ("arxiv", np.array([12, 14, 61]), (10, 10), 2),
    "arxiv-dup-seeds": ("arxiv", np.array([7, 3, 7, 1525, 3]), (10, 10), 3),
    "ddi-10x10": ("ddi", np.arange(0, 64), (10, 10), 4),
    "ddi-full-fanout": ("ddi", np.array([0, 1, 2]), (5000, 5000, 5000), 5),
    "ddi-dup-seeds": ("ddi", np.array([9, 9, 4, 9]), (5, 3), 6),
}

KHOP_DIGESTS = {
    "arxiv-10x10": "ec31481dfa71e825",
    "arxiv-hubs": "e2bfb398a69e5e90",
    "arxiv-empty-frontier": "839cfd6abeac2c5a",
    "arxiv-dup-seeds": "0b7161592f9677ba",
    "ddi-10x10": "ee468a9c98e5c16b",
    "ddi-full-fanout": "d77a5b795b3d3a87",
    "ddi-dup-seeds": "7a2251ffe295c475",
}


@pytest.mark.parametrize("case", sorted(KHOP_CASES))
def test_khop_sample_digest(case):
    name, seeds, fanouts, seed = KHOP_CASES[case]
    sub = khop_sampled_subgraph(load_dataset(name), seeds, fanouts, seed)
    assert _sample_digest(sub) == KHOP_DIGESTS[case]


@pytest.mark.skipif(not _native.available(), reason="no native lane")
def test_khop_digests_hold_when_native_self_check_fails(monkeypatch, caplog):
    """A numpy whose ``Generator.choice`` no longer matches the kernel
    (NEP 19 allows it) is caught at load time: one warning, then every
    hop keeps the per-row ``rng.choice`` calls and the digests hold."""
    monkeypatch.setattr(_native, "_CHOICE_OK", None)
    monkeypatch.setattr(
        _native, "_reference_choice",
        lambda rng, d, k: rng.choice(d, k, replace=False) + 1,
    )
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        for case in sorted(KHOP_CASES):
            name, seeds, fanouts, seed = KHOP_CASES[case]
            sub = khop_sampled_subgraph(
                load_dataset(name), seeds, fanouts, seed
            )
            assert _sample_digest(sub) == KHOP_DIGESTS[case], case
    assert _native._CHOICE_OK is False
    assert _native.choice_rows(
        np.random.default_rng(0), np.array([50]), 3
    ) is None
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "Generator.choice" in warnings[0].getMessage()


def test_khop_empty_frontier_keeps_only_seeds():
    arxiv = load_dataset("arxiv")
    seeds = np.array([12, 14, 61])
    sub = khop_sampled_subgraph(arxiv, seeds, (10, 10), seed=2)
    assert np.array_equal(sub.node_map, seeds)
    assert sub.graph.num_edges == 0


def test_khop_duplicate_seed_maps_to_last_index():
    ddi = load_dataset("ddi")
    sub = khop_sampled_subgraph(ddi, np.array([9, 9, 4, 9]), (5,), seed=6)
    assert sub.node_map[:4].tolist() == [9, 9, 4, 9]
    # Only the last copy of seed 9 (index 3) carries in-edges, one
    # fanout's worth for each of its three frontier visits.
    assert sub.graph.degrees[:4].tolist() == [0, 0, 5, 15]


def test_induced_subgraph_digest():
    g = load_dataset("arxiv")
    nodes = np.random.default_rng(0).choice(g.num_nodes, 3000, replace=False)
    assert _sample_digest(induced_subgraph(g, nodes)) == "1fbe21c98f9e1e46"


def test_reverse_and_permute_digests():
    g = load_dataset("arxiv")
    assert g.reverse().fingerprint == "9cb893d7f9739387"
    perm = np.random.default_rng(1).permutation(g.num_nodes)
    assert g.permute_nodes(perm).fingerprint == "46e704bb4d32f3f7"
    w = np.random.default_rng(2).random(g.num_edges).astype(np.float32)
    rev = g.with_weights(w).reverse()
    assert _digest(rev.indptr, rev.indices, rev.edge_weight) == "b43001ede8029282"


def test_coo_with_duplicates_digest():
    rng = np.random.default_rng(5)
    src = rng.integers(0, 50, 2_000)
    dst = rng.integers(0, 50, 2_000)
    w = rng.random(2_000).astype(np.float32)
    g = coo_to_csr(src, dst, 50)
    gw = coo_to_csr(src, dst, 50, edge_weight=w)
    assert g.fingerprint == "f7d35513143b6acc"
    assert _digest(gw.indptr, gw.indices, gw.edge_weight) == "4332ce69bf36c10d"
