"""Tests for the graph sampling subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    coo_to_csr,
    induced_subgraph,
    khop_sampled_subgraph,
    power_law_graph,
    random_edge_sample,
    small_dataset,
)


@pytest.fixture(scope="module")
def g():
    return small_dataset()


class TestKHop:
    def test_seeds_first(self, g):
        seeds = np.array([3, 7, 11])
        sub = khop_sampled_subgraph(g, seeds, (4, 4), seed=0)
        assert np.array_equal(sub.node_map[:3], seeds)
        assert sub.num_seeds == 3

    def test_fanout_respected(self, g):
        seeds = np.arange(20)
        sub = khop_sampled_subgraph(g, seeds, (3,), seed=1)
        # Seeds' in-degree in the subgraph is at most the fanout.
        for i in range(20):
            assert sub.graph.degrees[i] <= 3

    def test_edges_exist_in_parent(self, g):
        seeds = np.array([0, 1, 2])
        sub = khop_sampled_subgraph(g, seeds, (4, 2), seed=2)
        for v in range(sub.graph.num_nodes):
            pv = int(sub.node_map[v])
            parent_neigh = set(g.neighbors(pv).tolist())
            for u in sub.graph.neighbors(v):
                assert int(sub.node_map[u]) in parent_neigh

    def test_deterministic(self, g):
        seeds = np.array([5, 6])
        a = khop_sampled_subgraph(g, seeds, (4, 4), seed=3)
        b = khop_sampled_subgraph(g, seeds, (4, 4), seed=3)
        assert np.array_equal(a.node_map, b.node_map)
        assert np.array_equal(a.graph.indices, b.graph.indices)

    def test_different_seed_different_sample(self, g):
        seeds = np.arange(10)
        a = khop_sampled_subgraph(g, seeds, (3, 3), seed=4)
        b = khop_sampled_subgraph(g, seeds, (3, 3), seed=5)
        assert a.graph.num_edges != b.graph.num_edges or not (
            np.array_equal(a.node_map, b.node_map)
        )

    def test_lift_features(self, g):
        feat = np.arange(g.num_nodes * 2, dtype=np.float32).reshape(
            -1, 2
        )
        sub = khop_sampled_subgraph(g, np.array([4]), (2,), seed=6)
        lifted = sub.lift_features(feat)
        assert np.array_equal(lifted[0], feat[4])

    def test_sampling_all_with_huge_fanout(self, g):
        """Fanout >= degree keeps every in-edge of the seeds."""
        sub = khop_sampled_subgraph(
            g, np.array([0]), (10_000,), seed=7
        )
        assert sub.graph.degrees[0] == g.degrees[0]


class TestKHopValidation:
    @pytest.mark.parametrize("seeds", [[-1], [0, 512], [3, 10**6]])
    def test_seed_outside_graph(self, g, seeds):
        with pytest.raises(ValueError, match="seed nodes"):
            khop_sampled_subgraph(g, np.array(seeds), (5,))

    @pytest.mark.parametrize("fanouts", [(-1,), (5, -2), (2.5,), ("3",)])
    def test_bad_fanout(self, g, fanouts):
        with pytest.raises(ValueError, match="fanouts"):
            khop_sampled_subgraph(g, np.array([0, 1]), fanouts)

    def test_numpy_integer_fanout(self, g):
        sub = khop_sampled_subgraph(g, np.array([0]), (np.int32(3),), seed=1)
        ref = khop_sampled_subgraph(g, np.array([0]), (3,), seed=1)
        assert np.array_equal(sub.node_map, ref.node_map)


def _reference_khop(graph, seeds, fanouts, seed):
    """The per-node, dict-based sampler the vectorized one must match."""
    rng = np.random.default_rng(seed)
    seeds = np.asarray(seeds, dtype=np.int64)
    visited = {int(v): i for i, v in enumerate(seeds)}
    order = list(seeds)
    src, dst = [], []
    frontier = seeds
    for fanout in fanouts:
        nxt = []
        for v in frontier:
            neigh = graph.neighbors(int(v))
            if neigh.shape[0] == 0:
                continue
            if neigh.shape[0] <= fanout:
                picked = neigh
            else:
                picked = rng.choice(neigh, size=fanout, replace=False)
            for u in picked.tolist():
                if u not in visited:
                    visited[u] = len(order)
                    order.append(u)
                    nxt.append(u)
                src.append(visited[u])
                dst.append(visited[int(v)])
        frontier = np.array(nxt, dtype=np.int64)
        if frontier.size == 0:
            break
    node_map = np.array(order, dtype=np.int64)
    sub = coo_to_csr(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
        node_map.shape[0],
    )
    return node_map, sub


class TestKHopMatchesReference:
    @given(
        st.lists(st.integers(0, 511), min_size=0, max_size=12),
        st.lists(st.integers(0, 12), min_size=0, max_size=3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_sample_as_per_node_loop(self, g, seeds, fanouts, seed):
        seeds = np.array(seeds, dtype=np.int64)
        sub = khop_sampled_subgraph(g, seeds, tuple(fanouts), seed=seed)
        node_map, ref = _reference_khop(g, seeds, fanouts, seed)
        assert np.array_equal(sub.node_map, node_map)
        assert np.array_equal(sub.graph.indptr, ref.indptr)
        assert np.array_equal(sub.graph.indices, ref.indices)


class TestInduced:
    def test_all_internal_edges_kept(self, g):
        nodes = np.arange(64)
        sub = induced_subgraph(g, nodes)
        expect = 0
        node_set = set(nodes.tolist())
        for v in nodes:
            expect += sum(
                1 for u in g.neighbors(int(v)) if int(u) in node_set
            )
        assert sub.graph.num_edges == expect

    def test_no_external_nodes(self, g):
        nodes = np.arange(10, 40)
        sub = induced_subgraph(g, nodes)
        assert sub.graph.num_nodes == 30
        assert set(sub.node_map.tolist()) == set(range(10, 40))

    def test_whole_graph_identity(self, g):
        sub = induced_subgraph(g, np.arange(g.num_nodes))
        assert sub.graph.num_edges == g.num_edges


class TestEdgeSample:
    def test_edge_count(self, g):
        sub = random_edge_sample(g, 100, seed=8)
        assert sub.graph.num_edges == 100

    def test_cap_at_total(self, g):
        sub = random_edge_sample(g, 10**9, seed=9)
        assert sub.graph.num_edges == g.num_edges

    def test_endpoints_cover_nodes(self, g):
        sub = random_edge_sample(g, 50, seed=10)
        touched = np.unique(
            np.concatenate(
                [sub.graph.indices, sub.graph.edge_dst()]
            )
        )
        assert touched.shape[0] == sub.graph.num_nodes

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_edges_map_back(self, seed):
        g = power_law_graph(100, 5.0, seed=1)
        sub = random_edge_sample(g, 40, seed=seed)
        parent_edges = set(
            zip(g.indices.tolist(), g.edge_dst().tolist())
        )
        for v in range(sub.graph.num_nodes):
            for u in sub.graph.neighbors(v):
                pu = int(sub.node_map[u])
                pv = int(sub.node_map[v])
                assert (pu, pv) in parent_edges


class TestOptimizationsOnSampledGraphs:
    """The whole stack runs unchanged on per-iteration sampled graphs —
    the §5.2 online-only scenario."""

    def test_frameworks_run_on_khop_sample(self, g):
        from repro.frameworks import DGLLike, OursOptions, OursRuntime
        from repro.gpusim import V100_SCALED
        from repro.models import GCNConfig

        sub = khop_sampled_subgraph(
            g, np.arange(50), (8, 4), seed=11
        ).graph
        cfg = GCNConfig(dims=(16, 8))
        online_only = OursRuntime(
            OursOptions(locality_scheduling=False)
        )
        t_dgl = DGLLike().run_gcn(sub, cfg, V100_SCALED).time_ms
        t_ours = online_only.run_gcn(sub, cfg, V100_SCALED).time_ms
        assert t_ours < t_dgl
