"""Seeded synthetic graph generators.

The paper evaluates on eight OGB datasets whose behavioural differences are
driven by their *degree statistics* (average degree, degree variance, max
degree, density) and clustering (ddi is dense, protein is "inherently
clustered", arxiv has extreme hubs).  These generators reproduce those
signatures at reduced scale so the per-dataset orderings in every
figure/table carry over.  All generators are deterministic given a seed.

Three families:

* :func:`power_law_graph` — heavy-tailed in-degree (citation/social/
  co-purchasing networks: arxiv, collab, citation, ppa, reddit, products).
* :func:`clustered_graph` — community-structured, neighbors drawn mostly
  from a node's own community (protein).
* :func:`dense_graph` — Erdős–Rényi at high density (ddi).

Every random draw is numpy's, in a fixed order.  The power-law and
clustered graphs then mix each edge's two candidate sources and go to
CSR through :func:`_mixed_csr`: two native passes around one sort of
the packed ``dst * N + src`` keys, with the numpy steps ending in
:func:`_unique_csr` as the reference lane.
"""

from __future__ import annotations

import numpy as np

from ..gpusim import _native
from ..perf import runtime
from .csr import CSRGraph, coo_to_csr, sorted_unique

__all__ = [
    "power_law_graph",
    "clustered_graph",
    "dense_graph",
    "ogb_scale_graph",
]


def _weighted_draw(
    rng: np.random.Generator, size: int, p: np.ndarray
) -> np.ndarray:
    """``rng.choice(len(p), size=size, p=p)``: the same draws, and the
    same generator state afterwards.

    These are numpy 2.x's own steps for that call (a normalized
    cumulative sum, one ``rng.random(size)``, a right-sided search),
    with the search made by the native guide-table kernel where there
    is one and by ``searchsorted`` otherwise (and always under
    ``override(fastpath=False)``).
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    if runtime().fastpath:
        idx = _native.weighted_search(cdf, u)
        if idx is not None:
            return idx
    return cdf.searchsorted(u, side="right")


def _mixed_csr(
    deg: np.ndarray,
    lo: np.ndarray,
    width: np.ndarray,
    u_pick: np.ndarray,
    threshold: float,
    u_off: np.ndarray,
    alt: np.ndarray,
    relabel: "np.ndarray | None",
    name: str,
) -> CSRGraph:
    """CSR of a generator's mixed-source edges, self-loops and repeats
    dropped.

    Node ``v`` owns ``deg[v]`` consecutive edges.  Edge ``e`` takes the
    window source ``lo[v] + int(u_off[e] * width[v])`` where ``u_pick[e]
    < threshold`` and ``alt[e]`` elsewhere, and ``relabel`` (or None)
    maps both ends.  The native lane packs the kept edges' keys in one
    pass (``_native.edge_keys``), sorts them and decodes the distinct
    keys in one more (``_native.distinct_keys_csr``).  The numpy steps
    below them, ending in :func:`_unique_csr`, are the reference lane:
    no compiler, ``REPRO_NATIVE=0``, ``override(fastpath=False)``, or an
    input a kernel declines.
    """
    num_nodes = deg.shape[0]
    if runtime().fastpath:
        keys = _native.edge_keys(
            deg, lo, width, u_pick, threshold, u_off, alt, relabel
        )
        if keys is not None:
            keys.sort()
            csr = _native.distinct_keys_csr(keys, num_nodes)
            if csr is not None:
                return CSRGraph(*csr, name=name)
    src = np.repeat(lo, deg) + (u_off * np.repeat(width, deg)).astype(
        np.int64
    )
    src = np.where(u_pick < threshold, src, alt)
    nodes = np.arange(num_nodes, dtype=np.int64)
    if relabel is not None:
        # A relabel is a bijection on pairs (and keeps self-loops
        # self-loops), so relabelling before the dedupe keeps the edge
        # set and lets one sort build the CSR.
        src, nodes = relabel[src], relabel
    return _unique_csr(src, np.repeat(nodes, deg), num_nodes, name)


def _unique_csr(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, name: str
) -> CSRGraph:
    """CSR of the distinct (src, dst) pairs, self-loops dropped: the
    reference lane of :func:`_mixed_csr`.

    One sort of the packed ``dst * num_nodes + src`` keys both drops the
    duplicates and puts the rows in the canonical (dst-grouped,
    src-sorted) order: the graph ``coo_to_csr(*_dedupe(src, dst))``
    builds with two sorts.
    """
    keep = src != dst
    key = sorted_unique(dst[keep] * num_nodes + src[keep])
    indptr = key.searchsorted(np.arange(num_nodes + 1) * num_nodes)
    return CSRGraph(indptr, (key % num_nodes).astype(np.int32), name=name)


def _dedupe(src: np.ndarray, dst: np.ndarray):
    """Drop duplicate (src, dst) pairs and self-loops.

    Returns the surviving pairs in (src, dst) order, decoded from the
    sorted distinct packed keys.  Only :func:`dense_graph` uses it: its
    subsample indexes this src-major order, which the dst-major
    :func:`_unique_csr` does not produce.
    """
    mask = src != dst
    src, dst = src[mask], dst[mask]
    width = dst.max() + 1 if dst.size else 1
    key = sorted_unique(src.astype(np.int64) * width + dst)
    return np.divmod(key, width)


def power_law_graph(
    num_nodes: int,
    avg_degree: float,
    *,
    exponent: float = 2.2,
    max_degree: int | None = None,
    locality: float = 0.75,
    community_scale: float = 1.5,
    shuffle: bool = True,
    seed: int = 0,
    name: str = "",
) -> CSRGraph:
    """Directed graph with power-law in-degrees and community sources.

    In-degree of each node is drawn from a Pareto-like distribution with
    the given tail ``exponent``, rescaled to hit ``avg_degree`` on
    average and clipped to ``max_degree``.  Larger exponents give lighter
    tails (lower degree variance).

    Sources mix two mechanisms, both present in real citation/social
    graphs: a ``locality`` fraction is drawn from the destination's
    *community* (a pool of ``community_scale * avg_degree`` nodes), the
    rest preferentially from high-degree hubs.  Same-community centers
    therefore share neighbors — the Jaccard similarity the paper's
    locality-aware scheduling clusters on.  With ``shuffle`` (the
    default, matching how real datasets arrive) node ids are randomly
    relabelled, so the *natural* issue order has no locality and
    scheduling has something to recover.
    """
    rng = np.random.default_rng(seed)
    raw = rng.pareto(exponent - 1.0, size=num_nodes) + 1.0
    deg = raw / raw.mean() * avg_degree
    if max_degree is not None:
        deg = np.minimum(deg, max_degree)
    deg = np.maximum(np.round(deg).astype(np.int64), 1)
    # Rescale after rounding/clipping so that E ~= N * avg_degree.
    target_e = int(round(num_nodes * avg_degree))
    scale = target_e / max(int(deg.sum()), 1)
    deg = np.maximum(np.round(deg * scale).astype(np.int64), 1)
    if max_degree is not None:
        deg = np.minimum(deg, max_degree)
    num_edges = int(deg.sum())
    nodes = np.arange(num_nodes, dtype=np.int64)
    # Preferential (hub) source pool.
    popularity = deg.astype(np.float64)
    popularity /= popularity.sum()
    hub_src = _weighted_draw(rng, num_edges, popularity)
    # Community source pool: contiguous windows before the shuffle.
    # Windows are per destination, so they are sized per node and
    # repeated out to the edges.
    comm_size = max(2, int(round(community_scale * avg_degree)))
    comm_lo = (nodes // comm_size) * comm_size
    # Hubs draw from windows proportional to their own degree (anchored at
    # their community) so sampling-with-dedup does not collapse them.
    want = np.maximum(comm_size, 2 * deg)
    width = np.minimum(comm_lo + want, num_nodes) - comm_lo
    # The draw order (offsets, picks, relabel) fixes every pinned graph.
    offset = rng.random(num_edges)
    pick = rng.random(num_edges)
    relabel = rng.permutation(num_nodes) if shuffle else None
    return _mixed_csr(
        deg, comm_lo, width, pick, locality, offset, hub_src, relabel, name
    )


def ogb_scale_graph(
    num_nodes: int = 1_200_000,
    avg_degree: float = 40.8,
    *,
    exponent: float = 2.4,
    max_degree: int = 4096,
    locality: float = 0.96,
    seed: int = 0,
    name: str = "ogb49m",
) -> CSRGraph:
    """Full-scale power-law graph (~49M edges at the defaults).

    The reduced-scale generators above keep the tier-1 suite fast; this
    one reproduces the *size* regime of the larger OGB datasets
    (products-class density at a papers100M-direction node count), where
    a monolithic plan exceeds the simulated device memory and execution
    only becomes possible sharded across devices — the regime ROC and
    NeuGraph were built for.  The defaults are sized against the 1 GiB
    simulated device budget: the 512-dim input features alone need
    ~2.3 GiB monolithic, still exceed one device at P=4 after edge-cut
    replication (~2x at these locality settings), and first fit at
    P=8 — so the 1/2/4/8 scaling curve records OOM cells until the
    sharded regime genuinely begins.

    Built straight into CSR: degrees draw the indptr, sources are
    sampled per edge (community window + hub preferential mix, as in
    :func:`power_law_graph`), and one value sort of the packed
    ``dst * num_nodes + src`` key puts rows in the canonical
    (dst-grouped, src-sorted) order.  Self-loops are shifted
    rather than dropped so the degree array stays exact; duplicate
    sources within a row are tolerated (real co-purchase graphs carry
    multi-edges too).  No O(N^2) step anywhere — ~49M edges build in
    seconds.
    """
    rng = np.random.default_rng(seed)
    raw = rng.pareto(exponent - 1.0, size=num_nodes) + 1.0
    deg = raw / raw.mean() * avg_degree
    deg = np.minimum(deg, max_degree)
    deg = np.maximum(np.round(deg).astype(np.int64), 1)
    target_e = int(round(num_nodes * avg_degree))
    scale = target_e / max(int(deg.sum()), 1)
    deg = np.maximum(np.round(deg * scale).astype(np.int64), 1)
    deg = np.minimum(deg, max_degree)
    indptr = np.concatenate(
        ([0], np.cumsum(deg))
    ).astype(np.int64)
    num_edges = int(indptr[-1])
    nodes = np.arange(num_nodes, dtype=np.int64)
    # Community windows scale with the destination's own degree so hubs
    # reach past their window instead of collapsing onto duplicates.
    comm_size = max(2, int(round(1.5 * avg_degree)))
    comm_lo = (nodes // comm_size) * comm_size
    want = np.maximum(comm_size, 2 * deg)
    width = np.minimum(comm_lo + want, num_nodes) - comm_lo
    comm_src = np.repeat(comm_lo, deg) + (
        rng.random(num_edges) * np.repeat(width, deg)
    ).astype(np.int64)
    dst = np.repeat(nodes, deg)
    popularity = deg.astype(np.float64)
    popularity /= popularity.sum()
    hub_src = _weighted_draw(rng, num_edges, popularity)
    src = np.where(
        rng.random(num_edges) < locality, comm_src, hub_src
    )
    src = np.where(src == dst, (src + 1) % num_nodes, src)
    # dst is already grouped, so sorting the packed key only orders
    # sources within each row; decoding the sorted key recovers them.
    key = dst * num_nodes + src
    key.sort()
    return CSRGraph(indptr, (key % num_nodes).astype(np.int32), name=name)


def clustered_graph(
    num_nodes: int,
    avg_degree: float,
    *,
    num_communities: int = 64,
    intra_prob: float = 0.9,
    seed: int = 0,
    name: str = "",
) -> CSRGraph:
    """Community-structured graph (a stochastic block model sampler).

    Each node belongs to one of ``num_communities`` contiguous communities;
    a fraction ``intra_prob`` of its neighbors come from its own community.
    Degrees are narrowly distributed (Poisson), matching protein's low
    relative degree variance and "already clustered" locality in the paper.
    """
    rng = np.random.default_rng(seed)
    comm = np.sort(rng.integers(0, num_communities, size=num_nodes))
    deg = np.maximum(rng.poisson(avg_degree, size=num_nodes), 1)
    num_edges = int(deg.sum())
    # Community member lists (communities are contiguous after sort),
    # one window per destination, repeated out to its edges.
    bounds = np.searchsorted(comm, np.arange(num_communities + 1))
    lo = bounds[comm]
    width = np.maximum(bounds[comm + 1] - lo, 1)
    # The draw order (picks, offsets, random sources) fixes every pinned
    # graph.
    pick = rng.random(num_edges)
    offset = rng.random(num_edges)
    rand_src = rng.integers(0, num_nodes, size=num_edges)
    return _mixed_csr(
        deg, lo, width, pick, intra_prob, offset, rand_src, None, name
    )


def dense_graph(
    num_nodes: int,
    density: float,
    *,
    seed: int = 0,
    name: str = "",
) -> CSRGraph:
    """Dense Erdős–Rényi directed graph (the ddi signature).

    ``density`` is E / N^2.  Sampling is vectorized: we draw the number of
    edges from the Binomial mean and sample distinct (src, dst) pairs.
    """
    rng = np.random.default_rng(seed)
    target_e = int(density * num_nodes * num_nodes)
    # Oversample then dedupe; at density ~0.1 the collision rate is modest.
    draw = int(target_e * 1.3) + 16
    src = rng.integers(0, num_nodes, size=draw)
    dst = rng.integers(0, num_nodes, size=draw)
    src, dst = _dedupe(src, dst)
    if src.shape[0] > target_e:
        keep = rng.permutation(src.shape[0])[:target_e]
        keep.sort()
        src, dst = src[keep], dst[keep]
    return coo_to_csr(src, dst, num_nodes, name=name)
