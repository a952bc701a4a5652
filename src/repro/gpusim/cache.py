"""L2 cache models over feature-row access streams.

Graph operations read node-feature *rows*; a row of ``Feat`` float32
values spans ``ceil(4*Feat/line)`` consecutive cache lines that are always
touched together, so the cache is modelled at row granularity with
capacity ``L2_bytes / row_footprint`` rows.

Two models:

* :func:`window_hits` — the default.  An access hits iff the number of
  accesses since the previous touch of the same row is at most the
  *effective window*: the access-count span whose expected working set
  (Denning's D(w), estimated by sampling) matches the cache capacity.
  This working-set approximation of LRU is near-linear time, fully
  vectorized, and order-sensitive — the property every scheduling
  experiment relies on.  Tests validate it against the exact model.
  The window is found by bisection; natively in one call whose probes
  stop as soon as their exact counts overflow the cache, on the
  reference lane by the numpy bisection of :func:`effective_window`.

* :func:`lru_hits` — exact LRU via reuse (stack) distances.  The default
  implementation batch-counts distinct rows per reuse window with a
  wavelet tree built level-by-level in numpy (O(n log n) work, ~log n
  vectorized passes); the original per-access Fenwick sweep is kept as
  :func:`_reuse_distances_reference` for validation and runs when
  fast paths are disabled (``repro.perf.override(fastpath=False)``).

Both return a boolean hit mask aligned with the access stream; first
touches (compulsory misses) are always misses.

Everything downstream of :func:`previous_occurrence` is a pure function
of the ``prev`` array, so the executor caches ``prev`` per stream
content (:mod:`repro.gpusim.memo`) and calls the ``*_from_prev``
variants directly.  Stream analyses (``prev``, the issue permutation,
the stack distances) hold stream positions, so they are int32 in every
lane: half the bytes of int64, for streams below ``2**31`` positions
(:func:`check_stream_length`).
"""

from __future__ import annotations

import numpy as np

from ..perf import runtime
from . import _native

__all__ = [
    "check_stream_length",
    "previous_occurrence",
    "window_hits",
    "window_hits_from_prev",
    "window_hit_rate_from_prev",
    "lru_hits",
    "reuse_distances",
    "reuse_distances_from_prev",
    "hit_mask",
    "effective_window",
    "estimate_distinct_in_window",
]


def check_stream_length(n: int) -> None:
    """Raise ``ValueError`` unless a stream of ``n`` positions fits the
    int32 positions of a stream analysis (``n < 2**31``)."""
    if n >= 2**31:
        raise ValueError(
            f"a stream of {n} positions is too long: stream analyses "
            f"hold int32 positions, so streams stay below 2**31"
        )


def previous_occurrence(stream: np.ndarray) -> np.ndarray:
    """For each position, the index of the previous access to the same row.

    Returns ``int32[n]`` with ``-1`` where the access is a first touch,
    and raises ``ValueError`` before reading a stream of ``2**31`` or
    more positions.  Natively one last-seen-position pass; otherwise (no
    C compiler, ``REPRO_NATIVE=0``, or ``override(fastpath=False)``)
    accesses are grouped per row in stream order by a stable argsort.
    """
    stream = np.asarray(stream)
    n = stream.shape[0]
    check_stream_length(n)
    if n == 0:
        return np.empty(0, dtype=np.int32)
    if runtime().fastpath and stream.dtype.kind in "iu" and (
        _native.available()
    ):
        lo = int(stream.min())
        hi = int(stream.max())
        if lo >= 0 and hi <= 50_000_000:
            # Single last-seen-position pass (the textbook O(n)
            # algorithm, sequential by nature — see _native).  Values are
            # exact indices, so the output is identical by definition.
            return _native.prev_occurrence(stream, hi + 1)
    order = np.argsort(stream, kind="stable")
    sorted_rows = stream[order]
    prev = np.full(n, -1, dtype=np.int32)
    same = sorted_rows[1:] == sorted_rows[:-1]
    prev[order[1:]] = np.where(same, order[:-1], -1)
    return prev


#: D(w) probe settings: sampled window starts and the most positions a
#: probe reads per start (longer windows are strided).  The native
#: search (``_native.window_search``) hard-codes the same two numbers.
_SAMPLES = 8
_MAX_EVAL = 65536


def estimate_distinct_in_window(prev: np.ndarray, window: int) -> float:
    """Expected number of distinct rows touched in a window of ``window``
    consecutive accesses.

    An access at position ``i`` is the *first* touch of its row within a
    window starting at ``t`` iff ``prev[i] < t``; counting those over
    sampled (and, for long windows, strided) positions estimates the
    working-set function D(w) of Denning's model.  Each probe is a
    strided view, never a materialized gather.
    """
    n = prev.shape[0]
    window = min(window, n)
    if window <= 0:
        return 0.0
    starts = np.linspace(0, n - window, num=_SAMPLES).astype(np.int64)
    stride = max(1, window // _MAX_EVAL)
    total = 0.0
    for t in starts:
        seg = prev[t : t + window : stride]
        total += np.count_nonzero(seg < t) * stride
    return total / _SAMPLES


def effective_window(
    stream: np.ndarray,
    capacity_rows: int,
    prev: np.ndarray | None = None,
) -> int:
    """Largest access-count window whose working set fits in the cache.

    Binary-searches w such that D(w) ~= capacity.  This converts the LRU
    capacity (distinct rows) into an access-count threshold that adapts
    to the stream's local duplication — hot-hub streams get modest
    windows, community-ordered streams get wide ones.

    Every probe only asks whether D(w) <= capacity, and D(w) is an
    exact integer count over 8, so the native search
    (:func:`._native.window_search`) stops a probe as soon as its count
    passes 8 x capacity: the same probes, the same window, without
    scanning windows that overflow the cache many times over.  The
    numpy bisection below is the reference (``fastpath=False``, no C
    compiler, or ``REPRO_NATIVE=0``).
    """
    if prev is None:
        prev = previous_occurrence(np.asarray(stream))
    n = prev.shape[0]
    if n == 0:
        return 0
    if _native_window_lane(prev):
        return _native.window_search(prev, capacity_rows)
    if estimate_distinct_in_window(prev, n) <= capacity_rows:
        return n
    lo, hi = max(1, capacity_rows), n
    while hi - lo > max(16, lo // 8):
        mid = (lo + hi) // 2
        if estimate_distinct_in_window(prev, mid) <= capacity_rows:
            lo = mid
        else:
            hi = mid
    return lo


def _native_window_lane(prev: np.ndarray) -> bool:
    """Whether the compiled window search and passes take this ``prev``
    array."""
    return (
        runtime().fastpath
        and prev.dtype == np.int32
        and prev.flags.c_contiguous
        and _native.available()
    )


def window_hits_from_prev(
    prev: np.ndarray, capacity_rows: int, window: int | None = None
) -> np.ndarray:
    """:func:`window_hits` given a precomputed previous-occurrence array."""
    n = prev.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    if window is None:
        window = effective_window(None, capacity_rows, prev=prev)
    w = max(window, 1)
    if _native_window_lane(prev):
        return _native.window_mask(prev, int(w))
    gap = np.arange(n, dtype=np.int64) - prev
    return (prev >= 0) & (gap <= w)


def window_hit_rate_from_prev(
    prev: np.ndarray, capacity_rows: int, window: int
) -> float:
    """Mean of :func:`window_hits_from_prev`, 0.0 for an empty stream.

    The native lane counts the hits in one pass without the mask;
    ``count / n`` is bit-identical to ``mask.mean()`` (an exact float64
    sum of ones, then one division).
    """
    n = prev.shape[0]
    if n == 0:
        return 0.0
    if _native_window_lane(prev):
        return _native.window_hit_count(prev, int(max(window, 1))) / n
    return float(window_hits_from_prev(prev, capacity_rows, window).mean())


def window_hits(
    stream: np.ndarray, capacity_rows: int, window: int | None = None
) -> np.ndarray:
    """Working-set (windowed-LRU) hit mask for a row access stream.

    An access hits iff the number of accesses since the previous touch of
    the same row is at most the ``window`` — by default the
    :func:`effective_window` whose expected working set matches the
    cache capacity (Denning's working-set approximation of LRU).
    """
    stream = np.asarray(stream)
    if stream.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    prev = previous_occurrence(stream)
    return window_hits_from_prev(prev, capacity_rows, window=window)


class _Fenwick:
    """Binary indexed tree over positions, for distinct-element counting."""

    __slots__ = ("tree", "n")

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree, n = self.tree, self.n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of [0, i]."""
        i += 1
        s = 0
        tree = self.tree
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return int(s)


def _reuse_distances_reference(stream: np.ndarray) -> np.ndarray:
    """Per-access Fenwick sweep (the pre-vectorization reference).

    Classic offline algorithm: keep a Fenwick tree with a 1 at the most
    recent position of every distinct row; the stack distance at position
    ``i`` for a row last seen at ``p`` is the number of ones in
    ``(p, i)``.  O(n log n) with a Python-level loop over accesses.
    """
    stream = np.asarray(stream)
    n = stream.shape[0]
    prev = previous_occurrence(stream)
    fen = _Fenwick(n)
    out = np.full(n, -1, dtype=np.int32)
    for i in range(n):
        p = prev[i]
        if p >= 0:
            # ones strictly inside (p, i): prefix(i-1) - prefix(p)
            out[i] = fen.prefix(i - 1) - fen.prefix(int(p))
            fen.add(int(p), -1)
        fen.add(i, 1)
    return out


def _wavelet_rank_le(
    vals: np.ndarray, plen: np.ndarray, y: np.ndarray, upper: int
) -> np.ndarray:
    """Batched prefix rank: for each query ``k``, the number of positions
    ``j < plen[k]`` with ``vals[j] <= y[k]`` (``vals``/``y`` in
    ``[0, upper]``).

    A wavelet tree over ``vals`` answers all queries together: each bit
    level stably partitions the array by that bit (one vectorized pass)
    while every query walks down, accumulating the size of the left
    subtrees it skips.  Levels are built on the fly and discarded, so
    peak memory is O(n + q).
    """
    nbits = max(1, int(upper).bit_length())
    # Positions and values both fit int32 for any stream the simulator
    # produces; narrower lanes halve the gather traffic below.
    idx_t = np.int32 if vals.shape[0] < 2**31 - 1 else np.int64
    arr = np.asarray(vals, dtype=idx_t)
    y = np.asarray(y, dtype=idx_t)
    n = arr.shape[0]
    acc = np.zeros(plen.shape[0], dtype=np.int64)
    node_start = np.zeros(plen.shape[0], dtype=idx_t)
    node_end = np.full(plen.shape[0], n, dtype=idx_t)
    pos = np.asarray(plen, dtype=idx_t).copy()
    zp = np.empty(n + 1, dtype=idx_t)
    for level in range(nbits - 1, -1, -1):
        zeros = ((arr >> level) & 1) == 0
        zp[0] = 0
        np.cumsum(zeros, out=zp[1:])
        zn = zp[-1]
        zs, ze, zpos = zp[node_start], zp[node_end], zp[pos]
        go_right = ((y >> level) & 1) == 1
        # Left-subtree elements inside this node's prefix are all <= y
        # when y's bit is set; bank them and descend right.
        acc[go_right] += (zpos - zs)[go_right]
        node_start = np.where(go_right, zn + (node_start - zs), zs)
        node_end = np.where(go_right, zn + (node_end - ze), ze)
        pos = np.where(go_right, zn + (pos - zpos), zpos)
        arr = np.concatenate([arr[zeros], arr[~zeros]])
    # The final node holds elements equal to y; prefix members count.
    return acc + (pos - node_start)


def reuse_distances_from_prev(prev: np.ndarray) -> np.ndarray:
    """Exact LRU stack distances from a previous-occurrence array.

    The stack distance at ``i`` is the number of distinct rows touched in
    ``(prev[i], i)``; each such row contributes exactly one *first* touch
    ``j`` there, characterized by ``prev[j] <= prev[i]``.  With
    ``A(x, y) = #{j <= x : prev[j] <= y}`` this is
    ``A(i-1, p) - A(p, p)`` — a batch of prefix rank queries answered in
    ~log n vectorized passes by :func:`_wavelet_rank_le`.  Returns
    ``int32[n]``, like ``prev``.
    """
    prev = np.asarray(prev)
    n = prev.shape[0]
    out = np.full(n, -1, dtype=np.int32)
    if n == 0:
        return out
    q = np.nonzero(prev >= 0)[0]
    if q.size == 0:
        return out
    p = prev[q]
    vals = prev + 1  # shift first-touch marker into [0, n]
    plen = np.concatenate([q, p + 1])  # prefixes [0, i) and [0, p]
    y = np.concatenate([p + 1, p + 1])
    ranks = _wavelet_rank_le(vals, plen, y, upper=n)
    m = q.shape[0]
    out[q] = ranks[:m] - ranks[m:]
    return out


def reuse_distances(stream: np.ndarray) -> np.ndarray:
    """Exact LRU stack distances (number of *distinct* rows touched since
    the previous access to the same row); ``-1`` marks first touches.
    """
    stream = np.asarray(stream)
    if not runtime().fastpath:
        return _reuse_distances_reference(stream)
    if stream.shape[0] == 0:
        return np.full(0, -1, dtype=np.int32)
    return reuse_distances_from_prev(previous_occurrence(stream))


def lru_hits(stream: np.ndarray, capacity_rows: int) -> np.ndarray:
    """Exact fully-associative LRU hit mask."""
    dist = reuse_distances(stream)
    return (dist >= 0) & (dist < capacity_rows)


def hit_mask(
    stream: np.ndarray, capacity_rows: int, model: str = "window"
) -> np.ndarray:
    """Dispatch between the window and exact LRU models."""
    if model == "window":
        return window_hits(stream, capacity_rows)
    if model == "lru":
        return lru_hits(stream, capacity_rows)
    raise ValueError(f"unknown cache model {model!r}")
