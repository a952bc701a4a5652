"""Kernel abstraction: a launch plus a set of block tasks.

A :class:`KernelSpec` describes one GPU kernel in array form (no
per-block Python objects — blocks can number in the hundreds of
thousands).  Each block carries:

* a FLOP count,
* a ragged list of *cacheable* feature-row reads (``row_ids`` sliced by
  ``row_ptr``), each read moving ``row_bytes`` bytes through L2/DRAM
  depending on the cache model's verdict,
* ``stream_bytes`` of traffic that never hits in L2 at this granularity
  (CSR structure, per-edge scalars, writes, dense-intermediate streaming),
* an atomic-update count (cross-SM reductions under neighbor grouping).

Dense kernels (GEMMs, element-wise maps) are built with
:meth:`KernelSpec.uniform_dense`, which splits an aggregate cost across
uniform blocks — their behaviour is bandwidth/compute-bound, not
locality-bound, so no row trace is needed.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..perf import runtime
from .memo import REORDER_CACHE, array_digest

__all__ = ["KernelDataflow", "KernelSpec"]

_PRICING_ARRAYS = frozenset(
    ("block_flops", "row_ptr", "row_ids", "stream_bytes", "atomics")
)
_ROW_ARRAYS = frozenset(("row_ptr", "row_ids"))


def _as_row_ids(row_ids) -> np.ndarray:
    """``row_ids`` as the int32 node ids a kernel's row stream holds.

    An int32 array passes through as is (no copy).  A wider one is
    checked first: an id outside ``[0, 2**31)`` raises ``ValueError``
    instead of wrapping round when narrowed.
    """
    row_ids = np.asarray(row_ids)
    if row_ids.dtype == np.int32:
        return row_ids
    if row_ids.size:
        lo, hi = int(row_ids.min()), int(row_ids.max())
        if lo < 0:
            raise ValueError(f"negative row id {lo}")
        if hi >= 2**31:
            raise ValueError(
                f"row id {hi} does not fit int32: ids lie in [0, 2**31)"
            )
    return row_ids.astype(np.int32)


@dataclasses.dataclass(frozen=True)
class KernelDataflow:
    """Cross-kernel dataflow of one lowered kernel (analysis metadata).

    Buffers are the logical chain-intermediate tensors that materialize
    at fusion-group boundaries, named ``<prefix><op.name>`` by the
    lowering walk; values that stay in registers inside one kernel never
    appear here.  Like ``block_center``, this never enters the cost
    model or the memo fingerprint — it exists so the happens-before pass
    can order reads against producing synchronizations without
    re-deriving the lowering.

    ``sync_writes`` is the subset of ``writes`` whose value is complete
    only at the kernel's *completion sync* (segment reductions and
    atomically-merged aggregations publish partial sums until then);
    under the gpusim scheduling model every kernel completion is a
    device-wide sync (null-stream semantics), so a reader launched after
    the producer is ordered after that sync.  ``postponable`` marks a
    kernel whose every op the linear-property adapter could have
    postponed into a downstream aggregate; ``aggregate`` marks the
    aggregation kernels such removable work would fold into.
    """

    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    sync_writes: Tuple[str, ...] = ()
    postponable: bool = False
    aggregate: bool = False

    def to_meta(self) -> dict:
        """JSON-serializable form (plan-artifact persistence)."""
        return {
            "reads": list(self.reads),
            "writes": list(self.writes),
            "sync_writes": list(self.sync_writes),
            "postponable": self.postponable,
            "aggregate": self.aggregate,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "KernelDataflow":
        return cls(
            reads=tuple(meta["reads"]),
            writes=tuple(meta["writes"]),
            sync_writes=tuple(meta["sync_writes"]),
            postponable=bool(meta["postponable"]),
            aggregate=bool(meta["aggregate"]),
        )


@dataclasses.dataclass
class KernelSpec:
    name: str
    block_flops: np.ndarray                 # float64[B]
    row_ptr: Optional[np.ndarray] = None    # int64[B+1] into row_ids
    row_ids: Optional[np.ndarray] = None    # int32[R] node ids
    row_bytes: int = 0                      # bytes moved per row access
    stream_bytes: Optional[np.ndarray] = None  # float64[B]
    atomics: Optional[np.ndarray] = None    # int64[B]
    counts_launch: bool = True              # pay launch overhead?
    tag: str = ""                           # e.g. "cusparse", "fused"
    #: Owning center node per block for center-parallel kernels (None
    #: for edge-parallel / dense kernels).  Pure analysis metadata: the
    #: atomic-race detector uses it to find write-write conflicts; it
    #: never enters the cost model or the memo fingerprint.
    block_center: Optional[np.ndarray] = None  # int64[B]
    #: Logical buffer reads/writes and sync semantics for the
    #: happens-before pass (None for kernels lowered outside the shared
    #: ``lower_plan`` path).  Analysis-only, excluded from the memo
    #: fingerprint like ``block_center``.
    dataflow: Optional[KernelDataflow] = None
    #: What the lowering builder made the five pricing arrays
    #: (``block_flops``, ``row_ptr``, ``row_ids``, ``stream_bytes``,
    #: ``atomics``) from: a tuple of scalars, digests, long-lived input
    #: arrays and nested recipes.  Equal recipes build equal arrays, so the
    #: kernel memo keys by it instead of hashing the arrays (see
    #: :func:`repro.gpusim.memo.kernel_fingerprint`).  None for kernels
    #: built outside the lowering builders; assigning any pricing array
    #: after construction resets it to None.  ``dataclasses.replace``
    #: carries it over, so a replace that swaps a pricing array must
    #: pass ``recipe=None``, and ``rows_recipe=None`` too if the array
    #: is ``row_ptr`` or ``row_ids`` (``runtime().strict`` catches one
    #: that does not).
    recipe: Optional[tuple] = dataclasses.field(
        default=None, compare=False, repr=False
    )
    #: What the builder made ``row_ptr`` and ``row_ids`` alone from, in
    #: the form of ``recipe``.  Equal rows recipes build equal row
    #: streams, so the stream-analysis tier keys by it instead of
    #: hashing the rows (:func:`repro.gpusim.memo.stream_key`); kernels
    #: that differ only in pricing (a feature-length sweep, tuner
    #: rounds) share one analysis.  None where ``recipe`` is None or the
    #: kernel has no rows; assigning ``row_ptr`` or ``row_ids`` resets
    #: it, and it is never persisted, like ``recipe``.
    rows_recipe: Optional[tuple] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __setattr__(self, name: str, value) -> None:
        if name in _PRICING_ARRAYS:
            # ``__init__`` sets both recipes after every array.
            if "recipe" in self.__dict__:
                self.__dict__["recipe"] = None
                if name in _ROW_ARRAYS:
                    self.__dict__["rows_recipe"] = None
            if name == "row_ids" and value is not None:
                value = _as_row_ids(value)
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        # The normalizing assignments below reset both recipes.
        recipe, rows_recipe = self.recipe, self.rows_recipe
        self.block_flops = np.asarray(self.block_flops, dtype=np.float64)
        b = self.num_blocks
        if self.stream_bytes is None:
            self.stream_bytes = np.zeros(b, dtype=np.float64)
        else:
            self.stream_bytes = np.asarray(self.stream_bytes, np.float64)
        if self.atomics is None:
            self.atomics = np.zeros(b, dtype=np.int64)
        else:
            self.atomics = np.asarray(self.atomics, dtype=np.int64)
        if self.row_ptr is not None:
            # ``row_ids`` was narrowed to int32 when ``__init__`` set it.
            self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
            if self.row_ptr.shape[0] != b + 1:
                raise ValueError(
                    f"{self.name}: row_ptr has {self.row_ptr.shape[0]} "
                    f"entries for {b} blocks"
                )
            if self.row_ptr[-1] != self.row_ids.shape[0]:
                raise ValueError(f"{self.name}: row_ptr/row_ids mismatch")
        if self.stream_bytes.shape[0] != b or self.atomics.shape[0] != b:
            raise ValueError(f"{self.name}: per-block array length mismatch")
        if self.block_center is not None:
            self.block_center = np.asarray(self.block_center, dtype=np.int64)
            if self.block_center.shape[0] != b:
                raise ValueError(
                    f"{self.name}: block_center has "
                    f"{self.block_center.shape[0]} entries for {b} blocks"
                )
        self.__dict__["recipe"] = recipe
        self.__dict__["rows_recipe"] = rows_recipe
        if runtime().strict:
            self.validate_strict()

    def validate_strict(self) -> None:
        """Deep structural validation, run on construction under
        ``runtime().strict`` (``REPRO_STRICT=1``).  Off by default: the
        checks scan every per-block array, which is real work on hot
        lowering paths that build thousands of kernels."""
        name = self.name
        if self.row_ptr is not None:
            if self.row_ptr[0] != 0:
                raise ValueError(f"{name}: row_ptr[0] must be 0, got "
                                 f"{self.row_ptr[0]}")
            if np.any(np.diff(self.row_ptr) < 0):
                bad = int(np.argmax(np.diff(self.row_ptr) < 0))
                raise ValueError(
                    f"{name}: row_ptr not monotonic at block {bad} "
                    f"({self.row_ptr[bad]} -> {self.row_ptr[bad + 1]})"
                )
            if self.row_ids.size and self.row_ids.min() < 0:
                raise ValueError(f"{name}: negative row id "
                                 f"{int(self.row_ids.min())}")
        for label, arr in (("block_flops", self.block_flops),
                           ("stream_bytes", self.stream_bytes)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite {label}")
            if arr.size and arr.min() < 0:
                raise ValueError(
                    f"{name}: negative {label} ({float(arr.min())})"
                )
        if self.atomics.size and self.atomics.min() < 0:
            raise ValueError(
                f"{name}: negative atomics count "
                f"({int(self.atomics.min())})"
            )
        if self.row_bytes < 0:
            raise ValueError(f"{name}: negative row_bytes")

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return int(self.block_flops.shape[0])

    @property
    def total_flops(self) -> float:
        return float(self.block_flops.sum())

    @property
    def num_row_accesses(self) -> int:
        return 0 if self.row_ids is None else int(self.row_ids.shape[0])

    @property
    def total_bytes(self) -> float:
        """All traffic requested (rows at row_bytes + streaming)."""
        return float(
            self.num_row_accesses * self.row_bytes + self.stream_bytes.sum()
        )

    # ------------------------------------------------------------------
    @classmethod
    def uniform_dense(
        cls,
        name: str,
        flops: float,
        bytes_moved: float,
        num_blocks: int,
        counts_launch: bool = True,
        tag: str = "dense",
    ) -> "KernelSpec":
        """A dense kernel whose cost is spread evenly over its blocks."""
        num_blocks = max(1, int(num_blocks))
        return cls.filled(
            name, num_blocks, flops / num_blocks, bytes_moved / num_blocks,
            counts_launch=counts_launch, tag=tag,
        )

    @classmethod
    def filled(
        cls,
        name: str,
        num_blocks: int,
        flops: float,
        stream: float,
        atomics: int = 0,
        *,
        counts_launch: bool = True,
        tag: str = "dense",
    ) -> "KernelSpec":
        """A kernel whose every block carries the same FLOPs, streaming
        bytes and atomics; its recipe is the block count and the three
        values."""
        return cls(
            name=name,
            block_flops=np.full(num_blocks, flops),
            stream_bytes=np.full(num_blocks, stream),
            atomics=np.full(num_blocks, atomics, dtype=np.int64),
            counts_launch=counts_launch,
            tag=tag,
            recipe=("filled", num_blocks, float(flops), float(stream),
                    int(atomics)),
        )

    def reordered(self, block_perm: np.ndarray) -> "KernelSpec":
        """Return a copy with blocks issued in ``block_perm`` order.

        This is the hook locality-aware task scheduling uses: the executor
        issues blocks in array order, so permuting the arrays permutes
        both the schedule and the cache access stream.
        """
        block_perm = np.asarray(block_perm, dtype=np.int64)
        if self.row_ptr is None:
            row_ptr, row_ids = None, None
        else:
            row_ptr = row_ids = None
            key = None
            if runtime().memo:
                # The ragged gather below is the most expensive lowering
                # step on large graphs, and layouts re-apply the same
                # permutation to the same stream once per feature length
                # / ablation variant — cache it by content.
                key = (
                    array_digest(self.row_ptr),
                    array_digest(self.row_ids),
                    array_digest(block_perm),
                )
                cached = REORDER_CACHE.get(key)
                if cached is not None:
                    row_ptr, row_ids = cached
            if row_ptr is None:
                lengths = np.diff(self.row_ptr)[block_perm]
                row_ptr = np.zeros(self.num_blocks + 1, dtype=np.int64)
                np.cumsum(lengths, out=row_ptr[1:])
                total = int(row_ptr[-1])
                starts = self.row_ptr[:-1][block_perm]
                # Ragged gather: absolute source index of every row
                # entry, as one repeat of per-block shifts plus the
                # entry's own destination position.
                shift = np.repeat(starts - row_ptr[:-1], lengths)
                row_ids = self.row_ids[
                    shift + np.arange(total, dtype=np.int64)
                ]
                if key is not None:
                    REORDER_CACHE.put(
                        key, (row_ptr, row_ids),
                        nbytes=row_ptr.nbytes + row_ids.nbytes,
                    )
        # The permutation enters the recipes by digest: holding the array
        # would keep every planned kernel's layout permutation alive.
        perm_digest = array_digest(block_perm)
        return KernelSpec(
            name=self.name,
            block_flops=self.block_flops[block_perm],
            row_ptr=row_ptr,
            row_ids=row_ids,
            row_bytes=self.row_bytes,
            stream_bytes=self.stream_bytes[block_perm],
            atomics=self.atomics[block_perm],
            counts_launch=self.counts_launch,
            tag=self.tag,
            block_center=(
                None if self.block_center is None
                else self.block_center[block_perm]
            ),
            # Logical dataflow is per-kernel, not per-block: a block
            # permutation changes the issue order, not what the kernel
            # reads or publishes.
            dataflow=self.dataflow,
            recipe=(
                None if self.recipe is None
                else ("reordered", self.recipe, perm_digest)
            ),
            rows_recipe=(
                None if self.rows_recipe is None
                else ("reordered", self.rows_recipe, perm_digest)
            ),
        )
