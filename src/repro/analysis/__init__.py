"""Static analysis over the IR -> fusion -> lowering pipeline.

Nine registered passes verify, without running the simulator, every
:class:`~repro.core.compgraph.FusionPlan`, lowered kernel list,
:class:`~repro.core.plan.CompiledPlan` artifact and
:class:`~repro.shard.partition.ShardPlan` the pipeline produces:

1. **fusion legality** (:mod:`.legality`) — re-derives each op's
   required/provided data visible range from the op-kind effects table
   and rejects fusions where a consumer reads data at a scope its
   producer has not reached (including the grouped-SEG_REDUCE GLOBAL
   promotion and illegal postponements);
2. **linear-property verification** (:mod:`.linearity`) — checks every
   ``linear=True`` flag algebraically and with a randomized
   distributivity probe before the adapter may postpone the op;
3. **atomic-race detection** (:mod:`.atomics`) — walks lowered
   :class:`~repro.gpusim.kernel.KernelSpec` lists against the
   :class:`~repro.core.grouping.GroupingPlan` for write-write conflicts
   without atomics (and phantom atomics on block-private centers);
4. **conservation audit** (:mod:`.conservation`) — re-resolves the
   chain's element counts and pins each kernel's flops/bytes to the
   documented cost conventions;
5. **happens-before sync safety** (:mod:`.hb`) — proves, from the
   per-kernel dataflow metadata, that every read of a reduced or
   postponed buffer is ordered after all of its writers under the
   sequential launch-order scheduling model, and flags provably
   removable synchronizations;
6. **symbolic footprint** (:mod:`.footprint`) — abstract-interprets a
   plan's buffers into closed forms over N/E/F and cross-checks the
   evaluated lower bound against an artifact's recorded peak memory;
7. **opportunity analysis** (:mod:`.footprint`) — advisory findings for
   O(E) materializations with O(N) equivalents (Table 5) and adjacent
   kernels admitting a legal fusion the planner skipped (Listing 1);
8. **shard memory/balance** (:mod:`.shardlint`) — per-device symbolic
   peak memory against a declared :class:`~repro.shard.cost.DeviceConfig`
   capacity (SH001 statically reproduces the simulator's OOM verdict),
   symbolic flops imbalance (SH003) and replication blowup (SH004),
   all from the :class:`~repro.shard.partition.ShardPlan` alone;
9. **shard dataflow** (:mod:`.shardlint`) — transfer-volume
   conservation between the partitioner's halo/mirror sets and the
   priced ``tag="transfer"`` kernels (SH002), and static dead /
   duplicated exchange detection (SH005).

Passes are not a hard-coded taxonomy: each module registers a
:class:`~repro.analysis.registry.LintPass` at import time (importing
this package, or :mod:`.driver`, populates the registry) and the lint
drivers iterate :func:`~repro.analysis.registry.lint_passes` — a new
pass self-registers into ``lint_chain``/``lint_shipped``/``lint_plan``
without driver edits.  Every finding carries a stable code (``HB001``,
``FP002``, ...); ``repro lint --explain CODE`` documents each.

The passes report; they do not rewrite.  The advisory findings name
the paper's gaps — ``FP003`` a legal fusion the planner skipped
(Listing 1, §4.3), ``FP002`` an O(E) materialization with an O(N)
equivalent (Table 5), ``HB003`` a removable synchronization — and on
the shipped grid they sit only on the Table 6 ablation configs that
stop short of full fusion on purpose.

Entry points: ``python -m repro lint`` (CI sweep, with ``--fail-on``,
``--baseline``, ``--sarif``), ``python -m repro plan lint`` for saved
artifacts, and the opt-in ``OursOptions(verify_plans=True)`` /
``REPRO_STRICT=1`` hook that verifies every plan the runtime
lowers.
"""

from .atomics import check_atomic_races
from .conservation import check_conservation, expected_group_cost
from .driver import (
    FUSION_CONFIGS,
    MODEL_CHAINS,
    lint_chain,
    lint_plan,
    lint_shipped,
    verify_lowering,
)
from .findings import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Finding,
    FindingCode,
    PlanVerificationError,
    explain_code,
    load_baseline,
    make_finding,
    register_code,
)
from .footprint import (
    ShardSymExpr,
    SymExpr,
    check_footprint,
    check_opportunities,
    layer_footprint,
    model_flops_expr,
    model_live_sets,
    shard_env,
    shard_term,
)
from .hb import check_happens_before
from .legality import chain_dataflow, check_fusion_legality
from .linearity import check_linear_flags, probe_commutes_with_sum
from .registry import (
    LintContext,
    LintPass,
    lint_passes,
    pass_names,
    register_pass,
)
from .shardlint import (
    ShardChoice,
    ShardLintContext,
    ShardScore,
    choose_partitioning,
    lint_shard,
    round_feat_lens,
    shard_peak_bytes,
    shard_transfer_bytes,
)

__all__ = [
    "AnalysisReport",
    "CODES",
    "Finding",
    "FindingCode",
    "LintContext",
    "LintPass",
    "PlanVerificationError",
    "ERROR",
    "WARNING",
    "INFO",
    "FUSION_CONFIGS",
    "MODEL_CHAINS",
    "ShardChoice",
    "ShardLintContext",
    "ShardScore",
    "ShardSymExpr",
    "SymExpr",
    "choose_partitioning",
    "chain_dataflow",
    "check_atomic_races",
    "check_conservation",
    "check_footprint",
    "check_fusion_legality",
    "check_happens_before",
    "check_linear_flags",
    "check_opportunities",
    "expected_group_cost",
    "explain_code",
    "layer_footprint",
    "lint_chain",
    "lint_passes",
    "lint_plan",
    "lint_shard",
    "lint_shipped",
    "load_baseline",
    "make_finding",
    "model_flops_expr",
    "model_live_sets",
    "pass_names",
    "round_feat_lens",
    "shard_env",
    "shard_peak_bytes",
    "shard_term",
    "shard_transfer_bytes",
    "probe_commutes_with_sum",
    "register_code",
    "register_pass",
    "verify_lowering",
]
