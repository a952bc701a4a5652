"""The paper's claims, one declaration each.

Every table under ``benchmarks/out/`` is one :class:`Claim`: the
experiment run(s) that produce it, its table, the paper values it is
set against and the named shape checks it must pass.  One loop runs
them all (``benchmarks/test_paper_claims.py``, which also writes the out
files and the EXPERIMENTS.md blocks between ``<!-- claim: <id> -->``
markers); ``repro paper <id>`` runs one.

The checks assert orderings, winners, crossovers and bands, never
decimals — the substrate is a simulator (DESIGN.md §2) — and they hold
on the full dataset grid only.  :mod:`repro.bench` does not import this
module: the benchmark suite's children import ``repro.bench`` and need
none of it.
"""

from __future__ import annotations

import dataclasses
import os
import re
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from ..graph.datasets import DATASET_NAMES, PAPER_STATS
from . import experiments as ex
from . import paper_expected as pe
from .harness import RESULTS_DIR, format_table, sweep_config

__all__ = ["Run", "run", "Check", "each", "across", "whole", "Claim",
           "CLAIMS", "EXPERIMENTS_MD", "describe_failures", "claim_blocks",
           "write_claim_block"]

#: The document whose claim blocks mirror ``benchmarks/out``.
EXPERIMENTS_MD = os.path.join(
    os.path.dirname(os.path.dirname(RESULTS_DIR)), "EXPERIMENTS.md"
)

_RESULTS: Dict["Run", Any] = {}


@dataclasses.dataclass(frozen=True)
class Run:
    """One experiment call with fixed keyword settings.  Equal runs
    share one result per process, so claims that read the same
    experiment (the three Fig. 7 tables, say) run it once."""

    experiment: Callable[..., Any]
    settings: Tuple[Tuple[str, Any], ...] = ()

    def __call__(self) -> Any:
        if self not in _RESULTS:
            _RESULTS[self] = self.experiment(**dict(self.settings))
        return _RESULTS[self]


def run(experiment: Callable[..., Any], **settings: Any) -> Run:
    """A :class:`Run`; settings must be hashable (tuples, not lists)."""
    return Run(experiment, tuple(sorted(settings.items())))


@dataclasses.dataclass(frozen=True)
class Check:
    """A named shape predicate over a claim's result.

    A per-dataset check fails on each dataset ``d`` where
    ``holds(result, d)`` is false; a whole-table check calls
    ``holds(result)`` and, if false, fails on every dataset it reads.
    """

    name: str
    holds: Callable[..., Any]
    datasets: Tuple[str, ...]
    per_dataset: bool = True

    def failures(self, result: Any) -> Tuple[str, ...]:
        if self.per_dataset:
            return tuple(
                d for d in self.datasets if not self.holds(result, d)
            )
        return () if self.holds(result) else self.datasets


def each(name: str, holds: Callable[[Any], Any],
         datasets: Sequence[str] = DATASET_NAMES) -> Check:
    """Must hold on each dataset's row: ``holds(result[d])``."""
    return Check(name, lambda r, d: holds(r[d]), tuple(datasets))


def across(name: str, holds: Callable[[Any, str], Any],
           datasets: Sequence[str] = DATASET_NAMES) -> Check:
    """Must hold on each dataset, reading the whole result."""
    return Check(name, holds, tuple(datasets))


def whole(name: str, holds: Callable[[Any], Any],
          datasets: Sequence[str] = DATASET_NAMES) -> Check:
    """Must hold on the whole table, which reads ``datasets``."""
    return Check(name, holds, tuple(datasets), per_dataset=False)


Failures = List[Tuple[str, Tuple[str, ...]]]


@dataclasses.dataclass(frozen=True)
class Claim:
    """One paper table: what runs, how it prints, what must hold.

    ``experiment`` is one :class:`Run` or a tuple of them; ``rows`` and
    the checks get its result (a tuple for a tuple).  The table is
    ``title`` over ``columns`` with ``rows(result, paper)``.
    """

    id: str
    out: str
    experiment: Union[Run, Tuple[Run, ...]]
    title: str
    columns: Tuple[str, ...]
    rows: Callable[[Any, Any], List[list]]
    checks: Tuple[Check, ...]
    paper: Any = None
    col_width: int = 11

    def evaluate(self) -> Tuple[str, Failures]:
        """Run the claim: its table and each failed check's datasets."""
        if isinstance(self.experiment, Run):
            result = self.experiment()
        else:
            result = tuple(r() for r in self.experiment)
        failed = [(c.name, c.failures(result)) for c in self.checks]
        text = format_table(self.title, self.columns,
                            self.rows(result, self.paper), self.col_width)
        return text, [(name, bad) for name, bad in failed if bad]


def describe_failures(claim_id: str, failed: Failures) -> str:
    return "\n".join(f"{claim_id}: check {name} fails on {', '.join(bad)}"
                     for name, bad in failed)


# -- EXPERIMENTS.md claim blocks -----------------------------------------

_BLOCK = re.compile(
    r"(<!-- claim: (\S+) -->\n```\n)(.*?)(```\n<!-- /claim -->)", re.S
)


def claim_blocks(markdown: str) -> Dict[str, str]:
    """{claim id: fenced block text} of every claim block in a document."""
    return {m.group(2): m.group(3) for m in _BLOCK.finditer(markdown)}


def write_claim_block(claim_id: str, text: str,
                      path: str = EXPERIMENTS_MD) -> None:
    """Make a claim's block hold ``text`` as its out file does."""
    with open(path, encoding="utf-8") as fh:
        doc = fh.read()
    if claim_id not in claim_blocks(doc):
        raise KeyError(f"{path} has no block for claim {claim_id!r}")
    new = _BLOCK.sub(
        lambda m: m.group(1) + text + "\n" + m.group(4)
        if m.group(2) == claim_id else m.group(0),
        doc,
    )
    if new != doc:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(new)


# -- Shared pieces of the tables and checks --------------------------------

#: The Fig. 4 / Fig. 12 sweep: feature lengths and datasets.
SWEEP_FEATS = tuple(range(16, 257, 16))
SWEEP_DATASETS = ("arxiv", "collab", "citation", "ddi", "protein",
                  "products")
#: The skewed datasets where neighbor grouping must pay off.
HUBS = ("arxiv", "ppa", "reddit", "products")
SAMPLES = tuple(f"iter{i}" for i in range(ex.SAMPLED_ITERATIONS))
#: Table 6's cumulative optimization stages.
_STAGES = ("adp", "adp_ng", "adp_ng_las")


def _per_dataset(cells):
    """Rows of ``[d] + cells(result, paper, d)``, one per dataset."""
    return lambda r, p: [[d] + cells(r, p, d) for d in DATASET_NAMES]


def _columns(*keys):
    return _per_dataset(lambda r, p, d: [r[d][k] for k in keys])


def _mean(r, key):
    return sum(r[n][key] for n in DATASET_NAMES) / len(DATASET_NAMES)


def _mean_gain(r, key):
    return sum(1.0 - r[n][key] for n in DATASET_NAMES) / len(DATASET_NAMES)


def _argmax(r, value):
    return max(r, key=lambda n: value(r[n]))


def _top(values, k):
    """The ``k`` datasets of the largest ``values[d]``."""
    return sorted(values, key=values.get, reverse=True)[:k]


def _sweep(tuned: bool) -> Run:
    return run(ex.fig4_throughput_sweep, datasets=SWEEP_DATASETS,
               feature_lengths=SWEEP_FEATS, config=sweep_config(),
               tuned=tuned)


def _sweep_rows(r, p):
    sweep = r[0] if isinstance(r, tuple) else r
    return [[f] + [sweep[n][f] for n in SWEEP_DATASETS] for f in SWEEP_FEATS]


def _series(sweep, d):
    return np.array([sweep[d][f] for f in SWEEP_FEATS])


def _max_step(series):
    """Largest relative swing between adjacent feature lengths."""
    return (np.abs(np.diff(series)) / series[:-1]).max()


def _fig7_rows(model):
    def rows(grid, paper):
        out = []
        for fname, row in grid[model].items():
            out.append([fname] + [row[d].label for d in DATASET_NAMES])
            if fname in paper:
                out.append(["(paper)"] + [
                    "OOM" if v is None else f"{v:g}"
                    for v in (paper[fname][d] for d in DATASET_NAMES)
                ])
        return out
    return rows


def _ms(grid, model, fname, d):
    return grid[model][fname][d].time_ms


def _speedup(grid, model, d):
    """DGL time over ours; NaN (so every bound on it fails) if either
    ran out of memory."""
    dgl, ours = _ms(grid, model, "dgl", d), _ms(grid, model, "ours", d)
    return float("nan") if dgl is None or ours is None else dgl / ours


def _oom_set(grid, model, fname):
    return {d for d, cell in grid[model][fname].items()
            if cell.supported and cell.time_ms is None}


def _ours_beats_dgl(model):
    def holds(g, d):
        ours, dgl = _ms(g, model, "ours", d), _ms(g, model, "dgl", d)
        return ours is not None and dgl is not None and ours < dgl
    return across("ours_beats_dgl", holds)


def _slower_than_dgl_where_it_runs(model, fname):
    def holds(g, d):
        t, dgl = _ms(g, model, fname, d), _ms(g, model, "dgl", d)
        return t is None or (dgl is not None and t > dgl)
    return across(f"{fname}_slower_than_dgl_where_it_runs", holds)


def _unsupported(model, fname):
    return across(f"{fname}_unsupported",
                  lambda g, d: not g[model][fname][d].supported)


def _online_offline_rows(r, p):
    extra = [r[n]["adp_ng_las"] / r[n]["adp_ng"] for n in DATASET_NAMES]
    rows = [[n, r[n]["adp_ng"], r[n]["adp_ng_las"], x]
            for n, x in zip(DATASET_NAMES, extra)]
    return rows + [["AVERAGE"] + [
        float(np.mean([r[n][k] for n in DATASET_NAMES]))
        for k in ("adp_ng", "adp_ng_las")
    ] + [float(np.mean(extra))]]


def _cache_rows(r, p):
    return [[name, cap, 100 * exact, 100 * approx, 100 * abs(approx - exact)]
            for name, by_cap in r.items()
            for cap, (exact, approx) in by_cap.items()]


def _window_monotone(by_cap):
    hits = [100 * by_cap[cap][1] for cap in sorted(by_cap)]
    return hits == sorted(hits)


# -- The registry --------------------------------------------------------

#: Every claim by id, in EXPERIMENTS.md order.
CLAIMS: Dict[str, Claim] = {}


def _claim(*args: Any, **kwargs: Any) -> None:
    claim = Claim(*args, **kwargs)
    CLAIMS[claim.id] = claim


_FIG7 = run(ex.fig7_overall)
_TABLE6 = run(ex.table6_gat_ablation)
_FIG10_GAT = run(ex.fig10_adapter, model="gat")

_claim(
    "table3", "table3_datasets", run(ex.table3_dataset_stats),
    "Table 3 — scaled datasets (ours) vs paper (N/E/avg/density)",
    ("dataset", "N", "E", "avg", "max", "dens", "paperN", "paperE",
     "p_avg", "p_dens"),
    _per_dataset(lambda r, p, d: [
        r[d]["N"], r[d]["E"], round(r[d]["avg"], 1), r[d]["max"],
        f"{r[d]['density']:.1e}", *p[d][:3], f"{p[d][5]:.1e}",
    ]),
    paper=PAPER_STATS, col_width=10, checks=(
        whole("ddi_densest",
              lambda r: _argmax(r, lambda x: x["density"]) == "ddi"),
        whole("citation_most_nodes",
              lambda r: _argmax(r, lambda x: x["N"]) == "citation"),
        whole("arxiv_highest_hub_ratio",
              lambda r: _argmax(r, lambda x: x["max"] / x["avg"]) == "arxiv"),
    ),
)
_claim(
    "fig3", "fig3_l2_miss", run(ex.fig3_l2_miss_rates),
    "Fig. 3 — L2 miss rate (%) of GCN last-layer graph op in DGL",
    ("dataset", "miss%", "path", "paper"),
    _per_dataset(lambda r, p, d: [
        100.0 * r[d][0], "w/ cuSPARSE" if r[d][1] else "",
        ">50%" if d in p["high_miss"] else "low",
    ]),
    paper={"high_miss": pe.FIG3_HIGH_MISS, "low_miss": pe.FIG3_LOW_MISS},
    col_width=12, checks=(
        each("miss_above_50pct", lambda x: x[0] > 0.50, pe.FIG3_HIGH_MISS),
        each("miss_below_50pct", lambda x: x[0] < 0.50, pe.FIG3_LOW_MISS),
        whole("ddi_protein_lowest_miss",
              lambda r: set(sorted(r, key=lambda n: r[n][0])[:2])
              == set(pe.FIG3_LOW_MISS)),
    ),
)
_claim(
    "table4", "table4_occupancy", run(ex.table4_occupancy),
    "Table 4 — % time active blocks below 100/50/10% (DGL GAT)",
    ("dataset", "<100%", "<50%", "<10%", "paper<100%"),
    _per_dataset(lambda r, p, d: [r[d][1.0], r[d][0.5], r[d][0.1], p[d]]),
    paper=pe.TABLE4_BELOW_100, checks=(
        each("below_thresholds_monotone",
             lambda x: x[0.1] <= x[0.5] + 1e-9 <= x[1.0] + 1e-9),
        whole("arxiv_most_starved",
              lambda r: _argmax(r, lambda x: x[1.0]) == "arxiv"),
        whole("arxiv_over_2x_citation",
              lambda r: r["arxiv"][1.0] > 2 * r["citation"][1.0],
              ("arxiv", "citation")),
        whole("arxiv_over_protein",
              lambda r: r["arxiv"][1.0] > r["protein"][1.0],
              ("arxiv", "protein")),
        whole("ppa_or_reddit_over_protein",
              lambda r: r["ppa"][1.0] > r["protein"][1.0]
              or r["reddit"][1.0] > r["protein"][1.0],
              ("ppa", "reddit", "protein")),
    ),
)
_claim(
    "table5", "table5_expansion", run(ex.table5_expansion_transform),
    "Table 5 — % time in expansion / transformation (DGL GraphSAGE-LSTM)",
    ("dataset", "expand%", "transf%", "p_exp%", "p_tra%"),
    _per_dataset(lambda r, p, d: [r[d][0], r[d][1], p[0][d], p[1][d]]),
    paper=(pe.TABLE5_EXPANSION_PCT, pe.TABLE5_TRANSFORM_PCT), checks=(
        each("transformation_over_expansion", lambda x: x[1] > x[0]),
        each("combined_share_10_to_70pct",
             lambda x: 10.0 < x[0] + x[1] < 70.0),
        each("expansion_1_to_25pct", lambda x: 1.0 < x[0] < 25.0),
    ),
)
_claim(
    "fig4", "fig4_feature_length", _sweep(tuned=False),
    "Fig. 4 — untuned aggregation GFLOPS vs feature length",
    ("feat",) + SWEEP_DATASETS, _sweep_rows, checks=(
        across("adjacent_step_swing_over_15pct",
               lambda r, d: _max_step(_series(r, d)) > 0.15, SWEEP_DATASETS),
        whole("ddi_over_2x_citation_f32",
              lambda r: r["ddi"][32] > 2.0 * r["citation"][32],
              ("ddi", "citation")),
        whole("protein_over_2x_citation_f128",
              lambda r: r["protein"][128] > 2.0 * r["citation"][128],
              ("protein", "citation")),
        whole("ddi_over_1.2x_citation_f128",
              lambda r: r["ddi"][128] > 1.2 * r["citation"][128],
              ("ddi", "citation")),
    ),
)
_FIG7_TITLE = "Fig. 7 ({}) — forward time in ms (ours vs paper rows)"
_FIG7_COLUMNS = ("framework",) + tuple(DATASET_NAMES)
_claim(
    "fig7_gcn", "fig7_gcn", _FIG7, _FIG7_TITLE.format("gcn"),
    _FIG7_COLUMNS, _fig7_rows("gcn"),
    paper=pe.FIG7_GCN_MS, col_width=10, checks=(
        across("dgl_never_oom",
               lambda g, d: _ms(g, "gcn", "dgl", d) is not None),
        _ours_beats_dgl("gcn"),
        whole("pyg_oom_set_matches_paper", lambda g: _oom_set(g, "gcn", "pyg")
              == {"protein", "reddit", "products"}),
        whole("roc_oom_set_matches_paper", lambda g: _oom_set(g, "gcn", "roc")
              == {"citation", "reddit", "products"}),
        _slower_than_dgl_where_it_runs("gcn", "roc"),
        _slower_than_dgl_where_it_runs("gcn", "pyg"),
    ),
)
_claim(
    "fig7_gat", "fig7_gat", _FIG7, _FIG7_TITLE.format("gat"),
    _FIG7_COLUMNS, _fig7_rows("gat"),
    paper=pe.FIG7_GAT_MS, col_width=10, checks=(
        _ours_beats_dgl("gat"),
        _unsupported("gat", "roc"),
        whole("pyg_oom_set_matches_paper", lambda g: _oom_set(g, "gat", "pyg")
              == {"citation", "protein", "ppa", "reddit", "products"}),
        across("gat_gap_exceeds_gcn_gap",
               lambda g, d: _speedup(g, "gat", d) > _speedup(g, "gcn", d)),
        whole("top3_gaps_on_high_degree", lambda g: set(_top(
            {d: _speedup(g, "gat", d) for d in DATASET_NAMES}, 3
        )) <= {"protein", "reddit", "products", "ppa"}),
    ),
)
_claim(
    "fig7_sage_lstm", "fig7_sage_lstm", _FIG7, _FIG7_TITLE.format("sage_lstm"),
    _FIG7_COLUMNS, _fig7_rows("sage_lstm"),
    paper=pe.FIG7_SAGE_MS, col_width=10, checks=(
        _unsupported("sage_lstm", "pyg"),
        _unsupported("sage_lstm", "roc"),
        _ours_beats_dgl("sage_lstm"),
        whole("avg_speedup_1.15_to_1.8x", lambda g: 1.15 < sum(
            _speedup(g, "sage_lstm", d) for d in DATASET_NAMES
        ) / len(DATASET_NAMES) < 1.8),
    ),
)
_claim(
    "fig8", "fig8_ng_balance", run(ex.fig8_ng_balance),
    "Fig. 8 — balanced vs actual kernel time, base vs NG "
    "(relative to base actual)",
    ("dataset", "base_bal", "base_act", "ng_bal", "ng_act"),
    _columns("base_balanced", "base_actual", "ng_balanced", "ng_actual"),
    paper=pe.FIG8_NG_REGRESSION, checks=(
        each("base_balanced_at_most_actual",
             lambda x: x["base_balanced"] <= x["base_actual"] + 1e-9),
        each("ng_balanced_at_most_actual",
             lambda x: x["ng_balanced"] <= x["ng_actual"] + 1e-9),
        each("ng_balanced_at_least_0.95x_base",
             lambda x: x["ng_balanced"] >= 0.95 * x["base_balanced"]),
        each("ng_shrinks_balance_gap",
             lambda x: x["ng_actual"] - x["ng_balanced"]
             < x["base_actual"] - x["base_balanced"], HUBS),
        each("ng_faster_than_base",
             lambda x: x["ng_actual"] < x["base_actual"], HUBS),
        each("ng_regresses_on_protein",
             lambda x: x["ng_actual"] > 0.97 * x["base_actual"],
             (pe.FIG8_NG_REGRESSION,)),
    ),
)
_claim(
    "fig9", "fig9_l2_hit", run(ex.fig9_l2_hit_rates),
    "Fig. 9 — L2 hit rate (%) of GCN last-layer graph op",
    ("dataset", "best_prior", "NG", "LAS", "NG+LAS"),
    _columns("best_prior", "ng", "las", "ng_las"), checks=(
        whole("las_improves_6_of_8", lambda r: sum(
            1 for n in DATASET_NAMES
            if r[n]["las"] > r[n]["best_prior"] - 0.5
        ) >= 6),
        each("las_gains_over_5pt",
             lambda x: x["las"] > x["best_prior"] + 5.0,
             ("collab", "citation", "products")),
        each("las_moves_under_10pt",
             lambda x: abs(x["las"] - x["best_prior"]) < 10.0,
             ("ddi", "protein")),
        each("already_cached_over_80pct", lambda x: x["best_prior"] > 80.0,
             ("ddi", "protein")),
        each("ng_las_at_least_las", lambda x: x["ng_las"] >= x["las"] - 1.0,
             ("ppa", "reddit", "products")),
    ),
)
_claim(
    "fig10a", "fig10a_gat_adapter", _FIG10_GAT,
    "Fig. 10a — GAT layer time, normalized to NG+LAS baseline",
    ("dataset", "base", "+adapter", "+adp+linear"),
    _columns("base", "adapter", "adapter_linear"), checks=(
        each("adapter_below_0.9x_base",
             lambda x: x["adapter"] < 0.9 * x["base"]),
        each("linear_adds_to_adapter",
             lambda x: x["adapter_linear"] <= x["adapter"] + 1e-9),
    ),
)
_claim(
    "fig10b", "fig10b_gcn_adapter",
    (run(ex.fig10_adapter, model="gcn"), _FIG10_GAT),
    "Fig. 10b — GCN layer time, normalized to NG+LAS baseline",
    ("dataset", "base", "+adp+linear"),
    _per_dataset(lambda r, p, d: [r[0][d]["base"],
                                  r[0][d]["adapter_linear"]]),
    paper=pe.FIG10_GCN_ADAPTER_GAIN, checks=(
        whole("gcn_avg_gain_2_to_45pct",
              lambda r: 0.02 < _mean_gain(r[0], "adapter_linear") < 0.45),
        whole("gat_gains_more_than_gcn",
              lambda r: _mean_gain(r[1], "adapter_linear")
              > _mean_gain(r[0], "adapter_linear")),
    ),
)
_claim(
    "fig11", "fig11_sparse_fetch", run(ex.fig11_sage_strategies),
    "Fig. 11 — GraphSAGE-LSTM time (normalized): base / +SpFetch / "
    "+RedBypass",
    ("dataset", "base", "+spfetch", "+redbypass"),
    _columns("base", "spfetch", "redbypass"),
    paper=(pe.FIG11_SPFETCH_GAIN, pe.FIG11_REDBYPASS_GAIN), checks=(
        each("spfetch_below_1.02x", lambda x: x["spfetch"] < 1.02),
        each("redbypass_beats_spfetch",
             lambda x: x["redbypass"] < x["spfetch"]),
        whole("avg_spfetch_gain_under_18pct",
              lambda r: _mean_gain(r, "spfetch") < 0.18),
        whole("avg_redbypass_gain_15_to_55pct",
              lambda r: 0.15 < _mean_gain(r, "redbypass") < 0.55),
        whole("redbypass_gain_over_2x_spfetch",
              lambda r: _mean_gain(r, "redbypass")
              > 2.0 * max(_mean_gain(r, "spfetch"), 0.01)),
    ),
)
_claim(
    "fig12", "fig12_tuned_throughput", (_sweep(tuned=True), _sweep(False)),
    "Fig. 12 — tuned aggregation GFLOPS vs feature length",
    ("feat",) + SWEEP_DATASETS, _sweep_rows, checks=(
        across("tuned_never_below_0.9x_untuned",
               lambda r, d: (_series(r[0], d)
                             >= 0.9 * _series(r[1], d)).all(),
               SWEEP_DATASETS),
        across("tuned_mean_over_1.05x_untuned",
               lambda r, d: _series(r[0], d).mean()
               > 1.05 * _series(r[1], d).mean(), SWEEP_DATASETS),
        across("tuned_step_swing_not_wider",
               lambda r, d: _max_step(_series(r[0], d))
               <= _max_step(_series(r[1], d)) + 0.05, SWEEP_DATASETS),
        whole("f48_gains_more_than_f64_somewhere", lambda r: max(
            r[0][n][48] / r[1][n][48] - r[0][n][64] / r[1][n][64]
            for n in SWEEP_DATASETS
        ) > 0.0, SWEEP_DATASETS),
    ),
)
_claim(
    "table6", "table6_ablation", _TABLE6,
    "Table 6 — GAT last-layer speedup over unoptimized (ours | paper)",
    ("dataset", "Adp", "Adp+NG", "+LAS", "p_Adp", "p_+NG", "p_+LAS"),
    lambda r, p: [
        [n] + [r[n][k] for k in _STAGES] + [p[0][n][k] for k in _STAGES]
        for n in DATASET_NAMES
    ] + [["AVERAGE"] + [_mean(r, k) for k in _STAGES]
         + [p[1][k] for k in _STAGES]],
    paper=(pe.TABLE6, pe.TABLE6_AVERAGE), checks=(
        each("adp_speeds_up", lambda x: x["adp"] > 1.0),
        each("ng_keeps_0.82x_adp", lambda x: x["adp_ng"] > 0.82 * x["adp"]),
        each("las_keeps_0.9x_ng",
             lambda x: x["adp_ng_las"] > 0.9 * x["adp_ng"]),
        whole("average_stages_compound",
              lambda r: _mean(r, "adp") < _mean(r, "adp_ng")
              <= _mean(r, "adp_ng_las") + 0.05),
        whole("avg_adp_ng_over_1.5x", lambda r: _mean(r, "adp_ng") > 1.5),
        whole("arxiv_top2_ng_jump", lambda r: "arxiv" in _top(
            {n: r[n]["adp_ng"] / r[n]["adp"] for n in DATASET_NAMES}, 2
        )),
    ),
)
_claim(
    "online_offline_static", "online_offline_static", _TABLE6,
    "§5.2 — online-only (Adp+NG) vs +offline (LAS) speedups "
    "(paper: 2.89x avg online; up to 1.6x extra offline)",
    ("dataset", "online", "+offline", "offline_x"),
    _online_offline_rows, checks=(
        whole("online_avg_over_1.5x", lambda r: np.mean(
            [r[n]["adp_ng"] for n in DATASET_NAMES]) > 1.5),
        whole("offline_extra_0.95_to_1.7x", lambda r: 0.95 < np.mean([
            r[n]["adp_ng_las"] / r[n]["adp_ng"] for n in DATASET_NAMES
        ]) < 1.7),
    ),
)
_claim(
    "online_offline_sampled", "online_offline_sampled",
    run(ex.sampled_minibatch_speedups),
    "§5.2 — online-only optimizations on per-iteration k-hop samples of "
    "products (GCN forward, ms)",
    ("minibatch", "dgl", "ours(online)", "speedup"),
    lambda r, p: [[f"{it} (N={x['nodes']}, E={x['edges']})", x["dgl"],
                   x["ours"], x["dgl"] / x["ours"]] for it, x in r.items()],
    col_width=14, checks=(
        each("online_beats_dgl_every_minibatch",
             lambda x: x["dgl"] / x["ours"] > 1.0, SAMPLES),
    ),
)
_claim(
    "bucketing_ablation", "bucketing_ablation", run(ex.bucketing_ablation),
    "Ablation — degree bucketing vs neighbor grouping "
    "(GCN last-layer aggregation, ms)",
    ("dataset", "base", "bucketed", "NG", "pad_waste", "#buckets"),
    _columns("base", "bucketed", "ng", "waste", "buckets"), checks=(
        each("padding_waste_at_least_1x", lambda x: x["waste"] >= 1.0),
        whole("ng_beats_bucketing_on_3_of_4_hubs", lambda r: sum(
            1 for n in HUBS if r[n]["ng"] < r[n]["bucketed"]
        ) >= 3, HUBS),
        each("ng_beats_bucketing", lambda x: x["ng"] < x["bucketed"]),
        each("bucketing_over_0.9x_base",
             lambda x: x["bucketed"] > 0.9 * x["base"]),
    ),
)
_claim(
    "cache_model_validation", "cache_model_validation",
    run(ex.cache_model_validation),
    "Cache-model validation — window (working-set) vs exact LRU hit "
    "rates (%) on dataset traces",
    ("dataset", "capacity", "LRU%", "window%", "|err|%"),
    _cache_rows, checks=(
        whole("window_within_12pt_of_lru", lambda r: max(
            abs(approx - exact) for by_cap in r.values()
            for exact, approx in by_cap.values()
        ) < 0.12, ex.CACHE_DATASETS),
        each("window_monotone_in_capacity", _window_monotone,
             ex.CACHE_DATASETS),
    ),
)
_claim(
    "training_epoch", "training_epoch", run(ex.training_epoch),
    "Extension — GCN training epoch (fwd+bwd) time in ms",
    ("dataset", "dgl", "ours", "fwd_spd", "epoch_spd"),
    _columns("dgl", "ours", "fwd_ratio", "epoch_ratio"), checks=(
        each("ours_wins_epoch", lambda x: x["epoch_ratio"] > 1.0),
        each("epoch_tracks_forward_0.6_to_1.7x",
             lambda x: 0.6 * x["fwd_ratio"] < x["epoch_ratio"]
             < 1.7 * x["fwd_ratio"]),
    ),
)
