"""Benchmark harness: one function per paper table/figure + shared caches."""

from . import paper_expected
from .experiments import (
    fig3_l2_miss_rates,
    fig4_throughput_sweep,
    fig7_overall,
    fig8_ng_balance,
    fig9_l2_hit_rates,
    fig10_adapter,
    fig11_sage_strategies,
    fig12_tuned_sweep,
    table4_occupancy,
    table5_expansion_transform,
    table6_gat_ablation,
)
from .harness import (
    bench_config,
    cached_runtime,
    format_table,
    sweep_config,
    write_result,
)

__all__ = [
    "paper_expected",
    "fig3_l2_miss_rates",
    "fig4_throughput_sweep",
    "fig7_overall",
    "fig8_ng_balance",
    "fig9_l2_hit_rates",
    "fig10_adapter",
    "fig11_sage_strategies",
    "fig12_tuned_sweep",
    "table4_occupancy",
    "table5_expansion_transform",
    "table6_gat_ablation",
    "bench_config",
    "cached_runtime",
    "format_table",
    "sweep_config",
    "write_result",
]
