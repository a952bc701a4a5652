"""Anatomy of a GAT layer: from seven kernels to two.

The paper's Observation 3 shows DGL executing a GAT layer as the seven
operations of Listing 1, each its own kernel.  This example walks the
same computation chain through the data visible range adapter, shows the
fusion plans it produces (with and without the linear property), lowers
each plan, and prints a per-kernel profile: where the launches, the
memory traffic and the time go.

Scenario: a social-network attention model (the ``reddit``-like scaled
dataset) — exactly the workload where the paper's GAT gap is largest.

Run:  python examples/gat_kernel_anatomy.py
"""

from repro.core import (
    ExecLayout,
    gat_attention_ops,
    lower_plan,
    neighbor_grouping,
    pick_lanes,
    plan_fusion,
    shared_schedule,
    unfused_plan,
)
from repro.gpusim import V100_SCALED, simulate_kernels
from repro.graph import load_dataset

FEAT = 32  # the GAT output layer width in the paper's configuration


def profile(title, plan, graph, layout):
    kernels = lower_plan(plan, graph, FEAT, V100_SCALED, layout)
    report = simulate_kernels(
        kernels, V100_SCALED, dispatch_overhead=25e-6
    )
    print(f"\n{title}")
    print(f"  plan: {plan.describe()}")
    print(f"  {'kernel':40s} {'time us':>9s} {'DRAM MB':>9s} "
          f"{'L2 MB':>7s} {'blocks':>8s}")
    for k in report.kernels:
        print(
            f"  {k.name:40s} {k.time * 1e6:9.1f} "
            f"{k.bytes_dram / 2**20:9.2f} {k.bytes_l2 / 2**20:7.2f} "
            f"{k.num_blocks:8d}"
        )
    print(f"  total: {report.total_time * 1e3:.3f} ms "
          f"({report.num_kernels} launches, "
          f"{report.total_launch_overhead * 1e3:.3f} ms launch+dispatch)")
    return report.total_time


def main() -> None:
    graph = load_dataset("reddit")
    print(f"dataset: {graph}")

    order = shared_schedule(graph).order
    layout = ExecLayout(
        grouping=neighbor_grouping(graph, 32),
        center_order=order,
        lanes=pick_lanes(FEAT),
        packed_rows=True,
    )

    ops = gat_attention_ops()
    t_base = profile(
        "DGL-style: one kernel per operation (Listing 1)",
        unfused_plan(ops), graph, layout,
    )
    t_adp = profile(
        "With the data visible range adapter",
        plan_fusion(ops, allow_adapter=True, grouped=True), graph, layout,
    )
    t_lin = profile(
        "Adapter + linear property (normalization postponed)",
        plan_fusion(ops, allow_adapter=True, allow_linear=True,
                    grouped=True),
        graph, layout,
    )
    print(f"\nadapter speedup:           {t_base / t_adp:5.2f}x")
    print(f"adapter + linear speedup:  {t_base / t_lin:5.2f}x")


if __name__ == "__main__":
    main()
