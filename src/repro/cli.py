"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro paper table3
    python -m repro paper fig7_gat
    python -m repro compare --model gat --datasets arxiv ddi
    python -m repro tune --dataset products --feat 64
    python -m repro schedule --dataset citation
    python -m repro lint --model gat --dataset arxiv --fusion linear
    python -m repro lint --explain
    python -m repro plan compile --dataset arxiv --out plans/
    python -m repro plan show plans/plan_<id>.npz
    python -m repro plan lint --dir plans/
    python -m repro shard partition --dataset arxiv --parts 4
    python -m repro shard run --dataset arxiv --model gcn --parts 2
    python -m repro shard lint --dataset arxiv --model gcn --parts 2
    python -m repro shard lint --dataset ogb49m --parts 8 --no-plans
    python -m repro shard choose --dataset arxiv --model gcn
"""

from __future__ import annotations

import argparse
import collections
import glob
import json
import os
import sys
from typing import List, Optional

from .bench import bench_config, claims, format_table
from .core import cluster_sizes, shared_schedule, tune
from .frameworks import NotSupported, all_frameworks
from .gpusim.memory import SimulatedOOM
from .graph import DATASET_NAMES, load_dataset

__all__ = ["main", "build_parser"]


def _dataset_list(args) -> List[str]:
    names = args.datasets or DATASET_NAMES
    for n in names:
        if n not in DATASET_NAMES:
            raise SystemExit(
                f"unknown dataset {n!r}; choose from {DATASET_NAMES}"
            )
    return names


def cmd_compare(args) -> int:
    sim = bench_config()
    frameworks = all_frameworks()
    if args.frameworks:
        frameworks = {
            k: v for k, v in frameworks.items() if k in args.frameworks
        }
    rows = []
    for name in _dataset_list(args):
        g = load_dataset(name)
        row = [name]
        for fw in frameworks.values():
            try:
                row.append(fw.run_model(args.model, g, sim).time_ms)
            except NotSupported:
                row.append("X")
            except SimulatedOOM:
                row.append(None)
        rows.append(row)
    print(format_table(
        f"{args.model} forward time (ms)",
        ["dataset"] + list(frameworks),
        rows,
    ))
    return 0


def cmd_paper(args) -> int:
    claim = claims.CLAIMS[args.id]
    text, failed = claim.evaluate()
    print(text)
    if failed:
        print(claims.describe_failures(claim.id, failed))
    return 1 if failed else 0


def cmd_tune(args) -> int:
    g = load_dataset(args.dataset)
    result = tune(g, args.feat, bench_config())
    print(f"dataset {args.dataset}, F={args.feat}: "
          f"bound={result.bound} lanes={result.lanes} "
          f"({result.rounds} rounds)")
    for bound, t in sorted(result.trace.items()):
        mark = " *" if bound == result.bound else ""
        print(f"  bound {bound:4d}: {t * 1e6:9.1f} us{mark}")
    print(f"  ungrouped: {result.baseline_seconds * 1e6:9.1f} us")
    return 0


def _write_sarif(path: str, report) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report.to_sarif(), fh, indent=2)
        fh.write("\n")


def cmd_lint(args) -> int:
    from .analysis import (
        CODES,
        FUSION_CONFIGS,
        MODEL_CHAINS,
        explain_code,
        lint_shipped,
        load_baseline,
    )
    from .analysis.findings import prune_baseline, unused_baseline_entries

    if args.explain is not None:
        if args.explain == "":
            # Bare --explain: the full finding-code catalogue.
            for code in sorted(CODES):
                fc = CODES[code]
                print(f"{code}  [{fc.severity:7s}] {fc.pass_name}: "
                      f"{fc.summary}")
            return 0
        text = explain_code(args.explain)
        if text is None:
            raise SystemExit(
                f"unknown finding code {args.explain!r}; known codes: "
                f"{', '.join(sorted(CODES))}"
            )
        print(text)
        return 0
    if args.prune_baseline and not args.baseline:
        raise SystemExit("--prune-baseline requires --baseline PATH")

    # --model/--dataset/--fusion are repeatable singular filters; the
    # legacy plural spellings (--models/--datasets) merge with them.
    models = (args.models or []) + (args.model or [])
    models = models or list(MODEL_CHAINS)
    for m in models:
        if m not in MODEL_CHAINS:
            raise SystemExit(
                f"unknown model {m!r}; choose from {list(MODEL_CHAINS)}"
            )
    args.datasets = (args.datasets or []) + (args.dataset or []) or None
    fusion_names = [name for name, _, _ in FUSION_CONFIGS]
    fusions = args.fusion or None
    for f in fusions or []:
        if f not in fusion_names:
            raise SystemExit(
                f"unknown fusion config {f!r}; choose from {fusion_names}"
            )
    report = lint_shipped(_dataset_list(args), models, fusions=fusions)
    entries = []
    suppressed = 0
    if args.baseline:
        try:
            entries = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load baseline: {exc}") from exc
    all_findings = list(report.findings)  # pre-suppression, for hygiene
    unused = unused_baseline_entries(entries, all_findings)
    if entries:
        report, suppressed = report.apply_baseline(entries)
    if args.sarif:
        _write_sarif(args.sarif, report)
    # Under --json, stdout holds the JSON document alone; the hygiene
    # notes below go to stderr.
    note = sys.stderr if args.json else sys.stdout
    if args.json:
        print(report.to_json())
    else:
        print(report.format(verbose=args.verbose))
        if suppressed:
            print(f"({suppressed} baselined finding(s) suppressed)")
        for entry in unused:
            print(f"[STALE  ] baseline entry matches no finding: "
                  f"{json.dumps(entry, sort_keys=True)}")
    if unused and args.prune_baseline:
        removed = prune_baseline(args.baseline, all_findings)
        print(f"pruned {removed} stale entr"
              f"{'y' if removed == 1 else 'ies'} from {args.baseline}",
              file=note)
    if unused and args.fail_stale:
        # Baseline hygiene gate: a suppression matching nothing is debt
        # that silently weakens the gate — fail instead of drifting.
        print(f"{len(unused)} stale baseline entr"
              f"{'y' if len(unused) == 1 else 'ies'}; prune with "
              f"--prune-baseline", file=note)
        return 1
    # Exit-code contract: errors always gate; warnings only under
    # --fail-on warning; info findings never gate.
    return 0 if report.gate(args.fail_on) else 1


# ----------------------------------------------------------------------
# repro plan — compile/show/lint CompiledPlan artifacts
# ----------------------------------------------------------------------

def _plan_paths(args) -> List[str]:
    paths = list(args.paths or [])
    if getattr(args, "dir", None):
        paths.extend(sorted(glob.glob(os.path.join(args.dir, "*.npz"))))
    if not paths:
        raise SystemExit("no plan artifacts given (PATHS or --dir)")
    return paths


def cmd_plan_compile(args) -> int:
    """Compile shipped pipelines to on-disk CompiledPlan artifacts."""
    from .core.persistence import save_plan

    sim = bench_config()
    frameworks = all_frameworks()
    if args.frameworks:
        for f in args.frameworks:
            if f not in frameworks:
                raise SystemExit(
                    f"unknown framework {f!r}; choose from "
                    f"{list(frameworks)}"
                )
        frameworks = {
            k: v for k, v in frameworks.items() if k in args.frameworks
        }
    models = args.models or ["gcn", "gat", "sage_lstm"]
    os.makedirs(args.out, exist_ok=True)
    written = 0
    for name in _dataset_list(args):
        g = load_dataset(name)
        for fname, fw in frameworks.items():
            for model in models:
                try:
                    plan = fw.compile(model, g, sim)
                except NotSupported:
                    continue
                except SimulatedOOM as exc:
                    print(f"SKIP {fname}:{model}:{name} (OOM: {exc})")
                    continue
                path = os.path.join(args.out, f"plan_{plan.plan_id}.npz")
                save_plan(path, plan)
                written += 1
                print(f"{fname}:{model}:{name} -> {path} "
                      f"({plan.num_kernels} kernels)")
    print(f"{written} plan artifact(s) written to {args.out}")
    return 0


def cmd_plan_show(args) -> int:
    """Print the schema summary of saved plan artifacts."""
    from .core.persistence import load_plan

    status = 0
    for path in _plan_paths(args):
        plan = load_plan(path)
        if plan is None:
            print(f"{path}: unreadable or stale plan artifact")
            status = 1
            continue
        print(plan.describe())
    return status


def cmd_plan_lint(args) -> int:
    """Run the static analysis passes over saved plan artifacts."""
    from .analysis import INFO, AnalysisReport, lint_plan, load_baseline
    from .core.persistence import load_plan

    ok = True
    merged = AnalysisReport(label="plan-lint")
    entries = []
    if args.baseline:
        try:
            entries = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load baseline: {exc}") from exc
    for path in _plan_paths(args):
        plan = load_plan(path)
        if plan is None:
            print(f"{path}: unreadable or stale plan artifact")
            ok = False
            continue
        report = lint_plan(plan)
        if entries:
            report, _ = report.apply_baseline(entries)
        merged.merge(report)
        for f in report.findings:
            if args.verbose or f.severity != INFO:
                print(f"{path}: {f.format()}")
    if args.sarif:
        _write_sarif(args.sarif, merged)
    if not merged.gate(args.fail_on):
        ok = False
    print(f"plan lint: {merged.checked} layer lowering(s) checked, "
          f"{'ok' if ok else 'FINDINGS'}")
    return 0 if ok else 1


def cmd_plan(args) -> int:
    return args.plan_func(args)


# ----------------------------------------------------------------------
# repro shard — multi-device partition + run
# ----------------------------------------------------------------------

def _load_shard_graph(name: str):
    """Dataset loader that also knows the full-scale OOM-regime graph.

    ``ogb49m`` is the ~49M-edge :func:`~repro.graph.ogb_scale_graph`
    whose monolithic plan exceeds the simulated device budget — the
    regime the SH001 static verdict exists for.  It is generated, not
    shipped, so it lives outside the scaled ``DATASET_NAMES`` table.
    """
    if name == "ogb49m":
        from .graph import ogb_scale_graph

        return ogb_scale_graph()
    return load_dataset(name)


def cmd_shard_partition(args) -> int:
    from .shard import partition_graph, save_shard_plan

    g = _load_shard_graph(args.dataset)
    plan = partition_graph(g, args.parts, args.method)
    print(plan.describe())
    if args.out:
        path = save_shard_plan(args.out, plan)
        print(f"wrote {path}")
    if getattr(args, "no_lint", False):
        return 0
    # Symbolic shard lint (SH001/SH003/SH004): zero compiles, zero
    # simulation — a partitioning that cannot run is caught here.
    from .analysis.shardlint import lint_shard
    from .shard import DeviceConfig

    report = lint_shard(
        plan, model_name=args.model,
        device=DeviceConfig.from_gpu(bench_config()),
    )
    print(report.format())
    return 0 if report.gate() else 1


def cmd_shard_run(args) -> int:
    from .analysis.findings import AnalysisReport
    from .shard import LinkConfig, run_sharded

    frameworks = all_frameworks()
    if args.framework not in frameworks:
        raise SystemExit(
            f"unknown framework {args.framework!r}; choose from "
            f"{list(frameworks)}"
        )
    fw = frameworks[args.framework]
    g = load_dataset(args.dataset)
    sim = bench_config()
    link = LinkConfig(
        bandwidth=args.link_bandwidth, latency=args.link_latency
    )
    lint = not args.no_lint
    try:
        res = run_sharded(
            fw, args.model, g, sim, num_parts=args.parts,
            method=args.method, link=link, lint=lint,
        )
    except SimulatedOOM as exc:
        print(f"simulated OOM on {args.parts} device(s): {exc}")
        return 1
    except NotSupported:
        raise SystemExit(
            f"{args.framework} does not support {args.model}"
        )
    sh = res.report.extra["perf"]["shard"]
    rows = [
        [
            d["device"], d["owned_nodes"], d["local_edges"],
            d["halo_nodes"], d["mirror_nodes"],
            round(d["compute_seconds"] * 1e3, 3),
            round(d["transfer_seconds"] * 1e3, 3),
            round(d["finish_seconds"] * 1e3, 3),
        ]
        for d in sh["devices"]
    ]
    print(format_table(
        f"{args.framework}:{args.model}:{args.dataset} on "
        f"{args.parts} device(s), {args.method}",
        ["dev", "owned", "edges", "halo", "mirror",
         "compute_ms", "transfer_ms", "finish_ms"],
        rows,
    ))
    cross = sh["cross_device"]
    print(
        f"wall {sh['wall_seconds'] * 1e3:.3f} ms | serial-equivalent "
        f"{sh['serial_seconds'] * 1e3:.3f} ms | transfers "
        f"{cross['transfer_bytes'] / 1e6:.2f} MB over "
        f"{cross['num_transfers']} kernel(s) "
        f"({100 * cross['transfer_fraction']:.1f}% of device time)"
    )
    report = AnalysisReport(
        findings=list(res.findings),
        checked=args.parts,
        label=(
            f"shard:{args.framework}:{args.model}:{args.dataset}:"
            f"{args.method}{args.parts}"
        ),
    )
    if lint:
        print(report.format())
    if args.sarif:
        _write_sarif(args.sarif, report)
    return 0 if report.gate(args.fail_on) else 1


def cmd_shard_lint(args) -> int:
    from .analysis.findings import load_baseline
    from .analysis.shardlint import lint_shard
    from .shard import DeviceConfig, LinkConfig, partition_graph

    g = _load_shard_graph(args.dataset)
    shard = partition_graph(g, args.parts, args.method)
    sim = bench_config()
    device = (
        DeviceConfig(mem_bytes=int(args.device_mem))
        if args.device_mem else DeviceConfig.from_gpu(sim)
    )
    plans = streams = None
    note = None
    if not args.no_plans:
        from .gpusim.multidev import build_shard_streams

        frameworks = all_frameworks()
        if args.framework not in frameworks:
            raise SystemExit(
                f"unknown framework {args.framework!r}; choose from "
                f"{list(frameworks)}"
            )
        fw = frameworks[args.framework]
        try:
            plans = [
                fw.compile(
                    args.model, part.local_graph, sim,
                    shard_options=shard.options_blob(part.part_id),
                )
                for part in shard.parts
            ]
            streams = build_shard_streams(shard, plans, LinkConfig())
        except SimulatedOOM as exc:
            plans = streams = None
            note = (
                f"per-partition compile raised SimulatedOOM ({exc}); "
                f"flow checks skipped — the symbolic verdict below is "
                f"the static form of that failure"
            )
        except NotSupported:
            raise SystemExit(
                f"{args.framework} does not support {args.model}"
            )
    report = lint_shard(
        shard, model_name=args.model, device=device,
        plans=plans, streams=streams,
        imbalance_threshold=args.imbalance_threshold,
        blowup_threshold=args.blowup_threshold,
    )
    suppressed = 0
    if args.baseline:
        try:
            entries = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load baseline: {exc}") from exc
        report, suppressed = report.apply_baseline(entries)
    if args.sarif:
        _write_sarif(args.sarif, report)
    if note:  # to stderr under --json: stdout holds the JSON alone
        print(f"note: {note}", file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(report.to_json())
    else:
        print(report.format(verbose=args.verbose))
        if suppressed:
            print(f"({suppressed} baselined finding(s) suppressed)")
    return 0 if report.gate(args.fail_on) else 1


def cmd_shard_choose(args) -> int:
    from .analysis.shardlint import choose_partitioning
    from .shard import DeviceConfig

    g = _load_shard_graph(args.dataset)
    device = (
        DeviceConfig(mem_bytes=int(args.device_mem))
        if args.device_mem else DeviceConfig.from_gpu(bench_config())
    )
    choices = choose_partitioning(
        g, args.model, device=device,
        methods=tuple(args.methods) if args.methods else None,
        parts=tuple(args.parts),
    )
    rows = [
        [
            c.method, c.num_parts,
            "yes" if c.feasible else "no",
            round(c.score.peak_bytes / 1e6, 2),
            round(c.score.transfer_bytes / 1e6, 2),
            len(c.report.findings),
        ]
        for c in choices
    ]
    print(format_table(
        f"partitioning candidates for {args.model}:{args.dataset} "
        f"(device {device.mem_bytes / 2**20:.0f} MiB)",
        ["method", "P", "fits", "peak_MB", "transfer_MB", "findings"],
        rows,
    ))
    best = choices[0]
    if best.feasible:
        print(
            f"recommended: {best.method} x{best.num_parts} "
            f"(peak {best.score.peak_bytes / 1e6:.2f} MB, "
            f"transfers {best.score.transfer_bytes / 1e6:.2f} MB)"
        )
        return 0
    print(
        f"no candidate fits the {device.mem_bytes:,}-byte device "
        f"budget (least-infeasible: {best.method} x{best.num_parts})"
    )
    return 1


def cmd_shard(args) -> int:
    return args.shard_func(args)


# ----------------------------------------------------------------------
# repro serve — batched multi-tenant plan serving
# ----------------------------------------------------------------------

def cmd_serve_replay(args) -> int:
    from .analysis import INFO, AnalysisReport, lint_plan
    from .serve import (
        AdmissionPolicy,
        PlanServer,
        TraceSpec,
        replay,
        synthetic_trace,
    )

    out = sys.stderr if args.json else sys.stdout  # JSON alone on stdout
    frameworks = all_frameworks()
    tenant_fws = args.frameworks or ["dgl", "ours", "pyg"]
    for f in tenant_fws:
        if f not in frameworks:
            raise SystemExit(
                f"unknown framework {f!r}; choose from {list(frameworks)}"
            )
    tenants = tuple(
        (f"tenant-{chr(ord('a') + i)}", tenant_fws[i % len(tenant_fws)])
        for i in range(args.tenants)
    )
    spec = TraceSpec(
        num_requests=args.requests,
        datasets=tuple(_dataset_list(args)),
        models=tuple(args.models or ["gcn", "gat"]),
        tenants=tenants,
        pool_per_dataset=args.pool,
        seed=args.seed,
    )
    print(f"trace: {spec.describe()}", file=out)
    policy = AdmissionPolicy(
        max_nodes=args.max_nodes, max_edges=args.max_edges
    )
    server = PlanServer(
        frameworks=frameworks, sim=bench_config(), policy=policy
    )
    trace = synthetic_trace(spec)
    summaries = replay(server, trace, window=args.window)
    stats = server.stats()
    rows = []
    for tenant, summary in stats["tenants"].items():
        rows.append([
            tenant, summary["count"],
            round(summary["p50"] * 1e3, 3),
            round(summary["p95"] * 1e3, 3),
            round(summary["p99"] * 1e3, 3),
            round(summary["max"] * 1e3, 3),
        ])
    print(format_table(
        "per-tenant serving latency (host ms)",
        ["tenant", "requests", "p50", "p95", "p99", "max"],
        rows,
    ), file=out)
    print(
        f"served {stats['served']}/{stats['submitted']} request(s) in "
        f"{stats['batches']} batch(es) (max batch {stats['max_batch']}, "
        f"{100 * stats['batch_dedup_rate']:.1f}% fanned out, "
        f"plan-cache hit rate "
        f"{100 * stats['plan_cache_hit_rate']:.1f}%), "
        f"{stats['rejected']} rejected, {stats['failed']} failed",
        file=out,
    )
    for status in ("rejected", "failed"):
        reasons = collections.Counter(
            s["reason"] for s in summaries if s["status"] == status
        )
        if reasons:
            print(f"{status}: " + ", ".join(
                f"{n} {reason}" for reason, n in sorted(reasons.items())
            ), file=out)
    if args.json:
        print(json.dumps(
            {"stats": stats, "spec": spec.describe()}, indent=2,
            default=str,
        ))
    status = 0
    if not args.no_lint:
        merged = AnalysisReport(label="serve-replay")
        for _, (fw_name, plan, graph) in sorted(
            server.served_plans.items()
        ):
            report = lint_plan(plan, graph=graph)
            merged.merge(report)
            for f in report.findings:
                if f.severity != INFO:
                    print(f"{fw_name}:{plan.label}: {f.format()}",
                          file=out)
        infos = sum(1 for f in merged.findings if f.severity == INFO)
        print(
            f"served-plan lint: {len(server.served_plans)} plan(s), "
            f"{len(merged.findings)} finding(s) "
            f"({infos} info, {len(merged.findings) - infos} gating)",
            file=out,
        )
        if args.sarif:
            _write_sarif(args.sarif, merged)
        if not merged.gate(args.fail_on):
            status = 1
    return status


def cmd_serve(args) -> int:
    return args.serve_func(args)


def cmd_schedule(args) -> int:
    g = load_dataset(args.dataset)
    sched = shared_schedule(g)
    sizes = cluster_sizes(sched)
    print(f"dataset {args.dataset}: {sched.num_clusters:,} clusters, "
          f"max size {sizes.max()}, "
          f"{(sizes > 1).sum():,} non-trivial, "
          f"{sched.num_candidate_pairs:,} candidate pairs, "
          f"analysis {sched.analysis_seconds * 1e3:.0f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="PPoPP'21 GNN performance-gap reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_datasets_arg(sp):
        sp.add_argument("--datasets", nargs="*", default=None,
                        help="subset of datasets (default: all eight)")

    sp = sub.add_parser(
        "paper",
        help="run one paper claim on the full grid and check its shape",
    )
    sp.add_argument("id", choices=list(claims.CLAIMS),
                    help="claim id (EXPERIMENTS.md section)")
    sp.set_defaults(func=cmd_paper)

    sp = sub.add_parser("compare", help="Fig. 7-style comparison")
    sp.add_argument("--model", choices=["gcn", "gat", "sage_lstm"],
                    default="gcn")
    sp.add_argument("--frameworks", nargs="*", default=None)
    add_datasets_arg(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("tune", help="run the online tuner")
    sp.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    sp.add_argument("--feat", type=int, default=32)
    sp.set_defaults(func=cmd_tune)

    sp = sub.add_parser("schedule", help="run locality-aware scheduling")
    sp.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    sp.set_defaults(func=cmd_schedule)

    sp = sub.add_parser(
        "lint",
        help="statically verify every shipped fusion plan and lowering",
    )
    add_datasets_arg(sp)
    sp.add_argument("--models", nargs="*", default=None,
                    help="subset of model chains (default: all)")
    sp.add_argument("--model", action="append", default=None,
                    help="filter to one model chain (repeatable)")
    sp.add_argument("--dataset", action="append", default=None,
                    help="filter to one dataset (repeatable)")
    sp.add_argument("--fusion", action="append", default=None,
                    help="filter to one fusion config: unfused, adapter "
                         "or linear (repeatable)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    sp.add_argument("--verbose", action="store_true",
                    help="include info-level findings")
    sp.add_argument("--explain", metavar="CODE", nargs="?", default=None,
                    const="",
                    help="print the documentation of a finding code "
                         "(e.g. HB001) and exit; with no CODE, list "
                         "every registered code with its summary")
    sp.add_argument("--prune-baseline", action="store_true",
                    dest="prune_baseline",
                    help="rewrite --baseline without entries that "
                         "suppress nothing")
    sp.add_argument("--fail-stale", action="store_true",
                    dest="fail_stale",
                    help="exit 1 when --baseline holds entries that "
                         "suppress nothing (CI baseline hygiene)")
    sp.add_argument("--fail-on", choices=["error", "warning"],
                    default="error", dest="fail_on",
                    help="severity that flips the exit code to 1 "
                         "(default: error; info findings never gate)")
    sp.add_argument("--baseline", default=None, metavar="PATH",
                    help="JSON suppression file of known findings "
                         "(see lint_baseline.json)")
    sp.add_argument("--sarif", default=None, metavar="PATH",
                    help="write the report as SARIF 2.1.0 JSON")
    sp.set_defaults(func=cmd_lint)

    sp = sub.add_parser(
        "plan",
        help="compile, inspect and lint CompiledPlan artifacts",
    )
    plan_sub = sp.add_subparsers(dest="plan_command", required=True)

    psp = plan_sub.add_parser(
        "compile", help="compile shipped pipelines to plan artifacts"
    )
    add_datasets_arg(psp)
    psp.add_argument("--frameworks", nargs="*", default=None,
                     help="subset of frameworks (default: all five)")
    psp.add_argument("--models", nargs="*", default=None,
                     choices=["gcn", "gat", "sage_lstm"],
                     help="subset of models (default: all three)")
    psp.add_argument("--out", default="benchmarks/out/plans",
                     help="output directory for plan_<id>.npz artifacts")
    psp.set_defaults(func=cmd_plan, plan_func=cmd_plan_compile)

    psp = plan_sub.add_parser(
        "show", help="print the schema summary of plan artifacts"
    )
    psp.add_argument("paths", nargs="*", help="plan_<id>.npz files")
    psp.add_argument("--dir", default=None,
                     help="read every *.npz artifact in a directory")
    psp.set_defaults(func=cmd_plan, plan_func=cmd_plan_show)

    psp = plan_sub.add_parser(
        "lint", help="run the static analysis passes over saved artifacts"
    )
    psp.add_argument("paths", nargs="*", help="plan_<id>.npz files")
    psp.add_argument("--dir", default=None,
                     help="read every *.npz artifact in a directory")
    psp.add_argument("--verbose", action="store_true",
                     help="include info-level findings")
    psp.add_argument("--fail-on", choices=["error", "warning"],
                     default="error", dest="fail_on",
                     help="severity that flips the exit code to 1")
    psp.add_argument("--baseline", default=None, metavar="PATH",
                     help="JSON suppression file of known findings")
    psp.add_argument("--sarif", default=None, metavar="PATH",
                     help="write the merged report as SARIF 2.1.0 JSON")
    psp.set_defaults(func=cmd_plan, plan_func=cmd_plan_lint)

    sp = sub.add_parser(
        "shard",
        help="multi-device sharded execution (partition + run)",
    )
    shard_sub = sp.add_subparsers(dest="shard_command", required=True)

    def add_shard_args(ssp):
        ssp.add_argument("--dataset",
                         choices=list(DATASET_NAMES) + ["ogb49m"],
                         required=True,
                         help="scaled dataset, or ogb49m (the generated "
                              "full-scale OOM-regime graph)")
        ssp.add_argument("--parts", type=int, default=2,
                         help="number of simulated devices (default: 2)")
        ssp.add_argument("--method", choices=["edge_cut", "vertex_cut"],
                         default="edge_cut",
                         help="partitioning method (default: edge_cut)")

    ssp = shard_sub.add_parser(
        "partition",
        help="partition a dataset and print / save the shard plan",
    )
    add_shard_args(ssp)
    ssp.add_argument("--out", default=None, metavar="DIR",
                     help="save the content-addressed shard artifact")
    ssp.add_argument("--model", choices=["gcn", "gat", "sage_lstm"],
                     default="gcn",
                     help="model for the symbolic shard lint "
                          "(default: gcn)")
    ssp.add_argument("--no-lint", action="store_true", dest="no_lint",
                     help="skip the symbolic shard lint (SH001/3/4)")
    ssp.set_defaults(func=cmd_shard, shard_func=cmd_shard_partition)

    ssp = shard_sub.add_parser(
        "run",
        help="partition, compile per device, and run multi-device",
    )
    add_shard_args(ssp)
    ssp.add_argument("--model", choices=["gcn", "gat", "sage_lstm"],
                     default="gcn")
    ssp.add_argument("--framework", default="dgl",
                     help="execution strategy (default: dgl)")
    ssp.add_argument("--link-bandwidth", type=float, default=50e9,
                     dest="link_bandwidth",
                     help="inter-device bytes/s (default: 50e9)")
    ssp.add_argument("--link-latency", type=float, default=5e-6,
                     dest="link_latency",
                     help="per-message seconds (default: 5e-6)")
    ssp.add_argument("--no-lint", action="store_true", dest="no_lint",
                     help="skip the cross-device happens-before pass")
    ssp.add_argument("--fail-on", choices=["error", "warning"],
                     default="error", dest="fail_on",
                     help="findings severity that fails the run")
    ssp.add_argument("--sarif", default=None, metavar="PATH",
                     help="write HB findings as SARIF 2.1.0 JSON")
    ssp.set_defaults(func=cmd_shard, shard_func=cmd_shard_run)

    ssp = shard_sub.add_parser(
        "lint",
        help="statically verify one partitioning (SH001-SH005): "
             "symbolic memory, transfer conservation, exchange liveness",
    )
    add_shard_args(ssp)
    ssp.add_argument("--model", choices=["gcn", "gat", "sage_lstm"],
                     default="gcn")
    ssp.add_argument("--framework", default="dgl",
                     help="framework for per-partition plans "
                          "(default: dgl)")
    ssp.add_argument("--no-plans", action="store_true", dest="no_plans",
                     help="symbolic-only: skip compiling per-partition "
                          "plans (SH002/SH005 need plans; SH001/3/4 "
                          "never do)")
    ssp.add_argument("--device-mem", type=float, default=None,
                     dest="device_mem", metavar="BYTES",
                     help="declared per-device capacity (default: the "
                          "bench GPU's budget)")
    ssp.add_argument("--imbalance-threshold", type=float, default=1.25,
                     dest="imbalance_threshold",
                     help="SH003 max/mean flops ratio (default: 1.25)")
    ssp.add_argument("--blowup-threshold", type=float, default=None,
                     dest="blowup_threshold",
                     help="SH004 total/monolithic memory ratio "
                          "(default: P)")
    ssp.add_argument("--json", action="store_true",
                     help="machine-readable report")
    ssp.add_argument("--verbose", action="store_true",
                     help="include info-level findings")
    ssp.add_argument("--fail-on", choices=["error", "warning"],
                     default="error", dest="fail_on",
                     help="severity that flips the exit code to 1")
    ssp.add_argument("--baseline", default=None, metavar="PATH",
                     help="JSON suppression file of known findings")
    ssp.add_argument("--sarif", default=None, metavar="PATH",
                     help="write the report as SARIF 2.1.0 JSON")
    ssp.set_defaults(func=cmd_shard, shard_func=cmd_shard_lint)

    ssp = shard_sub.add_parser(
        "choose",
        help="rank (method x P) partitionings by the static ShardScore",
    )
    ssp.add_argument("--dataset",
                     choices=list(DATASET_NAMES) + ["ogb49m"],
                     required=True)
    ssp.add_argument("--model", choices=["gcn", "gat", "sage_lstm"],
                     default="gcn")
    ssp.add_argument("--methods", nargs="*", default=None,
                     choices=["edge_cut", "vertex_cut"],
                     help="candidate methods (default: both)")
    ssp.add_argument("--parts", type=int, nargs="*", default=[1, 2, 4, 8],
                     help="candidate device counts (default: 1 2 4 8)")
    ssp.add_argument("--device-mem", type=float, default=None,
                     dest="device_mem", metavar="BYTES",
                     help="declared per-device capacity (default: the "
                          "bench GPU's budget)")
    ssp.set_defaults(func=cmd_shard, shard_func=cmd_shard_choose)

    sp = sub.add_parser(
        "serve",
        help="batched multi-tenant plan serving (PlanServer)",
    )
    serve_sub = sp.add_subparsers(dest="serve_command", required=True)

    vsp = serve_sub.add_parser(
        "replay",
        help="replay a synthetic multi-tenant trace through PlanServer",
    )
    vsp.add_argument("--requests", type=int, default=200,
                     help="trace length (default: 200)")
    vsp.add_argument("--tenants", type=int, default=3,
                     help="number of tenants (default: 3)")
    vsp.add_argument("--frameworks", nargs="+", default=None,
                     help="frameworks cycled across tenants "
                          "(default: dgl ours pyg)")
    vsp.add_argument("--datasets", nargs="+", default=["arxiv", "ddi"],
                     help="datasets sampled for request subgraphs")
    vsp.add_argument("--models", nargs="+", default=None,
                     choices=["gcn", "gat", "sage_lstm"],
                     help="model mix (default: gcn gat)")
    vsp.add_argument("--pool", type=int, default=4,
                     help="sampled shapes per dataset (default: 4)")
    vsp.add_argument("--window", type=int, default=64,
                     help="batching window in requests (default: 64)")
    vsp.add_argument("--seed", type=int, default=0,
                     help="trace seed (default: 0)")
    vsp.add_argument("--max-nodes", type=int, default=None,
                     dest="max_nodes",
                     help="admission cap on request nodes")
    vsp.add_argument("--max-edges", type=int, default=None,
                     dest="max_edges",
                     help="admission cap on request edges")
    vsp.add_argument("--json", action="store_true",
                     help="print full server stats as JSON")
    vsp.add_argument("--no-lint", action="store_true", dest="no_lint",
                     help="skip linting the served plans")
    vsp.add_argument("--fail-on", choices=["error", "warning"],
                     default="error", dest="fail_on",
                     help="findings severity that fails the replay")
    vsp.add_argument("--sarif", default=None, metavar="PATH",
                     help="write served-plan findings as SARIF 2.1.0")
    vsp.set_defaults(func=cmd_serve, serve_func=cmd_serve_replay)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
