"""The bit-identity contract, checked once over one grid.

The reproduction stands in for the paper's baselines only if its
simulated numbers do not depend on which lane computed them.  Each cell
of the grid (framework x model on a seeded graph) gets one hash over
its report's peak memory and every :class:`KernelStats` field of every
kernel but the display name (floats as ``float.hex``, the occupancy
timeline as sorted pairs).  The hash must be the same

* under every axis of :class:`repro.perf.RuntimeConfig`: the default,
  the reference (fast paths and memo tiers off), the native lane off,
  the memo tiers off and strict checking on, each from cold caches;
* along every execution route: ``execute_one``, each member of a
  3-tenant served window, and a one-device ``run_sharded`` under both
  partitioning methods.

A replayed or fanned-out served report carries its total time from its
source; that float must equal the sum over its own kernels.

The quick paper grid is pinned to one hash under the reference, fast
and fast-numpy lanes.  Kernel-level reference parity (each native
kernel and vectorized loop against its reference) is tested next to
the loop, in ``test_native`` and ``test_perf_equivalence``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import perf
from repro.bench import fig7_overall, fig12_tuned_sweep, harness, sweep_config
from repro.frameworks import NotSupported, all_frameworks
from repro.gpusim import V100_SCALED
from repro.gpusim.memo import clear_caches
from repro.graph.generators import clustered_graph, power_law_graph
from repro.serve import InferenceRequest, PlanServer, execute_one
from repro.serve.admission import REASON_NOT_SUPPORTED
from repro.shard import run_sharded

GRAPHS = {
    "pl600": power_law_graph(600, avg_degree=6, seed=3, name="pl600"),
    "cl600": clustered_graph(600, avg_degree=5, seed=7, name="cl600"),
}
MODELS = ("gcn", "gat", "sage_lstm")
#: The number-preserving configuration axes, as ``perf.override`` fields.
CONFIGS = {
    "default": {},
    "reference": {"fastpath": False, "memo": False},
    "native-off": {"native": False},
    "memo-off": {"memo": False},
    "strict": {"strict": True},
}
TENANTS = ("a", "b", "c")


def _exact(value):
    return float.hex(value) if isinstance(value, float) else repr(value)


def _hash(report):
    h = hashlib.sha256(repr(report.peak_mem_bytes).encode())
    for stats in report.kernels:
        for field in dataclasses.fields(stats):
            value = getattr(stats, field.name)
            if field.name == "name":
                continue
            if field.name == "occupancy":
                value = [(_exact(f), _exact(v))
                         for f, v in sorted(value.items())]
            else:
                value = _exact(value)
            h.update(f"{field.name}={value};".encode())
    return h.hexdigest()[:16]


def _route_hashes(graph, fw_name, model):
    """{axis or route: cell hash}; every run starts from cold caches."""
    got = {}
    for axis, fields in CONFIGS.items():
        clear_caches()
        with perf.override(**fields):
            got[axis] = _hash(execute_one(
                all_frameworks()[fw_name], model, graph, V100_SCALED
            ).report)
    clear_caches()
    server = PlanServer(frameworks=all_frameworks(), sim=V100_SCALED)
    for resp in server.serve([
        InferenceRequest(model, graph, framework=fw_name, tenant=t)
        for t in TENANTS
    ]):
        assert resp.ok, resp.reason
        got[f"served/{resp.request.tenant}"] = _hash(resp.result.report)
    for method in ("edge_cut", "vertex_cut"):
        clear_caches()
        got[f"shard-P1/{method}"] = _hash(run_sharded(
            all_frameworks()[fw_name], model, graph, V100_SCALED,
            num_parts=1, method=method,
        ).report)
    return got


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("fw_name", sorted(all_frameworks()))
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_cell_hash(graph, fw_name, model):
    try:
        got = _route_hashes(GRAPHS[graph], fw_name, model)
    except NotSupported:
        pytest.skip(f"{fw_name} does not support {model}")
    finally:
        clear_caches()
    assert got == dict.fromkeys(got, got["reference"])


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("fw_name", sorted(all_frameworks()))
def test_served_totals_are_their_kernels_sum(fw_name, model):
    """A replayed or fanned-out report carries its total instead of
    re-summing it; the carried float is the sum of its own kernels."""
    clear_caches()
    server = PlanServer(frameworks=all_frameworks(), sim=V100_SCALED)
    windows = [server.serve([
        InferenceRequest(model, GRAPHS["pl600"], framework=fw_name, tenant=t)
        for t in TENANTS
    ]) for _ in range(2)]
    clear_caches()
    if windows[0][0].reason == REASON_NOT_SUPPORTED:
        pytest.skip(f"{fw_name} does not support {model}")
    # The second window's leader replays the plan's carried stats; every
    # follower is fanned out from its leader.
    assert windows[1][0].result.report.extra["perf"]["plan_memo_hit"]
    for resp in windows[0] + windows[1]:
        assert resp.ok, resp.reason
        report = resp.result.report
        assert float.hex(report.total_time) == \
            float.hex(sum(k.time for k in report.kernels))


# ----------------------------------------------------------------------
# The quick paper grid, pinned
# ----------------------------------------------------------------------

def _quick_grid_hash():
    """Content hash of the quick Fig. 7 grid + tuned Fig. 12 sweep."""
    grid = fig7_overall(models=("gcn", "gat"), datasets=["arxiv", "ddi"])
    sweep = fig12_tuned_sweep(["arxiv"], [32, 64], sweep_config())
    results = {
        "fig7": {
            m: {f: {d: cell.time_ms for d, cell in row.items()}
                for f, row in frameworks.items()}
            for m, frameworks in grid.items()
        },
        "fig12": {
            d: {str(f): round(v, 9) for f, v in series.items()}
            for d, series in sweep.items()
        },
    }
    return hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()
    ).hexdigest()[:16]


@pytest.mark.parametrize(
    "fast,native",
    [(False, True), (True, True), (True, False)],
    ids=["reference", "fast", "fast-numpy"],
)
def test_quick_grid_hash(monkeypatch, fast, native):
    """Each lane reproduces the pinned quick-grid hash from cold caches,
    the offline schedule and the shared runtime's tuning included, so
    the reference run exercises every reference implementation.
    ``fast-numpy`` is the fast lane on a host without a C compiler:
    every loop with a native kernel falls back to its reference, while
    the memo tiers and the fast paths with no native kernel stay on."""
    clear_caches()
    monkeypatch.setattr(harness, "_RUNTIMES", {})
    fields = {"fastpath": fast, "memo": fast}
    if not native:
        fields["native"] = False
    try:
        with perf.override(**fields):
            assert _quick_grid_hash() == "a52a3f53968f6bd5"
    finally:
        clear_caches()
