"""Golden equivalence: engine-routed paths reproduce the legacy ones.

The refactor's contract is behavioral invisibility: routing the bench
sweeps, fig/table scripts and serve batches through ``repro.engine``
must produce results byte-identical to the pre-refactor direct
``make_spmm``/``make_sddmm`` dispatch — including identical
estimate-cache traffic (same keys, same hit/miss counts).  These tests
re-implement the legacy evaluation loops inline (direct kernel-API
dispatch, graphs-outer/kernels-inner) and compare exactly.
"""

import json

import pytest

from repro.bench.runner import sweep_sddmm, sweep_spmm
from repro.engine import ShardedExecutor, cost_priors
from repro.gpusim import TESLA_V100, get_device
from repro.kernels import make_sddmm, make_spmm
from repro.obs import METRICS, reset_histograms
from repro.perf import get_estimate_cache

from tests.conftest import random_hybrid

_LEGACY_MAKERS = {"spmm": make_spmm, "sddmm": make_sddmm}


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    get_estimate_cache().clear()
    cost_priors().reset()
    yield
    cost_priors().reset()


def _toy_graphs():
    return [
        ("a", random_hybrid(200, 200, 1500, seed=21)),
        ("b", random_hybrid(300, 300, 2500, seed=22)),
    ]


def _legacy_sweep(op, graphs, kernels, k, device):
    """The pre-refactor sweep body: direct dispatch, no engine."""
    make = _LEGACY_MAKERS[op]
    rows = []
    for gname, S in graphs:
        flops = 2.0 * S.nnz * k
        for kname in kernels:
            res = make(kname).estimate(S, k, device)
            rows.append(
                (gname, kname, res.stats.time_s, res.preprocessing_s,
                 res.stats.throughput_gflops(flops))
            )
    return rows


@pytest.mark.parametrize("op", ["spmm", "sddmm"])
def test_engine_sweep_reproduces_legacy_dispatch(op):
    graphs = _toy_graphs()
    if op == "spmm":
        sweep, kernels = sweep_spmm, ("hp-spmm", "ge-spmm", "row-split")
    else:
        sweep, kernels = sweep_sddmm, ("hp-sddmm", "dgl-sddmm")
    legacy = _legacy_sweep(op, graphs, kernels, 32, TESLA_V100)
    get_estimate_cache().clear()  # engine run must not ride on memo hits
    result = sweep(graphs, kernels, k=32)
    assert [
        (r.graph, r.kernel, r.time_s, r.preprocessing_s, r.gflops)
        for r in result.runs
    ] == legacy


def test_engine_sweep_cache_traffic_matches_legacy():
    """Same cache keys, same hit/miss counts as direct dispatch."""
    graphs = _toy_graphs()
    kernels = ("hp-spmm", "ge-spmm")
    cache = get_estimate_cache()

    _legacy_sweep("spmm", graphs, kernels, 32, TESLA_V100)
    _legacy_sweep("spmm", graphs, kernels, 32, TESLA_V100)
    legacy_stats = cache.stats()

    cache.clear()
    sweep_spmm(graphs, kernels, k=32)
    sweep_spmm(graphs, kernels, k=32)
    engine_stats = cache.stats()

    assert engine_stats.hits == legacy_stats.hits
    assert engine_stats.misses == legacy_stats.misses
    # And cross-path: a legacy-warmed cache serves engine sweeps fully.
    sweep_spmm(graphs, kernels, k=32)
    assert cache.stats().misses == engine_stats.misses


def test_fig13_reproduces_legacy_series():
    from repro.bench.fig13 import run_fig13

    result = run_fig13(
        graph="aifb", ks=(16, 32), max_edges=20_000,
        kernels=("hp-spmm", "ge-spmm"),
    )
    from repro.graphs import load_graph

    S = load_graph("aifb", max_edges=20_000).matrix
    for i, k in enumerate((16, 32)):
        flops = 2.0 * S.nnz * k
        for name in ("hp-spmm", "ge-spmm"):
            stats = make_spmm(name).estimate(S, k, TESLA_V100).stats
            assert result.gflops[name][i] == stats.throughput_gflops(flops)


def test_table4_reproduces_legacy_rows():
    from repro.bench.table4 import TABLE4_KERNELS, run_table4
    from repro.graphs import load_graph

    result = run_table4(graphs=("corafull",), max_edges=20_000)
    S = load_graph("corafull", max_edges=20_000).matrix
    legacy_row = ["corafull"]
    for kname in TABLE4_KERNELS:
        res = make_spmm(kname).estimate(S, 64, result_device())
        if kname != "hp-spmm":
            legacy_row.append(res.preprocessing_s * 1e3)
        legacy_row.append(res.stats.time_s * 1e3)
    assert result.rows == [legacy_row]


def result_device():
    from repro.gpusim import TESLA_A30

    return TESLA_A30


# ----------------------------------------------------------------------
# Serve: engine-routed batches, identical across executors
# ----------------------------------------------------------------------

def _deterministic_report_fields(report):
    """The byte-stable subset of a serve report (latencies excluded)."""
    return json.dumps(
        {"responses": report["responses"], "summary": report["summary"]},
        sort_keys=True,
    )


@pytest.mark.serve
@pytest.mark.store
def test_serve_replay_identical_across_executors():
    """Golden equivalence: sharding over the store changes topology and
    transport, never the answers."""
    from repro.serve.workload import WorkloadSpec, run_workload
    from repro.store import reset_store, store_counters

    spec = WorkloadSpec(
        name="equiv", num_requests=16, max_edges=20_000,
        graphs=("aifb",), forced_deadline_every=5,
    )

    METRICS.reset()
    reset_histograms()
    get_estimate_cache().clear()
    cost_priors().reset()
    inline_report = run_workload(spec)

    METRICS.reset()
    reset_histograms()
    get_estimate_cache().clear()
    cost_priors().reset()
    reset_store()
    with ShardedExecutor(workers=2) as executor:
        sharded_report = run_workload(spec, executor=executor)
    assert store_counters()["bytes_shared"] > 0  # the store was in play
    reset_store()

    assert _deterministic_report_fields(
        inline_report
    ) == _deterministic_report_fields(sharded_report)
    for resp in inline_report["responses"]:
        assert resp["status"] in ("ok", "degraded")


@pytest.mark.serve
def test_serve_full_answers_match_direct_estimates():
    from repro.graphs import load_graph
    from repro.serve import EstimateRequest as ServeRequest
    from repro.serve import EstimationServer

    with EstimationServer() as server:
        resp = server.estimate(
            ServeRequest(op="sddmm", kernel="hp-sddmm", graph="aifb",
                         k=32, max_edges=20_000),
            timeout=60.0,
        )
    S = load_graph("aifb", max_edges=20_000).matrix
    direct = make_sddmm("hp-sddmm").estimate(S, 32, get_device("v100"))
    assert resp.time_s == direct.stats.time_s
    assert resp.bound == direct.stats.bound
