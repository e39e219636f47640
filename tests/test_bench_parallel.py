"""Parallel sweep fan-out (repro.perf.parallel) and the wall-clock harness."""

import json
import os
import sys

import pytest

from repro.bench.runner import SPMM_BASELINES, sweep_sddmm, sweep_spmm
from repro.perf import get_estimate_cache, parallel_map, resolve_jobs

from tests.conftest import random_hybrid


@pytest.fixture(autouse=True)
def serial_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    get_estimate_cache().clear()


# ----------------------------------------------------------------------
# resolve_jobs / parallel_map
# ----------------------------------------------------------------------

def test_resolve_jobs_default_is_serial():
    assert resolve_jobs() == 1
    assert resolve_jobs(100) == 1


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs() == 4
    assert resolve_jobs(2) == 2  # clamped to the item count
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert resolve_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "nope")
    with pytest.raises(ValueError):
        resolve_jobs()


def _square(x):
    return x * x


def test_parallel_map_orders_results():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


def test_parallel_map_falls_back_on_unpicklable_work():
    # A lambda cannot be pickled into a process pool; the serial
    # fallback must still produce the right answer.
    out = parallel_map(lambda x: x + 1, [1, 2, 3], jobs=2)
    assert out == [2, 3, 4]


def _touch_and_maybe_fail(item):
    """Append one line per execution, then fail on the marked item."""
    path, x, fail_on = item
    with open(path, "a") as f:
        f.write(f"{x}\n")
    if x == fail_on:
        raise ValueError(f"deterministic failure at {x}")
    return x * 10


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_propagates_without_serial_retry(tmp_path, jobs):
    """Regression: a deterministic error raised by ``fn`` must propagate.

    The old blanket ``except Exception`` silently re-ran the whole sweep
    serially (doubling work and re-executing side effects) before
    re-raising.  Each item's side effect must happen exactly once.
    """
    log = str(tmp_path / "executions.log")
    items = [(log, x, 2) for x in range(4)]
    with pytest.raises(ValueError, match="deterministic failure at 2"):
        parallel_map(_touch_and_maybe_fail, items, jobs=jobs)
    with open(log) as f:
        executed = sorted(int(line) for line in f if line.strip())
    # Every item at most once — in particular no serial re-run of item 0.
    assert executed.count(0) == 1
    assert executed.count(2) == 1


def _raise_oserror(item):
    raise OSError(f"fn-level OSError on {item}")


def test_fn_oserror_is_not_mistaken_for_pool_setup_failure():
    """OSError from ``fn`` is a worker error, not a pool failure."""
    with pytest.raises(OSError, match="fn-level OSError"):
        parallel_map(_raise_oserror, [1, 2], jobs=2)


def test_plan_check_error_propagates_from_parallel_sweep(monkeypatch):
    """The sweep-point scenario from the issue: a plan-check failure at
    one point aborts the sweep instead of re-running it serially."""
    from repro.bench.runner import PlanCheckError, sweep_spmm
    from repro.engine import core as engine_core

    def exploding_check(plan):
        raise PlanCheckError("injected plan failure")

    monkeypatch.setattr(engine_core, "check_plan", exploding_check)
    graphs = [("a", random_hybrid(200, 200, 1500, seed=41))]
    with pytest.raises(PlanCheckError):
        sweep_spmm(graphs, ("hp-spmm",), k=32, jobs=1)


# ----------------------------------------------------------------------
# Serial == parallel sweeps (satellite acceptance)
# ----------------------------------------------------------------------

def _toy_graphs():
    return [
        ("a", random_hybrid(200, 200, 1500, seed=21)),
        ("b", random_hybrid(300, 300, 2500, seed=22)),
        ("c", random_hybrid(250, 250, 2000, seed=23)),
    ]


@pytest.mark.parametrize("op", ["spmm", "sddmm"])
def test_parallel_and_serial_sweeps_identical(op):
    graphs = _toy_graphs()
    if op == "spmm":
        sweep, kernels = sweep_spmm, ("hp-spmm",) + SPMM_BASELINES[:2]
    else:
        sweep, kernels = sweep_sddmm, ("hp-sddmm", "dgl-sddmm")
    serial = sweep(graphs, kernels, k=32, jobs=1)
    get_estimate_cache().clear()  # parallel run must not ride on memo hits
    parallel = sweep(graphs, kernels, k=32, jobs=2)
    assert [
        (r.graph, r.kernel, r.time_s, r.preprocessing_s, r.gflops)
        for r in serial.runs
    ] == [
        (r.graph, r.kernel, r.time_s, r.preprocessing_s, r.gflops)
        for r in parallel.runs
    ]


def test_sweep_respects_repro_jobs_env(monkeypatch):
    graphs = _toy_graphs()
    serial = sweep_spmm(graphs, ("hp-spmm",), k=32)
    monkeypatch.setenv("REPRO_JOBS", "2")
    get_estimate_cache().clear()
    parallel = sweep_spmm(graphs, ("hp-spmm",), k=32)
    assert [r.time_s for r in serial.runs] == [r.time_s for r in parallel.runs]


def test_fig12_parallel_matches_serial(monkeypatch):
    from repro.bench.fig12 import run_fig12

    kwargs = dict(num_graphs=3, num_nodes=1500)
    serial = run_fig12(**kwargs)
    monkeypatch.setenv("REPRO_JOBS", "2")
    get_estimate_cache().clear()
    parallel = run_fig12(**kwargs)
    assert serial.stds == parallel.stds
    assert serial.speedups == parallel.speedups
    assert serial.pearson == parallel.pearson


# ----------------------------------------------------------------------
# Wall-clock harness
# ----------------------------------------------------------------------

def test_bench_wallclock_writes_report(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))
    try:
        import bench_wallclock
    finally:
        sys.path.pop(0)
    out = tmp_path / "BENCH_harness.json"
    rc = bench_wallclock.main(
        [
            "--pipelines", "fig12",
            "--fig12-nodes", "1500",
            "--output", str(out),
        ]
    )
    assert rc == 0
    with open(out) as f:
        report = json.load(f)
    assert "fig12" in report["pipelines"]
    assert report["pipelines"]["fig12"]["seconds"] > 0
    assert report["meta"]["cpus"] == os.cpu_count()
    import numpy
    import scipy

    assert report["meta"]["numpy"] == numpy.__version__
    assert report["meta"]["scipy"] == scipy.__version__
    assert report["meta"]["cpu_model"]
    assert set(report["estimate_cache"]) >= {"hits", "misses", "hit_rate"}


# ----------------------------------------------------------------------
# Worker-span splicing
# ----------------------------------------------------------------------

def _span_worker(x):
    from repro.obs import trace_span

    with trace_span("worker-span", cat="test", item=x):
        return x + 1


def test_parallel_map_splices_worker_spans_onto_parent_trace():
    from repro.obs import METRICS, Tracer, set_tracer

    pool_runs_before = METRICS.get("parallel.pool_runs")
    tracer = Tracer()
    set_tracer(tracer)
    try:
        out = parallel_map(_span_worker, [1, 2, 3, 4], jobs=2)
    finally:
        set_tracer(None)
    assert out == [2, 3, 4, 5]
    worker_spans = [s for s in tracer.spans if s.name == "worker-span"]
    assert len(worker_spans) == 4  # no span died with its worker
    assert sorted(s.args["item"] for s in worker_spans) == [1, 2, 3, 4]
    assert any(s.name == "parallel_map" for s in tracer.spans)
    if METRICS.get("parallel.pool_runs") > pool_runs_before:
        # The pool actually ran: spans crossed the process boundary and
        # carry their worker's pid.
        assert all(s.args.get("pool_worker") for s in worker_spans)
        parent = [s for s in tracer.spans if s.name == "parallel_map"][0]
        for s in worker_spans:
            assert s.ts_us >= parent.ts_us  # shared t0: same timeline


def test_parallel_map_untraced_pool_path_unchanged():
    from repro.obs import get_tracer

    assert get_tracer() is None
    assert parallel_map(_span_worker, [5, 6], jobs=2) == [6, 7]
