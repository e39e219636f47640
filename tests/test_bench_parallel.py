"""Worker-count resolution, the two executors, sweep fan-out and the
wall-clock harness."""

import ast
import json
import os
import sys
import threading
import time

import pytest

from repro.analysis import default_lint_root, iter_python_files
from repro.bench.runner import SPMM_BASELINES, sweep_sddmm, sweep_spmm
from repro.engine import (
    InlineExecutor,
    ShardedExecutor,
    make_executor,
    resolve_jobs,
)
from repro.perf import get_estimate_cache

from tests.conftest import random_hybrid

@pytest.fixture(autouse=True)
def serial_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    get_estimate_cache().clear()


# ----------------------------------------------------------------------
# resolve_jobs / make_executor
# ----------------------------------------------------------------------

def test_resolve_jobs_default_is_serial():
    assert resolve_jobs() == 1
    assert isinstance(make_executor(), InlineExecutor)


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs() == 4
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert resolve_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "nope")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs()


def test_make_executor_rule(monkeypatch):
    """Explicit ``workers`` wins over ``REPRO_JOBS``; below 2 is inline."""
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert isinstance(make_executor(1), InlineExecutor)
    assert isinstance(make_executor(0), InlineExecutor)
    assert make_executor(1).workers == 1
    sharded = make_executor()
    assert isinstance(sharded, ShardedExecutor)
    assert sharded.workers == 3
    assert not sharded.started  # workers start lazily
    with make_executor(2) as executor:
        assert executor.worker_count == 2
    with InlineExecutor() as inline:  # same `with` shape for both kinds
        assert inline.map(abs, [-1, 2]) == [1, 2]


def _square(x):
    return x * x


def test_sharded_map_orders_results():
    items = list(range(20))
    with ShardedExecutor(3) as executor:
        assert executor.map(_square, items) == [x * x for x in items]


def _touch_and_maybe_fail(item):
    """Append one line per execution, then fail on the marked item."""
    path, x, fail_on = item
    with open(path, "a") as f:
        f.write(f"{x}\n")
    if x == fail_on:
        raise ValueError(f"deterministic failure at {x}")
    return x * 10


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_exception_propagates_without_serial_retry(tmp_path, workers):
    """A deterministic error raised by ``fn`` propagates, and no item
    runs twice (no inline re-run of the batch after a worker error)."""
    log = str(tmp_path / "executions.log")
    items = [(log, x, 2) for x in range(4)]
    with make_executor(workers) as executor:
        with pytest.raises(ValueError, match="deterministic failure at 2"):
            executor.map(_touch_and_maybe_fail, items)
    with open(log) as f:
        executed = sorted(int(line) for line in f if line.strip())
    assert executed.count(0) == 1
    assert executed.count(2) == 1


def _raise_oserror(item):
    raise OSError(f"fn-level OSError on {item}")


def test_fn_oserror_is_not_mistaken_for_pool_setup_failure():
    """OSError from ``fn`` is a worker error, not a spawn failure that
    would send the batch down the inline fallback."""
    from repro.obs import METRICS

    before = METRICS.get("engine.shard_fallbacks")
    with ShardedExecutor(2) as executor:
        with pytest.raises(OSError, match="fn-level OSError"):
            executor.map(_raise_oserror, [1, 2])
    assert METRICS.get("engine.shard_fallbacks") == before


def _exit_on_marker(x):
    if x == "die":
        os._exit(9)
    return x * 2


def test_dead_shard_worker_raises_and_next_map_restarts():
    """A worker that dies mid-batch used to hang ``map`` forever."""
    with ShardedExecutor(2) as executor:
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"pid \d+ died with exit code 9"):
            executor.map(_exit_on_marker, [1, "die", 3])
        assert time.monotonic() - t0 < 10
        assert not executor.started  # stopped, not left half-broken
        assert executor.map(_exit_on_marker, [1, 2, 3]) == [2, 4, 6]
        assert executor.worker_count == 2


def _answer_then_exit(x):
    """Answer, then (in a worker) exit shortly after; or answer slowly."""
    if x == "exit-after":
        threading.Timer(0.1, os._exit, args=(9,)).start()
        return "answered"
    time.sleep(0.8)  # outlasts one reply poll after the other's exit
    return x


def test_worker_dying_after_answering_fails_nothing():
    """Only a worker that still owes replies fails the batch."""
    with ShardedExecutor(2) as executor:
        # Round-robin: item 0 on worker 0 (answers, then exits while
        # worker 1 is still busy), item 1 on worker 1.
        assert executor.map(_answer_then_exit, ["exit-after", 7]) == [
            "answered", 7,
        ]
        time.sleep(0.3)
        # The next batch replaces the dead worker instead of queueing
        # items it would never answer.
        assert executor.map(_exit_on_marker, [1, 2]) == [2, 4]
        assert executor.worker_count == 2


def test_restart_after_death_refused_off_the_starting_thread():
    """Re-forking from another thread would fork a threaded process."""
    with ShardedExecutor(2) as executor:
        with pytest.raises(RuntimeError, match="died with exit code 9"):
            executor.map(_exit_on_marker, ["die", 1])
        errors: list = []

        def off_thread():
            try:
                executor.map(_exit_on_marker, [1, 2])
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=off_thread)
        thread.start()
        thread.join()
        assert len(errors) == 1
        assert "not re-forking" in str(errors[0])
        assert not executor.started
        # The thread that started the lost workers may restart them.
        assert executor.map(_exit_on_marker, [1, 2]) == [2, 4]


def test_plan_check_error_propagates_from_parallel_sweep(monkeypatch):
    """A plan-check failure at one point aborts the sweep instead of
    re-running it inline."""
    from repro.bench.runner import PlanCheckError
    from repro.engine import core as engine_core

    def exploding_check(plan):
        raise PlanCheckError("injected plan failure")

    monkeypatch.setattr(engine_core, "check_plan", exploding_check)
    graphs = [("a", random_hybrid(200, 200, 1500, seed=41))]
    with pytest.raises(PlanCheckError):
        sweep_spmm(graphs, ("hp-spmm",), k=32, workers=2)


def _creates_processes(name: str) -> bool:
    """``Process``, ``Pool`` (``multiprocessing.Pool``, ``ctx.Pool``) and
    the ``concurrent.futures`` process executor."""
    return name in ("Process", "Pool") or (
        name.startswith("Process") and name.endswith("Executor")
    )


def test_process_creation_only_in_executors():
    """One fan-out path: nothing outside engine/executors.py creates
    processes, so a pool or a raw ``Process`` cannot quietly return.
    (The analyzer's adversarial fixture corpus is not scanned.)"""
    root = default_lint_root()
    offenders = []
    for path in iter_python_files([root]):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel == "engine/executors.py":
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name is not None and _creates_processes(name):
                offenders.append(f"{rel}:{getattr(node, 'lineno', '?')}")
    assert offenders == []


# ----------------------------------------------------------------------
# Inline == sharded sweeps
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
    serial = sweep(graphs, kernels, k=32, workers=1)
    get_estimate_cache().clear()  # sharded run must not ride on memo hits
    parallel = sweep(graphs, kernels, k=32, workers=2)
    assert [
        (r.graph, r.kernel, r.time_s, r.preprocessing_s, r.gflops)
        for r in serial.runs
    ] == [
        (r.graph, r.kernel, r.time_s, r.preprocessing_s, r.gflops)
        for r in parallel.runs
    ]


def test_sweep_respects_repro_jobs_env(monkeypatch):
    from repro.obs import METRICS

    graphs = _toy_graphs()
    serial = sweep_spmm(graphs, ("hp-spmm",), k=32)
    monkeypatch.setenv("REPRO_JOBS", "2")
    get_estimate_cache().clear()
    runs_before = METRICS.get("engine.shard_runs")
    parallel = sweep_spmm(graphs, ("hp-spmm",), k=32)
    assert METRICS.get("engine.shard_runs") == runs_before + 1
    assert [r.time_s for r in serial.runs] == [r.time_s for r in parallel.runs]


def test_fig12_parallel_matches_serial(monkeypatch):
    from repro.bench.fig12 import run_fig12
    from repro.obs import METRICS

    kwargs = dict(num_graphs=3, num_nodes=1500)
    serial = run_fig12(**kwargs)
    monkeypatch.setenv("REPRO_JOBS", "2")
    get_estimate_cache().clear()
    runs_before = METRICS.get("engine.shard_runs")
    parallel = run_fig12(**kwargs)
    assert METRICS.get("engine.shard_runs") > runs_before
    assert serial == parallel  # every series compared as exact floats
    assert serial.render() == parallel.render()


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

    from repro.obs.manifest import cpu_model

    assert report["meta"]["numpy"] == numpy.__version__
    assert report["meta"]["scipy"] == scipy.__version__
    assert report["meta"]["cpu_model"] == cpu_model()
    assert set(report["estimate_cache"]) >= {"hits", "misses", "hit_rate"}
    # One row per executor kind.
    rows = {k for k, v in report["dispatch"].items() if "per_request_us" in v}
    assert rows == {"inline", "sharded_store"}


# ----------------------------------------------------------------------
# Worker-span splicing
# ----------------------------------------------------------------------

def _span_worker(x):
    from repro.obs import trace_span

    with trace_span("worker-span", cat="test", item=x):
        return x + 1


def test_sharded_map_splices_worker_spans_onto_parent_trace():
    from repro.obs import Tracer, set_tracer

    tracer = Tracer()
    set_tracer(tracer)
    try:
        with ShardedExecutor(2) as executor:
            out = executor.map(_span_worker, [1, 2, 3, 4])
    finally:
        set_tracer(None)
    assert out == [2, 3, 4, 5]
    worker_spans = [s for s in tracer.spans if s.name == "worker-span"]
    assert len(worker_spans) == 4  # no span died with its worker
    assert sorted(s.args["item"] for s in worker_spans) == [1, 2, 3, 4]
    # Spans crossed the process boundary and carry their worker's pid.
    assert all(s.args["shard_worker"] != os.getpid() for s in worker_spans)
    parent = [s for s in tracer.spans if s.name == "sharded_map"][0]
    for s in worker_spans:
        assert s.ts_us >= parent.ts_us  # shared t0: same timeline
