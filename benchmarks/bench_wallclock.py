"""Wall-clock benchmark harness for the experiment pipelines.

Times the heavy report pipelines (fig9, fig12, table3 by default) and
writes a machine-readable ``BENCH_harness.json`` so the performance
trajectory of the harness itself is measurable across PRs::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --pipelines fig9,table3 --max-edges 60000 --output /tmp/bench.json

Each pipeline entry records wall-clock seconds plus the estimate-cache
counters observed across the run (table3 re-runs the fig9/fig10 kernel ×
graph combinations, so its cache hit count shows the memo layer doing
its job).  Results are deterministic; the timings are the only
machine-dependent values in the file, and the ``meta`` block records
what they were measured on: Python, NumPy and SciPy versions, CPU model
and CPU count.

A ``frontier`` section (skippable with ``--no-frontier``) times the
full-field SpMM sweep against the model-predicted frontier (the
``repro.select`` policy narrowing each graph to its top-k candidate
kernels), so the wall-clock reduction the selection layer buys is a
committed, diffable number.

A ``dispatch`` section (skippable with ``--no-dispatch``) additionally
records batched engine-dispatch throughput — requests/sec through the
inline, pool, and sharded executors, with the sharded path measured
both over the legacy pickle transport (``REPRO_NO_SHARED_STORE=1``) and
over ``repro.store`` fingerprint handles, so the zero-copy store's
per-request win is a committed, diffable number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DEFAULT_PIPELINES = ("fig9", "fig12", "table3")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_meta(**extra) -> dict:
    """Provenance of the timings: interpreter, NumPy/SciPy, CPU."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        **extra,
    }


def run_pipelines(
    pipelines: tuple[str, ...],
    *,
    max_edges: int | None = None,
    subgraphs: int | None = None,
    fig12_nodes: int | None = None,
) -> dict:
    """Run each pipeline once; returns the report payload."""
    from repro.bench import EXPERIMENTS
    from repro.obs import METRICS, snapshot
    from repro.perf import estimate_cache_stats, get_estimate_cache

    get_estimate_cache().clear()
    METRICS.reset()
    report: dict = {"pipelines": {}}
    for name in pipelines:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown pipeline {name!r}; choose from {sorted(EXPERIMENTS)}"
            )
        kwargs = {}
        if max_edges is not None and name != "fig12":
            kwargs["max_edges"] = max_edges
        if subgraphs is not None and name in ("fig10", "table3"):
            kwargs["num_subgraphs"] = subgraphs
        if fig12_nodes is not None and name == "fig12":
            kwargs["num_nodes"] = fig12_nodes
        before = estimate_cache_stats()
        t0 = time.perf_counter()
        EXPERIMENTS[name](**kwargs)
        elapsed = time.perf_counter() - t0
        after = estimate_cache_stats()
        report["pipelines"][name] = {
            "seconds": round(elapsed, 4),
            "estimate_cache_hits": after.hits - before.hits,
            "estimate_cache_misses": after.misses - before.misses,
        }
    cs = estimate_cache_stats()
    report["estimate_cache"] = {
        "hits": cs.hits,
        "misses": cs.misses,
        "hit_rate": round(cs.hit_rate, 4),
        "entries": cs.entries,
        "stored_bytes": cs.stored_bytes,
    }
    report["meta"] = host_meta(
        repro_jobs=os.environ.get("REPRO_JOBS", "1"),
        max_edges=max_edges,
        subgraphs=subgraphs,
        fig12_nodes=fig12_nodes,
    )
    # Unified observability snapshot (plan-check totals, pool fan-out
    # accounting, ...).  Informational in `repro.obs diff` — only the
    # timing keys above are regression-gated.
    report["metrics"] = snapshot()
    return report


def run_frontier_bench(*, max_edges: int | None = None) -> dict:
    """Full-field sweep vs model-predicted frontier, wall clock.

    Both arms start from a cold estimate cache so the predicted arm's
    advantage is genuinely fewer (graph, kernel) configs swept, not memo
    hits left behind by the full arm.  ``repro.obs diff`` gates each
    arm's ``elapsed_s``; ``speedup`` and ``config_reduction`` are
    workload structure and stay informational.
    """
    from repro.bench import run_frontier
    from repro.perf import get_estimate_cache
    from repro.select import default_topk

    top_k = default_topk()
    section: dict = {"top_k": top_k}
    for label, arm_top_k in (("full", None), ("predicted", top_k)):
        get_estimate_cache().clear()
        t0 = time.perf_counter()
        result = run_frontier(max_edges=max_edges, top_k=arm_top_k)
        elapsed = time.perf_counter() - t0
        section[label] = {
            "elapsed_s": round(elapsed, 4),
            "swept_configs": sum(
                len(kernels) for kernels in result.frontier.values()
            ),
            "graphs": len(result.graphs),
        }
    full, pred = section["full"], section["predicted"]
    section["config_reduction"] = round(
        1.0 - pred["swept_configs"] / full["swept_configs"], 3
    )
    section["speedup"] = round(
        full["elapsed_s"] / pred["elapsed_s"], 2
    ) if pred["elapsed_s"] else None
    return section


#: Batched-dispatch workload: every (graph, kernel, k) combination below
#: becomes one request per batch; four graphs -> four work units per
#: batch, so pool/sharded executors genuinely fan out.
DISPATCH_GRAPHS = ("corafull", "aifb", "mutag", "bgs")
DISPATCH_KERNELS = ("hp-spmm", "ge-spmm", "row-split")
DISPATCH_KS = (32, 64)
DISPATCH_BATCHES = 8


def _dispatch_requests(max_edges: int | None) -> list:
    from repro.engine import EstimateRequest

    return [
        EstimateRequest(
            op="spmm", kernel=kernel, graph=graph, k=k, max_edges=max_edges
        )
        for graph in DISPATCH_GRAPHS
        for kernel in DISPATCH_KERNELS
        for k in DISPATCH_KS
    ]


def _time_dispatch(engine, requests, batches: int) -> dict:
    """Dispatch ``batches`` identical batches; per-request overhead stats.

    One untimed warmup batch first: it forks/spins up executor workers,
    publishes store segments, and warms worker-side estimate caches, so
    the timed window measures steady-state dispatch overhead — the
    serialization + queue tax the shared store exists to remove — rather
    than one-time setup.  ``repro.obs diff`` gates ``elapsed_s`` and
    ``per_request_us``; ``requests_per_s`` is the same number inverted
    and stays informational.
    """
    engine.estimate_batch(requests)  # warmup (untimed)
    t0 = time.perf_counter()
    for _ in range(batches):
        result = engine.estimate_batch(requests)
        assert all(r.ok for r in result)
    elapsed = time.perf_counter() - t0
    n = batches * len(requests)
    return {
        "requests": n,
        "batches": batches,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(n / elapsed, 1),
        "per_request_us": round(elapsed / n * 1e6, 1),
    }


def run_dispatch(
    *,
    max_edges: int | None = None,
    batches: int = DISPATCH_BATCHES,
) -> dict:
    """Batched engine-dispatch throughput: inline vs pool vs sharded.

    The sharded executor is measured twice — once shipping matrices over
    the worker queues (``REPRO_NO_SHARED_STORE=1``, the pre-store pickle
    path) and once shipping store fingerprints — so the report carries
    the store's per-request win as a single ratio.
    """
    from repro.engine import Engine, PoolExecutor, ShardedExecutor
    from repro.store import store_counters

    requests = _dispatch_requests(max_edges)
    report: dict = {
        "workload": {
            "graphs": list(DISPATCH_GRAPHS),
            "kernels": list(DISPATCH_KERNELS),
            "ks": list(DISPATCH_KS),
            "requests_per_batch": len(requests),
        }
    }

    report["inline"] = _time_dispatch(Engine(), requests, batches)
    report["pool"] = _time_dispatch(
        Engine(executor=PoolExecutor(jobs=2)), requests, batches
    )

    prior = os.environ.get("REPRO_NO_SHARED_STORE")
    os.environ["REPRO_NO_SHARED_STORE"] = "1"
    try:
        with ShardedExecutor(workers=2) as executor:
            report["sharded_pickle"] = _time_dispatch(
                Engine(executor=executor), requests, batches
            )
    finally:
        if prior is None:
            os.environ.pop("REPRO_NO_SHARED_STORE", None)
        else:
            os.environ["REPRO_NO_SHARED_STORE"] = prior

    before = store_counters()
    with ShardedExecutor(workers=2) as executor:
        report["sharded_store"] = _time_dispatch(
            Engine(executor=executor), requests, batches
        )
    after = store_counters()
    report["store_delta"] = {
        key: after[key] - before[key] for key in sorted(after)
    }
    report["sharded_store_speedup_vs_pickle"] = round(
        report["sharded_pickle"]["per_request_us"]
        / report["sharded_store"]["per_request_us"],
        3,
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pipelines",
        default=",".join(DEFAULT_PIPELINES),
        help="comma-separated experiment ids (default: fig9,fig12,table3)",
    )
    parser.add_argument(
        "--max-edges", type=int, default=None, help="edge cap for scaled graphs"
    )
    parser.add_argument(
        "--subgraphs", type=int, default=None, help="sampling-dataset size"
    )
    parser.add_argument(
        "--fig12-nodes", type=int, default=None, help="fig12 suite graph size"
    )
    parser.add_argument(
        "--no-frontier", action="store_true",
        help="skip the full-vs-predicted frontier section",
    )
    parser.add_argument(
        "--no-dispatch", action="store_true",
        help="skip the batched-dispatch throughput section",
    )
    parser.add_argument(
        "--dispatch-only", action="store_true",
        help="run only the batched-dispatch throughput section",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_harness.json"),
        help="report path (default: <repo>/BENCH_harness.json)",
    )
    args = parser.parse_args(argv)
    pipelines = tuple(p.strip() for p in args.pipelines.split(",") if p.strip())
    if args.dispatch_only:
        from repro.obs import snapshot

        report = {"meta": host_meta(max_edges=args.max_edges)}
    else:
        report = run_pipelines(
            pipelines,
            max_edges=args.max_edges,
            subgraphs=args.subgraphs,
            fig12_nodes=args.fig12_nodes,
        )
    if not args.dispatch_only and not args.no_frontier:
        report["frontier"] = run_frontier_bench(max_edges=args.max_edges)
    if not args.no_dispatch:
        from repro.obs import snapshot

        report["dispatch"] = run_dispatch(max_edges=args.max_edges)
        # Refresh the unified snapshot so the committed report's
        # ``store.*`` / ``engine.shard_*`` counters include the
        # dispatch section's activity.
        report["metrics"] = snapshot()
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, row in report.get("pipelines", {}).items():
        print(
            f"{name:>8}: {row['seconds']:8.2f}s  "
            f"(cache {row['estimate_cache_hits']} hits / "
            f"{row['estimate_cache_misses']} misses)"
        )
    if "frontier" in report:
        fr = report["frontier"]
        print(
            f"frontier: full {fr['full']['elapsed_s']:.2f}s "
            f"({fr['full']['swept_configs']} configs) vs predicted "
            f"{fr['predicted']['elapsed_s']:.2f}s "
            f"({fr['predicted']['swept_configs']} configs, "
            f"top-{fr['top_k']}) -> {fr['speedup']}x"
        )
    if "dispatch" in report:
        d = report["dispatch"]
        for variant in ("inline", "pool", "sharded_pickle", "sharded_store"):
            row = d[variant]
            print(
                f"{variant:>16}: {row['requests_per_s']:9.1f} req/s  "
                f"({row['per_request_us']:.1f} us/req)"
            )
        print(
            f"{'store speedup':>16}: "
            f"{d['sharded_store_speedup_vs_pickle']:.2f}x vs pickle path"
        )
    print(f"-> {args.output}")
    from repro.obs import export_trace, tracing_enabled

    if tracing_enabled():
        print(f"[trace -> {export_trace()}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
