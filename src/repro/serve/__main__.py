"""CLI: replay a synthetic workload through the estimation server.

Usage::

    python -m repro.serve --workload smoke
    python -m repro.serve --workload open-loop --requests 128
    python -m repro.serve --list

    # socket serving tier: a server process...
    python -m repro.serve --serve --port 7431 --workers 2 --warm soak
    # ...and a remote client driving a workload against it
    python -m repro.serve --workload soak --connect 127.0.0.1:7431

Writes ``results/serve_<workload>.json`` (override the directory with
``REPRO_RESULTS_DIR``) plus a ``serve_<workload>.manifest.json`` run
manifest whose metrics snapshot carries the serving counters and the
``serve.request_latency`` p50/p95/p99.  ``REPRO_TRACE=<path>`` records
per-request and per-batch spans alongside the usual estimate spans.

``--serve`` runs the socket front end (:mod:`repro.serve.net`) until
interrupted; with ``--workers N`` batches run on N persistent shard
workers with a :class:`~repro.serve.router.ShardRouter` pinning each
graph to the worker owning its structural fingerprint.  ``--warm
<workload>`` pre-evaluates that workload's unique signatures through
the engine before accepting connections (and adopts the spec's batch
parameters), so an open-loop soak measures steady-state latency rather
than cold caches.  ``--connect HOST:PORT`` drives the named workload
remotely and writes the same report plus a ``client_latency_s``
end-to-end section.

Exit codes: 0 on success, 2 on configuration errors (unknown workload
or invalid overrides) — matching the ``repro.obs diff`` convention.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading

from ..bench.runner import results_dir
from ..obs import export_trace, tracing_enabled, write_manifest
from .workload import WORKLOADS, generate_requests, run_workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run a synthetic workload against the estimation server.",
    )
    parser.add_argument(
        "--workload", default="smoke",
        help=f"workload preset ({', '.join(WORKLOADS)})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list workload presets and exit"
    )
    parser.add_argument(
        "--requests", type=int, default=None, help="override request count"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the stream seed"
    )
    parser.add_argument(
        "--max-edges", type=int, default=None,
        help="override the registry edge cap",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for batch fan-out (sets REPRO_JOBS)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "serve batches through N persistent sharded worker servers "
            "(repro.engine.ShardedExecutor) instead of per-batch pools; "
            "with --serve, a ShardRouter pins each graph to the worker "
            "owning its structural fingerprint"
        ),
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="run the socket front end until interrupted (no workload)",
    )
    parser.add_argument(
        "--host", default=None,
        help="bind/connect address (default REPRO_SERVE_HOST)",
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help="bind port, 0 = ephemeral (default REPRO_SERVE_PORT)",
    )
    parser.add_argument(
        "--queue-high", type=int, default=None,
        help="load-shed watermark (default REPRO_SERVE_QUEUE_HIGH)",
    )
    parser.add_argument(
        "--warm", default=None, metavar="WORKLOAD",
        help=(
            "with --serve: pre-evaluate this workload's unique request "
            "signatures (and adopt its batch parameters) before "
            "accepting connections"
        ),
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive the workload against a remote front end",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, spec in WORKLOADS.items():
            print(
                f"{name}: mode={spec.mode} requests={spec.num_requests} "
                f"graphs={','.join(spec.graphs)}"
            )
        return 0
    if args.workers is not None and args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.serve:
        if args.jobs is not None:
            os.environ["REPRO_JOBS"] = str(args.jobs)
        return _serve_mode(args)
    if args.connect is not None and args.workers is not None:
        print(
            "error: --workers configures a local server; it cannot be "
            "combined with --connect (start the remote side with "
            "--serve --workers N instead)",
            file=sys.stderr,
        )
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)

    spec = WORKLOADS[args.workload]
    overrides = {}
    if args.requests is not None:
        overrides["num_requests"] = args.requests
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_edges is not None:
        overrides["max_edges"] = args.max_edges
    if overrides:
        try:
            spec = dataclasses.replace(spec, **overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.connect is not None:
        from .net import run_workload_remote

        try:
            host, port_text = args.connect.rsplit(":", 1)
            port = int(port_text)
        except ValueError:
            print(
                f"error: --connect expects HOST:PORT, got {args.connect!r}",
                file=sys.stderr,
            )
            return 2
        try:
            report = run_workload_remote(spec, host, port)
        except OSError as exc:
            print(
                f"error: cannot reach {args.connect}: {exc}", file=sys.stderr
            )
            return 2
    elif args.workers is not None:
        from ..engine import ShardedExecutor

        with ShardedExecutor(workers=args.workers) as executor:
            report = run_workload(spec, executor=executor)
            print(
                f"[sharded: {executor.worker_count} worker servers, "
                f"dispatch={sorted(executor.dispatch_counts.values())}]",
                file=sys.stderr,
            )
    else:
        report = run_workload(spec)

    from ..store import store_counters, store_enabled

    if store_enabled():
        sc = store_counters()
        print(
            f"[store: {sc['segments']} segments, "
            f"{sc['bytes_shared']} bytes shared, "
            f"attaches={sc['attaches']}+{sc['attach_hits']} cached, "
            f"fallbacks={sc['fallbacks']}]",
            file=sys.stderr,
        )

    experiment = f"serve_{spec.name}"
    base = results_dir()
    path = os.path.join(base, f"{experiment}.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    write_manifest(experiment, base, dataclasses.asdict(spec))

    summary = report["summary"]
    latency = report["latency_s"]
    print(
        f"[serve {spec.name}: {summary['requests']} requests in "
        f"{summary['batches']} batches | "
        f"ok={summary['by_status']['ok']} "
        f"degraded={summary['by_status']['degraded']} "
        f"timeout={summary['by_status']['timeout']} "
        f"error={summary['by_status']['error']} | "
        f"coalesced={summary['coalesced']} deduped={summary['deduped']} | "
        f"p50={latency['p50'] * 1e3:.2f}ms p95={latency['p95'] * 1e3:.2f}ms "
        f"p99={latency['p99'] * 1e3:.2f}ms -> {path}]",
        file=sys.stderr,
    )
    client_latency = report.get("client_latency_s")
    if client_latency is not None:
        print(
            f"[client end-to-end: "
            f"p50={client_latency['p50'] * 1e3:.2f}ms "
            f"p95={client_latency['p95'] * 1e3:.2f}ms "
            f"p99={client_latency['p99'] * 1e3:.2f}ms "
            f"max={client_latency['max'] * 1e3:.2f}ms]",
            file=sys.stderr,
        )
    if tracing_enabled():
        trace_path = export_trace()
        print(f"[trace -> {trace_path}]", file=sys.stderr)
    return 0


def _serve_mode(args) -> int:
    """Run the socket front end until SIGINT/SIGTERM."""
    from .net import SocketFrontEnd
    from .server import EstimationServer

    warm_spec = None
    if args.warm is not None:
        if args.warm not in WORKLOADS:
            print(
                f"error: unknown --warm workload {args.warm!r}; "
                f"choose from {', '.join(WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        warm_spec = WORKLOADS[args.warm]

    executor = None
    router = None
    if args.workers is not None:
        from ..engine import ShardedExecutor
        from .router import ShardRouter

        router = ShardRouter(args.workers)
        executor = ShardedExecutor(
            workers=args.workers, affinity=router.shard_of_unit
        )
        # Fork the shard workers before any serving thread exists —
        # forking a process that already runs threads is the classic
        # deadlock the procsafety thread-before-fork rule polices.
        executor.start()

    server_kwargs: dict = {}
    if warm_spec is not None:
        # The server's batching parameters come from the workload it is
        # being warmed for, so a remote soak measures the same batcher
        # configuration the in-process run of that spec would use.
        server_kwargs = dict(
            max_batch=warm_spec.max_batch,
            batch_window_s=warm_spec.batch_window_s,
        )
    server = EstimationServer(executor=executor, **server_kwargs)
    front = SocketFrontEnd(
        server, args.host, args.port, queue_high=args.queue_high
    )
    # Handlers go in before warmup and before the readiness line: a
    # SIGTERM sent the moment a client sees that line must still run the
    # finally-block (front/server/executor stop, store cleanup at exit).
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    try:
        if warm_spec is not None:
            n_warm = server.warm(generate_requests(warm_spec))
            print(
                f"[warm: {n_warm} unique signatures from "
                f"{warm_spec.name!r}]",
                file=sys.stderr,
            )
        front.start()
        host, port = front.address
        line = {
            "serving": {
                "host": host, "port": port,
                "workers": args.workers or 0,
                "queue_high": front.queue_high,
            }
        }
        print(json.dumps(line), flush=True)
        if router is not None:
            print(
                f"[shard router: {router.shards} shards, "
                f"{len(router.table())} placements after warmup]",
                file=sys.stderr,
            )
        stop.wait()
        print("[serve: shutting down]", file=sys.stderr)
    finally:
        front.stop()
        server.stop()
        if executor is not None:
            executor.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
