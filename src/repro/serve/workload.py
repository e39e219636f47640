"""Synthetic replay workloads for exercising the estimation server.

A :class:`WorkloadSpec` describes a reproducible request stream over the
graph registry — which graphs, kernels, feature widths and devices to
draw from, how many requests, and how they arrive:

* ``replay`` — every request is submitted *before* the server starts,
  so the batcher drains them in deterministic full micro-batches.  This
  is the mode CI smokes: coalescing and dedup counters are exact
  functions of the spec.
* ``closed`` — ``clients`` threads each submit their share of the
  stream one request at a time, waiting for each answer before sending
  the next (closed-loop arrival; concurrency = client count).
* ``open`` — one thread submits the whole stream with seeded
  exponential inter-arrival gaps at ``arrival_rate_hz`` (open-loop
  arrival; queue depth floats with service time).

Every ``forced_deadline_every``-th request carries ``deadline_s=0.0``:
its budget is already exhausted when triaged, so it deterministically
exercises the degraded quick-model path regardless of machine speed.

:func:`run_workload` executes a spec against a fresh
:class:`~repro.serve.server.EstimationServer` and returns the report
dict (schema ``repro.serve.report/v1``) the serve CLI writes to
``results/serve_<name>.json``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import asdict, dataclass

from ..engine import Executor, check_bound
from ..obs import get_histogram
from .request import EstimateRequest, EstimateResponse, STATUSES
from .server import EstimationServer

SCHEMA = "repro.serve.report/v1"


@dataclass(frozen=True)
class WorkloadSpec:
    """One reproducible request stream against the estimation server."""

    name: str
    mode: str = "replay"            #: "replay" | "closed" | "open"
    graphs: tuple[str, ...] = ("aifb", "corafull")
    spmm_kernels: tuple[str, ...] = ("hp-spmm", "ge-spmm")
    sddmm_kernels: tuple[str, ...] = ("hp-sddmm",)
    ks: tuple[int, ...] = (32, 64)
    devices: tuple[str, ...] = ("v100",)
    num_requests: int = 48
    seed: int = 7
    max_edges: int = 20_000         #: registry edge cap for every request
    forced_deadline_every: int = 6  #: every Nth request gets deadline 0
    deadline_s: float | None = None  #: deadline for the other requests
    clients: int = 4                #: closed-loop client threads
    arrival_rate_hz: float = 200.0  #: open-loop mean arrival rate
    max_batch: int = 16
    batch_window_s: float = 0.02
    #: Caller-side ceiling on each ``result()`` wait.  A dead or wedged
    #: server fails the run with ``TimeoutError`` instead of hanging the
    #: driver (and CI) forever.
    result_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.mode not in ("replay", "closed", "open"):
            raise ValueError(f"unknown workload mode {self.mode!r}")
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.result_timeout_s <= 0:
            raise ValueError("result_timeout_s must be positive")


#: Named presets the serve CLI exposes (``--workload <name>``).
WORKLOADS: dict[str, WorkloadSpec] = {
    "smoke": WorkloadSpec(name="smoke"),
    "closed-loop": WorkloadSpec(
        name="closed-loop", mode="closed", num_requests=64, clients=4,
        batch_window_s=0.005,
    ),
    "open-loop": WorkloadSpec(
        name="open-loop", mode="open", num_requests=64,
        arrival_rate_hz=400.0, deadline_s=0.5,
    ),
    "mixed-graphs": WorkloadSpec(
        name="mixed-graphs",
        graphs=("aifb", "corafull", "coauthor-cs", "amazon-photo"),
        num_requests=96, forced_deadline_every=8,
    ),
    # Open-loop Poisson arrivals at 10x the smoke-workload rate with a
    # hard per-request deadline: the CI soak drives this through the
    # socket front end against a 2-shard server and asserts p99 stays
    # under deadline_s with zero worker crashes.
    "soak": WorkloadSpec(
        name="soak", mode="open", num_requests=400,
        arrival_rate_hz=2000.0, deadline_s=0.25,
        forced_deadline_every=0, batch_window_s=0.005,
    ),
}


def generate_requests(spec: WorkloadSpec) -> list[EstimateRequest]:
    """The spec's request stream — a pure function of the spec."""
    rng = random.Random(spec.seed)
    requests: list[EstimateRequest] = []
    for i in range(spec.num_requests):
        op = rng.choice(("spmm", "sddmm"))
        kernels = spec.spmm_kernels if op == "spmm" else spec.sddmm_kernels
        forced = (
            spec.forced_deadline_every > 0
            and (i + 1) % spec.forced_deadline_every == 0
        )
        requests.append(
            EstimateRequest(
                op=op,
                kernel=rng.choice(kernels),
                graph=rng.choice(spec.graphs),
                k=rng.choice(spec.ks),
                device=rng.choice(spec.devices),
                deadline_s=0.0 if forced else spec.deadline_s,
                max_edges=spec.max_edges,
            )
        )
    return requests


def _drive_replay(server, requests, timeout_s: float) -> list:
    tickets = server.submit_many(requests)  # queued before the worker runs
    server.start()
    return [t.result(timeout_s) for t in tickets]


def _drive_closed(server, requests, clients: int, timeout_s: float) -> list:
    server.start()
    shares = [requests[c::clients] for c in range(clients)]
    results: list[list] = [[] for _ in range(clients)]

    def client(c: int) -> None:
        for req in shares[c]:
            results[c].append(server.estimate(req, timeout=timeout_s))

    threads = [
        threading.Thread(target=client, args=(c,), name=f"client-{c}")
        for c in range(clients)
        if shares[c]
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Reassemble stream order (client c owned indices c, c+clients, ...).
    out: list = [None] * len(requests)
    for c, share in enumerate(results):
        out[c::clients] = share
    return out


def _drive_open(
    server, requests, rate_hz: float, seed: int, timeout_s: float
) -> list:
    server.start()
    rng = random.Random(seed + 1)
    tickets = []
    for i, req in enumerate(requests):
        tickets.append(server.submit(req))
        # No gap after the last submit: a trailing sleep would inflate
        # the open-loop makespan (and deflate throughput) by one full
        # inter-arrival time that no request ever occupies.
        if i + 1 < len(requests):
            time.sleep(rng.expovariate(rate_hz))
    return [t.result(timeout_s) for t in tickets]


def run_workload(
    spec: WorkloadSpec, *, executor: Executor | None = None
) -> dict:
    """Run one workload on a fresh server; returns the report dict.

    ``executor`` overrides the server's engine execution strategy
    (inline by default) — e.g. a started
    :class:`~repro.engine.ShardedExecutor` for multi-worker serving.  Estimates are deterministic, so the report's
    answers are identical for every executor; only latencies move.
    """
    requests = generate_requests(spec)
    server = EstimationServer(
        max_batch=spec.max_batch, batch_window_s=spec.batch_window_s,
        executor=executor,
    )
    hist = get_histogram("serve.request_latency")
    count_before = hist.count
    try:
        if spec.mode == "replay":
            responses = _drive_replay(server, requests, spec.result_timeout_s)
        elif spec.mode == "closed":
            responses = _drive_closed(
                server, requests, spec.clients, spec.result_timeout_s
            )
        else:
            responses = _drive_open(
                server, requests, spec.arrival_rate_hz, spec.seed,
                spec.result_timeout_s,
            )
    finally:
        server.stop()
    return build_report(spec, server, responses, count_before)


def build_report(
    spec: WorkloadSpec,
    server: EstimationServer | None,
    responses: list[EstimateResponse],
    hist_count_before: int = 0,
    *,
    stats: dict | None = None,
    latency: dict | None = None,
) -> dict:
    """Assemble the ``repro.serve.report/v1`` payload.

    The in-process path reads ``server.stats()`` and this process's
    latency histogram; remote clients (:mod:`repro.serve.net`) pass the
    server's ``stats``/``latency`` fetched over the wire instead.
    """
    if stats is None:
        assert server is not None
        stats = server.stats()
    if latency is None:
        hist = get_histogram("serve.request_latency")
        latency = hist.summary()
        latency["count"] -= hist_count_before  # this run's share
    by_status = {s: stats.get(s, 0) for s in STATUSES}
    # Report-schema assertion: every answered bound must come from the
    # engine's canonical vocabulary (belt to EstimateResponse's braces).
    for r in responses:
        if r.bound is not None:
            check_bound(r.bound)
    answers = [
        {
            "op": r.request.op,
            "kernel": r.request.kernel,
            "graph": r.request.graph,
            "k": r.request.k,
            "device": r.request.device,
            "status": r.status,
            "time_s": r.time_s,
            "preprocessing_s": r.preprocessing_s,
            "bound": r.bound,
            "batch_id": r.batch_id,
            "batch_size": r.batch_size,
            "error": r.error,
        }
        for r in responses
    ]
    return {
        "schema": SCHEMA,
        "workload": asdict(spec),
        "summary": {
            "requests": len(responses),
            "by_status": by_status,
            "batches": stats["batches"],
            "coalesced": stats["coalesced"],
            "deduped": stats["deduped"],
            "queue_depth_max": stats["queue_depth_max"],
            "batch_size_max": stats["batch_size_max"],
            "worker_crashes": stats.get("worker_crashes", 0),
        },
        "latency_s": latency,
        "responses": answers,
    }
