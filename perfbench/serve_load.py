"""Open-loop load generator and output oracle for the ``serve`` workload.

Request stream
--------------
Signatures are every (graph, kernel, K, device) over the 19 registry
graphs at 60k edges, 10 kernels (7 SpMM + 3 SDDMM), K in {8, 16, ..., 512}
and both devices: 24,320 keys, about six times the estimate cache's
4096-entry LRU, so misses continue in every step.  Each step draws its
keys Zipf(s=1.0) over a rank order shuffled from the step's own seed and
its arrivals from a Poisson process at the step's rate; every step (and
the warm-up) derives its seed from the workload seed, so no step replays
another's keys.

Timing
------
Each request is timed from the moment it was *due* (its scheduled send
time), not from when the sender got round to it, so a stalled sender or
server is charged to the requests it delayed.  How late the sender ran
is recorded separately (``bench.generator_lag_p99_ms``): a late sender
measures the generator, not the program.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time

from common import SERVE_MAX_EDGES, percentile

#: Rate ladder (requests per second), in the order the steps run.
RATES = (100, 300, 800)
WARMUP_RATE = 100
WARMUP_SECONDS = 5.0
#: Every step sends at least this many requests, so p99 has at least
#: ten samples beyond it.
MIN_STEP_REQUESTS = 1000
DEADLINE_S = 0.25
GOODPUT_TARGET = 0.99
SPMM_KERNELS = (
    "hp-spmm", "cusparse-csr-alg2", "cusparse-csr-alg3", "cusparse-coo-alg4",
    "ge-spmm", "row-split", "sputnik",
)
SDDMM_KERNELS = ("hp-sddmm", "dgl-sddmm", "cusparse-csr-sddmm")
KS = tuple(range(8, 513, 8))
DEVICES = ("v100", "a30")
#: Oracle sample per step and status.
ORACLE_SAMPLE = 16


def derive_seed(seed, label: str) -> int:
    """A 64-bit seed for one stream, fixed by (seed, label)."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def signatures(graphs) -> list[tuple[str, str, str, int, str]]:
    """Every (op, kernel, graph, K, device) key, in a fixed order."""
    kernels = [("spmm", k) for k in SPMM_KERNELS] + [
        ("sddmm", k) for k in SDDMM_KERNELS
    ]
    return [
        (op, kernel, graph, k, device)
        for graph in graphs
        for op, kernel in kernels
        for k in KS
        for device in DEVICES
    ]


def step_requests(rate: float, seconds: float) -> int:
    """Requests in one step: a third of the run length, at least 1000."""
    return max(MIN_STEP_REQUESTS, int(round(rate * seconds / len(RATES))))


def make_stream(
    seed: int, label: str, rate: float, count: int, num_keys: int
) -> list[tuple[float, int]]:
    """``count`` (due offset in s, key index) pairs for the step ``label``.

    Keys are drawn Zipf(s=1.0) over ``num_keys`` keys in a popularity
    order shuffled from (workload seed, step), so every step has its own
    hot set; arrivals are Poisson at ``rate``.
    """
    rng = random.Random(derive_seed(seed, label))
    order = list(range(num_keys))
    rng.shuffle(order)
    cum, total = [], 0.0
    for rank in range(num_keys):
        total += 1.0 / (rank + 1)
        cum.append(total)
    stream, t = [], 0.0
    for _ in range(count):
        rank = min(bisect.bisect_left(cum, rng.random() * total), num_keys - 1)
        stream.append((t, order[rank]))
        t += rng.expovariate(rate)
    return stream


def send_step(client, stream, keys) -> tuple[list, list[float]]:
    """Send ``stream`` open loop; returns ([(due, ticket)], lags in s)."""
    from repro.serve.request import EstimateRequest

    requests = [
        EstimateRequest(
            op=op, kernel=kernel, graph=graph, k=k, device=device,
            deadline_s=DEADLINE_S, allow_degraded=True,
            max_edges=SERVE_MAX_EDGES,
        )
        for op, kernel, graph, k, device in (keys[i] for _, i in stream)
    ]
    start = time.monotonic() + 0.02
    sent, lags = [], []
    for (offset, _), request in zip(stream, requests):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        ticket = client.submit(request)
        sent.append((due, ticket))
        lags.append(ticket.submit_mono - due)
    return sent, lags


def collect(sent, timeout_s: float) -> list[dict]:
    """Wait for every answer; one outcome dict per request."""
    outcomes = []
    for due, ticket in sent:
        try:
            response = ticket.result(timeout_s)
        except Exception as exc:  # noqa: BLE001 - a lost answer is a failure
            outcomes.append({"due": due, "response": None, "error": repr(exc)})
            continue
        arrival = ticket.submit_mono + ticket.latency_s
        outcomes.append({
            "due": due, "arrival": arrival, "latency_s": arrival - due,
            "response": response,
        })
    return outcomes


def step_metrics(rate: int, outcomes: list[dict], lags: list[float],
                 before: dict, after: dict) -> dict:
    """User-facing and serve-layer numbers of one step."""
    n = len(outcomes)
    answered = [o for o in outcomes if o["response"] is not None]
    latencies = [o["latency_s"] for o in answered]
    statuses = [o["response"].status for o in answered]
    ok_in_time = sum(
        1 for o in answered
        if o["response"].status == "ok" and o["latency_s"] <= DEADLINE_S
    )
    queued = [o["response"] for o in answered
              if o["response"].status in ("ok", "degraded")]
    batches = {r.batch_id: r.batch_size for r in queued if r.batch_id >= 0}
    last_due = max(o["due"] for o in outcomes)
    last_arrival = max((o["arrival"] for o in answered), default=last_due)
    first_due = min(o["due"] for o in outcomes)
    delta = {k: after["stats"][k] - before["stats"].get(k, 0)
             for k in after["stats"]}
    return {
        "rate": rate,
        "requests": n,
        "window_ns": (int(first_due * 1e9), int(last_arrival * 1e9) + 1),
        "makespan_s": last_arrival - first_due,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "goodput_ratio": ok_in_time / n,
        "full_ratio": statuses.count("ok") / n,
        "drained": len(answered) == n and last_arrival - last_due <= DEADLINE_S,
        "generator_lag_p99_ms": percentile(lags, 99) * 1e3,
        "queue_wait_p50_ms": percentile([r.queue_wait_s for r in queued], 50) * 1e3,
        "queue_wait_p99_ms": percentile([r.queue_wait_s for r in queued], 99) * 1e3,
        "batches": len(batches),
        "batch_size_mean": (sum(batches.values()) / len(batches)) if batches else 0.0,
        "coalesced": delta.get("coalesced", 0),
        "deduped": delta.get("deduped", 0),
        "degraded": delta.get("degraded", 0),
        "shed": delta.get("shed", 0),
        "errors": statuses.count("error") + (n - len(answered)),
    }


def max_rate(steps: list[dict]) -> float:
    """Highest ladder rate meeting the goodput target with a drained queue."""
    good = [s["rate"] for s in steps
            if s["goodput_ratio"] >= GOODPUT_TARGET and s["drained"]]
    return float(max(good)) if good else 0.0


def oracle_failures(outcomes: list[dict], seed: int) -> list[str]:
    """Re-evaluate a seeded sample of answers in this process.

    ``ok`` answers must equal an inline :class:`repro.engine.Engine`
    estimate and ``degraded`` answers must equal
    :func:`repro.serve.quick_estimate`, field for field.  Returns one
    message per mismatching answer.
    """
    from repro.engine import Engine
    from repro.engine import EstimateRequest as EngineRequest
    from repro.gpusim import get_device
    from repro.graphs import load_graph
    from repro.serve import quick_estimate

    rng = random.Random(seed)
    engine = Engine()
    failures = []
    for status in ("ok", "degraded"):
        pool = [o["response"] for o in outcomes
                if o["response"] is not None and o["response"].status == status]
        for resp in rng.sample(pool, min(ORACLE_SAMPLE, len(pool))):
            req = resp.request
            if status == "ok":
                res = engine.estimate(EngineRequest(
                    op=req.op, kernel=req.kernel, graph=req.graph, k=req.k,
                    device=req.device, max_edges=req.max_edges,
                ))
                want = (res.time_s, res.preprocessing_s, res.bound)
            else:
                S = load_graph(req.graph, max_edges=req.max_edges).matrix
                time_s, bound = quick_estimate(
                    req.op, S, req.k, get_device(req.device)
                )
                want = (time_s, 0.0, bound)
            got = (resp.time_s, resp.preprocessing_s, resp.bound)
            if got != want:
                failures.append(f"{status} answer for {req}: {got} != {want}")
    return failures
