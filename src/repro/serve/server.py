"""The estimation server: queue -> micro-batcher -> estimator.

:class:`EstimationServer` accepts :class:`~repro.serve.request
.EstimateRequest` submissions on a thread-safe queue and answers them
from a single batching worker thread:

1. **Collect.**  The worker drains up to ``max_batch`` requests, waiting
   at most ``batch_window_s`` after the first one so lone requests are
   not delayed indefinitely.  Requests submitted *before* :meth:`start`
   simply queue up — the replay workloads use this to form deterministic
   full batches.
2. **Group.**  The batch is grouped by :attr:`EstimateRequest.batch_key`
   (graph name + edge cap): each group loads its matrix once, and every
   request in it shares the same structural fingerprint, so their
   estimate-cache keys differ only in (kernel, K, device).  Requests
   beyond the first in a group count as *coalesced*.
3. **Triage.**  Each request's remaining deadline budget is compared
   against the predicted full-path cost times ``deadline_margin``.  The
   prediction is the engine's *per-graph cost prior*
   (:func:`repro.engine.cost_priors` — a running mean of what this
   graph's evaluations actually cost, estimate-cache hits included);
   graphs with no history yet fall back to the cold-start EWMA.  A
   request that cannot make it degrades to the quick roofline model
   (status ``degraded``) when permitted, else answers ``timeout``.
4. **Evaluate.**  Full-path requests are deduplicated by
   :attr:`EstimateRequest.signature` (duplicates count as *deduped*) and
   the unique signatures become one :mod:`repro.engine` batch executed
   by the server's :class:`~repro.engine.Executor` — inline by default,
   or the sharded persistent workers (``--workers``).  Degraded requests are answered
   inline by :func:`repro.serve.estimator.quick_estimate`.

Observability: every response's latency lands in the
``serve.request_latency`` histogram (and batch queue-waits in
``serve.queue_wait``), ``serve.*`` counters in :data:`repro.obs.METRICS`
track requests/batches/coalescing/degradation, and with ``REPRO_TRACE``
on each batch is a ``serve.batch`` host span with one ``serve.request``
span per answered request spanning submit -> response.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..engine import (
    Engine,
    EngineConfig,
    EstimateRequest as EngineRequest,
    Executor,
    InlineExecutor,
    cost_priors,
)
from ..gpusim import get_device
from ..graphs import load_graph
from ..obs import METRICS, get_tracer, observe_latency
from ..obs.tracer import HOST_TRACK
from ..perf.fingerprint import structural_features
from ..select.policy import active_policy
from .estimator import quick_estimate
from .request import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    EstimateRequest,
    EstimateResponse,
)


class _Pending:
    """One in-flight request: the ticket :meth:`EstimationServer.submit`
    returns, resolved by the batching worker."""

    __slots__ = (
        "request", "submit_mono", "collect_mono", "trace_ts_us",
        "event", "response", "_callbacks", "_cb_lock",
    )

    def __init__(
        self, request: EstimateRequest, submit_mono: float, trace_ts_us: float
    ) -> None:
        self.request = request
        self.submit_mono = submit_mono
        self.collect_mono = submit_mono  # updated when the batch forms
        self.trace_ts_us = trace_ts_us
        self.event = threading.Event()
        self.response: EstimateResponse | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def result(self, timeout: float | None = None) -> EstimateResponse:
        """Block until the server answers; raises ``TimeoutError`` if the
        caller-side wait (not the request's deadline) expires first."""
        if not self.event.wait(timeout):
            raise TimeoutError(
                f"no response within {timeout}s for {self.request}"
            )
        assert self.response is not None
        return self.response

    def on_done(self, fn) -> None:
        """Register ``fn(pending)`` to run once the server answers.

        Runs immediately when the ticket is already resolved.  Callbacks
        fire on the batching worker thread, one micro-batch at a time —
        the socket front end uses them to stream responses out as each
        batch resolves; keep them non-blocking (enqueue, don't send).
        """
        with self._cb_lock:
            if self.response is None:
                self._callbacks.append(fn)
                return
        fn(self)

    def _finish(self, response: EstimateResponse) -> list:
        """Install the answer; returns the callbacks to fire (once)."""
        with self._cb_lock:
            self.response = response
            callbacks, self._callbacks = self._callbacks, []
        self.event.set()
        return callbacks

    @property
    def done(self) -> bool:
        return self.event.is_set()


class EstimationServer:
    """Micro-batching front end over the kernel cost models.

    Parameters
    ----------
    max_batch:
        Largest micro-batch the worker will assemble.
    batch_window_s:
        How long the worker holds an under-full batch open after its
        first request before processing anyway.
    deadline_margin:
        Safety factor on the predicted full-path cost used for deadline
        triage; larger values degrade earlier.
    initial_full_cost_s:
        Seed for the cold-start EWMA, used only for graphs the engine
        has no cost prior for yet.
    executor:
        Engine execution strategy for full-path batches.  Default:
        :class:`~repro.engine.InlineExecutor`.  Pass a started
        :class:`~repro.engine.ShardedExecutor` for persistent
        multi-worker serving.
    """

    def __init__(
        self,
        *,
        max_batch: int = 16,
        batch_window_s: float = 0.01,
        deadline_margin: float = 2.0,
        initial_full_cost_s: float = 0.05,
        executor: Executor | None = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s
        self.deadline_margin = deadline_margin
        self._engine = Engine(
            EngineConfig(
                check_plans=False,
                capture_errors=True,
                span="serve.estimate",
                cat="serve",
                observe_priors=True,
            ),
            executor=executor if executor is not None else InlineExecutor(),
        )
        self._queue: deque[_Pending] = deque()
        self._cond = threading.Condition()
        self._worker: threading.Thread | None = None
        self._stopping = False
        #: Serializes start()/stop() transitions end to end.  Without it
        #: a stop() racing a start() could join a *new* worker that was
        #: never told to stop (hanging forever), or leave two workers
        #: alive; always acquired before _cond, never after.
        self._lifecycle = threading.Lock()
        self._ewma_full_s = float(initial_full_cost_s)
        #: (graph, max_edges) -> selection-policy cost scale (or None
        #: when the policy declines).  Computed once per graph by the
        #: batching worker; the lock only guards dict get/put (feature
        #: extraction happens outside it) and is never held together
        #: with any other lock.
        self._cost_scales: dict[tuple, float | None] = {}
        self._scale_lock = threading.Lock()
        self._batch_seq = 0
        self._stats_lock = threading.Lock()
        self._stats: dict[str, int] = {
            "requests": 0, "completed": 0,
            STATUS_OK: 0, STATUS_DEGRADED: 0,
            STATUS_TIMEOUT: 0, STATUS_SHED: 0, STATUS_ERROR: 0,
            "batches": 0, "coalesced": 0, "deduped": 0,
            "queue_depth_max": 0, "batch_size_max": 0,
            "worker_crashes": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "EstimationServer":
        """Spawn the batching worker (idempotent).

        ``_stopping`` is written under ``_cond``: a bare write raced
        concurrent ``stop()``/``submit()`` readers, which could observe
        the flag flip between their check and their wait/append.
        """
        with self._lifecycle:
            if self._worker is not None and self._worker.is_alive():
                return self
            with self._cond:
                self._stopping = False
            self._worker = threading.Thread(
                target=self._run, name="repro-serve", daemon=True
            )
            self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) queued requests are
        answered first, otherwise they resolve as errors."""
        dropped: list[_Pending] = []
        with self._lifecycle:
            with self._cond:
                self._stopping = True
                if not drain:
                    while self._queue:
                        dropped.append(self._queue.popleft())
                self._cond.notify_all()
            if self._worker is not None:
                self._worker.join()
                self._worker = None
        # Resolution takes _stats_lock and fires metrics/tracer hooks;
        # doing that while _cond (or the lifecycle lock) is held nests
        # locks invisibly, so the dropped requests are answered only
        # after both are released.
        for p in dropped:
            self._resolve(
                p, EstimateResponse(
                    request=p.request, status=STATUS_ERROR,
                    error="server stopped before processing",
                ),
            )

    def __enter__(self) -> "EstimationServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- warmup ---------------------------------------------------------
    def warm(self, requests) -> int:
        """Pre-evaluate the unique signatures in ``requests`` through the
        engine, bypassing the queue entirely.

        Populates the estimate cache (on this executor's workers, for
        sharded serving) and the per-graph cost priors without touching
        the ``serve.request_latency`` histogram or the serve counters —
        a warmed soak then measures steady-state latency instead of
        first-touch graph loads.  Returns the signature count evaluated.
        """
        seen: set = set()
        engine_requests = []
        for r in requests:
            if r.signature in seen:
                continue
            seen.add(r.signature)
            engine_requests.append(
                EngineRequest(
                    op=r.op, kernel=r.kernel, graph=r.graph, k=r.k,
                    device=r.device, max_edges=r.max_edges,
                )
            )
        if engine_requests:
            self._engine.estimate_batch(engine_requests)
        return len(engine_requests)

    # -- submission -----------------------------------------------------
    def submit(self, request: EstimateRequest) -> _Pending:
        """Enqueue one request; returns its ticket immediately.

        Legal before :meth:`start` — early submissions batch together
        once the worker comes up, which replay workloads rely on for
        deterministic coalescing.
        """
        tracer = get_tracer()
        pending = _Pending(
            request,
            submit_mono=time.monotonic(),  # lint: allow(wallclock) serving latency is a measured surface
            trace_ts_us=tracer.now_us() if tracer is not None else 0.0,
        )
        with self._cond:
            if self._stopping:
                raise RuntimeError("server is stopped")
            self._queue.append(pending)
            depth = len(self._queue)
            self._cond.notify()
        METRICS.inc("serve.requests")
        METRICS.record_max("serve.queue_depth_max", depth)
        with self._stats_lock:
            self._stats["requests"] += 1
            self._stats["queue_depth_max"] = max(
                self._stats["queue_depth_max"], depth
            )
        return pending

    def submit_many(self, requests) -> list[_Pending]:
        return [self.submit(r) for r in requests]

    def submit_atomic(self, requests) -> list[_Pending]:
        """Enqueue all ``requests`` under one queue acquisition.

        The worker cannot start collecting a batch until the whole group
        is appended, so a multi-request frame from the socket front end
        micro-batches exactly like the same list replayed in-process —
        the golden socket-vs-in-process report equality depends on this.
        """
        tracer = get_tracer()
        now = time.monotonic()  # lint: allow(wallclock) serving latency is a measured surface
        ts_us = tracer.now_us() if tracer is not None else 0.0
        pendings = [_Pending(r, submit_mono=now, trace_ts_us=ts_us)
                    for r in requests]
        with self._cond:
            if self._stopping:
                raise RuntimeError("server is stopped")
            self._queue.extend(pendings)
            depth = len(self._queue)
            self._cond.notify()
        n = len(pendings)
        METRICS.inc("serve.requests", n)
        METRICS.record_max("serve.queue_depth_max", depth)
        with self._stats_lock:
            self._stats["requests"] += n
            self._stats["queue_depth_max"] = max(
                self._stats["queue_depth_max"], depth
            )
        return pendings

    def estimate(
        self, request: EstimateRequest, timeout: float | None = None
    ) -> EstimateResponse:
        """Submit and block for the answer (closed-loop clients)."""
        return self.submit(request).result(timeout)

    # -- worker ---------------------------------------------------------
    def _run(self) -> None:
        """Batching loop with a crash guard.

        ``_process_batch`` catches per-group engine failures, but a
        failure *outside* that try (triage arithmetic, priors lookup,
        metrics/histogram hooks) used to kill this daemon thread
        silently — every queued and in-flight ``result()`` then blocked
        forever.  Any escaped exception now resolves all outstanding
        pendings as ``STATUS_ERROR`` so callers always get an answer.
        """
        batch: list[_Pending] | None = None
        try:
            while True:
                batch = self._collect_batch()
                if batch is None:
                    return
                self._process_batch(batch)
                batch = None
        except BaseException as exc:
            self._fail_after_crash(batch, exc)

    def _fail_after_crash(
        self, batch: list[_Pending] | None, exc: BaseException
    ) -> None:
        """Resolve every outstanding pending after a worker crash.

        Runs on the dying worker thread, so it must not take
        ``_lifecycle`` — a concurrent ``stop()`` holds that lock while
        joining this very thread.
        """
        METRICS.inc("serve.worker_crashes")
        with self._stats_lock:
            self._stats["worker_crashes"] += 1
        stranded: list[_Pending] = []
        with self._cond:
            # The worker is gone: refuse new submissions and wake any
            # stop() drain-waiters.
            self._stopping = True
            while self._queue:
                stranded.append(self._queue.popleft())
            self._cond.notify_all()
        detail = f"serve worker crashed: {type(exc).__name__}: {exc}"
        for p in [*(batch or []), *stranded]:
            if p.done:
                continue
            resp = EstimateResponse(
                request=p.request, status=STATUS_ERROR, error=detail
            )
            try:
                self._resolve(p, resp)
            except Exception:
                # Even if observability hooks are the thing that is
                # broken, the caller still gets an answer.
                for fn in p._finish(resp):
                    try:
                        fn(p)
                    except Exception:
                        pass

    def _collect_batch(self) -> list[_Pending] | None:
        """Assemble the next micro-batch (None = stopped and drained)."""
        with self._cond:
            while not self._queue:
                if self._stopping:
                    return None
                self._cond.wait()
            batch = [self._queue.popleft()]
            deadline = time.monotonic() + self.batch_window_s  # lint: allow(wallclock) batching window is a serving-policy timer
            while len(batch) < self.max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                if self._stopping:
                    break
                remaining = deadline - time.monotonic()  # lint: allow(wallclock) batching window is a serving-policy timer
                if remaining <= 0 or not self._cond.wait(remaining):
                    break
        collected = time.monotonic()  # lint: allow(wallclock) queue-wait measurement point
        for p in batch:
            p.collect_mono = collected
        return batch

    def _process_batch(self, batch: list[_Pending]) -> None:
        self._batch_seq += 1
        batch_id = self._batch_seq
        tracer = get_tracer()
        batch_start_us = tracer.now_us() if tracer is not None else 0.0
        METRICS.inc("serve.batches")
        METRICS.inc("serve.batched_requests", len(batch))
        METRICS.record_max("serve.batch_size_max", len(batch))
        with self._stats_lock:
            self._stats["batches"] += 1
            self._stats["batch_size_max"] = max(
                self._stats["batch_size_max"], len(batch)
            )

        groups: dict[tuple, list[_Pending]] = {}
        for p in batch:
            groups.setdefault(p.request.batch_key, []).append(p)
        for key in groups:
            self._process_group(key, groups[key], batch_id, len(batch))

        if tracer is not None:
            tracer.emit(
                "serve.batch",
                ts_us=batch_start_us,
                dur_us=tracer.now_us() - batch_start_us,
                cat="serve",
                track=HOST_TRACK,
                batch=batch_id,
                size=len(batch),
                groups=len(groups),
            )

    def _process_group(
        self, key: tuple, group: list[_Pending], batch_id: int, batch_size: int
    ) -> None:
        graph_name, max_edges = key
        coalesced = len(group) - 1
        if coalesced:
            METRICS.inc("serve.coalesced", coalesced)
            with self._stats_lock:
                self._stats["coalesced"] += coalesced
        try:
            S = load_graph(graph_name, max_edges=max_edges).matrix
        except Exception as exc:  # unknown graph: fail the whole group
            for p in group:
                self._resolve(
                    p, self._response(
                        p, STATUS_ERROR, batch_id, batch_size,
                        error=f"{type(exc).__name__}: {exc}",
                    ),
                )
            return

        # Predicted per-request full-path cost: the engine's per-graph
        # prior when this graph has history (cache hits included);
        # otherwise the cold-start EWMA, scaled by the selection
        # policy's relative-cost prediction for this graph's structure
        # when a model covers it.  With selection off (REPRO_NO_SELECT,
        # or no loadable model) the scale is None and this is exactly
        # the historical EWMA value — bit-for-bit identical triage.
        prior_s = cost_priors().predict(graph_name)
        if prior_s is not None:
            predicted_s = prior_s
        else:
            scale = self._selector_scale(key, S)
            predicted_s = (
                self._ewma_full_s
                if scale is None
                else self._ewma_full_s * scale
            )

        full: dict[tuple, list[_Pending]] = {}  # signature -> requests
        quick: list[_Pending] = []
        for p in group:
            now = time.monotonic()  # lint: allow(wallclock) deadline triage needs elapsed queue time
            req = p.request
            if req.deadline_s is not None:
                remaining = req.deadline_s - (now - p.submit_mono)
                needed = predicted_s * self.deadline_margin
                if remaining < needed:
                    if req.allow_degraded:
                        quick.append(p)
                    else:
                        METRICS.inc("serve.timeouts")
                        self._resolve(
                            p, self._response(
                                p, STATUS_TIMEOUT, batch_id, batch_size,
                                error=(
                                    "deadline budget "
                                    f"{max(0.0, remaining):.4f}s < required "
                                    f"{needed:.4f}s"
                                ),
                            ),
                        )
                    continue
            full.setdefault(req.signature, []).append(p)

        for p in quick:
            req = p.request
            try:
                time_s, bound = quick_estimate(
                    req.op, S, req.k, get_device(req.device)
                )
                METRICS.inc("serve.quick_estimates")
                METRICS.inc("serve.degraded")
                self._resolve(
                    p, self._response(
                        p, STATUS_DEGRADED, batch_id, batch_size,
                        time_s=time_s, bound=bound,
                    ),
                )
            except Exception as exc:
                self._resolve(
                    p, self._response(
                        p, STATUS_ERROR, batch_id, batch_size,
                        error=f"{type(exc).__name__}: {exc}",
                    ),
                )

        if not full:
            return
        signatures = list(full)
        deduped = sum(len(ps) - 1 for ps in full.values())
        if deduped:
            METRICS.inc("serve.deduped", deduped)
            with self._stats_lock:
                self._stats["deduped"] += deduped
        engine_requests = [
            EngineRequest(
                op=sig[0], kernel=sig[1], graph=graph_name, k=sig[3],
                device=sig[4], max_edges=max_edges,
            )
            for sig in signatures
        ]
        # One engine batch per group: the engine evaluates through the
        # estimate cache, records per-point spans, captures per-request
        # errors as data, and observes this graph's cost prior.
        result = self._engine.estimate_batch(
            engine_requests, matrices={graph_name: S}
        )
        # Cold-start EWMA (alpha=0.3) of measured per-signature cost,
        # used only until a graph has its own prior.
        per_sig_s = result.elapsed_s / len(signatures)
        self._ewma_full_s += 0.3 * (per_sig_s - self._ewma_full_s)
        METRICS.inc("serve.full_estimates", len(signatures))

        for sig, res in zip(signatures, result.results):
            for p in full[sig]:
                if res.ok:
                    resp = self._response(
                        p, STATUS_OK, batch_id, batch_size,
                        time_s=res.time_s,
                        preprocessing_s=res.preprocessing_s,
                        bound=res.bound,
                    )
                else:
                    resp = self._response(
                        p, STATUS_ERROR, batch_id, batch_size,
                        error=res.error,
                    )
                self._resolve(p, resp)

    def _selector_scale(self, key: tuple, S) -> float | None:
        """Selection-policy cost scale for one loaded graph, memoized.

        ``None`` means the policy declined (disabled, no model) and the
        caller must use the plain EWMA — the degrade contract.  The
        answer is computed at most once per ``(graph, max_edges)``:
        feature extraction is pure CPU but not free, and a graph's
        structure never changes under the server.  Coverage counters
        (``select.cost_hits`` / ``select.cost_misses``) tick once per
        graph, not per request.
        """
        with self._scale_lock:
            if key in self._cost_scales:
                return self._cost_scales[key]
        scale = active_policy().cost_scale(structural_features(S))
        METRICS.inc(
            "select.cost_hits" if scale is not None else "select.cost_misses"
        )
        with self._scale_lock:
            self._cost_scales[key] = scale
        return scale

    # -- resolution -----------------------------------------------------
    def _response(
        self,
        p: _Pending,
        status: str,
        batch_id: int,
        batch_size: int,
        *,
        time_s: float | None = None,
        preprocessing_s: float = 0.0,
        bound: str | None = None,
        error: str | None = None,
    ) -> EstimateResponse:
        now = time.monotonic()  # lint: allow(wallclock) serving latency is a measured surface
        return EstimateResponse(
            request=p.request,
            status=status,
            time_s=time_s,
            preprocessing_s=preprocessing_s,
            bound=bound,
            error=error,
            latency_s=now - p.submit_mono,
            queue_wait_s=p.collect_mono - p.submit_mono,
            batch_id=batch_id,
            batch_size=batch_size,
        )

    def _resolve(self, p: _Pending, response: EstimateResponse) -> None:
        callbacks = p._finish(response)
        observe_latency("serve.request_latency", response.latency_s)
        observe_latency("serve.queue_wait", response.queue_wait_s)
        METRICS.inc("serve.completed")
        if response.status == STATUS_ERROR:
            METRICS.inc("serve.errors")
        with self._stats_lock:
            self._stats["completed"] += 1
            self._stats[response.status] += 1
        tracer = get_tracer()
        if tracer is not None:
            tracer.emit(
                "serve.request",
                ts_us=p.trace_ts_us,
                dur_us=response.latency_s * 1e6,
                cat="serve",
                track=HOST_TRACK,
                status=response.status,
                graph=p.request.graph,
                kernel=p.request.kernel,
                op=p.request.op,
                k=p.request.k,
            )
        for fn in callbacks:
            try:
                fn(p)
            except Exception:
                # A broken streaming hook (e.g. a connection torn down
                # mid-batch) must not take the batching worker with it.
                METRICS.inc("serve.callback_errors")

    # -- admission / introspection --------------------------------------
    def note_shed(self, n: int = 1) -> None:
        """Account ``n`` requests load-shed by a front end before they
        ever reached the queue (they never become pendings)."""
        METRICS.inc("serve.shed", n)
        with self._stats_lock:
            self._stats[STATUS_SHED] += n

    def predicted_cost_s(self, graph: str | None = None) -> float:
        """Predicted full-path seconds per request — the per-graph cost
        prior when ``graph`` has history, else the cold-start EWMA
        (scaled by the selection policy's prediction when the batching
        worker has already sized this graph).  Front ends scale this
        into a Retry-After-style shed hint."""
        if graph is not None:
            prior_s = cost_priors().predict(graph)
            if prior_s is not None:
                return prior_s
            with self._scale_lock:
                scales = [
                    s
                    for (g, _), s in self._cost_scales.items()
                    if g == graph and s is not None
                ]
            if scales:
                return self._ewma_full_s * scales[0]
        return self._ewma_full_s

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict:
        """This server instance's run-scoped counters (plain dict)."""
        with self._stats_lock:
            return dict(self._stats)
