"""Executor strategies for the engine's execute stage.

An executor is anything with ``map(fn, items) -> list`` that preserves
item order.  The engine's work units are deterministic pure functions of
their inputs, so the executor choice changes wall-clock time and process
topology — never results.  Two strategies exist, and
:func:`make_executor` picks between them with one rule — resolve the
worker count once (an explicit ``workers`` argument, else
``REPRO_JOBS``), then run inline below 2 workers and sharded otherwise:

* :class:`InlineExecutor` — a plain serial loop in the calling process.
  No extra processes and no store traffic; what every caller gets by
  default.
* :class:`ShardedExecutor` — a pool of *persistent* worker server
  processes.  Workers live across batches, so a serving process pays
  fork cost once and every subsequent batch only pays queue traffic.
  Matrices travel as shared-store handles (the planner publishes them
  because ``ships_work`` is true).  Units are sharded round-robin;
  results return in item order; worker spans are shipped back and
  spliced onto the parent trace; a worker exception is re-raised in the
  parent (lowest item index first, for determinism); a worker that dies
  holding unanswered items stops the executor and raises instead of
  hanging.

This module is the only place in the package that creates processes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
from typing import Callable, Protocol, Sequence

from ..config import env_str
from ..obs import METRICS, trace_span
from ..obs.tracer import Tracer, get_tracer, set_tracer
from ..store import StoreAttachError, get_store, store_counters

#: Failures creating processes/queues in restricted sandboxes.
_SPAWN_FAILURES = (OSError, PermissionError, ValueError, ImportError)

_STOP = None  # sentinel shutting down a shard worker

#: Seconds between liveness checks while waiting on shard replies.
_REPLY_POLL_S = 0.5


def resolve_jobs() -> int:
    """Worker count from ``REPRO_JOBS``.

    Unset or ``1`` means inline; ``N`` means N workers; ``0`` or
    ``auto`` means one worker per CPU.
    """
    raw = env_str("REPRO_JOBS", "1").lower()
    if raw in ("", "0", "auto"):
        jobs = os.cpu_count() or 1
    else:
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, 'auto' or unset; got {raw!r}"
            ) from None
    return max(1, jobs)


class Executor(Protocol):
    """Order-preserving ``map`` over the engine's work units.

    ``ships_work`` tells the planner whether ``map`` may move items
    across a process boundary — only then is publishing matrices to the
    shared store worth anything.
    """

    ships_work: bool

    def map(self, fn: Callable, items: Sequence) -> list:
        ...


class InlineExecutor:
    """Serial, in-process evaluation — the deterministic baseline.

    A no-op context manager, so callers holding either executor kind
    write one ``with`` block.
    """

    ships_work = False
    workers = 1

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(item) for item in items]

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        pass


def make_executor(
    workers: int | None = None,
) -> "InlineExecutor | ShardedExecutor":
    """The executor for ``workers`` (default: ``REPRO_JOBS``).

    Fewer than 2 workers runs inline; otherwise a
    :class:`ShardedExecutor` of that width.  Either way the result's
    ``workers`` attribute is the resolved count.  Use it as a context
    manager so sharded workers are stopped when the caller is done.
    """
    n = resolve_jobs() if workers is None else workers
    if n < 2:
        return InlineExecutor()
    return ShardedExecutor(n)


def _shard_worker_loop(inbox, outbox) -> None:
    """A shard worker server: evaluate inbox items until told to stop.

    Each item runs under a worker-local tracer anchored at the parent
    tracer's ``t0_ns`` (when the parent traces), and the spans ship back
    with the result, tagged ``shard_worker``, for the parent to splice.
    Worker exceptions come back as data; the parent re-raises them
    deterministically.
    """
    pid = os.getpid()
    while True:
        msg = inbox.get()
        if msg is _STOP:
            return
        seq, fn, item, t0_ns = msg
        spans: list = []
        # Bound before the try: if the accounting in the finally below
        # itself raises, the error reply must still be constructible.
        delta: dict = {}
        # Store counters accumulate in the worker's own process; ship
        # the per-item delta back so the parent's snapshot (and run
        # manifests) account for the sharing actually happening.
        before = store_counters()
        if t0_ns is not None:
            prev = get_tracer()
            worker_tracer = Tracer(t0_ns=t0_ns)
            set_tracer(worker_tracer)
        try:
            try:
                result = fn(item)
            finally:
                if t0_ns is not None:
                    set_tracer(prev)
                    for span in worker_tracer.spans:
                        span.args.setdefault("shard_worker", pid)
                    spans = worker_tracer.spans
                after = store_counters()
                delta = {
                    key: after[key] - before[key]
                    for key in ("attaches", "attach_hits", "fallbacks")
                    if after[key] != before[key]
                }
            reply = (seq, "ok", result, spans, pid, delta)
        except Exception as exc:  # noqa: BLE001 - shipped to parent
            reply = (seq, "error", exc, spans, pid, delta)
        try:
            outbox.put(reply)
        except Exception:  # unpicklable result/exception: degrade to repr
            outbox.put(
                (seq, "error", RuntimeError(repr(reply[2])), [], pid, {})
            )


class ShardedExecutor:
    """Persistent worker servers sharding batches round-robin.

    ``workers`` fixes the pool size (callers normally get one from
    :func:`make_executor`, which only builds this for 2 or more).
    Workers start lazily on the first ``map`` and persist until
    :meth:`stop` (or context-manager exit).  In sandboxes that forbid
    process/queue creation, ``map`` falls back to the inline loop and
    counts ``engine.shard_fallbacks`` — results are identical either
    way.

    A worker that dies while it holds unanswered items (killed, or
    ``fn`` exiting the process) stops the executor and raises
    :class:`RuntimeError`; one that dies after answering everything it
    was given fails nothing.  The next ``map`` starts fresh workers, but
    only on the thread that started the lost ones: re-forking from any
    other thread (a serving process's batching thread, say) would fork
    a process that already runs threads, so that ``map`` raises instead.

    ``affinity`` pins items to shards: a callable taking one work item
    and returning a shard key (any int — reduced modulo the pool size)
    or ``None`` to fall back to round-robin for that item.  The serve
    tier sets :meth:`repro.serve.ShardRouter.shard_of_unit` so every
    batch touching a graph lands on the worker that owns that graph's
    estimate cache and cost priors.  Determinism is unaffected: the
    executor only places work; results return in item order regardless.
    """

    ships_work = True

    def __init__(self, workers: int, *, affinity=None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.affinity = affinity
        self._procs: list = []
        self._inboxes: list = []
        self._outbox = None
        self._seq = 0
        #: Thread that last started the workers, and what killed them.
        self._owner: int | None = None
        self._lost: str | None = None
        #: fn -> pickle-probe verdict, held for the executor's lifetime.
        self._probe_ok: dict = {}
        #: worker pid -> items evaluated there (tests assert sharding).
        self.dispatch_counts: dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    @property
    def worker_count(self) -> int:
        return len(self._procs)

    def start(self) -> None:
        """Fork the worker servers (idempotent)."""
        if self._procs:
            return
        n = self.workers
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        outbox = ctx.Queue()
        inboxes, procs = [], []
        for _ in range(n):
            inbox = ctx.Queue()
            proc = ctx.Process(
                target=_shard_worker_loop, args=(inbox, outbox), daemon=True
            )
            proc.start()
            inboxes.append(inbox)
            procs.append(proc)
        self._outbox = outbox
        self._inboxes = inboxes
        self._procs = procs
        self._owner = threading.get_ident()
        self._lost = None

    def stop(self) -> None:
        """Shut the worker servers down (idempotent)."""
        for inbox in self._inboxes:
            try:
                inbox.put(_STOP)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for q in [*self._inboxes, self._outbox]:
            if q is not None:
                q.close()
                # No reader is left: never block interpreter exit on
                # flushing items a dead worker will not take.
                q.cancel_join_thread()
        self._procs = []
        self._inboxes = []
        self._outbox = None
        self._probe_ok.clear()

    def __enter__(self) -> "ShardedExecutor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _note_death(self, proc) -> None:
        self._lost = (
            f"shard worker pid {proc.pid} died with exit code {proc.exitcode}"
        )

    def _next_reply(self, outstanding: list) -> tuple:
        """The next worker reply; raises if a worker died owing one.

        ``outstanding[i]`` counts the items worker ``i`` has not yet
        answered.  A dead worker never answers, so a blocking ``get``
        would hang forever.  The executor is stopped before raising (its
        queues may be wedged by the dead writer) and the error is not
        retried inline: whatever killed the worker could kill the parent
        too.
        """
        while True:
            try:
                return self._outbox.get(timeout=_REPLY_POLL_S)
            except queue.Empty:
                pass
            dead = [
                proc
                for proc, owed in zip(self._procs, outstanding)
                if owed and proc.exitcode is not None
            ]
            if dead:
                self._note_death(dead[0])
                # The survivors' queued items are abandoned, so there is
                # nothing to drain: terminate rather than wait for them.
                for proc in self._procs:
                    if proc.is_alive():
                        proc.terminate()
                self.stop()
                raise RuntimeError(f"{self._lost}; executor stopped")

    # -- execution ------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> list:
        seq_items = list(items)
        if not seq_items:
            return []
        for proc in self._procs:
            if proc.exitcode is not None:
                # Died after answering its last batch: restart rather
                # than queue items it will never answer.
                self._note_death(proc)
                self.stop()
                break
        if not self._procs:
            if (
                self._lost is not None
                and threading.get_ident() != self._owner
            ):
                raise RuntimeError(
                    f"{self._lost}; not re-forking shard workers from a "
                    "thread other than the one that started them"
                )
            try:
                self.start()
            except _SPAWN_FAILURES:
                METRICS.inc("engine.shard_fallbacks")
                return [fn(item) for item in seq_items]
        # Probe picklability once per (executor lifetime, fn) — a
        # serving process dispatches thousands of homogeneous batches
        # through one fn, and the old per-batch probe double-serialized
        # the first item of every one of them.
        probed = self._probe_ok.get(fn)
        if probed is None:
            METRICS.inc("engine.shard_probes")
            try:
                pickle.dumps(fn)
                pickle.dumps(seq_items[0])
                probed = True
            except Exception:
                probed = False
            self._probe_ok[fn] = probed
        if not probed:
            METRICS.inc("engine.shard_fallbacks")
            return [fn(item) for item in seq_items]

        tracer = get_tracer()
        t0_ns = tracer.t0_ns if tracer is not None else None
        n = len(self._inboxes)
        index_of = {proc.pid: i for i, proc in enumerate(self._procs)}
        outstanding = [0] * n
        base = self._seq
        self._seq += len(seq_items)
        with trace_span(
            "sharded_map", cat="engine", workers=n, items=len(seq_items)
        ):
            # Placement: the affinity hook pins an item to its owning
            # shard; items it declines (None, or a hook failure) fall
            # back to round-robin on the batch-global sequence number,
            # so a serving process issuing many single-unit batches
            # still spreads unpinned work across the worker pool.
            for i, item in enumerate(seq_items):
                target = None
                if self.affinity is not None:
                    try:
                        key = self.affinity(item)
                    except Exception:
                        key = None
                        METRICS.inc("engine.shard_affinity_errors")
                    if key is not None:
                        target = int(key) % n
                        METRICS.inc("engine.shard_affinity_hits")
                if target is None:
                    target = (base + i) % n
                self._inboxes[target].put((base + i, fn, item, t0_ns))
                outstanding[target] += 1
            replies: dict[int, tuple] = {}
            for _ in seq_items:
                seq, status, payload, spans, pid, delta = self._next_reply(
                    outstanding
                )
                outstanding[index_of[pid]] -= 1
                replies[seq] = (status, payload)
                self.dispatch_counts[pid] = (
                    self.dispatch_counts.get(pid, 0) + 1
                )
                if delta:
                    get_store().absorb(delta)
                if spans and tracer is not None:
                    tracer.splice(spans)
        results = []
        for i in range(len(seq_items)):
            status, payload = replies[base + i]
            if status == "error":
                if isinstance(payload, StoreAttachError):
                    # The worker lost the shared segment; the parent's
                    # item still holds its matrix, so evaluate it here
                    # (fn is deterministic — same result either way).
                    get_store().record_fallback()
                    results.append(fn(seq_items[i]))
                    continue
                # Deterministic: the lowest-index failure raises, as it
                # would have in a serial loop.
                raise payload
            results.append(payload)
        METRICS.inc("engine.shard_runs")
        METRICS.inc("engine.shard_items", len(seq_items))
        return results
