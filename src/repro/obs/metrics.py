"""Process-wide counters registry and the unified metrics snapshot.

Before this module, run statistics lived in scattered places: the
estimate cache kept hit/miss/eviction/disk-error counts on its own
instance, the bench runner printed plan-check totals to stderr, and
process fan-out had no accounting at all.  :data:`METRICS` is the
single registry those subsystems increment, and :func:`snapshot` merges
it with the live estimate-cache stats into one plain dict — the payload
embedded in every run manifest (:mod:`repro.obs.manifest`).

Counter names are dotted, ``subsystem.event``:

* ``engine.shard_runs`` / ``engine.shard_items`` /
  ``engine.shard_fallbacks`` / ``engine.shard_probes`` — sharded
  fan-out accounting (see :mod:`repro.engine.executors`);
* ``plan_check.checked`` / ``plan_check.failed`` and
  ``plan_check.diag_<severity>`` — static schedule checker totals;
* ``bench.sweeps`` / ``bench.reports`` — harness activity;
* ``gnn.spmm_ops`` / ``gnn.sddmm_ops`` / ``gnn.gemm_ops`` — training
  accrual (see :mod:`repro.gnn.timing`);
* ``gpusim.trace_replays`` / ``gpusim.profile_reports`` — validation
  tooling usage;
* ``serve.*`` — estimation-serving layer accounting (requests, batches,
  coalescing, degraded/timeout responses, ``serve.worker_crashes``;
  see :mod:`repro.serve`), plus the socket front end's connection and
  admission counters (``serve.conn_opened`` / ``serve.conn_closed`` /
  ``serve.conn_active_max``, ``serve.net_requests`` /
  ``serve.net_responses``, ``serve.shed``, ``serve.protocol_errors``)
  and its ``serve.conn_lifetime`` histogram;
* ``estimate_cache.*`` — merged in at snapshot time from
  :func:`repro.perf.estimate_cache.estimate_cache_stats`;
* ``store.*`` — shared graph/matrix store accounting (publishes,
  attaches, bytes shared, fallbacks), merged in at snapshot time from
  :func:`repro.store.store_counters`.

Counters are deterministic given the same inputs, so manifests diff
cleanly across runs; only host timings (which never enter the counter
registry) vary by machine.  The one exception is the **latency
histogram** registry below: histograms record *measured* serving-path
latencies (a wall-clock surface by definition, like the tracer), and
their percentile summaries appear in :func:`snapshot` only once a
histogram has observations — experiments that never serve requests keep
byte-stable manifests.
"""

from __future__ import annotations

import threading


class MetricsRegistry:
    """A named-counter registry; thread-safe, insertion-ordered."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def record_max(self, name: str, value: float) -> None:
        """Raise counter ``name`` to ``value`` if larger (high-water mark).

        Used for gauge-like quantities that only matter at their peak —
        serving queue depth, largest micro-batch — where a sum would be
        meaningless.
        """
        with self._lock:
            self._counters[name] = max(self._counters.get(name, 0), value)

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def counters(self) -> dict[str, float]:
        """A sorted copy of every counter."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def reset(self) -> None:
        """Drop all counters (tests and fresh harness runs)."""
        with self._lock:
            self._counters.clear()


#: The process-wide registry all subsystems increment.
METRICS = MetricsRegistry()


# ----------------------------------------------------------------------
# Latency histograms (serving-path observability)
# ----------------------------------------------------------------------

#: Default fixed bucket upper bounds in seconds: a 1-2-5 geometric ladder
#: from 10 µs to 10 s, plus an implicit +inf overflow bucket.  Fixed (not
#: adaptive) buckets keep observations mergeable and percentile queries
#: O(buckets) with no sample retention.
DEFAULT_LATENCY_BOUNDS_S: tuple[float, ...] = (
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket histogram over non-negative latencies, in seconds.

    Prometheus-style cumulative-bucket semantics: ``observe(s)`` lands in
    the first bucket whose upper bound is ``>= s`` (or the overflow
    bucket past the last bound).  :meth:`percentile` answers with the
    nearest-rank bucket upper bound, clamped to the observed maximum so
    a single-sample histogram reports that sample exactly and the
    overflow bucket never reports infinity.  Thread-safe; ``observe`` is
    O(buckets) worst case and lock-held work is a few adds.
    """

    def __init__(
        self,
        name: str,
        bounds_s: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_S,
    ) -> None:
        if not bounds_s or any(
            b <= 0 for b in bounds_s
        ) or list(bounds_s) != sorted(bounds_s):
            raise ValueError(
                "bounds_s must be a non-empty ascending tuple of positive "
                f"seconds; got {bounds_s!r}"
            )
        self.name = name
        self.bounds_s = tuple(float(b) for b in bounds_s)
        self._counts = [0] * (len(self.bounds_s) + 1)  # +1: overflow
        self._count = 0
        self._sum_s = 0.0
        self._max_s = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one latency observation (negatives clamp to 0)."""
        s = max(0.0, float(seconds))
        idx = len(self.bounds_s)  # overflow unless a bound catches it
        for i, bound in enumerate(self.bounds_s):
            if s <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum_s += s
            self._max_s = max(self._max_s, s)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum_s(self) -> float:
        with self._lock:
            return self._sum_s

    @property
    def max_s(self) -> float:
        with self._lock:
            return self._max_s

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile estimate in seconds.

        Empty histograms answer 0.0.  The answer is the upper bound of
        the bucket holding the rank-``ceil(p/100 * count)`` observation,
        clamped to the observed maximum (exact for single samples and
        for overflow-bucket ranks).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = max(1, -(-self._count * p // 100))  # ceil, at least 1
            seen = 0
            for i, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    if i == len(self.bounds_s):  # overflow bucket
                        return self._max_s
                    return min(self.bounds_s[i], self._max_s)
            return self._max_s  # unreachable; defensive

    def summary(self) -> dict:
        """Plain-dict summary: count, mean, max, p50/p95/p99 (seconds)."""
        with self._lock:
            count, total, peak = self._count, self._sum_s, self._max_s
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "max": peak,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds_s) + 1)
            self._count = 0
            self._sum_s = 0.0
            self._max_s = 0.0


_HISTOGRAMS: dict[str, LatencyHistogram] = {}
_HISTOGRAMS_LOCK = threading.Lock()


def get_histogram(name: str) -> LatencyHistogram:
    """The process-wide histogram ``name``, created on first use."""
    with _HISTOGRAMS_LOCK:
        hist = _HISTOGRAMS.get(name)
        if hist is None:
            hist = _HISTOGRAMS[name] = LatencyHistogram(name)
        return hist


def observe_latency(name: str, seconds: float) -> None:
    """Record one observation into histogram ``name``."""
    get_histogram(name).observe(seconds)


def histogram_summaries() -> dict[str, dict]:
    """Summaries of every histogram with at least one observation."""
    with _HISTOGRAMS_LOCK:
        hists = sorted(_HISTOGRAMS.items())
    return {name: h.summary() for name, h in hists if h.count}


def reset_histograms() -> None:
    """Drop every histogram (tests and fresh harness runs)."""
    with _HISTOGRAMS_LOCK:
        _HISTOGRAMS.clear()


def snapshot() -> dict:
    """Unified metrics snapshot: registry counters + live subsystem stats.

    The estimate cache keeps its counters on the cache object (they
    survive env-driven reconfiguration — see
    :func:`repro.perf.estimate_cache.get_estimate_cache`), so they are
    merged here at read time rather than double-counted on every hit.
    """
    # Imported lazily: repro.perf.parallel imports this module, so a
    # top-level import would be circular.
    from ..perf.estimate_cache import estimate_cache_stats
    from ..store import store_counters
    from .tracer import get_tracer

    out = METRICS.counters()
    cache = estimate_cache_stats()
    out.update(
        {
            "estimate_cache.hits": cache.hits,
            "estimate_cache.misses": cache.misses,
            "estimate_cache.disk_hits": cache.disk_hits,
            "estimate_cache.disk_errors": cache.disk_errors,
            "estimate_cache.evictions": cache.evictions,
            "estimate_cache.entries": cache.entries,
            "estimate_cache.stored_bytes": cache.stored_bytes,
        }
    )
    # Shared-store counters live on the store instance (workers ship
    # deltas back through their executors) and merge the same way.
    out.update(
        {f"store.{k}": v for k, v in store_counters().items()}
    )
    tracer = get_tracer()
    out["trace.spans"] = len(tracer.spans) if tracer is not None else 0
    # Histogram percentiles are flattened as <name>.{count,p50,p95,p99}.
    # Only histograms with observations appear, so runs that never touch
    # the serving path keep deterministic, byte-stable manifests.
    for name, summary in histogram_summaries().items():
        for stat in ("count", "p50", "p95", "p99"):
            out[f"{name}.{stat}"] = summary[stat]
    return dict(sorted(out.items()))
