"""Unified observability layer: tracing, counters, manifests, perf diffs.

The paper's whole evaluation is profiler-driven (Table V is "total CUDA
computation time" read off Nsight Systems), so the reproduction needs an
equivalent way to see where time goes across a run.  ``repro.obs``
provides four zero-dependency pieces (DESIGN.md §2, "obs/"):

* :mod:`repro.obs.tracer` — a span tracer (context-manager API, off by
  default, enabled via ``REPRO_TRACE``) exporting Chrome-trace/Perfetto
  JSON, instrumented into the bench sweeps, kernel estimates, the
  estimate cache, the sharded fan-out and GNN training accrual;
* :mod:`repro.obs.metrics` — a process-wide counters registry unifying
  the previously scattered stats (estimate-cache hits/misses/evictions,
  plan-check pass/fail, shard runs/fallbacks, disk-cache errors) behind
  one :func:`snapshot`;
* :mod:`repro.obs.manifest` — run manifests (config, env flags,
  versions, metrics) written next to every ``results/`` report;
* :mod:`repro.obs.diff` — a report comparator (``python -m repro.obs
  diff OLD.json NEW.json --threshold 0.10``) that exits nonzero on
  wall-clock regressions, wired into the verify recipe so the perf
  trajectory of ``BENCH_harness.json`` accumulates across PRs.

Environment variables
---------------------
``REPRO_TRACE``
    Off when empty/``0``.  ``1`` enables tracing with the default output
    path ``repro-trace.json``; any other value is the output path.
"""

from .metrics import (
    DEFAULT_LATENCY_BOUNDS_S,
    METRICS,
    LatencyHistogram,
    MetricsRegistry,
    get_histogram,
    histogram_summaries,
    observe_latency,
    reset_histograms,
    snapshot,
)
from .tracer import (
    Tracer,
    export_trace,
    get_tracer,
    set_tracer,
    trace_emit,
    trace_span,
    traced,
    tracing_enabled,
)
from .manifest import run_manifest, write_manifest

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_S",
    "METRICS",
    "LatencyHistogram",
    "MetricsRegistry",
    "get_histogram",
    "histogram_summaries",
    "observe_latency",
    "reset_histograms",
    "snapshot",
    "Tracer",
    "export_trace",
    "get_tracer",
    "set_tracer",
    "trace_emit",
    "trace_span",
    "traced",
    "tracing_enabled",
    "run_manifest",
    "write_manifest",
]
