"""The benchmark's metric catalogue and the per-layer derivations.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` must list exactly these
(the harness tests check it).  Every run prints every metric of its
kind, so a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

#: name, unit, better, bound (share of the parent's median).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

from serve_load import RATES

_SPAN_METRICS = (
    # (span name, emit calls?, emit self_s?)
    ("graphs.load", True, True),
    ("graphs.generate", True, True),
    ("graphs.sample", True, True),
    ("store.publish", False, True),
    ("analysis.check_plan", True, True),
    ("analysis.plan_build", False, True),
    ("perf.fingerprint", True, True),
    ("perf.cached_estimate", False, True),
    ("kernels.spmm.estimate", True, True),
    ("kernels.spmm.build", True, True),
    ("kernels.sddmm.estimate", True, True),
    ("kernels.sddmm.build", True, True),
    ("gpusim.simulate_launch", True, True),
    ("gpusim.l2_model", True, True),
    ("engine.batch", False, True),
    ("serve.batch", False, True),
    ("serve.quick_estimate", False, True),
    ("gnn.forward", False, True),
    ("gnn.backward", False, True),
    ("gnn.spmm_numeric", False, True),
    ("gnn.graph_prep", False, True),
    ("gnn.timing", False, True),
    ("bench.render", False, True),
)

#: Program counters reported as-is: metric name -> obs snapshot key.
_COUNTERS = {
    "store.publishes": "store.publishes",
    "store.publish_hits": "store.publish_hits",
    "store.bytes_shared": "store.bytes_shared",
    "analysis.diag_warning": "plan_check.diag_warning",
    "perf.estimate_cache.hits": "estimate_cache.hits",
    "perf.estimate_cache.misses": "estimate_cache.misses",
    "perf.estimate_cache.evictions": "estimate_cache.evictions",
    "engine.requests": "engine.requests",
    "engine.batches": "engine.batches",
    "select.requests": "select.requests",
    "select.hits": "select.hits",
    "select.cost_hits": "select.cost_hits",
    "select.cost_misses": "select.cost_misses",
}
_HIGHER = {
    "store.publish_hits", "perf.estimate_cache.hits",
    "perf.estimate_cache.hit_ratio", "select.hits", "select.cost_hits",
    "max_rate_hz",
}
_UNITS = {"store.bytes_shared": "bytes", "engine.dispatch_us_per_request": "us"}


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    out = []
    for name, calls, self_s in _SPAN_METRICS:
        if calls:
            out.append((f"{name}.calls", "count"))
        if self_s:
            out.append((f"{name}.self_s", "s"))
    out += [(name, _UNITS.get(name, "count")) for name in _COUNTERS]
    out += [
        ("perf.estimate_cache.hit_ratio", "ratio"),
        ("engine.dispatch_us_per_request", "us"),
        ("gnn.epochs", "count"),
    ]
    for rate in RATES:
        r = f"r{rate}"
        out += [
            (f"latency_p50_ms.{r}", "ms"),
            (f"latency_p99_ms.{r}", "ms"),
            (f"goodput_ratio.{r}", "ratio"),
            (f"serve.queue_wait_p50_ms.{r}", "ms"),
            (f"serve.queue_wait_p99_ms.{r}", "ms"),
            (f"serve.batches.{r}", "count"),
            (f"serve.batch_size_mean.{r}", "count"),
            (f"serve.coalesced.{r}", "count"),
            (f"serve.deduped.{r}", "count"),
            (f"serve.degraded.{r}", "count"),
            (f"serve.shed.{r}", "count"),
            (f"serve.queue_depth_max.{r}", "count"),
            (f"serve.full_ratio.{r}", "ratio"),
            (f"bench.generator_lag_p99_ms.{r}", "ms"),
        ]
    out += [("max_rate_hz", "Hz"), ("bench.trace_overhead_ratio", "ratio")]
    higher = _HIGHER | {
        n for n, _ in out
        if n.startswith(("goodput_ratio.", "serve.full_ratio.",
                         "serve.batch_size_mean.", "serve.coalesced.",
                         "serve.deduped."))
    }
    return tuple(
        (name, unit, "higher" if name in higher else "lower")
        for name, unit in out
    )


PER_LAYER = _per_layer()


def layer_metrics(spans: dict, counters: dict) -> dict[str, float]:
    """Per-layer values from span totals and program counters.

    ``spans`` is :func:`spans.layer_totals` output; ``counters`` holds
    obs-snapshot keys (already windowed by the caller where needed).
    """
    out: dict[str, float] = {}
    for name, calls, self_s in _SPAN_METRICS:
        entry = spans.get(name, {})
        if calls:
            out[f"{name}.calls"] = entry.get("calls", 0)
        if self_s:
            out[f"{name}.self_s"] = entry.get("self_s", 0.0)
    for metric, key in _COUNTERS.items():
        out[metric] = counters.get(key, 0)
    lookups = out["perf.estimate_cache.hits"] + out["perf.estimate_cache.misses"]
    out["perf.estimate_cache.hit_ratio"] = (
        out["perf.estimate_cache.hits"] / lookups if lookups else 0.0
    )
    requests = out["engine.requests"]
    out["engine.dispatch_us_per_request"] = (
        out["engine.batch.self_s"] / requests * 1e6 if requests else 0.0
    )
    out["gnn.epochs"] = spans.get("gnn.step", {}).get("calls", 0)
    return out


def result_line(kind: str, values: dict, attempted: int, failed: int) -> dict:
    """The final JSON line: every metric of ``kind`` with its unit."""
    catalogue = END_TO_END if kind == "end_to_end" else PER_LAYER
    metrics = {
        entry[0]: {"value": values.get(entry[0], 0), "unit": entry[1]}
        for entry in catalogue
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
