"""Tests of the benchmark harness itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from collections import Counter
from dataclasses import dataclass

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import serve_load  # noqa: E402
from common import ROOT, percentile  # noqa: E402
from spans import Instrumenter, SpanRecorder, layer_totals  # noqa: E402

UNIT_PATTERN = r"[A-Za-z0-9_/%.-]{1,16}"


# ----------------------------------------------------------------------
# span tree -> calls and self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    names = ["root", "a", "b", "leaf"]
    ms = 1_000_000
    spans = [
        # (id, parent, name id, start ns, end ns)
        (1, 0, 1, 10 * ms, 40 * ms),    # a: 30 ms, no children
        (3, 2, 3, 60 * ms, 70 * ms),    # leaf under b: 10 ms
        (2, 0, 2, 50 * ms, 90 * ms),    # b: 40 ms, minus leaf
        (0, -1, 0, 0, 100 * ms),        # root: 100 ms, minus a and b
    ]
    totals = layer_totals(names, spans)
    assert totals["root"] == {"calls": 1, "self_s": pytest.approx(0.030)}
    assert totals["a"] == {"calls": 1, "self_s": pytest.approx(0.030)}
    assert totals["b"] == {"calls": 1, "self_s": pytest.approx(0.030)}
    assert totals["leaf"] == {"calls": 1, "self_s": pytest.approx(0.010)}
    # Self times of a tree add up to the root's duration.
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(0.100)


def test_same_name_spans_aggregate_and_window_filters_by_start():
    names = ["x"]
    spans = [(0, -1, 0, 0, 5), (1, -1, 0, 10, 12), (2, -1, 0, 20, 30)]
    assert layer_totals(names, spans)["x"] == {
        "calls": 3, "self_s": pytest.approx(17e-9)
    }
    assert layer_totals(names, spans, window=(10, 20))["x"] == {
        "calls": 1, "self_s": pytest.approx(2e-9)
    }


def test_recorder_links_nested_calls_to_their_parent():
    rec = SpanRecorder()

    def leaf():
        return 1

    wrapped_leaf = rec.wrap(leaf, "leaf")
    outer = rec.wrap(lambda: wrapped_leaf() + wrapped_leaf(), "outer")
    assert outer() == 2
    by_id = {s[0]: s for s in rec.spans}
    (root,) = [s for s in rec.spans if rec.names[s[2]] == "outer"]
    children = [s for s in rec.spans if s[1] == root[0]]
    assert root[1] == -1
    assert [rec.names[s[2]] for s in children] == ["leaf", "leaf"]
    assert all(by_id[s[1]] is root for s in children)
    totals = layer_totals(rec.names, rec.spans)
    assert totals["leaf"]["calls"] == 2 and totals["outer"]["calls"] == 1


def test_recorder_closes_span_when_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap(boom, "boom")()
    assert len(rec.spans) == 1 and rec.names[rec.spans[0][2]] == "boom"


def test_instrumenter_rebinds_every_module_binding():
    def target():
        return "ok"

    home = types.ModuleType("repro._bench_test_home")
    user = types.ModuleType("repro._bench_test_user")
    other = types.ModuleType("elsewhere_bench_test")
    home.target = target
    user.alias = target  # a `from home import target as alias` binding
    other.target = target
    names = [m.__name__ for m in (home, user, other)]
    sys.modules.update({m.__name__: m for m in (home, user, other)})
    try:
        rec = SpanRecorder()
        Instrumenter(rec).function(target, "t")
        assert home.target is not target and user.alias is home.target
        assert other.target is target  # only the program's modules
        assert user.alias() == "ok" and len(rec.spans) == 1
    finally:
        for name in names:
            sys.modules.pop(name, None)


# ----------------------------------------------------------------------
# seeded serve streams
# ----------------------------------------------------------------------

def test_stream_is_a_pure_function_of_seed_and_step():
    a = serve_load.make_stream(11, "step-300", 300, 500, 24_320)
    assert a == serve_load.make_stream(11, "step-300", 300, 500, 24_320)
    assert a != serve_load.make_stream(12, "step-300", 300, 500, 24_320)


def test_each_step_has_its_own_hot_set():
    def hot(seed, label):
        stream = serve_load.make_stream(seed, label, 800, 4000, 24_320)
        return Counter(k for _, k in stream).most_common(1)[0][0]

    # No step replays another step's (or the warm-up's) hottest keys.
    labels = [f"step-{r}" for r in serve_load.RATES] + ["warmup"]
    assert len({hot(1, label) for label in labels}) == len(labels)
    assert hot(1, "step-800") != hot(2, "step-800")


def test_draw_seeds_differ_per_step_and_per_workload_seed():
    labels = [f"step-{r}" for r in serve_load.RATES] + ["warmup"]
    seeds = {serve_load.derive_seed(s, label) for s in (1, 2) for label in labels}
    assert len(seeds) == 2 * len(labels)
    assert serve_load.derive_seed(1, "warmup") == serve_load.derive_seed(1, "warmup")


def test_stream_shape_arrivals_and_zipf_skew():
    stream = serve_load.make_stream(3, "step-800", 800, 4000, 24_320)
    offsets = [t for t, _ in stream]
    assert offsets[0] == 0.0 and offsets == sorted(offsets)
    # Poisson at 800 Hz: 4000 arrivals span about 5 s.
    assert 4.5 < offsets[-1] < 5.5
    counts = Counter(k for _, k in stream)
    assert all(0 <= k < 24_320 for k in counts)
    # Zipf(1) over 24,320 keys: the top key draws ~1/H(24320) ~ 9.4%.
    assert 0.07 < counts.most_common(1)[0][1] / 4000 < 0.12


def test_signature_space_and_step_sizes():
    keys = serve_load.signatures([f"g{i}" for i in range(19)])
    assert len(keys) == len(set(keys)) == 24_320
    assert serve_load.step_requests(100, 15) == 1000  # floor for p99
    assert serve_load.step_requests(800, 15) == 4000


@dataclass
class _Resp:
    status: str
    queue_wait_s: float = 0.0
    batch_id: int = -1
    batch_size: int = 0


def test_step_metrics_time_from_due_and_count_misses():
    outcomes = [
        {"due": 0.0, "arrival": 0.1, "latency_s": 0.1, "response": _Resp("ok", 0.01, 1, 2)},
        {"due": 0.1, "arrival": 0.2, "latency_s": 0.1, "response": _Resp("ok", 0.02, 1, 2)},
        {"due": 0.2, "arrival": 0.6, "latency_s": 0.4, "response": _Resp("ok", 0.3, 2, 1)},
        {"due": 0.3, "arrival": 0.3, "latency_s": 0.0, "response": _Resp("shed")},
        {"due": 0.4, "arrival": 0.5, "latency_s": 0.1, "response": _Resp("degraded", 0.0, 3, 1)},
    ]
    stats = {"stats": {"coalesced": 1, "deduped": 0, "degraded": 1, "shed": 1}}
    zero = {"stats": {}}
    m = serve_load.step_metrics(300, outcomes, [0.0] * 5, zero, stats)
    assert m["goodput_ratio"] == pytest.approx(2 / 5)  # late ok, shed, degraded miss
    assert m["full_ratio"] == pytest.approx(3 / 5)
    assert m["batches"] == 3 and m["batch_size_mean"] == pytest.approx(4 / 3)
    assert m["latency_p99_ms"] == pytest.approx(400.0)
    assert m["drained"] is True and m["errors"] == 0
    assert (m["shed"], m["degraded"], m["coalesced"]) == (1, 1, 1)
    steps = [dict(m, rate=100, goodput_ratio=1.0), dict(m, rate=300)]
    assert serve_load.max_rate(steps) == 100.0


def test_nearest_rank_percentile():
    assert percentile([], 99) == 0.0
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([5.0], 50) == 5.0


# ----------------------------------------------------------------------
# metric catalogue and BENCHMARK.json
# ----------------------------------------------------------------------

def test_metric_names_follow_the_pattern_and_are_unique():
    import re

    names = [m[0] for m in metrics.END_TO_END] + [m[0] for m in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in metrics.END_TO_END + metrics.PER_LAYER:
        assert re.fullmatch(UNIT_PATTERN, entry[1]), entry
        assert entry[2] in ("higher", "lower"), entry
    assert ("setup_s", "s", "lower") == metrics.END_TO_END[0][:3]
    assert len(metrics.PER_LAYER) <= 128


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(m) for m in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == ["reports", "serve", "train"]


def test_result_line_carries_every_metric_of_its_kind():
    line = metrics.result_line("end_to_end", {"setup_s": 1.5}, 3, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m[0] for m in metrics.END_TO_END}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    traced = metrics.result_line("per_layer", {}, 1, 1)
    assert traced["correct"] is False
    assert set(traced["metrics"]) == {m[0] for m in metrics.PER_LAYER}


def test_layer_metrics_derive_ratios():
    spans = {"engine.batch": {"calls": 2, "self_s": 0.002}, "gnn.step": {"calls": 6}}
    counters = {"estimate_cache.hits": 3, "estimate_cache.misses": 1,
                "engine.requests": 4, "plan_check.diag_warning": 7}
    out = metrics.layer_metrics(spans, counters)
    assert out["perf.estimate_cache.hit_ratio"] == 0.75
    assert out["engine.dispatch_us_per_request"] == pytest.approx(500.0)
    assert out["analysis.diag_warning"] == 7 and out["gnn.epochs"] == 6
    assert out["graphs.load.calls"] == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reports",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
