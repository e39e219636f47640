"""Synthetic serve workloads: generation, the three drive modes, CLI."""

import dataclasses
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.obs import METRICS, reset_histograms
from repro.perf import get_estimate_cache
from repro.serve import WORKLOADS, WorkloadSpec, generate_requests, run_workload

pytestmark = pytest.mark.serve


@pytest.fixture(autouse=True)
def fresh_serving_state(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    METRICS.reset()
    reset_histograms()
    get_estimate_cache().clear()
    yield
    METRICS.reset()
    reset_histograms()


# ----------------------------------------------------------------------
# Stream generation
# ----------------------------------------------------------------------

def test_generate_requests_is_a_pure_function_of_the_spec():
    spec = WORKLOADS["smoke"]
    a, b = generate_requests(spec), generate_requests(spec)
    assert a == b
    assert len(a) == spec.num_requests
    forced = [r for r in a if r.deadline_s == 0.0]
    assert len(forced) == spec.num_requests // spec.forced_deadline_every
    assert {r.graph for r in a} <= set(spec.graphs)
    assert {r.max_edges for r in a} == {spec.max_edges}


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", mode="surprise")
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", num_requests=0)
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", result_timeout_s=0.0)


def test_soak_preset_is_open_loop_at_ten_times_smoke_rate():
    smoke, soak = WORKLOADS["smoke"], WORKLOADS["soak"]
    assert soak.mode == "open"
    assert soak.arrival_rate_hz == pytest.approx(10 * smoke.arrival_rate_hz)
    assert soak.num_requests > smoke.num_requests
    assert soak.deadline_s > 0
    assert soak.forced_deadline_every == 0  # no artificial degrades


# ----------------------------------------------------------------------
# Replay mode — the CI-gated deterministic smoke
# ----------------------------------------------------------------------

def answer_key(report):
    """The deterministic core of a report (no latencies, no batch ids)."""
    return [
        (a["op"], a["kernel"], a["graph"], a["k"], a["status"],
         a["time_s"], a["bound"])
        for a in report["responses"]
    ]


def test_smoke_replay_is_deterministic_and_coalesces():
    spec = WORKLOADS["smoke"]
    report = run_workload(spec)
    summary = report["summary"]
    assert report["schema"] == "repro.serve.report/v1"
    assert summary["requests"] == spec.num_requests
    assert summary["by_status"]["degraded"] == (
        spec.num_requests // spec.forced_deadline_every
    )
    assert summary["by_status"]["error"] == 0
    assert summary["by_status"]["timeout"] == 0
    assert summary["coalesced"] > 0
    assert summary["batch_size_max"] == spec.max_batch
    assert report["latency_s"]["count"] == spec.num_requests
    assert report["latency_s"]["p99"] > 0
    assert all(
        a["time_s"] > 0 for a in report["responses"]
        if a["status"] in ("ok", "degraded")
    )
    # The estimates themselves are pure functions: a second replay of the
    # same spec answers identically (only latencies/batch ids may move).
    rerun = run_workload(spec)
    assert answer_key(rerun) == answer_key(report)


def test_closed_loop_answers_every_request_in_stream_order():
    spec = dataclasses.replace(
        WORKLOADS["closed-loop"], num_requests=8, clients=2,
        batch_window_s=0.001,
    )
    report = run_workload(spec)
    assert report["summary"]["requests"] == 8
    assert report["summary"]["by_status"]["error"] == 0
    expected = generate_requests(spec)
    got = report["responses"]
    assert [(a["op"], a["kernel"], a["graph"], a["k"]) for a in got] == [
        (r.op, r.kernel, r.graph, r.k) for r in expected
    ]


def test_open_loop_answers_every_request():
    spec = dataclasses.replace(
        WORKLOADS["open-loop"], num_requests=6, arrival_rate_hz=5000.0,
        batch_window_s=0.001,
    )
    report = run_workload(spec)
    assert report["summary"]["requests"] == 6
    assert report["summary"]["by_status"]["error"] == 0


def test_driver_times_out_instead_of_hanging_on_a_dead_server(monkeypatch):
    """A server whose worker never starts must fail the drive within the
    spec's result_timeout_s, not block ``result()`` forever."""
    from repro.serve.server import EstimationServer

    monkeypatch.setattr(EstimationServer, "start", lambda self: None)
    spec = dataclasses.replace(
        WORKLOADS["smoke"], num_requests=4, result_timeout_s=0.2
    )
    with pytest.raises(TimeoutError):
        run_workload(spec)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _run_cli(args, **env_overrides):
    env = dict(os.environ, PYTHONPATH="src", **env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *args],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def test_cli_list_and_unknown_workload_exit_codes():
    listed = _run_cli(["--list"])
    assert listed.returncode == 0
    assert "smoke" in listed.stdout
    unknown = _run_cli(["--workload", "no-such"])
    assert unknown.returncode == 2
    assert "unknown workload" in unknown.stderr


def test_cli_smoke_writes_report_and_manifest(tmp_path):
    proc = _run_cli(
        ["--workload", "smoke", "--requests", "12"],
        REPRO_RESULTS_DIR=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "serve_smoke.json").read_text())
    assert report["summary"]["requests"] == 12
    assert report["workload"]["num_requests"] == 12
    manifest = json.loads(
        (tmp_path / "serve_smoke.manifest.json").read_text()
    )
    metrics = manifest["metrics"]
    assert metrics["serve.requests"] == 12
    assert metrics["serve.request_latency.count"] == 12
    for stat in ("p50", "p95", "p99"):
        assert metrics[f"serve.request_latency.{stat}"] > 0


def test_cli_serve_sigterm_right_after_readiness_shuts_down_cleanly(tmp_path):
    """The handlers are live before the readiness line is printed, so a
    SIGTERM sent the moment it appears still stops the front end and the
    server and unlinks every store segment the warmup published."""
    store_dir = tmp_path / "store"
    env = dict(
        os.environ, PYTHONPATH="src", REPRO_STORE_BACKEND="mmap",
        REPRO_STORE_DIR=str(store_dir),
    )
    env.pop("REPRO_NO_SHARED_STORE", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--serve",
         "--host", "127.0.0.1", "--port", "0", "--warm", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        ready = json.loads(proc.stdout.readline())
        proc.send_signal(signal.SIGTERM)
        assert ready["serving"]["port"] > 0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "[serve: shutting down]" in err
    assert "[warm: " in err
    assert store_dir.is_dir(), "warmup published no store segments"
    assert os.listdir(store_dir) == []
