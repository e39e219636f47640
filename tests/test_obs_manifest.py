"""Run manifests: schema, env capture, and report-side emission."""

import json
import os

import pytest

from repro.obs import METRICS, run_manifest, write_manifest
from repro.obs.manifest import SCHEMA, cpu_model

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def fresh_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


def test_manifest_schema_keys(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EDGES", "60000")
    monkeypatch.setenv("NOT_OURS", "ignored")
    doc = run_manifest("fig9", config={"k": 64})
    assert set(doc) == {
        "schema", "experiment", "config", "env", "versions", "platform",
        "metrics",
    }
    assert doc["schema"] == SCHEMA
    assert doc["experiment"] == "fig9"
    assert doc["config"] == {"k": 64}
    # Env capture: REPRO_* flags only.
    assert doc["env"]["REPRO_MAX_EDGES"] == "60000"
    assert "NOT_OURS" not in doc["env"]
    assert set(doc["versions"]) == {"python", "numpy", "scipy"}
    assert doc["platform"]["cpus"] == os.cpu_count()
    assert doc["platform"]["cpu_model"] == cpu_model()
    assert doc["platform"]["cpu_model"]  # never empty: "unknown" at worst
    assert "estimate_cache.hits" in doc["metrics"]


def test_write_manifest_round_trip(tmp_path):
    path = write_manifest("table3", str(tmp_path), config={"k": 32})
    assert path == str(tmp_path / "table3.manifest.json")
    with open(path) as f:
        doc = json.load(f)
    assert doc["experiment"] == "table3"
    assert doc["config"] == {"k": 32}


def test_write_report_emits_manifest_beside_report(tmp_path, monkeypatch):
    from repro.bench.runner import write_report

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    path = write_report("toy", "report body", config={"k": 8})
    assert path == str(tmp_path / "toy.txt")
    with open(path) as f:
        assert f.read() == "report body\n"
    with open(tmp_path / "toy.manifest.json") as f:
        doc = json.load(f)
    assert doc["experiment"] == "toy"
    assert doc["config"] == {"k": 8}
    assert doc["metrics"]["bench.reports"] == 1


def test_cpu_model_falls_back_without_proc_cpuinfo(monkeypatch):
    import builtins
    import platform

    real_open = builtins.open

    def no_procfs(path, *args, **kwargs):
        if path == "/proc/cpuinfo":
            raise OSError("no procfs")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_procfs)
    monkeypatch.setattr(platform, "processor", lambda: "")
    assert cpu_model() == (platform.machine() or "unknown")
