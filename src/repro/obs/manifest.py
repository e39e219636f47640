"""Run manifests: the provenance record written next to every report.

A report file alone (``results/fig9.txt``) says nothing about *how* it
was produced.  The manifest captures the reproducibility-relevant state
— experiment id and kwargs, library versions, every ``REPRO_*`` env
flag, and the unified metrics snapshot — as
``results/<experiment>.manifest.json``.  Deliberately excluded: wall
clock timestamps and hostnames, so manifests from identical runs diff
clean (the determinism linter also bans wall-clock reads here).

Schema (all keys always present)::

    {
      "schema": "repro.obs.manifest/v1",
      "experiment": "fig9",
      "config": {...},              # runner kwargs, if the caller knows them
      "env": {"REPRO_MAX_EDGES": "60000", ...},   # REPRO_* only
      "versions": {"python": "3.11.7", "numpy": ..., "scipy": ...},
      "platform": {"machine": "x86_64", "cpus": 8, "cpu_model": "..."},
      "metrics": {...}              # repro.obs.metrics.snapshot()
    }
"""

from __future__ import annotations

import json
import os
import platform

from .metrics import snapshot

SCHEMA = "repro.obs.manifest/v1"


def _repro_env() -> dict[str, str]:
    """Every ``REPRO_*`` environment flag, sorted by name."""
    return {
        k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
    }


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def cpu_model() -> str:
    """The CPU's model name (``/proc/cpuinfo``), else what ``platform``
    knows, else ``"unknown"``."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def run_manifest(experiment: str, config: dict | None = None) -> dict:
    """Build the manifest payload for one experiment run."""
    return {
        "schema": SCHEMA,
        "experiment": experiment,
        "config": dict(config or {}),
        "env": _repro_env(),
        "versions": _versions(),
        "platform": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "cpu_model": cpu_model(),
        },
        "metrics": snapshot(),
    }


def write_manifest(
    experiment: str, directory: str, config: dict | None = None
) -> str:
    """Write ``<directory>/<experiment>.manifest.json``; returns the path."""
    payload = run_manifest(experiment, config)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{experiment}.manifest.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return path
