"""End-to-end CLI gate: ``python -m repro.analysis`` exit codes.

The acceptance criteria the driver enforces: exit 0 on the repo as-is,
nonzero on each seeded adversarial fixture.  These run the real module
in a subprocess so the exit-code plumbing itself is under test.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (
    ADVERSARIAL_PLANS,
    lint_fixture_files,
    procsafety_fixture_files,
)

pytestmark = pytest.mark.analysis

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_repo_passes_with_exit_zero():
    proc = _run("--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["exit_code"] == 0
    assert payload["counts"]["error"] == 0
    assert payload["plans_checked"] > 0
    assert payload["files_linted"] > 0
    assert payload["files_scanned"] > 0


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_PLANS))
def test_each_adversarial_fixture_exits_nonzero(name):
    proc = _run("--fixture", name, "--json")
    assert proc.returncode != 0, f"fixture {name!r} passed: {proc.stdout}"
    payload = json.loads(proc.stdout)
    assert payload["counts"]["error"] > 0
    rules = {d["rule"] for d in payload["diagnostics"]}
    expected = {
        "gap": "plan/coverage-gap",
        "overlap": "plan/coverage-overlap",
        "race": "plan/row-race",
        "occupancy": "plan/threads-per-block",
    }[name]
    assert expected in rules


def test_lint_only_on_one_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
    proc = _run("--no-plans", str(bad))
    assert proc.returncode == 1
    assert "lint/unseeded-rng" in proc.stdout


def test_lint_fixtures_exit_nonzero():
    # The linter's negative control: a clean-tree walk skips the
    # fixture corpus, so each file is analyzed explicitly.
    for path in lint_fixture_files():
        proc = _run("--no-plans", "--no-procsafety", path)
        assert proc.returncode == 1, f"lint fixture {path} passed"


def test_text_output_ends_with_summary_line():
    proc = _run("--no-lint")
    assert proc.returncode == 0
    last = proc.stdout.strip().splitlines()[-1]
    assert "plans checked" in last and "0 errors" in last


# -- the procsafety layer and waiver listing -----------------------------

def test_procsafety_mode_clean_tree_exits_zero():
    proc = _run("--procsafety", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["exit_code"] == 0
    assert payload["files_scanned"] > 50
    # Only the requested layer ran.
    assert payload["plans_checked"] == 0
    assert payload["files_linted"] == 0


def test_procsafety_mode_fixture_exits_nonzero():
    # One fixture through the real CLI pins the exit-code plumbing; the
    # full corpus is covered in-process (test_procsafety) and by CI.
    fixture = procsafety_fixture_files()[0]
    proc = _run("--procsafety", fixture, "--json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["counts"]["error"] > 0


def test_procsafety_violation_on_one_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import os\n"
        "def f():\n"
        "    return os.getenv('REPRO_BOGUS_KNOB')\n"
    )
    proc = _run("--procsafety", str(bad))
    assert proc.returncode == 1
    assert "procsafety/env-drift" in proc.stdout


def test_no_procsafety_skips_the_layer(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import os\n"
        "def f():\n"
        "    return os.getenv('REPRO_BOGUS_KNOB')\n"
    )
    proc = _run("--no-plans", "--no-procsafety", str(bad))
    assert proc.returncode == 0, proc.stdout


def test_list_waivers_inventories_the_tree():
    proc = _run("--list-waivers")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "allow(wallclock)" in proc.stdout
    last = proc.stdout.strip().splitlines()[-1]
    assert "waivers in" in last and "files" in last
    # Every listed waiver prints its justification, never a blank.
    for line in proc.stdout.strip().splitlines()[:-1]:
        assert " — " in line and not line.endswith("— ")
