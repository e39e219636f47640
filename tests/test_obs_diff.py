"""The perf-regression comparator (repro.obs diff)."""

import json

import pytest

from repro.obs.diff import (
    ReportError,
    diff_reports,
    is_timing_key,
    load_report,
)
from repro.obs.__main__ import main as obs_main

pytestmark = pytest.mark.obs


def _harness_report(fig9_s=0.4, fig12_s=5.0, hits=100):
    """A BENCH_harness.json-shaped document."""
    return {
        "pipelines": {
            "fig9": {"seconds": fig9_s, "estimate_cache_hits": hits},
            "fig12": {"seconds": fig12_s, "estimate_cache_misses": 20},
        },
        "estimate_cache": {"hits": hits, "hit_rate": 0.33},
        "meta": {"cpus": 4},
    }


# ----------------------------------------------------------------------
# diff_reports
# ----------------------------------------------------------------------

def test_identical_reports_pass():
    result = diff_reports(_harness_report(), _harness_report())
    assert result.ok
    assert result.regressions == []
    assert "ok" in result.render()


def test_regression_past_threshold_flags():
    result = diff_reports(
        _harness_report(fig9_s=0.4), _harness_report(fig9_s=0.5)
    )
    assert not result.ok
    (reg,) = result.regressions
    assert reg.path == "pipelines.fig9.seconds"
    assert reg.rel_change == pytest.approx(0.25)
    assert "REGRESSION" in result.render()


def test_threshold_is_inclusive_boundary():
    # Exactly +10% (the default threshold) is allowed; just above is not.
    at = diff_reports(
        _harness_report(fig9_s=1.0), _harness_report(fig9_s=1.10)
    )
    assert at.ok
    above = diff_reports(
        _harness_report(fig9_s=1.0), _harness_report(fig9_s=1.1001)
    )
    assert not above.ok


def test_improvement_and_info_changes_pass():
    # Faster timing + changed counters: not a regression.
    result = diff_reports(
        _harness_report(fig9_s=0.4, hits=100),
        _harness_report(fig9_s=0.2, hits=999),
    )
    assert result.ok


def test_non_timing_keys_never_gate():
    old = {"estimate_cache": {"hits": 10}}
    new = {"estimate_cache": {"hits": 10_000}}
    assert diff_reports(old, new).ok


def test_keys_in_only_one_report_are_not_gated():
    old = _harness_report()
    new = _harness_report()
    del new["pipelines"]["fig12"]
    new["pipelines"]["table3"] = {"seconds": 1.0}
    result = diff_reports(old, new)
    assert result.ok
    paths = {e.path: e for e in result.entries}
    assert paths["pipelines.fig12.seconds"].new is None
    assert paths["pipelines.table3.seconds"].old is None


def test_zero_baseline_is_not_a_regression():
    old = {"x": {"seconds": 0.0}}
    new = {"x": {"seconds": 5.0}}
    assert diff_reports(old, new).ok


def test_is_timing_key():
    assert is_timing_key("pipelines.fig9.seconds")
    assert is_timing_key("a.b.time_s")
    assert is_timing_key("wall_seconds")
    assert is_timing_key("dispatch.inline.per_request_us")
    assert is_timing_key("frontier.full.elapsed_s")
    assert not is_timing_key("estimate_cache.hits")
    assert not is_timing_key("meta.cpus")
    assert not is_timing_key("dispatch.inline.requests_per_s")
    assert not is_timing_key("frontier.speedup")


def test_dispatch_and_frontier_timings_gate():
    old = {
        "dispatch": {"inline": {"per_request_us": 20.0, "elapsed_s": 0.004,
                                "requests_per_s": 50000.0}},
        "frontier": {"full": {"elapsed_s": 0.2}, "speedup": 1.7},
    }
    slow_dispatch = json.loads(json.dumps(old))
    slow_dispatch["dispatch"]["inline"]["per_request_us"] = 30.0
    result = diff_reports(old, slow_dispatch, threshold=0.25)
    assert [e.path for e in result.regressions] == [
        "dispatch.inline.per_request_us"
    ]
    slow_frontier = json.loads(json.dumps(old))
    slow_frontier["frontier"]["full"]["elapsed_s"] = 0.3
    slow_frontier["frontier"]["speedup"] = 1.0  # informational only
    result = diff_reports(old, slow_frontier, threshold=0.25)
    assert [e.path for e in result.regressions] == ["frontier.full.elapsed_s"]


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        diff_reports({}, {}, threshold=-0.1)


# ----------------------------------------------------------------------
# load_report + CLI exit codes
# ----------------------------------------------------------------------

def _write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


def test_load_report_failures(tmp_path):
    with pytest.raises(ReportError, match="cannot read"):
        load_report(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ReportError, match="malformed JSON"):
        load_report(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ReportError, match="JSON object"):
        load_report(str(arr))


def test_cli_exit_codes(tmp_path, capsys):
    old = _write(tmp_path / "old.json", _harness_report(fig9_s=0.4))
    same = _write(tmp_path / "same.json", _harness_report(fig9_s=0.4))
    slow = _write(tmp_path / "slow.json", _harness_report(fig9_s=0.9))
    bad = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text("nope{")

    assert obs_main(["diff", old, same]) == 0
    assert obs_main(["diff", old, slow]) == 1
    out = capsys.readouterr().out
    assert "pipelines.fig9.seconds" in out
    # A loose threshold lets the same regression through.
    assert obs_main(["diff", old, slow, "--threshold", "2.0"]) == 0
    assert obs_main(["diff", old, bad]) == 2
    assert obs_main(["diff", old, same, "--threshold", "-1"]) == 2


def test_cli_diffs_committed_bench_harness_baseline(capsys):
    """The verify-recipe invocation: the committed baseline vs itself."""
    import os

    baseline = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_harness.json",
    )
    assert obs_main(["diff", baseline, baseline, "--threshold", "0.15"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_snapshot_prints_json(capsys):
    assert obs_main(["snapshot"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "estimate_cache.hits" in doc
