"""Perf-regression comparator for JSON bench reports.

``python -m repro.obs diff OLD.json NEW.json --threshold 0.10`` compares
two machine-readable reports — the wall-clock harness output
(``BENCH_harness.json``), a run manifest, or any JSON document with
numeric leaves — and exits nonzero when a **timing** value regressed
past the threshold.  This is what finally gives ``BENCH_harness.json`` a
trajectory: the verify recipe diffs a fresh harness run against the
committed baseline, so a PR that slows a pipeline down >15 % goes red
instead of silently re-baselining.

Rules:

* a leaf is *gated* when its final key names a timing
  (``seconds``, ``*_seconds``, ``time_s``, ``total_s``, ``time_us``,
  ``wall_s``, ``elapsed_s``, ``per_request_us``) — the last two cover
  the harness's ``dispatch.*`` and ``frontier.*`` sections;
* a gated leaf regresses when ``new > old * (1 + threshold)`` (an old
  value of 0 is never a regression baseline — reported as info only);
* non-timing numeric leaves (cache hits, counters) are reported as
  informational changes and never affect the exit code;
* keys present in only one report are reported but not gated.

Exit codes: 0 = within threshold, 1 = regression, 2 = malformed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Final key names (or suffixes) that mark a leaf as wall-clock timing.
_TIMING_KEYS = (
    "seconds",
    "time_s",
    "total_s",
    "time_us",
    "wall_s",
    "elapsed_s",
    "per_request_us",
)
_TIMING_SUFFIX = "_seconds"


class ReportError(ValueError):
    """A report file is missing, unreadable, or not a JSON object."""


def load_report(path: str) -> dict:
    """Load one JSON report, normalizing failures to :class:`ReportError`."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ReportError(f"cannot read report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportError(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReportError(
            f"report {path!r} must be a JSON object, got "
            f"{type(doc).__name__}"
        )
    return doc


def _numeric_leaves(doc, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts/lists to ``dotted.path -> float`` leaves."""
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = ((str(i), v) for i, v in enumerate(doc))
    else:
        return out
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, (dict, list)):
            out.update(_numeric_leaves(value, path))
    return out


def is_timing_key(path: str) -> bool:
    last = path.rsplit(".", 1)[-1]
    return last in _TIMING_KEYS or last.endswith(_TIMING_SUFFIX)


@dataclass(frozen=True)
class DiffEntry:
    """One compared numeric leaf."""

    path: str
    old: float | None
    new: float | None
    gated: bool
    regressed: bool

    @property
    def rel_change(self) -> float | None:
        if self.old in (None, 0) or self.new is None:
            return None
        return (self.new - self.old) / self.old

    def render(self) -> str:
        if self.old is None:
            return f"  + {self.path}: (absent) -> {self.new:g}"
        if self.new is None:
            return f"  - {self.path}: {self.old:g} -> (absent)"
        rel = self.rel_change
        pct = f"{100.0 * rel:+.1f}%" if rel is not None else "n/a"
        mark = "REGRESSION" if self.regressed else (
            "timing" if self.gated else "info"
        )
        return f"  {mark:>10}  {self.path}: {self.old:g} -> {self.new:g} ({pct})"


@dataclass
class DiffResult:
    """Comparison of every numeric leaf of two reports."""

    entries: list[DiffEntry]
    threshold: float

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, *, verbose: bool = False) -> str:
        lines = []
        changed = [
            e
            for e in self.entries
            if e.regressed or verbose or (e.gated and e.old != e.new)
        ]
        lines.extend(e.render() for e in changed)
        n_gated = sum(1 for e in self.entries if e.gated)
        verdict = (
            f"{len(self.regressions)} regression(s) past "
            f"{100.0 * self.threshold:.0f}%"
            if self.regressions
            else f"ok: {n_gated} timing value(s) within "
            f"{100.0 * self.threshold:.0f}%"
        )
        lines.append(verdict)
        return "\n".join(lines)


def diff_reports(old: dict, new: dict, threshold: float = 0.10) -> DiffResult:
    """Compare two loaded reports; see the module docstring for rules."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    old_leaves = _numeric_leaves(old)
    new_leaves = _numeric_leaves(new)
    paths = sorted(old_leaves.keys() | new_leaves.keys())
    entries = []
    for path in paths:
        o = old_leaves.get(path)
        n = new_leaves.get(path)
        gated = is_timing_key(path) and o is not None and n is not None
        regressed = bool(gated and o > 0 and n > o * (1.0 + threshold))
        entries.append(
            DiffEntry(path=path, old=o, new=n, gated=gated, regressed=regressed)
        )
    return DiffResult(entries=entries, threshold=threshold)
