"""Lint-waiver parsing and auditing, shared by every analysis layer.

A line can waive one rule with a trailing justification comment::

    t0 = time.perf_counter()  # lint: allow(wallclock) measured host pass

PR 2 introduced the syntax; this module (PR 7) tightens the contract:

* a waiver must name a **known** short rule id (the part after the
  ``lint/`` or ``procsafety/`` prefix) — unknown names are
  ``waiver/bad`` errors instead of silently suppressing nothing;
* a waiver must carry a **reason** after the closing paren — a bare
  ``allow(wallclock)`` is a ``waiver/bad`` error;
* a waiver that suppressed no finding of a rule family that actually
  ran is a ``waiver/stale`` error — stale waivers are how bypasses
  outlive the code they excused.

Waivers are collected from real comment tokens (via :mod:`tokenize`),
so waiver examples inside docstrings — like the one at the top of this
docstring — are documentation, not suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from .diagnostics import ERROR, Diagnostic

_WAIVER_RE = re.compile(r"lint:\s*allow\(([a-z0-9-]*)\)\s*(.*)")

#: Short rule ids of the determinism linter (:mod:`repro.analysis.lint`).
LINT_RULES = frozenset(
    {
        "unseeded-rng",
        "set-iteration",
        "wallclock",
        "float32-accum",
        "bare-unique",
    }
)

#: Short rule ids of the concurrency/resource analyzer
#: (:mod:`repro.analysis.procsafety`).  Kept here (not imported) so the
#: two modules share no import edge; ``tests/test_procsafety.py`` pins
#: the two lists against each other.
PROCSAFETY_RULES = frozenset(
    {
        "thread-before-fork",
        "module-lock-with-fork",
        "tracer-not-restored",
        "leaked-resource-on-error",
        "write-readonly-view",
        "publish-without-cleanup",
        "handle-without-gate",
        "lock-order-cycle",
        "nested-lock-call",
        "blocking-under-lock",
        "env-drift",
    }
)

#: Every waivable short rule id.
KNOWN_RULES = LINT_RULES | PROCSAFETY_RULES


@dataclass
class Waiver:
    """One parsed ``# lint: allow(<rule>) <reason>`` comment."""

    line: int
    rule: str
    reason: str
    used: bool = field(default=False, compare=False)


class WaiverSet:
    """All of one file's waivers, with per-run usage accounting."""

    def __init__(self, waivers: list[Waiver], path: str) -> None:
        self.path = path
        self._by_line: dict[int, list[Waiver]] = {}
        for w in waivers:
            self._by_line.setdefault(w.line, []).append(w)

    def __iter__(self):
        for line in sorted(self._by_line):
            yield from self._by_line[line]

    def __len__(self) -> int:
        return sum(len(ws) for ws in self._by_line.values())

    def suppresses(self, line: int, short_rule: str) -> bool:
        """True when ``line`` carries a valid waiver for ``short_rule``.

        A match is recorded as *used* (feeding stale detection).  Only
        well-formed waivers — known rule id plus a reason — suppress.
        """
        for w in self._by_line.get(line, ()):
            if w.rule == short_rule and w.rule in KNOWN_RULES and w.reason:
                w.used = True
                return True
        return False

    def audit(
        self, active_rules: frozenset[str], *, audit_unknown: bool = True
    ) -> list[Diagnostic]:
        """Bad/stale waiver diagnostics for this run.

        ``active_rules`` is the set of short rule ids the calling layer
        actually checked — a waiver for a rule family that did not run
        cannot be judged stale by this run.  ``audit_unknown`` gates the
        malformed-waiver check so a combined run (lint + procsafety over
        the same files) reports each bad waiver once.
        """
        diags: list[Diagnostic] = []
        for w in self:
            if not w.rule or w.rule not in KNOWN_RULES:
                if audit_unknown:
                    diags.append(
                        Diagnostic(
                            "waiver/bad", ERROR, self.path,
                            f"waiver names unknown rule {w.rule!r}",
                            location=f"line {w.line}",
                            hint=(
                                "waive one known short rule id, e.g. "
                                "`# lint: allow(wallclock) <why>`"
                            ),
                        )
                    )
                continue
            if not w.reason:
                if audit_unknown:
                    diags.append(
                        Diagnostic(
                            "waiver/bad", ERROR, self.path,
                            f"waiver for {w.rule!r} has no justification",
                            location=f"line {w.line}",
                            hint=(
                                "append the reason after the paren: "
                                f"`# lint: allow({w.rule}) <why>`"
                            ),
                        )
                    )
                continue
            if w.rule in active_rules and not w.used:
                diags.append(
                    Diagnostic(
                        "waiver/stale", ERROR, self.path,
                        f"waiver for {w.rule!r} suppresses nothing "
                        f"(the rule no longer fires here)",
                        location=f"line {w.line}",
                        hint="delete the waiver comment",
                    )
                )
        return diags


def collect_waivers(source: str, path: str = "<string>") -> WaiverSet:
    """Parse ``source``'s comment tokens into a :class:`WaiverSet`.

    Only real comments count — a waiver spelled inside a string literal
    or docstring is documentation.  Sources that cannot be tokenized
    (the syntax-error path; ``lint/syntax`` reports those) yield an
    empty set.
    """
    waivers: list[Waiver] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            for m in _WAIVER_RE.finditer(tok.string):
                waivers.append(
                    Waiver(
                        line=tok.start[0],
                        rule=m.group(1),
                        reason=m.group(2).strip(),
                    )
                )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return WaiverSet([], path)
    return WaiverSet(waivers, path)
