"""Layer 2 — AST-based determinism & numerics linter for ``src/repro``.

The simulator's central promise is that every reported "GPU" number is a
pure function of (matrix, kernel config, device spec); see DESIGN.md.
This linter enforces the repo-specific rules that protect that promise:

* ``lint/unseeded-rng`` — no unseeded NumPy randomness: legacy
  ``np.random.*`` module-level calls are banned outright (they mutate
  hidden global state), and ``np.random.default_rng()`` /
  ``np.random.RandomState()`` must receive an explicit seed.  Thread a
  seeded ``Generator`` instead.
* ``lint/set-iteration`` — no iteration over ``set()`` results in
  result-producing code: Python set order is hash/salt-dependent, so
  ``for x in set(...)`` or ``list(set(...))`` leaks nondeterministic
  order into reports.  ``sorted(set(...))`` is the deterministic spelling
  and is allowed.
* ``lint/wallclock`` — no wall-clock reads (``time.time``,
  ``time.perf_counter``, ``datetime.now``...) outside the designated
  wall-clock surfaces.  Host-measured passes (the reorderer comparison,
  the bench harness) waive the rule inline with a justification.
* ``lint/float32-accum`` — reductions (``sum``/``mean``/``cumsum``/
  ``dot``) forced to ``dtype=np.float32`` accumulate error linearly in
  the reduction length; cost-model reductions must widen to float64
  (NumPy's default) and narrow at the edges instead.
* ``lint/bare-unique`` — no ``np.unique`` in the hot packages
  (:data:`UNIQUE_HOT_PACKAGES`).  On integer input NumPy 2.x's value-only
  ``np.unique`` takes a hash path tens of times slower than a sort; use
  :func:`repro.sortops.sorted_unique`.  Cold sites waive with a reason.

A line can waive one rule with a trailing justification comment::

    t0 = time.perf_counter()  # lint: allow(wallclock) measured host pass

Waiver parsing and auditing live in :mod:`repro.analysis.waivers`: a
waiver must name a known rule and carry a reason, and a waiver that
suppresses nothing is itself a ``waiver/stale`` error.
"""

from __future__ import annotations

import ast
import os

from .diagnostics import ERROR, Diagnostic
from .waivers import LINT_RULES, WaiverSet, collect_waivers

#: Legacy np.random functions that read/mutate the hidden global state.
_LEGACY_RNG = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "binomial",
    "get_state", "set_state",
}

#: Constructors that are fine *with* a seed, banned bare.
_SEEDED_CTORS = {"default_rng", "RandomState", "Generator", "SeedSequence"}

#: Wall-clock sources (module attr -> attribute names), including the
#: integer-nanosecond variants (the stale-waiver audit caught waivers on
#: ``perf_counter_ns`` lines this table used to miss).
_WALLCLOCK_ATTRS = {
    "time": {
        "time", "perf_counter", "monotonic", "process_time", "clock",
        "time_ns", "perf_counter_ns", "monotonic_ns", "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
}

#: NumPy/ndarray reductions where a float32 accumulator loses precision.
_REDUCTIONS = {"sum", "mean", "cumsum", "nansum", "nanmean", "dot", "trace"}

#: Iteration sinks that materialize set order.
_ORDER_SINKS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: ``repro`` subpackages where ``lint/bare-unique`` applies.
UNIQUE_HOT_PACKAGES = frozenset(
    {"graphs", "gpusim", "analysis", "kernels", "formats", "reorder", "engine"}
)


def _repro_package(path: str) -> str | None:
    """``.../repro/graphs/x.py`` -> ``"graphs"``; None outside a subpackage."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro")
    return parts[i + 1] if i + 2 < len(parts) else None


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


def _is_np_random(chain: list[str]) -> bool:
    return len(chain) >= 2 and chain[0] in ("np", "numpy") and chain[1] == "random"


def _is_set_expr(node: ast.AST) -> bool:
    """A ``set(...)``/``frozenset(...)`` call, set display, or set comp."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra (a | b, a - b) stays a set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_float32(node: ast.AST) -> bool:
    chain = _attr_chain(node)
    return chain[-1:] == ["float32"] or (
        isinstance(node, ast.Constant) and node.value == "float32"
    )


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, waivers: WaiverSet):
        self.path = path
        self.waivers = waivers
        self.diags: list[Diagnostic] = []
        self.unique_hot = _repro_package(path) in UNIQUE_HOT_PACKAGES

    def _report(self, node: ast.AST, rule: str, message: str, hint: str) -> None:
        line = getattr(node, "lineno", 0)
        short = rule.split("/", 1)[1]
        if self.waivers.suppresses(line, short):
            return
        self.diags.append(
            Diagnostic(
                rule,
                ERROR,
                self.path,
                message,
                location=f"line {line}",
                hint=hint,
            )
        )

    # -- rng ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if _is_np_random(chain) and len(chain) == 3:
            fn = chain[2]
            if fn in _LEGACY_RNG:
                self._report(
                    node,
                    "lint/unseeded-rng",
                    f"legacy global-state RNG call np.random.{fn}(...)",
                    "thread a seeded np.random.default_rng(seed) Generator",
                )
            elif fn in _SEEDED_CTORS and not node.args and not node.keywords:
                self._report(
                    node,
                    "lint/unseeded-rng",
                    f"np.random.{fn}() constructed without a seed",
                    "pass an explicit integer seed",
                )

        # -- bare np.unique ----------------------------------------------
        if self.unique_hot and chain in (["np", "unique"], ["numpy", "unique"]):
            self._report(
                node,
                "lint/bare-unique",
                f"{'.'.join(chain)}(...) in a hot package (NumPy's hash "
                "path is tens of times slower than a sort on int keys)",
                "use repro.sortops.sorted_unique; a cold site waives with "
                "`# lint: allow(bare-unique) <why>`",
            )

        # -- wallclock ---------------------------------------------------
        if len(chain) >= 2:
            mod, attr = chain[-2], chain[-1]
            if attr in _WALLCLOCK_ATTRS.get(mod, ()):  # time.time() etc.
                self._report(
                    node,
                    "lint/wallclock",
                    f"wall-clock read {mod}.{attr}() in simulator-adjacent "
                    "code",
                    "simulated numbers must be pure functions of their "
                    "inputs; measured host passes waive with "
                    "`# lint: allow(wallclock) <why>`",
                )

        # -- float32 accumulation ----------------------------------------
        is_reduction = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _REDUCTIONS
        )
        if is_reduction:
            for kw in node.keywords:
                if kw.arg == "dtype" and _is_float32(kw.value):
                    self._report(
                        node,
                        "lint/float32-accum",
                        f"reduction .{node.func.attr}(dtype=float32) "
                        "accumulates rounding error linearly",
                        "accumulate in float64 (NumPy's default) and cast "
                        "the result at the edge",
                    )
            # x.astype(np.float32).sum(): the accumulator dtype follows
            # the array dtype, so the widening was thrown away early.
            recv = node.func.value
            if (
                isinstance(recv, ast.Call)
                and isinstance(recv.func, ast.Attribute)
                and recv.func.attr == "astype"
                and recv.args
                and _is_float32(recv.args[0])
            ):
                self._report(
                    node,
                    "lint/float32-accum",
                    f"narrowing .astype(float32) immediately before "
                    f".{node.func.attr}() forces a float32 accumulator",
                    "reduce first, then narrow the scalar result",
                )

        # -- set-order sinks ---------------------------------------------
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SINKS
            and node.args
            and _is_set_expr(node.args[0])
        ):
            self._report(
                node,
                "lint/set-iteration",
                f"{node.func.id}(set(...)) materializes hash-dependent "
                "set order",
                "use sorted(set(...)) for a deterministic order",
            )
        self.generic_visit(node)

    def _check_iter(self, node: ast.AST, it: ast.AST) -> None:
        if _is_set_expr(it):
            self._report(
                node,
                "lint/set-iteration",
                "iteration over a set has hash-dependent order",
                "iterate sorted(set(...)) instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)


def lint_source(
    source: str, path: str = "<string>", *, audit_waivers: bool = True
) -> list[Diagnostic]:
    """Lint one module's source text; returns its diagnostics.

    ``audit_waivers`` additionally reports malformed (``waiver/bad``)
    and no-longer-suppressing (``waiver/stale``) waivers of the lint
    rule family.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                "lint/syntax",
                ERROR,
                path,
                f"cannot parse: {exc.msg}",
                location=f"line {exc.lineno}",
            )
        ]
    waivers = collect_waivers(source, path)
    visitor = _Visitor(path, waivers)
    visitor.visit(tree)
    diags = visitor.diags
    if audit_waivers:
        diags.extend(waivers.audit(LINT_RULES, audit_unknown=True))
    diags.sort(key=lambda d: int(d.location.split()[-1] or 0))
    return diags


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of .py files.

    Directory walks skip ``__pycache__`` and the analyzer's own
    adversarial-fixture corpus (``analysis/fixtures``) — fixture files
    violate the rules *by construction* and are only analyzed when
    passed explicitly (the CI negative-control loop does exactly that).
    """
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__"
                    and not (
                        d == "fixtures"
                        and os.path.basename(root) == "analysis"
                    )
                )
                out.extend(
                    os.path.join(root, f)
                    for f in sorted(files)
                    if f.endswith(".py")
                )
        elif p.endswith(".py"):
            out.append(p)
    return sorted(set(out))


def lint_paths(paths: list[str]) -> tuple[list[Diagnostic], int]:
    """Lint every .py file under ``paths``; returns (diags, files seen)."""
    diags: list[Diagnostic] = []
    files = iter_python_files(paths)
    for f in files:
        with open(f, encoding="utf-8") as fh:
            diags.extend(lint_source(fh.read(), path=f))
    return diags, len(files)


def default_lint_root() -> str:
    """The ``src/repro`` tree this module was loaded from."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
