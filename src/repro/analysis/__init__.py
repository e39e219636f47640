"""``repro.analysis`` — schedule checking, determinism linting, procsafety.

Three layers, one entry point (``python -m repro.analysis``):

* :mod:`~repro.analysis.schedule` statically verifies kernel task
  decompositions (coverage, races, occupancy, HVMA preconditions)
  without running the simulator;
* :mod:`~repro.analysis.lint` walks the source tree enforcing the
  repo's determinism and numerics rules;
* :mod:`~repro.analysis.procsafety` walks the same tree enforcing the
  host-side concurrency and resource-lifecycle rules (fork safety,
  shared-store lifecycle, lock discipline, env-var config drift).

:func:`run_all` drives all three and returns a single
:class:`~repro.analysis.diagnostics.Report` whose ``exit_code`` is the
CI gate.  Kernel tests get the same checks through the ``check_plan``
pytest fixture (:mod:`repro.analysis.pytest_plugin`), and the bench
runner checks every sweep point's plan before simulating it.
"""

from __future__ import annotations

from ..formats import HybridMatrix
from ..gpusim import DeviceSpec, RTX_3090, TESLA_A30, TESLA_V100
from .diagnostics import ERROR, INFO, SEVERITIES, WARNING, Diagnostic, Report
from .fixtures import (
    ADVERSARIAL_PLANS,
    lint_fixture_files,
    procsafety_fixture_files,
)
from .lint import default_lint_root, iter_python_files, lint_paths, lint_source
from .procsafety import procsafety_paths, procsafety_source
from .schedule import (
    MERGE_ATOMIC,
    MERGE_NONE,
    MERGE_PRIVATE,
    KernelPlan,
    check_plan,
    plan_errors,
    plan_for_kernel,
)

__all__ = [
    "ADVERSARIAL_PLANS",
    "Diagnostic",
    "ERROR",
    "INFO",
    "KernelPlan",
    "MERGE_ATOMIC",
    "MERGE_NONE",
    "MERGE_PRIVATE",
    "Report",
    "SEVERITIES",
    "WARNING",
    "check_plan",
    "check_shipped_kernels",
    "default_check_matrix",
    "iter_python_files",
    "lint_fixture_files",
    "lint_paths",
    "lint_source",
    "plan_errors",
    "plan_for_kernel",
    "procsafety_fixture_files",
    "procsafety_paths",
    "procsafety_source",
    "run_all",
]

#: Feature widths the shipped-config check exercises: one HVMA-aligned
#: (vector loads engaged) and one that defeats alignment (K % 32 != 0).
CHECK_KS = (64, 48)


def default_check_matrix() -> HybridMatrix:
    """Small deterministic community graph for shipped-config checking."""
    from ..graphs.generators import community_graph

    return community_graph(
        1024, 8192, gamma=2.1, num_communities=16, p_in=0.7, seed=7
    )


def check_shipped_kernels(
    S: HybridMatrix | None = None,
    *,
    ks: tuple[int, ...] = CHECK_KS,
    devices: tuple[DeviceSpec, ...] = (TESLA_V100, TESLA_A30, RTX_3090),
) -> Report:
    """Plan-check every registered kernel config on every device preset."""
    from ..kernels.api import SDDMM_REGISTRY, SPMM_REGISTRY

    if S is None:
        S = default_check_matrix()
    report = Report()
    for registry in (SPMM_REGISTRY, SDDMM_REGISTRY):
        for name in sorted(registry):
            kernel = registry[name]()
            for device in devices:
                for k in ks:
                    plan = plan_for_kernel(kernel, S, k, device)
                    report.extend(check_plan(plan))
                    report.plans_checked += 1
    return report


def run_all(
    paths: list[str] | None = None,
    *,
    plans: bool = True,
    lint: bool = True,
    procsafety: bool = True,
) -> Report:
    """Run the enabled analysis layers; the combined report gates CI.

    When both source layers run over the same files, the lint layer
    owns the malformed-waiver audit so each bad waiver is reported
    exactly once.
    """
    report = Report()
    if plans:
        plan_report = check_shipped_kernels()
        report.extend(plan_report.diagnostics)
        report.plans_checked = plan_report.plans_checked
    roots = paths or [default_lint_root()]
    if lint:
        diags, nfiles = lint_paths(roots)
        report.extend(diags)
        report.files_linted = nfiles
    if procsafety:
        diags, nfiles = procsafety_paths(roots, audit_unknown=not lint)
        report.extend(diags)
        report.files_scanned = nfiles
    return report
