"""Adversarial fixtures — known-bad inputs every analysis layer must flag.

Three corpora live here:

* **plans** — hand-built :class:`~repro.analysis.schedule.KernelPlan`
  objects, each exhibiting exactly one scheduling bug
  (:data:`ADVERSARIAL_PLANS`, exercised via ``--fixture <name>``);
* **source files** — modules under ``procsafety/`` each statically
  violating one concurrency/lifecycle rule family, exercised via
  ``python -m repro.analysis --procsafety <file>``
  (:func:`procsafety_fixture_files`);
* **lint source files** — modules under ``lint/`` each violating one
  determinism-linter rule, exercised via ``python -m repro.analysis
  --no-plans --no-procsafety <file>`` (:func:`lint_fixture_files`).

Both serve the same two purposes: regression tests assert the analyzers
raise the *right* rule id for each, and CI requires a nonzero exit on
every one of them (the gate's negative control — a checker that passes
everything is worthless).  Directory walks of the analyzers skip this
package, so the corpus never pollutes a clean-tree run.
"""

from __future__ import annotations

import numpy as np

from ...gpusim import LaunchConfig, TESLA_V100
from ..schedule import MERGE_ATOMIC, MERGE_NONE, KernelPlan

#: Deterministic row stream: 48 nnz over rows 0..11, row-sorted, with
#: row boundaries that do NOT align with 8-element slices.
_ROW = np.repeat(np.arange(12, dtype=np.int64), 4)
_NNZ = int(_ROW.size)
_CFG = LaunchConfig(warps_per_block=8, registers_per_thread=32)


def _base(**kw) -> KernelPlan:
    defaults = dict(
        kernel="fixture",
        op="spmm",
        nnz=_NNZ,
        k=64,
        row=_ROW,
        merge=MERGE_ATOMIC,
        config=_CFG,
        device=TESLA_V100,
    )
    defaults.update(kw)
    return KernelPlan(**defaults)


def gap_plan() -> KernelPlan:
    """Slices drop nnz [16, 24): silently missing work → plan/coverage-gap."""
    return _base(
        kernel="fixture-gap",
        starts=np.array([0, 8, 24, 32, 40]),
        ends=np.array([8, 16, 32, 40, 48]),
    )


def overlap_plan() -> KernelPlan:
    """Slices 1 and 2 both cover [12, 16): double accumulation →
    plan/coverage-overlap."""
    return _base(
        kernel="fixture-overlap",
        starts=np.array([0, 8, 12, 24, 32, 40]),
        ends=np.array([8, 16, 24, 32, 40, 48]),
    )


def race_plan() -> KernelPlan:
    """6-element slices split rows mid-stream with plain stores: rows 1,
    2, 4, ... are written by two warps each → plan/row-race."""
    starts = np.arange(0, _NNZ, 6, dtype=np.int64)
    return _base(
        kernel="fixture-race",
        starts=starts,
        ends=np.minimum(starts + 6, _NNZ),
        merge=MERGE_NONE,
    )


def occupancy_plan() -> KernelPlan:
    """A launch config exceeding every V100 block-level limit →
    plan/threads-per-block, plan/registers, plan/smem."""
    cfg = LaunchConfig(
        warps_per_block=64,                # 2048 threads > 1024 limit
        registers_per_thread=256,          # > 255 limit
        shared_mem_per_block=128 * 1024,   # > 96 KiB limit
    )
    starts = np.arange(0, _NNZ, 8, dtype=np.int64)
    return _base(
        kernel="fixture-occupancy",
        starts=starts,
        ends=np.minimum(starts + 8, _NNZ),
        config=cfg,
    )


#: Registry: fixture name -> builder; all must fail check_plan.
ADVERSARIAL_PLANS = {
    "gap": gap_plan,
    "overlap": overlap_plan,
    "race": race_plan,
    "occupancy": occupancy_plan,
}


# ----------------------------------------------------------------------
# Source-code fixtures (negative controls for layers 2 and 3)
# ----------------------------------------------------------------------

def procsafety_fixture_dir() -> str:
    """Directory of the adversarial source-code fixtures."""
    import os

    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "procsafety")


def _py_files(d: str) -> list[str]:
    import os

    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".py")
    )


def procsafety_fixture_files() -> list[str]:
    """Sorted paths of the procsafety bad-code corpus.

    Each file statically violates exactly one rule family and MUST make
    ``python -m repro.analysis --procsafety <file>`` exit nonzero — the
    CI negative-control loop and ``tests/test_procsafety.py`` both
    iterate this list.
    """
    return _py_files(procsafety_fixture_dir())


def lint_fixture_files() -> list[str]:
    """Sorted paths of the determinism-linter bad-code corpus.

    Each file violates exactly one lint rule and MUST make ``python -m
    repro.analysis --no-plans --no-procsafety <file>`` exit nonzero.
    """
    import os

    return _py_files(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint")
    )
