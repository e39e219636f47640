"""Layer-1 plan checker: adversarial fixtures, shipped kernels, rules.

The seeded adversarial plans each exhibit exactly one scheduling bug; the
tests here pin the *rule id* the checker raises for each, so a refactor
that silently stops detecting a bug class fails loudly.  The complement —
every shipped kernel config passes with zero errors — is the positive
control required by ISSUE acceptance criteria.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ADVERSARIAL_PLANS,
    ERROR,
    MERGE_ATOMIC,
    MERGE_NONE,
    MERGE_PRIVATE,
    KernelPlan,
    check_plan,
    check_shipped_kernels,
    plan_errors,
    plan_for_kernel,
)
from repro.analysis.fixtures import (
    gap_plan,
    occupancy_plan,
    overlap_plan,
    race_plan,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.schedule import _check_races
from repro.gpusim import LaunchConfig, TESLA_A30, TESLA_V100
from repro.kernels import make_spmm
from repro.kernels.api import SDDMM_REGISTRY, SPMM_REGISTRY
from repro.sortops import sorted_unique

pytestmark = pytest.mark.analysis

_CFG = LaunchConfig(warps_per_block=8, registers_per_thread=32)


def _rules(diags, severity=ERROR):
    return {d.rule for d in diags if d.severity == severity}


def _plan(starts, ends, *, nnz=48, row="default", merge=MERGE_ATOMIC, **kw):
    if isinstance(row, str):  # "default" sentinel (row may be an ndarray)
        row = np.repeat(np.arange(12, dtype=np.int64), 4)[:nnz]
    defaults = dict(
        kernel="test",
        op="spmm",
        nnz=nnz,
        k=64,
        starts=np.asarray(starts),
        ends=np.asarray(ends),
        row=row,
        merge=merge,
        config=_CFG,
        device=TESLA_V100,
    )
    defaults.update(kw)
    return KernelPlan(**defaults)


# -- adversarial fixtures: right rule id for each bug class --------------

def test_gap_fixture_flags_coverage_gap():
    rules = _rules(check_plan(gap_plan()))
    assert "plan/coverage-gap" in rules
    assert "plan/coverage-overlap" not in rules


def test_overlap_fixture_flags_coverage_overlap():
    rules = _rules(check_plan(overlap_plan()))
    assert "plan/coverage-overlap" in rules
    assert "plan/coverage-gap" not in rules


def test_race_fixture_flags_row_race():
    diags = check_plan(race_plan())
    assert "plan/row-race" in _rules(diags)
    # The offending diagnostic names a concrete racy row.
    racy = [d for d in diags if d.rule == "plan/row-race"]
    assert all(d.location.startswith("row ") for d in racy)


def test_occupancy_fixture_flags_all_three_limits():
    rules = _rules(check_plan(occupancy_plan()))
    assert {"plan/threads-per-block", "plan/registers", "plan/smem"} <= rules


def test_every_adversarial_fixture_fails():
    for name, builder in sorted(ADVERSARIAL_PLANS.items()):
        assert plan_errors(builder()), f"fixture {name!r} passed the checker"


# -- positive control: every shipped kernel config is clean --------------

def test_all_shipped_kernels_pass_clean():
    report = check_shipped_kernels()
    assert report.plans_checked == 2 * 3 * (
        len(SPMM_REGISTRY) + len(SDDMM_REGISTRY)
    )
    assert report.errors == [], "\n".join(d.render() for d in report.errors)


def test_plan_for_kernel_covers_every_registered_kernel(small_matrix):
    for registry in (SPMM_REGISTRY, SDDMM_REGISTRY):
        for name in sorted(registry):
            plan = plan_for_kernel(registry[name](), small_matrix, 64, TESLA_V100)
            assert plan.nnz == small_matrix.nnz


def test_plan_for_kernel_unknown_kernel_raises(small_matrix):
    class Mystery:
        name = "mystery-kernel"

    with pytest.raises(KeyError, match="mystery-kernel"):
        plan_for_kernel(Mystery(), small_matrix, 64, TESLA_V100)


def test_check_plan_fixture_integration(small_matrix, check_plan):
    diags = check_plan(make_spmm("hp-spmm"), small_matrix, k=64)
    assert "plan/wave-report" in {d.rule for d in diags}


# -- coverage rules ------------------------------------------------------

def test_exact_partition_passes():
    starts = np.arange(0, 48, 8)
    assert plan_errors(_plan(starts, starts + 8)) == []


def test_empty_stream_with_no_slices_passes():
    p = _plan(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
              nnz=0, row=np.array([], dtype=np.int64))
    assert plan_errors(p) == []


def test_nonzero_stream_with_no_slices_is_a_gap():
    p = _plan(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert _rules(check_plan(p)) == {"plan/coverage-gap"}


def test_missing_head_and_tail_are_gaps():
    p = _plan(np.array([8]), np.array([40]))
    msgs = [d.message for d in check_plan(p) if d.rule == "plan/coverage-gap"]
    assert len(msgs) == 2
    assert any("[0, 8)" in m for m in msgs)
    assert any("[40, 48)" in m for m in msgs)


def test_out_of_range_slice_is_slice_bounds():
    p = _plan(np.array([0]), np.array([64]))
    assert "plan/slice-bounds" in _rules(check_plan(p))


def test_unsorted_starts_is_slice_bounds():
    p = _plan(np.array([0, 24, 8]), np.array([24, 48, 24]))
    assert "plan/slice-bounds" in _rules(check_plan(p))


def test_mismatched_start_end_counts_is_slice_bounds():
    p = _plan(np.array([0, 8]), np.array([48]))
    assert "plan/slice-bounds" in _rules(check_plan(p))


# -- race rules ----------------------------------------------------------

def test_atomic_merge_suppresses_race():
    starts = np.arange(0, 48, 6)  # slices cross row boundaries
    p = _plan(starts, np.minimum(starts + 6, 48), merge=MERGE_ATOMIC)
    assert plan_errors(p) == []


def test_per_nnz_output_row_none_has_no_race():
    starts = np.arange(0, 48, 6)
    p = _plan(starts, np.minimum(starts + 6, 48), row=None, merge=MERGE_NONE)
    assert plan_errors(p) == []


def test_private_claim_verified_not_trusted():
    # MERGE_PRIVATE with slices that split a row must still be flagged.
    starts = np.arange(0, 48, 6)
    p = _plan(starts, np.minimum(starts + 6, 48), merge=MERGE_PRIVATE)
    assert "plan/row-race" in _rules(check_plan(p))


def test_private_claim_passes_on_row_aligned_slices():
    # 8-element slices == 2 whole rows each: genuinely private.
    starts = np.arange(0, 48, 8)
    p = _plan(starts, starts + 8, merge=MERGE_PRIVATE)
    assert plan_errors(p) == []


def test_race_check_skipped_until_partition_exact():
    # A plan with both a gap and row-splitting slices reports the gap
    # only — race attribution over a broken partition would be noise.
    starts = np.array([0, 14])
    p = _plan(starts, np.array([6, 48]), merge=MERGE_NONE)
    rules = _rules(check_plan(p))
    assert "plan/coverage-gap" in rules
    assert "plan/row-race" not in rules


def test_wrong_row_array_length_is_reported():
    starts = np.arange(0, 48, 8)
    p = _plan(starts, starts + 8, row=np.zeros(7, dtype=np.int64),
              merge=MERGE_NONE)
    racy = [d for d in check_plan(p) if d.rule == "plan/row-race"]
    assert racy and "7 entries for 48 nonzeros" in racy[0].message


# -- occupancy rules -----------------------------------------------------

def test_wave_report_present_and_tail_warned():
    starts = np.arange(0, 48, 8)
    diags = check_plan(_plan(starts, starts + 8))
    info = [d for d in diags if d.rule == "plan/wave-report"]
    assert len(info) == 1 and "FullWaveSize" in info[0].message
    # 6 warps in 1 block on a V100 is far below one full wave.
    assert "plan/tail-effect" in _rules(diags, "warning")


def test_zero_resident_blocks_is_occupancy_error():
    # Legal per-block resources that still fit zero blocks per SM:
    # 96 KiB static smem > V100's 64 KiB per-SM opt-in default? No —
    # use registers: 32 warps * 32 threads * 255 regs = 261k > 65536.
    cfg = LaunchConfig(
        warps_per_block=32, registers_per_thread=255,
        shared_mem_per_block=0,
    )
    starts = np.arange(0, 48, 8)
    p = _plan(starts, starts + 8, config=cfg)
    assert "plan/occupancy" in _rules(check_plan(p))


# -- HVMA rules ----------------------------------------------------------

def test_hvma_dense_width_must_divide_k():
    starts = np.arange(0, 48, 8)
    p = _plan(starts, starts + 8, k=48, vector_width=4)
    assert "plan/hvma-dense-alignment" in _rules(check_plan(p))
    ok = _plan(starts, starts + 8, k=128, vector_width=4)
    assert plan_errors(ok) == []


def test_hvma_sparse_width_needs_aligned_starts():
    starts = np.arange(0, 48, 6)  # 6*4 = 24 B, not sector-aligned
    p = _plan(starts, np.minimum(starts + 6, 48), sparse_vector_width=2)
    assert "plan/hvma-sparse-alignment" in _rules(check_plan(p))
    starts = np.arange(0, 48, 8)  # 8*4 = 32 B = sector size
    ok = _plan(starts, starts + 8, sparse_vector_width=2)
    assert plan_errors(ok) == []


def test_invalid_merge_mode_rejected():
    starts = np.arange(0, 48, 8)
    with pytest.raises(ValueError, match="merge"):
        _plan(starts, starts + 8, merge="hope")


def test_errors_sort_before_warnings_and_info():
    diags = check_plan(race_plan())
    sev = [d.severity for d in diags]
    assert sev == sorted(sev, key=["error", "warning", "info"].index)


def test_plans_device_sensitive():
    # The same kernel plan geometry differs across device presets (wave
    # report reflects SM count), proving plans are built per-device.
    S_kernel = make_spmm("hp-spmm")
    import repro.analysis as ra

    S = ra.default_check_matrix()
    v100 = plan_for_kernel(S_kernel, S, 64, TESLA_V100)
    a30 = plan_for_kernel(S_kernel, S, 64, TESLA_A30)
    w_v100 = [d for d in check_plan(v100) if d.rule == "plan/wave-report"]
    w_a30 = [d for d in check_plan(a30) if d.rule == "plan/wave-report"]
    assert w_v100[0].message != w_a30[0].message


# -- the in-order race check against the sort-based one ------------------

def _races_by_sort(plan):
    """``_check_races`` before the in-order path: sorts (row, slice) pairs
    for every plan, sorted rows included."""
    if plan.row is None or plan.merge == MERGE_ATOMIC or plan.nnz == 0:
        return []
    row = np.asarray(plan.row)
    lengths = plan.ends - plan.starts
    if lengths.size == 0:
        return []
    slice_id = np.repeat(
        np.arange(lengths.size, dtype=np.int64), np.maximum(lengths, 0)
    )
    pairs = sorted_unique(
        row.astype(np.int64) * np.int64(lengths.size) + slice_id
    )
    pair_rows, pair_slices = np.divmod(pairs, lengths.size)
    shared, counts = sorted_unique(pair_rows, return_counts=True)
    shared = shared[counts >= 2]
    diags = []
    for r in shared[:4]:
        lo, hi = np.searchsorted(pair_rows, [r, r + 1])
        slices = pair_slices[lo:hi]
        names = ", ".join(str(s) for s in slices[:4])
        claim = (
            "claimed row-private slices"
            if plan.merge == MERGE_PRIVATE
            else "plain (non-atomic) stores"
        )
        diags.append(
            Diagnostic(
                "plan/row-race",
                ERROR,
                plan.kernel,
                f"output row {int(r)} is written by slices {names}"
                f"{' ...' if slices.size > 4 else ''} with {claim}"
                + (f" ({shared.size} racy rows total)" if shared.size > 1 else ""),
                location=f"row {int(r)}",
                hint="serialize cross-warp row writes with the row-switch "
                "atomic merge, or split slices on row boundaries",
            )
        )
    return diags


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=40),
    st.sampled_from([MERGE_PRIVATE, MERGE_NONE]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_race_check_matches_sort_based_version(lengths, merge, ordered, data):
    # Random exact partitions (empty slices included) over sorted or
    # arbitrary row streams: every diagnostic, message for message.
    lengths = np.array(lengths, dtype=np.int64)
    nnz = int(lengths.sum())
    assume(nnz > 0)
    ends = np.cumsum(lengths)
    rows = data.draw(
        st.lists(st.integers(0, 12), min_size=nnz, max_size=nnz), label="row"
    )
    row = np.array(sorted(rows) if ordered else rows, dtype=np.int32)
    plan = _plan(ends - lengths, ends, nnz=nnz, row=row, merge=merge)
    assert _check_races(plan) == _races_by_sort(plan)
