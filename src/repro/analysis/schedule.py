"""Layer 1 — static plan checker for kernel task decompositions.

A :class:`KernelPlan` captures the *schedule* a kernel would launch — how
the nnz stream is sliced over warps, which output rows each slice
touches, how cross-warp writes to a shared row are merged, and the
:class:`~repro.gpusim.LaunchConfig` resources — without running the
simulator.  :func:`check_plan` verifies the invariants the HP-SpMM /
HP-SDDMM cost models (and every baseline model) silently assume:

* **Coverage** — warp slices partition ``[0, nnz)`` exactly: no gap
  (work silently dropped) and no overlap (work double-counted).
* **Write-write races** — every output row touched by two or more slices
  must be covered by a row-switch/atomic merge; a plan with plain stores
  and a shared row is the classic silent-corruption bug of nnz-split
  sparse kernels.
* **Occupancy legality** — threads/block, registers and shared memory
  within :class:`~repro.gpusim.DeviceSpec` limits, and at least one
  resident block per SM (paper Eqs. 3-4); a wave-geometry report rides
  along as an info diagnostic.
* **HVMA preconditions** — a claimed dense vector width must divide the
  feature dimension per the repo's own HVMA rule, and sparse vector
  loads require sector-aligned slice starts.

Rule ids are stable strings (``plan/...``) so tests and the CI gate can
assert on them; see DESIGN.md for the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..formats import HybridMatrix
from ..gpusim import DeviceSpec, LaunchConfig
from ..sortops import sorted_unique
from .diagnostics import ERROR, INFO, WARNING, Diagnostic

# Merge modes: how cross-warp writes to one output location are resolved.
MERGE_ATOMIC = "atomic"    #: row-switch / atomic accumulation — race-free
MERGE_PRIVATE = "private"  #: each output location owned by exactly one slice
MERGE_NONE = "none"        #: plain stores — shared rows are races

MERGE_MODES = (MERGE_ATOMIC, MERGE_PRIVATE, MERGE_NONE)

#: How many offending rows/slices to name in one diagnostic message.
_MAX_NAMED = 4


@dataclass(frozen=True)
class KernelPlan:
    """Static description of one kernel launch's task decomposition.

    ``starts``/``ends`` are per-slice offsets into the nnz stream (a
    slice may be empty — node-parallel kernels emit one slice per row,
    including empty rows).  ``row`` is the per-nnz output-row index in
    stream order, or ``None`` when every output location is written by
    construction at most once (per-nnz outputs, e.g. SDDMM values).
    """

    kernel: str               #: registry name, e.g. ``hp-spmm``
    op: str                   #: ``spmm`` | ``sddmm``
    nnz: int
    k: int
    starts: np.ndarray        #: int64 slice start offsets
    ends: np.ndarray          #: int64 slice end offsets (exclusive)
    row: np.ndarray | None    #: per-nnz output row, or None (private outputs)
    merge: str                #: one of :data:`MERGE_MODES`
    config: LaunchConfig
    device: DeviceSpec
    vector_width: int = 1         #: claimed dense-load vector width
    sparse_vector_width: int = 1  #: claimed sparse-tile vector width
    num_feature_groups: int = 1   #: warps replicated along K (Ineq. 5)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.merge not in MERGE_MODES:
            raise ValueError(f"merge must be one of {MERGE_MODES}")
        object.__setattr__(
            self, "starts", np.asarray(self.starts, dtype=np.int64)
        )
        object.__setattr__(self, "ends", np.asarray(self.ends, dtype=np.int64))

    @property
    def num_slices(self) -> int:
        return int(self.starts.size)

    @property
    def num_warps(self) -> int:
        return self.num_slices * self.num_feature_groups


def _check_coverage(plan: KernelPlan) -> tuple[list[Diagnostic], bool]:
    """Coverage + bounds rules; returns (diags, partition_is_exact)."""
    diags: list[Diagnostic] = []
    starts, ends, nnz = plan.starts, plan.ends, plan.nnz

    def diag(rule, msg, loc="", hint=""):
        diags.append(
            Diagnostic(rule, ERROR, plan.kernel, msg, location=loc, hint=hint)
        )

    if starts.size != ends.size:
        diag(
            "plan/slice-bounds",
            f"{starts.size} starts but {ends.size} ends",
            hint="emit one (start, end) pair per warp slice",
        )
        return diags, False
    if nnz == 0 or starts.size == 0:
        if nnz > 0:
            diag(
                "plan/coverage-gap",
                f"no slices cover the {nnz}-element nnz stream",
                hint="every nonzero must be assigned to exactly one warp",
            )
            return diags, False
        return diags, True

    bad = (ends < starts) | (starts < 0) | (ends > nnz)
    if bad.any():
        w = int(np.argmax(bad))
        diag(
            "plan/slice-bounds",
            f"slice {w} spans [{starts[w]}, {ends[w]}) outside [0, {nnz})",
            loc=f"slice {w}",
            hint="clamp slice ends to nnz and keep starts non-negative",
        )
        return diags, False
    if np.any(starts[1:] < starts[:-1]):
        w = int(np.argmax(starts[1:] < starts[:-1])) + 1
        diag(
            "plan/slice-bounds",
            f"slice starts are not sorted (slice {w} starts at {starts[w]} "
            f"after {starts[w - 1]})",
            loc=f"slice {w}",
            hint="order slices by start offset",
        )
        return diags, False

    ok = True
    if starts[0] != 0:
        diag(
            "plan/coverage-gap",
            f"nnz [0, {starts[0]}) assigned to no slice",
            loc="slice 0",
            hint="the first slice must start at offset 0",
        )
        ok = False
    if ends[-1] != nnz:
        diag(
            "plan/coverage-gap",
            f"nnz [{ends[-1]}, {nnz}) assigned to no slice",
            loc=f"slice {starts.size - 1}",
            hint="the last slice must end at nnz",
        )
        ok = False
    gaps = np.nonzero(starts[1:] > ends[:-1])[0]
    for w in gaps[:_MAX_NAMED]:
        diag(
            "plan/coverage-gap",
            f"nnz [{ends[w]}, {starts[w + 1]}) falls between slices "
            f"{w} and {w + 1}",
            loc=f"slice {w}",
            hint="make each slice start where the previous one ends",
        )
        ok = False
    overlaps = np.nonzero(starts[1:] < ends[:-1])[0]
    for w in overlaps[:_MAX_NAMED]:
        diags.append(
            Diagnostic(
                "plan/coverage-overlap",
                ERROR,
                plan.kernel,
                f"slices {w} and {w + 1} both cover nnz "
                f"[{starts[w + 1]}, {ends[w]})",
                location=f"slice {w}",
                hint="nonzeros must not be processed twice "
                "(double-counted work and doubled accumulation)",
            )
        )
        ok = False
    return diags, ok


def _check_races(plan: KernelPlan) -> list[Diagnostic]:
    """Write-write race rule: shared output rows need an atomic merge."""
    if plan.row is None or plan.merge == MERGE_ATOMIC or plan.nnz == 0:
        return []
    row = np.asarray(plan.row)
    if row.size != plan.nnz:
        return [
            Diagnostic(
                "plan/row-race",
                ERROR,
                plan.kernel,
                f"row array has {row.size} entries for {plan.nnz} nonzeros",
                hint="supply the per-nnz output row in stream order",
            )
        ]
    lengths = plan.ends - plan.starts
    if lengths.size == 0:
        return []
    if np.any(row[1:] < row[:-1]):
        slice_id = np.repeat(
            np.arange(lengths.size, dtype=np.int64), np.maximum(lengths, 0)
        )
        # Distinct (row, slice) pairs, sorted by row then slice; a row
        # appearing in >= 2 pairs is written by multiple warps.
        pairs = sorted_unique(
            row.astype(np.int64) * np.int64(lengths.size) + slice_id
        )
        pair_rows, pair_slices = np.divmod(pairs, lengths.size)
        shared, counts = sorted_unique(pair_rows, return_counts=True)
        shared = shared[counts >= 2]

        def slices_of(r):
            lo, hi = np.searchsorted(pair_rows, [r, r + 1])
            return pair_slices[lo:hi]
    else:
        # Rows in order over slices tiling [0, nnz) in order: a row is
        # shared exactly when a boundary b between two non-empty slices
        # has row[b - 1] == row[b].  O(slices), no sort.
        nonempty = np.flatnonzero(lengths > 0)
        first = plan.starts[nonempty]
        b = first[1:]
        shared = row[b][row[b - 1] == row[b]]
        shared = shared[np.diff(shared, prepend=shared[:1] - 1) != 0]

        def slices_of(r):
            lo, hi = np.searchsorted(row, [r, r + 1])
            w = np.searchsorted(first, lo, side="right") - 1
            return nonempty[w:np.searchsorted(first, hi)]
    if shared.size == 0:
        return []
    diags = []
    for r in shared[:_MAX_NAMED]:
        slices = slices_of(r)
        names = ", ".join(str(s) for s in slices[:_MAX_NAMED])
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
                f"{' ...' if slices.size > _MAX_NAMED else ''} with {claim}"
                + (f" ({shared.size} racy rows total)" if shared.size > 1 else ""),
                location=f"row {int(r)}",
                hint="serialize cross-warp row writes with the row-switch "
                "atomic merge, or split slices on row boundaries",
            )
        )
    return diags


def _check_occupancy(plan: KernelPlan) -> list[Diagnostic]:
    """Launch-config legality (paper Eqs. 3-4) plus the wave report."""
    diags: list[Diagnostic] = []
    cfg, dev = plan.config, plan.device

    if cfg.threads_per_block > dev.max_threads_per_block:
        diags.append(
            Diagnostic(
                "plan/threads-per-block",
                ERROR,
                plan.kernel,
                f"{cfg.threads_per_block} threads/block exceeds "
                f"{dev.name}'s limit of {dev.max_threads_per_block}",
                hint="lower warps_per_block",
            )
        )
    if cfg.registers_per_thread > dev.max_registers_per_thread:
        diags.append(
            Diagnostic(
                "plan/registers",
                ERROR,
                plan.kernel,
                f"{cfg.registers_per_thread} registers/thread exceeds "
                f"{dev.name}'s limit of {dev.max_registers_per_thread}",
                hint="spill or restructure to fit the register budget",
            )
        )
    if cfg.shared_mem_per_block > dev.shared_mem_per_block_max:
        diags.append(
            Diagnostic(
                "plan/smem",
                ERROR,
                plan.kernel,
                f"{cfg.shared_mem_per_block} B shared memory/block exceeds "
                f"{dev.name}'s limit of {dev.shared_mem_per_block_max} B",
                hint="shrink the per-warp staging tiles",
            )
        )
    if diags:
        return diags

    active = dev.active_blocks_per_sm(
        cfg.warps_per_block, cfg.registers_per_thread, cfg.shared_mem_per_block
    )
    if active == 0:
        diags.append(
            Diagnostic(
                "plan/occupancy",
                ERROR,
                plan.kernel,
                f"launch config fits zero resident blocks per SM on "
                f"{dev.name} (Eq. 3)",
                hint="reduce registers/thread or shared memory/block until "
                "at least one block is resident",
            )
        )
        return diags

    full_wave = dev.num_sms * active
    blocks = -(-plan.num_warps // cfg.warps_per_block) if plan.num_warps else 0
    waves = blocks / full_wave if full_wave else 0.0
    diags.append(
        Diagnostic(
            "plan/wave-report",
            INFO,
            plan.kernel,
            f"{plan.num_warps} warps in {blocks} blocks; "
            f"{active} blocks/SM, FullWaveSize={full_wave}, "
            f"waves={waves:.2f}",
        )
    )
    if 0 < waves < 1.0:
        diags.append(
            Diagnostic(
                "plan/tail-effect",
                WARNING,
                plan.kernel,
                f"launch fills {waves:.0%} of one scheduling wave "
                f"({blocks}/{full_wave} blocks); bandwidth cannot saturate "
                "(paper Fig. 6)",
                hint="lower nnz_per_warp (DTP, Ineq. 5) to raise the warp "
                "count, or accept the tail on small inputs",
            )
        )
    return diags


def _check_hvma(plan: KernelPlan) -> list[Diagnostic]:
    """HVMA precondition rules: vector widths vs K and sector alignment."""
    diags: list[Diagnostic] = []
    sector = plan.device.l2_sector_bytes
    vw = plan.vector_width
    if vw > 1 and plan.k % (32 * vw) != 0:
        diags.append(
            Diagnostic(
                "plan/hvma-dense-alignment",
                ERROR,
                plan.kernel,
                f"dense vector width {vw} requires K divisible by "
                f"{32 * vw}, but K={plan.k}",
                hint="apply hvma_vector_width(nnz_per_warp, k) instead of "
                "forcing the width",
            )
        )
    svw = plan.sparse_vector_width
    if svw > 1 and plan.starts.size:
        lengths = plan.ends - plan.starts
        nonempty = plan.starts[lengths > 0]
        misaligned = nonempty[(nonempty * 4) % sector != 0]
        if misaligned.size:
            diags.append(
                Diagnostic(
                    "plan/hvma-sparse-alignment",
                    ERROR,
                    plan.kernel,
                    f"sparse vector width {svw} needs {sector}-byte-aligned "
                    f"slice starts, but {misaligned.size} slices start at "
                    f"unaligned offsets (first: {int(misaligned[0])})",
                    location=f"offset {int(misaligned[0])}",
                    hint="restrict NnzPerWarp to the HVMA candidate set "
                    "(multiples of sector_bytes/4)",
                )
            )
    return diags


def check_plan(plan: KernelPlan) -> list[Diagnostic]:
    """Run every plan rule; returns all diagnostics (errors first)."""
    diags, exact = _check_coverage(plan)
    if exact:
        # Race detection maps nnz -> slice through the slice lengths (or,
        # for rows in order, the slice boundaries), which is only
        # meaningful once the partition is exact.
        diags.extend(_check_races(plan))
    diags.extend(_check_occupancy(plan))
    diags.extend(_check_hvma(plan))
    order = {ERROR: 0, WARNING: 1, INFO: 2}
    return sorted(diags, key=lambda d: order[d.severity])


def plan_errors(plan: KernelPlan) -> list[Diagnostic]:
    """Error-severity diagnostics only (the CI-gating subset)."""
    return [d for d in check_plan(plan) if d.severity == ERROR]


# ----------------------------------------------------------------------
# Plan builders for the shipped kernels
# ----------------------------------------------------------------------

def equal_nnz_plan(
    kernel: str,
    op: str,
    S: HybridMatrix,
    k: int,
    device: DeviceSpec,
    *,
    nnz_per_warp: int,
    config: LaunchConfig,
    merge: str,
    vector_width: int = 1,
    sparse_vector_width: int = 1,
    num_feature_groups: int = 1,
    per_nnz_output: bool = False,
    notes: str = "",
) -> KernelPlan:
    """Plan for an equal-NnzPerWarp slicing of the sorted nnz stream."""
    from ..kernels.common import warp_slice_starts

    starts = warp_slice_starts(S.nnz, nnz_per_warp)
    ends = np.minimum(starts + nnz_per_warp, S.nnz)
    return KernelPlan(
        kernel=kernel,
        op=op,
        nnz=S.nnz,
        k=k,
        starts=starts,
        ends=ends,
        row=None if per_nnz_output else S.row,
        merge=MERGE_PRIVATE if per_nnz_output else merge,
        config=config,
        device=device,
        vector_width=vector_width,
        sparse_vector_width=sparse_vector_width,
        num_feature_groups=num_feature_groups,
        notes=notes,
    )


def row_block_plan(
    kernel: str,
    op: str,
    S: HybridMatrix,
    k: int,
    device: DeviceSpec,
    *,
    rows_per_slice: int,
    config: LaunchConfig,
    num_feature_groups: int = 1,
    per_nnz_output: bool = False,
    notes: str = "",
) -> KernelPlan:
    """Plan for warp-per-row(-block) kernels: slices follow ``indptr``.

    Each slice owns ``rows_per_slice`` whole rows, so output rows are
    private to their slice by construction — which :func:`check_plan`
    verifies rather than trusts.
    """
    bounds = S.indptr()[::rows_per_slice]
    if bounds.size == 0 or bounds[-1] != S.nnz:
        bounds = np.append(bounds, S.nnz)
    return KernelPlan(
        kernel=kernel,
        op=op,
        nnz=S.nnz,
        k=k,
        starts=bounds[:-1],
        ends=bounds[1:],
        row=None if per_nnz_output else S.row,
        merge=MERGE_PRIVATE,
        config=config,
        device=device,
        num_feature_groups=num_feature_groups,
        notes=notes,
    )


def _hp_plan(kernel, op: str, S: HybridMatrix, k: int, device: DeviceSpec) -> KernelPlan:
    """Plan for HP-SpMM / HP-SDDMM from the kernel's resolved partition."""
    from ..tuning import (
        HP_REGISTERS_PER_THREAD,
        HP_SMEM_PER_WARP,
        sparse_vector_width,
    )

    part = kernel.partition(S, k, device)
    config = LaunchConfig(
        warps_per_block=part.warps_per_block,
        registers_per_thread=HP_REGISTERS_PER_THREAD,
        shared_mem_per_block=HP_SMEM_PER_WARP * part.warps_per_block,
    )
    hvma = getattr(kernel, "use_hvma", True)
    return equal_nnz_plan(
        kernel.name,
        op,
        S,
        k,
        device,
        nnz_per_warp=part.nnz_per_warp,
        config=config,
        merge=MERGE_ATOMIC,  # the row-switch procedure's atomic store
        vector_width=part.vector_width if hvma else 1,
        sparse_vector_width=sparse_vector_width(part.nnz_per_warp) if hvma else 1,
        num_feature_groups=part.num_feature_groups,
        per_nnz_output=(op == "sddmm"),
        notes="row-switch atomic merge on slice-internal row changes",
    )


def _node_parallel_plan(kernel, op: str, S, k, device) -> KernelPlan:
    """Plan for profile-based warp-per-row kernels (row-split family)."""
    from ..kernels.baselines.node_parallel import NodeParallelProfile

    profile: NodeParallelProfile = kernel.profile
    fp = min(k, profile.features_per_warp)
    groups = -(-k // fp)
    config = LaunchConfig(
        warps_per_block=profile.warps_per_block,
        registers_per_thread=profile.registers_per_thread,
        shared_mem_per_block=profile.shared_mem_per_block,
    )
    return row_block_plan(
        kernel.name,
        op,
        S,
        k,
        device,
        rows_per_slice=1,
        config=config,
        num_feature_groups=groups,
        per_nnz_output=(op == "sddmm"),
        notes="one warp per CSR row; feature groups write disjoint columns",
    )


def _huang_plan(kernel, op: str, S, k, device) -> KernelPlan:
    """Huang's neighbor grouping: rows split into tiles, atomic combine."""
    from ..kernels.baselines.huang import neighbor_group_degrees

    profile = kernel.profile
    config = LaunchConfig(
        warps_per_block=profile.warps_per_block,
        registers_per_thread=profile.registers_per_thread,
        shared_mem_per_block=profile.shared_mem_per_block,
    )
    # Tiles walk each row in order: reconstruct per-row tile boundaries
    # over the sorted nnz stream.
    degrees = S.row_degrees()
    indptr = S.indptr()
    tile = int(kernel.tile)
    tiles_per_row = -(-degrees // tile)
    row_of_tile = np.repeat(
        np.arange(degrees.size, dtype=np.int64), tiles_per_row
    )
    first_tile = np.concatenate(([0], np.cumsum(tiles_per_row)[:-1]))
    intra = (
        np.arange(row_of_tile.size, dtype=np.int64)
        - np.repeat(first_tile, tiles_per_row)
    )
    starts = indptr[row_of_tile] + intra * tile
    ends = np.minimum(starts + tile, indptr[row_of_tile + 1])
    return KernelPlan(
        kernel=kernel.name,
        op=op,
        nnz=S.nnz,
        k=k,
        starts=starts,
        ends=ends,
        row=S.row,
        merge=MERGE_ATOMIC,  # tiles of one row combine atomically
        config=config,
        notes="neighbor-grouping tiles; one row may span several tiles",
        device=device,
    )


def plan_for_kernel(kernel, S: HybridMatrix, k: int, device: DeviceSpec) -> KernelPlan:
    """Build the :class:`KernelPlan` a shipped kernel instance would launch.

    Dispatches on the kernel's registry name / structure; raises
    ``KeyError`` for kernels with no plan builder (a new kernel should
    either match an existing family or register a builder here).
    """
    from ..kernels.baselines.node_parallel import NodeParallelProfile

    name = getattr(kernel, "name", type(kernel).__name__)
    if name in ("hp-spmm", "hp-sddmm"):
        return _hp_plan(kernel, "spmm" if name == "hp-spmm" else "sddmm", S, k, device)
    if name == "huang-ng":
        return _huang_plan(kernel, "spmm", S, k, device)
    if isinstance(getattr(kernel, "profile", None), NodeParallelProfile):
        op = "sddmm" if "sddmm" in name else "spmm"
        return _node_parallel_plan(kernel, op, S, k, device)
    if name == "merge-path":
        return equal_nnz_plan(
            name, "spmm", S, k, device,
            nnz_per_warp=kernel.items_per_warp,
            config=LaunchConfig(
                warps_per_block=kernel.warps_per_block,
                registers_per_thread=40,
            ),
            merge=MERGE_ATOMIC,
            notes="merge-path partitions; segment stores merge atomically",
        )
    if name in ("cusparse-csr-alg2", "cusparse-csr-alg3"):
        return equal_nnz_plan(
            name, "spmm", S, k, device,
            nnz_per_warp=kernel.nnz_per_warp,
            config=LaunchConfig(
                warps_per_block=kernel.warps_per_block,
                registers_per_thread=40,
            ),
            merge=MERGE_ATOMIC,
            notes="balanced CSR with built-in partition kernel",
        )
    if name == "cusparse-coo-alg4":
        return equal_nnz_plan(
            name, "spmm", S, k, device,
            nnz_per_warp=32,
            config=LaunchConfig(
                warps_per_block=kernel.warps_per_block,
                registers_per_thread=32,
            ),
            merge=MERGE_ATOMIC,
            notes="edge-parallel; every nonzero accumulates atomically",
        )
    if name == "dgl-sddmm":
        return equal_nnz_plan(
            name, "sddmm", S, k, device,
            nnz_per_warp=32,
            config=LaunchConfig(
                warps_per_block=kernel.warps_per_block,
                registers_per_thread=32,
            ),
            merge=MERGE_PRIVATE,
            per_nnz_output=True,
            notes="edge-parallel SDDMM; one scalar output per nonzero",
        )
    if name == "aspt":
        return equal_nnz_plan(
            name, "spmm", S, k, device,
            nnz_per_warp=256,
            config=LaunchConfig(
                warps_per_block=kernel.warps_per_block,
                registers_per_thread=40,
                shared_mem_per_block=32 * 1024,
            ),
            merge=MERGE_ATOMIC,
            notes="panel tiles; dense/sparse parts combine atomically",
        )
    if name == "cusparse-blocked-ell":
        bs = kernel.block_size
        return row_block_plan(
            name, "spmm", S, k, device,
            rows_per_slice=bs,
            config=LaunchConfig(
                warps_per_block=kernel.warps_per_block,
                registers_per_thread=64,
                shared_mem_per_block=bs * bs * 4 * kernel.warps_per_block,
            ),
            notes="block rows are slice-private (padding slots excluded)",
        )
    if name == "tc-gnn":
        from ..kernels.baselines.tcgnn import TILE_M

        return row_block_plan(
            name, "spmm", S, k, device,
            rows_per_slice=TILE_M,
            config=LaunchConfig(
                warps_per_block=kernel.warps_per_block,
                registers_per_thread=64,
                shared_mem_per_block=16 * 1024,
            ),
            notes="16-row SGT panels own their output rows",
        )
    raise KeyError(
        f"no plan builder for kernel {name!r}; register one in "
        "repro.analysis.schedule.plan_for_kernel"
    )
