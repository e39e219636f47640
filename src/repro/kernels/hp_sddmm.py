"""HP-SDDMM: Hybrid-Parallel SDDMM (paper Section III-A2, Algorithm 4).

Like HP-SpMM, each warp owns a ``NnzPerWarp`` slice of the hybrid
CSR/COO matrix and stages 32-element sparse tiles into shared memory.
For each staged nonzero ``(r, c)`` the warp loads row ``c`` of
``A2ᵀ`` into registers, multiplies elementwise against row ``r`` of
``A1`` (kept resident in registers) and performs a warp-level reduction;
lane 0 stores the scalar result.  The row-switch procedure here saves
*reads*: the ``A1`` row is reloaded only when the slice moves to a new
row, so consecutive nonzeros of one row reuse it for free.
"""

from __future__ import annotations

import numpy as np

from ..formats import HybridMatrix
from ..gpusim import (
    CostParams,
    DeviceSpec,
    WarpWorkload,
    LaunchConfig,
    simulate_launch,
)
from ..tuning import (
    HP_REGISTERS_PER_THREAD,
    HP_SMEM_PER_WARP,
    TaskPartition,
    fixed_partition,
    naive_nnz_per_warp,
    select_partition,
    sparse_vector_width,
    is_candidate_aligned,
)
from .api import (
    SDDMMKernel,
    register_sddmm,
)
from .common import (
    dense_row_alignment,
    estimate_hit_rate,
    per_warp_nnz,
    row_segments_per_slice,
    split_by_hit_rate,
    warp_slice_starts,
)

#: Warp shuffle instructions for a 32-lane tree reduction.
WARP_REDUCE_INSTRS = 5.0


def _hp_sddmm_workload(
    S: HybridMatrix,
    k: int,
    part: TaskPartition,
    device: DeviceSpec,
    *,
    hvma: bool = True,
    hit_rate: float | None = None,
) -> tuple[WarpWorkload, LaunchConfig]:
    """Build the per-warp workload of Algorithm 4 for partition ``part``."""
    nnz = S.nnz
    npw = part.nnz_per_warp
    vw = part.vector_width
    groups = part.num_feature_groups
    starts = warp_slice_starts(nnz, npw)
    slice_nnz = per_warp_nnz(nnz, npw).astype(np.float64)
    segments = row_segments_per_slice(S, starts, npw).astype(np.float64)
    tiles = np.ceil(slice_nnz / 32.0)

    feats_per_group = k / groups
    row_sectors = feats_per_group * 4 / device.l2_sector_bytes
    if not (hvma and dense_row_alignment(k, device.l2_sector_bytes)):
        row_sectors += 1.0

    # --- instruction stream --------------------------------------------
    svw = sparse_vector_width(npw) if hvma else 1
    sparse_load_instr = tiles * 3.0 / svw
    smem_read_instr = slice_nnz
    a2_load_instr = slice_nnz * np.ceil(feats_per_group / (32 * vw))
    a1_load_instr = segments * np.ceil(feats_per_group / (32 * vw))
    mul_instr = slice_nnz * np.ceil(feats_per_group / 32.0)
    reduce_instr = slice_nnz * (WARP_REDUCE_INSTRS + max(0, vw - 1))
    store_instr = slice_nnz  # lane-0 scalar store per nonzero
    loop_overhead = slice_nnz * 1.0 + tiles * 2.0
    issue = (
        sparse_load_instr
        + smem_read_instr
        + a2_load_instr
        + a1_load_instr
        + mul_instr
        + reduce_instr
        + store_instr
        + loop_overhead
    )

    # --- memory transactions --------------------------------------------
    sparse_aligned = hvma and is_candidate_aligned(npw, device.l2_sector_bytes)
    # 3 arrays x 4 bytes per element, coalesced; misaligned tile starts
    # touch one extra sector per array per tile.
    sparse_sectors = slice_nnz * 12.0 / device.l2_sector_bytes
    if not sparse_aligned:
        sparse_sectors = sparse_sectors + tiles * 3.0
    sparse_dram = sparse_sectors / groups
    sparse_l2 = sparse_sectors * (groups - 1) / groups

    # A2 rows are gathered per nonzero (column stream → cache model);
    # A1 rows only per row segment and nearly sequential → high locality,
    # modeled through the same footprint estimator on the row stream.
    a2_sectors = slice_nnz * row_sectors
    if hit_rate is None:
        hit_rate = estimate_hit_rate(
            S.col, bytes_per_item=k * 4.0, device=device,
        )
    a2_l2, a2_dram = split_by_hit_rate(a2_sectors, hit_rate)
    a1_sectors = segments * row_sectors
    a1_hit = 0.9  # sequential row stream: only cold misses
    a1_l2, a1_dram = split_by_hit_rate(a1_sectors, a1_hit)

    # Output value stores: 32 consecutive scalars per tile → coalesced by
    # the write buffer into 128B of traffic per 32 nonzeros.
    store_sectors = slice_nnz * 4.0 / device.l2_sector_bytes
    atomics = slice_nnz / 32.0  # per-tile store flush, amortized

    l2 = sparse_l2 + a2_l2 + a1_l2
    dram = sparse_dram + a2_dram + a1_dram + store_sectors

    def rep(a: np.ndarray) -> np.ndarray:
        return a if groups == 1 else np.repeat(a, groups)

    work = WarpWorkload(
        issue=rep(issue),
        l2_sectors=rep(l2),
        dram_sectors=rep(dram),
        fma=rep(mul_instr),
        atomics=rep(atomics),
    )
    config = LaunchConfig(
        warps_per_block=part.warps_per_block,
        registers_per_thread=HP_REGISTERS_PER_THREAD,
        shared_mem_per_block=HP_SMEM_PER_WARP * part.warps_per_block,
    )
    return work, config


@register_sddmm
class HPSDDMM(SDDMMKernel):
    """The paper's HP-SDDMM with DTP and HVMA enabled by default."""

    name = "hp-sddmm"

    def __init__(
        self,
        *,
        use_dtp: bool = True,
        use_hvma: bool = True,
        nnz_per_warp: int | None = None,
        warps_per_block: int = 8,
        alpha: float = 4.0,
    ) -> None:
        self.use_dtp = use_dtp
        self.use_hvma = use_hvma
        self.nnz_per_warp = nnz_per_warp
        self.warps_per_block = warps_per_block
        self.alpha = alpha

    def partition(self, S: HybridMatrix, k: int, device: DeviceSpec) -> TaskPartition:
        """Resolve the task partition this kernel would launch with."""
        if self.nnz_per_warp is not None:
            return fixed_partition(
                S.nnz,
                k,
                self.nnz_per_warp,
                vector_width=None if self.use_hvma else 1,
                warps_per_block=self.warps_per_block,
                device=device,
            )
        if self.use_dtp:
            part = select_partition(
                S.nnz,
                k,
                device,
                warps_per_block=self.warps_per_block,
                alpha=self.alpha,
            )
            if not self.use_hvma:
                part = fixed_partition(
                    S.nnz,
                    k,
                    part.nnz_per_warp,
                    vector_width=1,
                    warps_per_block=self.warps_per_block,
                    device=device,
                )
            return part
        npw = naive_nnz_per_warp(S.nnz, S.shape[0])
        return fixed_partition(
            S.nnz,
            k,
            npw,
            vector_width=None if self.use_hvma else 1,
            warps_per_block=self.warps_per_block,
            device=device,
        )

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        part = self.partition(S, k, device)
        work, config = _hp_sddmm_workload(S, k, part, device, hvma=self.use_hvma)
        return simulate_launch(device, work, config, cost), 0.0
