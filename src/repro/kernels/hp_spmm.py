"""HP-SpMM: Hybrid-Parallel SpMM (paper Section III-A1, Algorithm 3).

The kernel assigns exactly ``NnzPerWarp`` nonzeros of the hybrid CSR/COO
matrix to each CUDA warp.  A warp cooperatively stages 32-element sparse
tiles (RowInd / ColInd / Value) into shared memory, then for each staged
element loads the corresponding row of the dense operand with a
(possibly vectorized) warp-wide load and accumulates into registers; a
*row-switch procedure* flushes the accumulator to the output row with an
atomic store whenever the staged row index changes.

Feature dimensions wider than ``WarpSize * VectorWidth`` are covered by
replicating slices across feature-group warps (the K term of Ineq. 5).

The numerical result is computed exactly (identical reduction to the
reference algorithm); the :class:`~repro.gpusim.KernelStats` comes from
replaying the algorithm's warp-level schedule through the simulator.
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
from .api import SpMMKernel, register_spmm
from .common import (
    dense_row_alignment,
    estimate_hit_rate,
    per_warp_nnz,
    row_segments_per_slice,
    split_by_hit_rate,
    warp_slice_starts,
)


def _hp_spmm_workload(
    S: HybridMatrix,
    k: int,
    part: TaskPartition,
    device: DeviceSpec,
    *,
    hit_rate: float | None = None,
    hvma: bool = True,
) -> tuple[WarpWorkload, LaunchConfig]:
    """Build the per-warp workload of Algorithm 3 for partition ``part``."""
    nnz = S.nnz
    npw = part.nnz_per_warp
    vw = part.vector_width
    groups = part.num_feature_groups
    starts = warp_slice_starts(nnz, npw)
    slice_nnz = per_warp_nnz(nnz, npw).astype(np.float64)
    segments = row_segments_per_slice(S, starts, npw).astype(np.float64)
    tiles = np.ceil(slice_nnz / 32.0)

    # Feature coverage of one warp: 32*vw features; the last group of a
    # non-divisible K covers fewer, averaged here.
    feats_per_group = k / groups
    dense_sectors_per_elem = feats_per_group * 4 / device.l2_sector_bytes
    dense_aligned = hvma and dense_row_alignment(k, device.l2_sector_bytes)
    if not dense_aligned:
        dense_sectors_per_elem += 1.0  # extra sector per misaligned access

    # --- instruction stream (per slice-warp) ---------------------------
    svw = sparse_vector_width(npw) if hvma else 1
    sparse_load_instr = tiles * 3.0 / svw     # cooperative tile loads
    smem_read_instr = slice_nnz                # per-element broadcast read
    dense_load_instr = slice_nnz * np.ceil(feats_per_group / (32 * vw))
    fma_instr = slice_nnz * np.ceil(feats_per_group / 32.0)
    store_instr = segments * np.ceil(feats_per_group / 32.0)
    loop_overhead = slice_nnz * 1.0 + tiles * 2.0
    issue = (
        sparse_load_instr
        + smem_read_instr
        + dense_load_instr
        + fma_instr
        + store_instr
        + loop_overhead
    )

    # --- memory transactions -------------------------------------------
    sparse_aligned = hvma and is_candidate_aligned(npw, device.l2_sector_bytes)
    # 3 arrays x 4 bytes per element, coalesced; misaligned tile starts
    # touch one extra sector per array per tile.
    sparse_sectors = slice_nnz * 12.0 / device.l2_sector_bytes
    if not sparse_aligned:
        sparse_sectors = sparse_sectors + tiles * 3.0
    # Feature-group warps of the same slice re-read the same tile: the
    # first group misses to DRAM, the remaining G-1 hit in L2.
    sparse_dram = sparse_sectors / groups
    sparse_l2 = sparse_sectors * (groups - 1) / groups

    dense_sectors = slice_nnz * dense_sectors_per_elem
    if hit_rate is None:
        hit_rate = estimate_hit_rate(
            S.col,
            bytes_per_item=k * 4.0,
            device=device,
        )
    dense_l2, dense_dram = split_by_hit_rate(dense_sectors, hit_rate)

    write_sectors = segments * dense_sectors_per_elem
    atomics = segments * np.ceil(feats_per_group / 32.0)

    l2 = sparse_l2 + dense_l2
    dram = sparse_dram + dense_dram + write_sectors

    # Replicate the per-slice workload across feature groups, interleaved
    # so a block holds all groups of consecutive slices.  The common
    # K <= 32*vw case has a single group: no copies needed.
    def rep(a: np.ndarray) -> np.ndarray:
        return a if groups == 1 else np.repeat(a, groups)

    work = WarpWorkload(
        issue=rep(issue),
        l2_sectors=rep(l2),
        dram_sectors=rep(dram),
        fma=rep(fma_instr),
        atomics=rep(atomics),
    )
    config = LaunchConfig(
        warps_per_block=part.warps_per_block,
        registers_per_thread=HP_REGISTERS_PER_THREAD,
        shared_mem_per_block=HP_SMEM_PER_WARP * part.warps_per_block,
    )
    return work, config


@register_spmm
class HPSpMM(SpMMKernel):
    """The paper's HP-SpMM with DTP and HVMA enabled by default.

    Parameters
    ----------
    use_dtp:
        Select NnzPerWarp with Dynamic Task Partition (Ineq. 5).  When
        False, the naive ``NNZ / M`` granularity is used instead.
    use_hvma:
        Use aligned + vectorized accesses.  When False, vector width is
        forced to 1 and alignment guarantees are dropped (the "base"
        configuration of the paper's ablation, Fig. 11).
    nnz_per_warp:
        Explicit override for NnzPerWarp (disables DTP selection).
    """

    name = "hp-spmm"

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
        work, config = _hp_spmm_workload(S, k, part, device, hvma=self.use_hvma)
        return simulate_launch(device, work, config, cost), 0.0
