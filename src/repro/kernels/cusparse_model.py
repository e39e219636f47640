"""Behavioral models of the (closed-source) cuSPARSE kernels.

The paper benchmarks four cuSPARSE kernels (v11.8): CSR SpMM ALG2 and
ALG3, COO SpMM ALG4, and the default CSR SDDMM.  cuSPARSE is not open
source; the paper characterizes these kernels through profiling (Nsight
Compute): the CSR algorithms run an embedded partition kernel for load
balance but issue misaligned/uncoalesced accesses and use fixed task
granularity (no DTP), the COO algorithm is edge-parallel with atomic
accumulation, and the CSR SDDMM is node-parallel.  These models encode
exactly those observed behaviors.
"""

from __future__ import annotations

import numpy as np

from ..formats import HybridMatrix
from ..gpusim import (
    CostParams,
    DeviceSpec,
    LaunchConfig,
    WarpWorkload,
    simulate_launch,
)
from .api import (
    SDDMMKernel,
    SpMMKernel,
    register_sddmm,
    register_spmm,
)
from .common import (
    estimate_hit_rate,
    per_warp_nnz,
    row_segments_per_slice,
    split_by_hit_rate,
    warp_slice_starts,
)
from .baselines.node_parallel import (
    NodeParallelProfile,
    build_node_parallel_workload,
)


def _balanced_csr_workload(
    S: HybridMatrix,
    k: int,
    device: DeviceSpec,
    *,
    nnz_per_warp: int,
    extra_instr_per_nnz: float,
    extra_sectors_per_nnz: float,
    warps_per_block: int,
    dense_traffic_factor: float = 1.6,
) -> tuple[WarpWorkload, LaunchConfig]:
    """Shared machinery for cuSPARSE's balanced CSR SpMM algorithms.

    Fixed ``nnz_per_warp`` granularity (no DTP), scalar loads, and the
    misaligned / partially-uncoalesced dense accesses the paper observed
    with Nsight Compute (``dense_traffic_factor`` models the redundant
    sectors of the uncoalesced fraction).
    """
    nnz = S.nnz
    starts = warp_slice_starts(nnz, nnz_per_warp)
    slice_nnz = per_warp_nnz(nnz, nnz_per_warp).astype(np.float64)
    segments = row_segments_per_slice(S, starts, nnz_per_warp).astype(
        np.float64
    )
    sector = device.l2_sector_bytes
    feats = float(k)
    # Misaligned dense accesses: one extra sector per row access, plus the
    # uncoalesced-fraction redundancy.
    dense_sectors_per_nnz = feats * 4 / sector * dense_traffic_factor + 1.0

    issue = slice_nnz * (
        2.0 + extra_instr_per_nnz          # scalar col/val loads + extras
        + np.ceil(feats / 32.0)            # dense loads (scalar)
        + np.ceil(feats / 32.0)            # FMA
    ) + segments * np.ceil(feats / 32.0)
    fma = slice_nnz * np.ceil(feats / 32.0)

    sparse_sectors = slice_nnz * (0.5 + extra_sectors_per_nnz)
    dense_sectors = slice_nnz * dense_sectors_per_nnz
    hit = estimate_hit_rate(
        S.col, bytes_per_item=k * 4.0, device=device,
    )
    dense_l2, dense_dram = split_by_hit_rate(dense_sectors, hit)
    write_sectors = segments * (feats * 4 / sector)
    atomics = segments * np.ceil(feats / 32.0)

    work = WarpWorkload(
        issue=issue,
        l2_sectors=dense_l2,
        dram_sectors=sparse_sectors + dense_dram + write_sectors,
        fma=fma,
        atomics=atomics,
    )
    config = LaunchConfig(
        warps_per_block=warps_per_block,
        registers_per_thread=40,
        shared_mem_per_block=0,
    )
    return work, config


@register_spmm
class CusparseCsrAlg2(SpMMKernel):
    """cuSPARSE CSR SpMM, CUSPARSE_SPMM_CSR_ALG2.

    Balanced via the built-in partition pass, fixed 128-nnz granularity,
    scalar and misaligned accesses.
    """

    name = "cusparse-csr-alg2"

    def __init__(self, *, nnz_per_warp: int = 128, warps_per_block: int = 4):
        self.nnz_per_warp = nnz_per_warp
        self.warps_per_block = warps_per_block

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        work, config = _balanced_csr_workload(
            S,
            k,
            device,
            nnz_per_warp=self.nnz_per_warp,
            extra_instr_per_nnz=3.0,
            extra_sectors_per_nnz=2.0,
            warps_per_block=self.warps_per_block,
            dense_traffic_factor=1.35,
        )
        return simulate_launch(device, work, config, cost), 0.0


@register_spmm
class CusparseCsrAlg3(SpMMKernel):
    """cuSPARSE CSR SpMM, CUSPARSE_SPMM_CSR_ALG3.

    The profiled partition kernel is an integral part of the API call
    (paper Section IV-A2): its pass over the nonzeros is charged here as
    an extra embedded launch, and the main kernel reads the partition
    array per nonzero.  Granularity is coarser than ALG2, worsening the
    tail on small graphs — the paper indeed measures ALG3 *slower* than
    ALG2 on average.
    """

    name = "cusparse-csr-alg3"

    def __init__(self, *, nnz_per_warp: int = 256, warps_per_block: int = 4):
        self.nnz_per_warp = nnz_per_warp
        self.warps_per_block = warps_per_block

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        work, config = _balanced_csr_workload(
            S,
            k,
            device,
            nnz_per_warp=self.nnz_per_warp,
            extra_instr_per_nnz=4.0,       # partition-array reads
            extra_sectors_per_nnz=1.5,
            warps_per_block=self.warps_per_block,
            dense_traffic_factor=2.0,      # extra indirection per access
        )
        stats = simulate_launch(device, work, config, cost)

        # Embedded partition kernel: one balanced pass over the nonzeros
        # (read row extents, write partition descriptors).
        nnz = max(1, S.nnz)
        part_warps = max(1, nnz // 1024)
        per = np.full(part_warps, nnz / part_warps, dtype=np.float64)
        part_work = WarpWorkload(
            issue=per * 0.2,
            l2_sectors=per * 0.0,
            dram_sectors=per * (8.0 / device.l2_sector_bytes),
            fma=np.zeros(part_warps),
        )
        part_stats = simulate_launch(
            device,
            part_work,
            LaunchConfig(warps_per_block=8, registers_per_thread=32),
            cost,
        )
        combined = stats.time_s + part_stats.time_s
        return KernelStatsWithTime(stats, combined), 0.0


def KernelStatsWithTime(stats, new_time_s: float):
    """Return a copy of ``stats`` with the end-to-end time replaced."""
    from dataclasses import replace

    return replace(stats, time_s=new_time_s)


@register_spmm
class CusparseCooAlg4(SpMMKernel):
    """cuSPARSE COO SpMM, CUSPARSE_SPMM_COO_ALG4 — edge-parallel atomics.

    Perfectly balanced (each warp owns 32 edges) but every nonzero
    atomically accumulates a K-vector into the output row: write traffic
    scales with NNZ instead of M, and atomics contend on hot rows.
    """

    name = "cusparse-coo-alg4"

    def __init__(self, *, warps_per_block: int = 8):
        self.warps_per_block = warps_per_block

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        nnz = S.nnz
        npw = 32
        slice_nnz = per_warp_nnz(nnz, npw).astype(np.float64)
        num_warps = slice_nnz.size
        sector = device.l2_sector_bytes
        feats = float(k)

        issue = slice_nnz * (
            3.0                                # row, col, val scalar loads
            + np.ceil(feats / 32.0)            # dense loads
            + np.ceil(feats / 32.0)            # FMA
            + np.ceil(feats / 32.0)            # atomic adds
        )
        fma = slice_nnz * np.ceil(feats / 32.0)

        sparse_sectors = slice_nnz * (12.0 / sector)  # 3 coalesced arrays
        dense_sectors = slice_nnz * (feats * 4 / sector)
        hit = estimate_hit_rate(
            S.col, bytes_per_item=k * 4.0, device=device,
        )
        dense_l2, dense_dram = split_by_hit_rate(dense_sectors, hit)

        # Atomic accumulation: every nonzero writes K floats through L2;
        # DRAM absorbs the per-row write-back (M rows) plus the spill of
        # rows evicted between touches.
        atomic_l2_sectors = slice_nnz * (feats * 4 / sector)
        m = max(1, S.shape[0])
        row_writeback = (m * feats * 4 / sector) / num_warps
        spill = atomic_l2_sectors * 0.15
        atomics = slice_nnz * np.ceil(feats / 32.0)

        work = WarpWorkload(
            issue=issue,
            l2_sectors=dense_l2 + atomic_l2_sectors,
            dram_sectors=sparse_sectors + dense_dram + row_writeback + spill,
            fma=fma,
            atomics=atomics,
        )
        config = LaunchConfig(
            warps_per_block=self.warps_per_block,
            registers_per_thread=32,
            shared_mem_per_block=0,
        )
        return simulate_launch(device, work, config, cost), 0.0


#: cuSPARSE's CSR SDDMM is node-parallel: one warp per output row.
CUSPARSE_SDDMM_PROFILE = NodeParallelProfile(
    features_per_warp=32,
    vector_width=1,
    sparse_instr_per_nnz=3.0,
    sparse_sectors_per_nnz=2.0,
    misaligned_dense=True,
    row_overhead_instr=16.0,
    warps_per_block=8,
    registers_per_thread=32,
    shared_mem_per_block=0,
    dense_traffic_factor=2.3,  # reads both A1 and A2 rows per nonzero
)


@register_sddmm
class CusparseCsrSDDMM(SDDMMKernel):
    """cuSPARSE CSR SDDMM (default algorithm) — node-parallel."""

    name = "cusparse-csr-sddmm"

    def __init__(self, profile: NodeParallelProfile = CUSPARSE_SDDMM_PROFILE):
        self.profile = profile

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        work, config = build_node_parallel_workload(S, k, self.profile, device)
        return simulate_launch(device, work, config, cost), 0.0
