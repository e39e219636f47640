"""Shared cost-model machinery for node-parallel (warp-per-row) kernels.

GE-SpMM, GraphBLAST row-split, Sputnik and cuSPARSE's CSR SDDMM all map
one warp to one sparse-matrix row (possibly split along the feature
dimension).  They differ in how they stage sparse data, whether dense
loads are vectorized, and whether rows are pre-sorted — all expressed as
:class:`NodeParallelProfile` knobs.  The decisive shared property is that
per-warp work is proportional to the row's degree, so skewed degree
distributions produce load imbalance (long blocks monopolize their SM
slot until the heaviest row finishes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...formats import HybridMatrix
from ...gpusim import DeviceSpec, LaunchConfig, WarpWorkload
from ..common import estimate_hit_rate, split_by_hit_rate


@dataclass(frozen=True)
class NodeParallelProfile:
    """Per-nonzero / per-row cost coefficients of a warp-per-row kernel."""

    #: Features covered by one warp; K beyond this is split over groups.
    features_per_warp: int = 64
    #: Dense-load vector width (1 = scalar loads).
    vector_width: int = 1
    #: Warp instructions per nonzero spent reading sparse data.
    sparse_instr_per_nnz: float = 2.0
    #: 32B sectors per nonzero for sparse data (lower when staged via
    #: shared-memory tiles, higher for per-element broadcast loads).
    sparse_sectors_per_nnz: float = 2.0
    #: Extra sectors per dense row access when accesses are misaligned.
    misaligned_dense: bool = False
    #: Fixed per-row warp instructions (setup, pointer reads, store).
    row_overhead_instr: float = 8.0
    #: Warps per thread block.
    warps_per_block: int = 8
    #: Registers per thread (occupancy input).
    registers_per_thread: int = 32
    #: Shared memory per block in bytes (occupancy input).
    shared_mem_per_block: int = 0
    #: Whether rows are processed in descending-degree order (Sputnik).
    sorted_rows: bool = False
    #: Multiplier on dense-load traffic (e.g. redundant re-reads).
    dense_traffic_factor: float = 1.0


def build_node_parallel_workload(
    S: HybridMatrix,
    k: int,
    profile: NodeParallelProfile,
    device: DeviceSpec,
    *,
    hit_rate: float | None = None,
) -> tuple[WarpWorkload, LaunchConfig]:
    """Per-warp workload for a warp-per-row kernel over matrix ``S``."""
    degrees = S.row_degrees()
    m = degrees.size
    if m == 0:
        work = WarpWorkload.zeros(0)
        return work, LaunchConfig(
            warps_per_block=profile.warps_per_block,
            registers_per_thread=profile.registers_per_thread,
            shared_mem_per_block=profile.shared_mem_per_block,
        )

    if profile.sorted_rows:
        degrees = np.sort(degrees)[::-1]

    fp = min(k, profile.features_per_warp)
    groups = -(-k // fp)
    feats = k / groups  # average features per group warp

    vw = profile.vector_width
    while vw > 1 and k % (32 * vw) != 0:
        vw //= 2

    dense_sectors_per_nnz = (
        feats * 4 / device.l2_sector_bytes * profile.dense_traffic_factor
    )
    if profile.misaligned_dense or (k * 4) % device.l2_sector_bytes != 0:
        dense_sectors_per_nnz += 1.0

    dense_instr_per_nnz = np.ceil(feats / (32 * vw))
    fma_per_nnz = np.ceil(feats / 32.0)

    issue = degrees * (
        profile.sparse_instr_per_nnz + dense_instr_per_nnz + fma_per_nnz + 1.0
    ) + profile.row_overhead_instr
    fma = degrees * fma_per_nnz

    # Sparse-data traffic streams once from DRAM; feature-group replicas
    # of the same row hit L2 on re-read.
    sparse_sectors = degrees * profile.sparse_sectors_per_nnz
    sparse_dram = sparse_sectors / groups
    sparse_l2 = sparse_sectors * (groups - 1) / groups

    if hit_rate is None:
        hit_rate = estimate_hit_rate(
            S.col,
            bytes_per_item=k * 4.0,
            device=device,
        )
    dense_sectors = degrees * dense_sectors_per_nnz
    dense_l2, dense_dram = split_by_hit_rate(dense_sectors, hit_rate)

    write_sectors = np.full(m, feats * 4 / device.l2_sector_bytes)

    l2 = sparse_l2 + dense_l2
    dram = sparse_dram + dense_dram + write_sectors

    def rep(a: np.ndarray) -> np.ndarray:
        return np.repeat(a, groups)

    work = WarpWorkload(
        issue=rep(issue),
        l2_sectors=rep(l2),
        dram_sectors=rep(dram),
        fma=rep(fma),
    )
    config = LaunchConfig(
        warps_per_block=profile.warps_per_block,
        registers_per_thread=profile.registers_per_thread,
        shared_mem_per_block=profile.shared_mem_per_block,
    )
    return work, config
