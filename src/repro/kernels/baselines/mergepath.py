"""Merge-path baseline (Yang et al., Euro-Par'18; Merrill & Garland).

Merge-path balances load exactly by treating SpMM as a 2-D merge of the
row-pointer array and the nonzero sequence: every warp receives the same
number of merge items.  The partition points are found with binary
searches in a *preprocessing* pass, and an auxiliary array stores each
partition's starting row.  The kernel itself is balanced but scalar
(no vectorized loads) and pays per-item path bookkeeping.
"""

from __future__ import annotations

import numpy as np

from ...gpusim import (
    CostParams,
    DeviceSpec,
    LaunchConfig,
    WarpWorkload,
    simulate_launch,
)
from ...formats import HybridMatrix
from ..api import SpMMKernel, register_spmm
from ..common import (
    estimate_hit_rate,
    per_warp_nnz,
    row_segments_per_slice,
    split_by_hit_rate,
    warp_slice_starts,
)
from ..preproc import DEFAULT_HOST, HostCostParams, mergepath_preprocess_s


@register_spmm
class MergePathSpMM(SpMMKernel):
    """Merge-path SpMM: exact nnz+row balance, scalar loads, cheap pre-pass."""

    name = "merge-path"

    def __init__(
        self,
        *,
        items_per_warp: int = 256,
        warps_per_block: int = 8,
        host: HostCostParams = DEFAULT_HOST,
    ) -> None:
        if items_per_warp <= 0:
            raise ValueError("items_per_warp must be positive")
        self.items_per_warp = items_per_warp
        self.warps_per_block = warps_per_block
        self.host = host

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        nnz = S.nnz
        npw = self.items_per_warp
        starts = warp_slice_starts(nnz, npw)
        slice_nnz = per_warp_nnz(nnz, npw).astype(np.float64)
        segments = row_segments_per_slice(S, starts, npw).astype(np.float64)

        feats = float(k)
        sector = device.l2_sector_bytes
        dense_sectors_per_nnz = feats * 4 / sector
        if (k * 4) % sector != 0:
            dense_sectors_per_nnz += 1.0

        # Scalar loads: col + val + merge-path row tracking per item.
        issue = slice_nnz * (
            3.0                       # col, val, path-decision
            + np.ceil(feats / 32.0)   # dense loads (scalar, coalesced)
            + np.ceil(feats / 32.0)   # FMA
        ) + segments * np.ceil(feats / 32.0) + np.log2(max(2, S.shape[0]))
        fma = slice_nnz * np.ceil(feats / 32.0)

        sparse_sectors = slice_nnz * (8.0 / sector) * 2.0  # coalesced col+val
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
            warps_per_block=self.warps_per_block,
            registers_per_thread=40,
            shared_mem_per_block=0,
        )
        stats = simulate_launch(device, work, config, cost)
        return stats, mergepath_preprocess_s(S, host=self.host)
