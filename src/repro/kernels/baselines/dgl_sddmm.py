"""DGL's SDDMM baseline — edge-parallel, no operand reuse.

DGL implements SDDMM with edge parallelism: each edge independently
gathers its source and destination feature rows and reduces the dot
product.  This is perfectly balanced (the paper calls its performance
competitive) but reloads the ``A1`` row for *every* edge of a node —
exactly the redundancy HP-SDDMM's row-switch register reuse removes.
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
from ..api import (
    SDDMMKernel,
    register_sddmm,
)
from ..common import estimate_hit_rate, per_warp_nnz, split_by_hit_rate


@register_sddmm
class DGLSDDMM(SDDMMKernel):
    """DGL edge-parallel SDDMM: one warp per edge (slice of 32 edges)."""

    name = "dgl-sddmm"

    def __init__(self, *, warps_per_block: int = 8) -> None:
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
        row_sectors = feats * 4 / sector

        issue = slice_nnz * (
            3.0                                # row, col, val loads
            + 2.0 * np.ceil(feats / 32.0)      # A1 and A2 row loads
            + np.ceil(feats / 32.0)            # multiply
            + 5.0                              # warp reduction
            + 3.0                              # edge bookkeeping + store
        )
        fma = slice_nnz * np.ceil(feats / 32.0)

        sparse_sectors = slice_nnz * (12.0 / sector)
        # Both operand gathers go through the cache model: A2 via the
        # column stream, A1 via the row stream (re-read per edge!).
        hit_col = estimate_hit_rate(
            S.col, bytes_per_item=k * 4.0, device=device,
            seed=1,
        )
        hit_row = estimate_hit_rate(
            S.row, bytes_per_item=k * 4.0, device=device,
            seed=2,
        )
        # No A1 register reuse and no vectorization: the operand gathers
        # carry a mild redundancy factor versus HP-SDDMM's tiled loads.
        traffic = 1.15
        a2_l2, a2_dram = split_by_hit_rate(
            slice_nnz * row_sectors * traffic, hit_col
        )
        a1_l2, a1_dram = split_by_hit_rate(
            slice_nnz * row_sectors * traffic, hit_row
        )
        store_sectors = slice_nnz * 4.0 / sector

        work = WarpWorkload(
            issue=issue,
            l2_sectors=a1_l2 + a2_l2,
            dram_sectors=sparse_sectors + a1_dram + a2_dram + store_sectors,
            fma=fma,
        )
        config = LaunchConfig(
            warps_per_block=self.warps_per_block,
            registers_per_thread=32,
            shared_mem_per_block=0,
        )
        return simulate_launch(device, work, config, cost), 0.0
