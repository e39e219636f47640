"""ASpT baseline (Hong et al., PPoPP'19) — adaptive sparse tiling.

ASpT preprocesses the matrix into row panels, reorders columns inside
each panel, and splits nonzeros into a *dense* part (columns with enough
nonzeros in the panel to profit from shared-memory staging of the
corresponding operand rows) and a *sparse* remainder handled like
row-split.  The dense part enjoys near-perfect operand reuse; the cost is
a heavy preprocessing pass that dynamic GNN computing cannot amortize
(paper Table IV).
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
from ...sortops import sorted_unique
from ..api import SpMMKernel, register_spmm
from ..common import estimate_hit_rate, split_by_hit_rate
from ..preproc import DEFAULT_HOST, HostCostParams, aspt_preprocess_s


def dense_fraction(
    S: HybridMatrix, panel_rows: int = 64, threshold: int = 4
) -> float:
    """Fraction of nonzeros ASpT's analysis assigns to the dense part.

    A column belongs to a panel's dense part when it holds at least
    ``threshold`` nonzeros within the panel (so staging its operand row
    in shared memory pays off).
    """
    if S.nnz == 0:
        return 0.0
    panel = (S.row.astype(np.int64) // panel_rows)
    key = panel * np.int64(S.shape[1]) + S.col.astype(np.int64)
    _, counts = sorted_unique(key, return_counts=True)
    dense_nnz = int(counts[counts >= threshold].sum())
    return dense_nnz / S.nnz


@register_spmm
class ASpTSpMM(SpMMKernel):
    """ASpT: preprocessing splits nnz into smem-staged dense + sparse parts."""

    name = "aspt"

    def __init__(
        self,
        *,
        panel_rows: int = 64,
        threshold: int = 4,
        warps_per_block: int = 8,
        host: HostCostParams = DEFAULT_HOST,
    ) -> None:
        self.panel_rows = panel_rows
        self.threshold = threshold
        self.warps_per_block = warps_per_block
        self.host = host

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        f_dense = dense_fraction(S, self.panel_rows, self.threshold)
        nnz = S.nnz
        sector = device.l2_sector_bytes
        feats = float(k)
        row_sectors = feats * 4 / sector

        # One warp per panel-tile of 256 nnz; both parts balanced by the
        # tiling, the difference is operand traffic.
        npw = 256.0
        num_warps = max(1, int(np.ceil(nnz / npw)))
        nnz_per_warp = np.full(num_warps, npw)
        nnz_per_warp[-1] = nnz - npw * (num_warps - 1) if nnz else 0

        dense_nnz = nnz_per_warp * f_dense
        sparse_nnz = nnz_per_warp * (1.0 - f_dense)

        # Dense part: operand rows staged once per (panel, column) into
        # shared memory — traffic divided by the threshold-level reuse.
        reuse = max(float(self.threshold), 1.0)
        dense_part_sectors = dense_nnz * row_sectors / reuse
        sparse_part_sectors = sparse_nnz * row_sectors
        hit = estimate_hit_rate(
            S.col, bytes_per_item=k * 4.0, device=device,
        )
        l2_a, dram_a = split_by_hit_rate(
            dense_part_sectors + sparse_part_sectors, hit
        )

        issue = nnz_per_warp * (
            1.0                                  # staged sparse read
            + np.ceil(feats / 32.0)              # dense loads
            + np.ceil(feats / 32.0)              # FMA
            + 1.5                                # tile bookkeeping
        ) + 24.0
        fma = nnz_per_warp * np.ceil(feats / 32.0)
        sparse_sectors = nnz_per_warp * 0.25 * 2
        write_sectors = np.full(num_warps, row_sectors * 2.0)

        work = WarpWorkload(
            issue=issue,
            l2_sectors=l2_a,
            dram_sectors=sparse_sectors + dram_a + write_sectors,
            fma=fma,
        )
        config = LaunchConfig(
            warps_per_block=self.warps_per_block,
            registers_per_thread=40,
            shared_mem_per_block=32 * 1024,  # operand staging buffers
        )
        stats = simulate_launch(device, work, config, cost)
        return stats, aspt_preprocess_s(S, self.host)
