"""TC-GNN baseline (Wang et al.) — TF32 Tensor-Core SpMM (paper §IV-C).

TC-GNN translates the sparse matrix with SGT (Sparse Graph Translation):
within each 16-row panel, the nonzero *columns* are condensed so tensor
cores multiply mostly-dense 16x8 fragments.  Even condensed, the kernel
is dominated by fragment staging through shared memory, per-MMA pipeline
dependencies and padding in the final partial fragment of each panel —
on GNN-sparsity inputs it cannot approach tensor-core peak.  The paper
reports HP-SpMM at 8.28 ms vs TC-GNN at 17.40 ms on Yelp (RTX 3090);
the model below reproduces that ~2x relationship through (a) padded
fragment compute, (b) operand traffic per condensed column, and (c) a
per-fragment pipeline overhead calibrated to that measurement.
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

#: Row-panel height and the TF32 MMA fragment's k-extent (m16 n16 k8).
TILE_M = 16
FRAG_K = 8

#: Pipeline cycles per condensed fragment: SGT shared-memory staging,
#: MMA issue dependencies and synchronization.  Calibrated to the
#: paper's single published measurement (Yelp, RTX 3090).
FRAGMENT_OVERHEAD_CYCLES = 1100.0


def nonempty_tiles(S: HybridMatrix, tile: int = TILE_M) -> int:
    """Nonempty ``tile x tile`` blocks of the raw (uncondensed) pattern."""
    if S.nnz == 0:
        return 0
    key = (S.row.astype(np.int64) // tile) * (
        (S.shape[1] + tile - 1) // tile
    ) + S.col.astype(np.int64) // tile
    return int(sorted_unique(key).size)


def condensed_fragments(
    S: HybridMatrix, tile_m: int = TILE_M, frag_k: int = FRAG_K
) -> tuple[np.ndarray, np.ndarray]:
    """SGT condensation: per-panel fragment counts and the access stream.

    Returns ``(frags_per_panel, unique_col_stream)``: fragment count per
    16-row panel (``ceil(unique_cols / 8)``), and the deduplicated
    (panel, column) access stream in panel-major order — the stream the
    tensor-core kernel actually issues to memory.  Condensation removes
    the *in-panel* column reuse that scalar kernels exploit through L2,
    so this stream has systematically longer reuse distances.
    """
    if S.nnz == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    panel = S.row.astype(np.int64) // tile_m
    key = panel * np.int64(S.shape[1]) + S.col.astype(np.int64)
    uniq = sorted_unique(key)
    panel_of = uniq // np.int64(S.shape[1])
    col_stream = (uniq % np.int64(S.shape[1])).astype(np.int64)
    cols_per_panel = np.bincount(
        (panel_of - panel_of.min()).astype(np.int64)
    )
    cols_per_panel = cols_per_panel[cols_per_panel > 0]
    return -(-cols_per_panel // frag_k), col_stream


@register_spmm
class TCGNNSpMM(SpMMKernel):
    """TC-GNN: SGT column condensation + TF32 tensor-core fragments."""

    name = "tc-gnn"

    def __init__(self, *, warps_per_block: int = 8) -> None:
        self.warps_per_block = warps_per_block

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        if device.tf32_tc_flops <= 0:
            raise ValueError(
                f"{device.name} has no TF32 tensor cores; TC-GNN needs them"
            )
        frags_per_panel, col_stream = condensed_fragments(S)
        total_frags = int(frags_per_panel.sum())
        if total_frags == 0:
            work = WarpWorkload.zeros(0)
            config = LaunchConfig(warps_per_block=self.warps_per_block)
            return simulate_launch(device, work, config, cost), 0.0

        sector = device.l2_sector_bytes
        # One warp drives one fragment chain.  Padded compute per
        # fragment: a 16x8 A-fragment against the full 16-wide n sweep of
        # K — expressed in FP32-FMA-equivalents via the TC/FP32 ratio.
        macs_per_frag = TILE_M * FRAG_K * k
        fp32_macs_per_cycle = device.fp32_lanes_per_sm * device.num_sms
        tc_macs_per_cycle = device.tf32_tc_flops / device.clock_hz / 2.0
        fma_equiv = (
            macs_per_frag / 32.0 * (fp32_macs_per_cycle / tc_macs_per_cycle)
        )

        # Operand traffic: 8 dense rows of K floats per fragment (the
        # condensed columns), split by the panel-column locality; output
        # written once per panel amortizes to ~2 sectors per fragment.
        # The MMA n-sweep reloads the B slab per 16-column chunk; register
        # pressure lets only part of the sweep stay resident, so wide K
        # pays a reload factor (this is what keeps TC-GNN ~2x behind
        # HP-SpMM at K = 64 despite tensor-core peak).
        reload_factor = 1.0 + 0.4 * max(0.0, k / 16.0 - 1.0)
        frag_bytes = FRAG_K * k * 4.0 * reload_factor
        hit = estimate_hit_rate(
            col_stream, bytes_per_item=k * 4.0, device=device, seed=3
        )
        frag_sectors = frag_bytes / sector
        l2_s, dram_s = split_by_hit_rate(
            np.full(total_frags, frag_sectors), hit
        )
        meta_sectors = S.nnz * 8.0 / sector / total_frags  # SGT metadata

        issue = np.full(
            total_frags,
            FRAGMENT_OVERHEAD_CYCLES / cost.cycles_per_instruction
            + (k / 16.0) * 4.0,
        )
        work = WarpWorkload(
            issue=issue,
            l2_sectors=l2_s,
            dram_sectors=dram_s + meta_sectors + 2.0,
            fma=np.full(total_frags, fma_equiv),
        )
        config = LaunchConfig(
            warps_per_block=self.warps_per_block,
            registers_per_thread=64,
            shared_mem_per_block=16 * 1024,
        )
        return simulate_launch(device, work, config, cost), 0.0
