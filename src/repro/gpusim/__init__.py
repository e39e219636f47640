"""Deterministic GPU execution-model simulator.

This package substitutes for the paper's physical GPUs (Tesla V100 / A30,
RTX 3090): device resource specs with occupancy and wave geometry
(Eqs. 3-4), a transaction-level global-memory model with alignment /
coalescing / vectorization rules, a footprint-based L2 hit-rate model,
and a roofline + critical-path launch timer that reproduces load
imbalance and the tail effect.
"""

from .cache import (
    CacheStats,
    FootprintCacheModel,
    LRUCache,
    ReuseProfile,
    previous_positions,
    reuse_times,
    sampled_footprint,
)
from .costmodel import DEFAULT_COST, CostParams, WarpWorkload, warp_critical_cycles
from .device import (
    DEVICES,
    RTX_3090,
    TESLA_A30,
    TESLA_V100,
    WARP_SIZE,
    DeviceSpec,
    get_device,
)
from .launch import KernelStats, LaunchConfig, simulate_launch
from .profile import profile_report, utilization_summary
from .trace import TraceCounts, trace_hp_sddmm, trace_hp_spmm
from .memory import (
    FP32,
    VECTOR_WIDTHS,
    RowAccessProfile,
    dense_row_profile,
    is_aligned,
    max_vector_width,
    sectors_for_access,
    sparse_tile_load_sectors,
    strided_gather_sectors,
    warp_scatter_sectors,
)

__all__ = [
    "CacheStats",
    "FootprintCacheModel",
    "LRUCache",
    "ReuseProfile",
    "previous_positions",
    "reuse_times",
    "sampled_footprint",
    "DEFAULT_COST",
    "CostParams",
    "WarpWorkload",
    "warp_critical_cycles",
    "DEVICES",
    "RTX_3090",
    "TESLA_A30",
    "TESLA_V100",
    "WARP_SIZE",
    "DeviceSpec",
    "get_device",
    "KernelStats",
    "LaunchConfig",
    "simulate_launch",
    "TraceCounts",
    "trace_hp_sddmm",
    "trace_hp_spmm",
    "profile_report",
    "utilization_summary",
    "FP32",
    "VECTOR_WIDTHS",
    "RowAccessProfile",
    "dense_row_profile",
    "is_aligned",
    "max_vector_width",
    "sectors_for_access",
    "sparse_tile_load_sectors",
    "strided_gather_sectors",
    "warp_scatter_sectors",
]
