"""Shared helpers for kernel cost models.

These functions translate a sparse matrix plus a task-partition strategy
into the per-warp quantities (instruction counts, memory sectors, row
switches) that :func:`repro.gpusim.simulate_launch` consumes.
"""

from __future__ import annotations

import numpy as np

from ..formats import HybridMatrix, RowStructure
from ..gpusim import DeviceSpec, FootprintCacheModel, ReuseProfile
from ..obs import METRICS
from ..perf.fingerprint import array_fingerprint


def warp_slice_starts(nnz: int, nnz_per_warp: int) -> np.ndarray:
    """Start offsets of each warp's nnz slice; length = number of warps."""
    if nnz_per_warp <= 0:
        raise ValueError("nnz_per_warp must be positive")
    num_warps = max(1, -(-nnz // nnz_per_warp)) if nnz else 0
    return np.arange(num_warps, dtype=np.int64) * nnz_per_warp


def per_warp_nnz(nnz: int, nnz_per_warp: int) -> np.ndarray:
    """Nonzeros assigned to each warp under an equal-nnz partition."""
    starts = warp_slice_starts(nnz, nnz_per_warp)
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.minimum(starts + nnz_per_warp, nnz)
    return ends - starts


def row_segments_per_slice(row, starts: np.ndarray, nnz_per_warp: int) -> np.ndarray:
    """Distinct row segments each warp's slice touches (row-switch count + 1).

    ``row`` is a :class:`HybridMatrix` (its cached row structure is
    read) or a bare row-index array.  Rows are non-decreasing, so a slice
    touches ``1 + (# row changes strictly inside it)`` rows.  Each segment
    triggers one row-switch store in HP-SpMM / one A1 reload in HP-SDDMM.

    Raises ``ValueError`` when ``row`` violates the hybrid-format
    invariant (unsorted) or is empty while slices claim nonzeros — both
    would otherwise yield garbage segment counts that silently corrupt
    every downstream cost estimate.
    """
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    rows = (row.row_structure() if isinstance(row, HybridMatrix)
            else RowStructure.build(row))
    if rows.nnz == 0:
        raise ValueError(
            f"row array is empty but {starts.size} warp slices were "
            "requested; slice an empty stream with zero slices"
        )
    ends = np.minimum(starts + nnz_per_warp, rows.nnz)
    changes = rows.changes  # each one strictly inside a slice adds a segment
    internal = np.searchsorted(changes, ends) - np.searchsorted(changes, starts, "right")
    return np.where(ends > starts, internal + 1, 0)


#: Fraction of L2 effectively available to operand-row reuse; the rest is
#: polluted by the streaming sparse arrays and the output write traffic.
L2_EFFECTIVE_FRACTION = 0.5

#: Reuse profiles by full-content stream digest.  Kernels that scan the
#: same matrix share one profile across every K, device and seed; each
#: holds a few dozen numbers, so the bound only caps the entry count.
_PROFILES: dict[str, ReuseProfile] = {}
_PROFILES_MAX = 512


def estimate_hit_rate(
    col_stream: np.ndarray,
    bytes_per_item: float,
    device: DeviceSpec,
    *,
    seed: int = 0,
) -> float:
    """L2 hit rate for a stream of dense-matrix row accesses.

    All concurrent warps read the *same* operand matrix, so their
    interleaved streams share reuse; the access stream in nonzero order is
    therefore a faithful proxy regardless of warp count.  A fixed
    :data:`L2_EFFECTIVE_FRACTION` accounts for cache pollution by
    sparse-array streaming and output writes.
    """
    stream = np.asarray(col_stream)
    if stream.size == 0:
        return 0.0
    key = array_fingerprint(stream)
    profile = _PROFILES.get(key)
    if profile is None:
        if len(_PROFILES) >= _PROFILES_MAX:
            _PROFILES.clear()
        profile = _PROFILES[key] = ReuseProfile()
    else:
        METRICS.inc("gpusim.reuse_profile.hits")
    model = FootprintCacheModel(
        capacity_bytes=int(device.l2_cache_bytes * L2_EFFECTIVE_FRACTION),
        bytes_per_item=bytes_per_item,
        seed=seed,
    )
    return model.run(stream, profile).hit_rate


def split_by_hit_rate(
    sectors: np.ndarray, hit_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split per-warp sector counts into (L2-hit, DRAM) parts."""
    hit_rate = float(np.clip(hit_rate, 0.0, 1.0))
    l2 = sectors * hit_rate
    dram = sectors * (1.0 - hit_rate)
    return l2, dram


def dense_row_alignment(k: int, sector_bytes: int = 32) -> bool:
    """Whether every row of a row-major (N, K) fp32 matrix is sector-aligned."""
    return (k * 4) % sector_bytes == 0


def output_write_sectors(k: int, sector_bytes: int = 32) -> float:
    """Sectors written when storing one K-float output row."""
    return float(-(-k * 4 // sector_bytes))
