"""Cost-model helpers: warp slicing, row segments, hit-rate splitting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.formats import HybridMatrix
from repro.gpusim import TESLA_V100, FootprintCacheModel, sampled_footprint
from repro.kernels.common import (
    L2_EFFECTIVE_FRACTION,
    dense_row_alignment,
    estimate_hit_rate,
    output_write_sectors,
    per_warp_nnz,
    row_segments_per_slice,
    split_by_hit_rate,
    warp_slice_starts,
)
from repro.obs import METRICS
from repro.sortops import previous_positions, sorted_unique


def test_warp_slice_starts():
    np.testing.assert_array_equal(warp_slice_starts(100, 32), [0, 32, 64, 96])
    np.testing.assert_array_equal(warp_slice_starts(96, 32), [0, 32, 64])
    assert warp_slice_starts(0, 32).size == 0
    with pytest.raises(ValueError):
        warp_slice_starts(10, 0)


def test_per_warp_nnz():
    np.testing.assert_array_equal(per_warp_nnz(100, 32), [32, 32, 32, 4])
    assert per_warp_nnz(0, 8).size == 0
    assert int(per_warp_nnz(100, 32).sum()) == 100


def test_row_segments_per_slice_basic():
    # rows: 0 0 0 1 1 2 | slices of 3: [0,0,0] -> 1 segment, [1,1,2] -> 2.
    row = np.array([0, 0, 0, 1, 1, 2])
    starts = warp_slice_starts(6, 3)
    np.testing.assert_array_equal(
        row_segments_per_slice(row, starts, 3), [1, 2]
    )


def test_row_segments_boundary_not_counted():
    # A row change exactly at a slice boundary is not an internal switch.
    row = np.array([0, 0, 1, 1])
    starts = warp_slice_starts(4, 2)
    np.testing.assert_array_equal(
        row_segments_per_slice(row, starts, 2), [1, 1]
    )


def test_row_segments_empty():
    assert row_segments_per_slice(np.array([]), np.array([], dtype=np.int64), 4).size == 0


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=200),
    st.integers(1, 64),
)
@settings(max_examples=60, deadline=None)
def test_row_segments_matches_naive(rows, npw):
    row = np.sort(np.array(rows))
    starts = warp_slice_starts(row.size, npw)
    got = row_segments_per_slice(row, starts, npw)
    for w, s in enumerate(starts):
        chunk = row[s : s + npw]
        expected = np.unique(chunk).size
        # Distinct rows == segments because rows are sorted.
        assert got[w] == expected
    # Total segments >= total distinct rows.
    assert got.sum() >= np.unique(row).size


def test_split_by_hit_rate():
    sectors = np.array([10.0, 20.0])
    l2, dram = split_by_hit_rate(sectors, 0.75)
    np.testing.assert_allclose(l2, [7.5, 15.0])
    np.testing.assert_allclose(dram, [2.5, 5.0])
    np.testing.assert_allclose(l2 + dram, sectors)


def test_split_by_hit_rate_clips():
    sectors = np.array([4.0])
    l2, dram = split_by_hit_rate(sectors, 1.7)
    np.testing.assert_allclose(dram, 0.0)


def test_estimate_hit_rate_empty():
    assert estimate_hit_rate(np.array([]), 256.0, TESLA_V100) == 0.0


def test_estimate_hit_rate_hot_stream():
    stream = np.zeros(10_000, dtype=np.int64)
    assert estimate_hit_rate(stream, 256.0, TESLA_V100) > 0.95


def test_estimate_hit_rate_memoized():
    rng = np.random.default_rng(0)
    stream = rng.integers(0, 100_000, size=50_000)
    a = estimate_hit_rate(stream, 256.0, TESLA_V100)
    b = estimate_hit_rate(stream, 256.0, TESLA_V100)  # cached path
    assert a == b


def test_estimate_hit_rate_tells_apart_streams_with_equal_samples():
    # Two streams that agree at every 4096th access and over the first
    # 4096: a key built from those samples served the cyclic stream's
    # answer (0.0) to the mostly-hot one.
    n = 64 * 4096
    cyclic = np.arange(n) % 20000
    hot = cyclic.copy()
    for j in range(1, 64):
        lo, hi = j * 4096 + 1, (j + 1) * 4096
        hot[lo:hi] = np.arange(lo, hi) % 7
    assert estimate_hit_rate(cyclic, 256.0, TESLA_V100) == 0.0
    expected = FootprintCacheModel(
        capacity_bytes=int(TESLA_V100.l2_cache_bytes * L2_EFFECTIVE_FRACTION),
        bytes_per_item=256.0,
    ).hit_rate(hot)
    assert expected > 0.95
    assert estimate_hit_rate(hot, 256.0, TESLA_V100) == expected


def _reference_hits(stream, capacity_items, seed, samples_per_size=48):
    """The footprint model before reuse profiles: one sort per query."""
    n = stream.size
    prev = previous_positions(stream)
    t = np.where(prev >= 0, np.arange(n, dtype=np.int64) - prev, -1)
    if capacity_items >= int(np.count_nonzero(prev < 0)):
        return int(np.count_nonzero(t >= 0))
    sizes = sorted_unique(np.geomspace(1, n, num=24).astype(np.int64))
    fp = sampled_footprint(
        stream, sizes, samples_per_size=samples_per_size, seed=seed, prev=prev
    )
    fits = fp <= capacity_items
    threshold = int(sizes[np.nonzero(fits)[0][-1]]) if fits.any() else 0
    return int(np.count_nonzero((t >= 0) & (t <= threshold)))


def _pooled(values):
    """Streams drawn with replacement from a small pool: heavy duplicates."""
    return st.lists(values, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)
    )


_STREAMS = st.one_of(
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=200).map(
        lambda v: np.array(v, dtype=np.int32)
    ),
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=200).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    _pooled(st.integers(-(2**31), 2**31 - 1)).map(
        lambda v: np.array(v, dtype=np.int32)
    ),
    _pooled(st.integers(-(2**40), 2**40)).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    st.lists(st.integers(-6, 6), min_size=1, max_size=300).map(np.array),
)


@given(stream=_STREAMS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_memoized_hit_rate_matches_fresh_model(stream, data):
    """Every profile-served answer equals a from-scratch evaluation."""
    distinct = len(set(stream.tolist()))
    capacities = {max(1, distinct - 1), distinct, distinct + 1}
    capacities.update(data.draw(st.lists(st.integers(1, 2 * distinct + 2), max_size=4)))
    queries = [
        (cap, bpi, seed)
        for cap in sorted(capacities)
        for bpi in (1.0, 2.0)
        for seed in range(5)
    ]
    for cap, bpi, seed in data.draw(st.permutations(queries)):
        l2_bytes = round(cap / L2_EFFECTIVE_FRACTION)
        device = dataclasses.replace(TESLA_V100, l2_cache_bytes=l2_bytes)
        items = int(l2_bytes * L2_EFFECTIVE_FRACTION) / bpi
        expected = _reference_hits(stream, items, seed) / stream.size
        assert estimate_hit_rate(stream, bpi, device, seed=seed) == expected


def test_profile_counters_build_once_per_stream_and_seed(monkeypatch):
    monkeypatch.setattr("repro.kernels.common._PROFILES", {})
    rng = np.random.default_rng(5)
    stream = rng.integers(0, 50_000, size=20_000)
    before = METRICS.counters()

    def delta(name):
        return METRICS.get(name) - before.get(name, 0)

    for device_l2 in (1 << 20, 1 << 22, 1 << 24):
        device = dataclasses.replace(TESLA_V100, l2_cache_bytes=device_l2)
        for k in (16, 64, 256):
            for seed in (0, 1):
                estimate_hit_rate(stream, k * 4.0, device, seed=seed)
    assert delta("gpusim.reuse_profile.builds") == 1
    assert delta("gpusim.reuse_profile.detail_builds") == 2
    assert delta("gpusim.reuse_profile.hits") == 17


def test_fitting_stream_never_sorts(monkeypatch):
    monkeypatch.setattr("repro.kernels.common._PROFILES", {})
    before = METRICS.get("gpusim.reuse_profile.detail_builds")
    stream = np.arange(1000) % 10
    assert estimate_hit_rate(stream, 256.0, TESLA_V100) == 0.99
    assert METRICS.get("gpusim.reuse_profile.detail_builds") == before


def _segments_per_call(row, starts, nnz_per_warp):
    """``row_segments_per_slice`` before the row structure: an O(nnz)
    row-change prefix sum built on every call."""
    nnz = row.size
    change = np.empty(nnz, dtype=np.int64)
    change[0] = 0
    change[1:] = (row[1:] != row[:-1]).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(change)))
    ends = np.minimum(starts + nnz_per_warp, nnz)
    internal = csum[ends] - csum[np.minimum(starts + 1, nnz)]
    lengths = ends - starts
    return np.where(lengths > 0, internal + 1, 0)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=80), st.data())
@settings(max_examples=100, deadline=None)
def test_row_segments_match_per_call_version(degrees, data):
    # Empty rows anywhere; NnzPerWarp from 1 to beyond nnz; both the
    # matrix (cached structure) and the bare row array.
    deg = np.array(degrees, dtype=np.int64)
    assume(deg.sum() > 0)
    row = np.repeat(np.arange(deg.size, dtype=np.int32), deg)
    nnz = row.size
    S = HybridMatrix.from_arrays(
        row, np.zeros(nnz, dtype=np.int32), shape=(deg.size, 1)
    )
    npw = data.draw(st.integers(1, nnz + 3), label="nnz_per_warp")
    starts = warp_slice_starts(nnz, npw)
    expected = _segments_per_call(row, starts, npw)
    np.testing.assert_array_equal(row_segments_per_slice(S, starts, npw), expected)
    np.testing.assert_array_equal(row_segments_per_slice(row, starts, npw), expected)


def test_alignment_and_write_sectors():
    assert dense_row_alignment(64)
    assert dense_row_alignment(8)
    assert not dense_row_alignment(7)
    assert output_write_sectors(64) == 8
    assert output_write_sectors(7) == 1


def test_row_segments_rejects_empty_row_with_slices():
    starts = np.array([0, 4], dtype=np.int64)
    with pytest.raises(ValueError, match="row array is empty"):
        row_segments_per_slice(np.array([], dtype=np.int64), starts, 4)


def test_row_segments_rejects_unsorted_row():
    row = np.array([0, 2, 1, 3], dtype=np.int64)
    starts = warp_slice_starts(4, 2)
    with pytest.raises(ValueError, match="non-decreasing") as exc:
        row_segments_per_slice(row, starts, 2)
    # The message names the offending index for fast diagnosis.
    assert "row[1]=2" in str(exc.value)
