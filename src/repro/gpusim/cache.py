"""L2 cache models for the simulator.

Two models are provided:

* :class:`FootprintCacheModel` — an analytic, fully-vectorized hit-rate
  estimator for long access streams based on reuse *time* and a sampled
  footprint function (Denning working-set theory: an access whose reuse
  window touches a footprint larger than the cache is a miss).  This is
  the model used by kernel cost models; it is what makes Graph Clustering
  based Reordering show up as fewer DRAM transactions.  It answers from
  a :class:`ReuseProfile`, the stream's capacity-independent summary, so
  repeated queries on one stream sort and sample it once.

* :class:`LRUCache` — an exact set-associative LRU simulator used by the
  test-suite to validate the analytic estimator on small streams.

Both operate on *item* streams (e.g. the column index of each SpMM
nonzero), with a caller-supplied ``bytes_per_item`` (e.g. ``K * 4`` for a
feature-matrix row).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..obs import METRICS
from ..sortops import previous_positions, sorted_unique

# previous_positions is the shared substrate of reuse_times (i - prev[i])
# and sampled_footprint (an access is the first of its item within window
# [s, s+w) iff prev[i] < s).


def reuse_times(stream: np.ndarray) -> np.ndarray:
    """Accesses elapsed since the previous access to the same item.

    Returns an int64 array aligned with ``stream``; first-ever accesses get
    ``-1``.
    """
    prev = previous_positions(stream)
    n = prev.size
    if n == 0:
        return prev
    return np.where(prev >= 0, np.arange(n, dtype=np.int64) - prev, -1)


def sampled_footprint(
    stream: np.ndarray,
    window_sizes: np.ndarray,
    samples_per_size: int = 48,
    seed: int = 0,
    *,
    prev: np.ndarray | None = None,
) -> np.ndarray:
    """Estimate the average number of distinct items in windows of each size.

    For each window size ``w`` the estimator averages exact distinct
    counts over ``samples_per_size`` windows at deterministic,
    evenly-spread offsets (salted by ``seed``).  The result is forced
    monotone non-decreasing in ``w`` (footprints are, in expectation).

    The count for a window ``[s, s+w)`` is the number of accesses whose
    previous same-item access falls before ``s`` — a single vectorized
    comparison against the :func:`previous_positions` array, so no
    window is ever deduplicated on its own.  Callers that already hold
    the ``prev`` array can pass it to skip the one O(n log n) sort.
    """
    stream = np.asarray(stream)
    n = stream.size
    out = np.empty(len(window_sizes), dtype=np.float64)
    rng = np.random.default_rng(seed)
    if prev is None:
        prev = previous_positions(stream)
    for i, w in enumerate(window_sizes):
        w = int(min(w, n))
        if w <= 0:
            out[i] = 0.0
            continue
        max_start = n - w
        if max_start <= 0:
            starts = np.array([0])
        else:
            k = min(samples_per_size, max_start + 1)
            starts = sorted_unique(
                (rng.random(k) * (max_start + 1)).astype(np.int64)
            )
        counts = [
            int(np.count_nonzero(prev[s : s + w] < s)) for s in starts
        ]
        out[i] = float(np.mean(counts))
    return np.maximum.accumulate(out)


@dataclass(frozen=True)
class CacheStats:
    """Result of running a stream through a cache model."""

    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served by the cache (0 for an empty stream)."""
        return self.hits / self.accesses if self.accesses else 0.0


class ReuseProfile:
    """Capacity-independent reuse summary of one access stream.

    :class:`FootprintCacheModel` answers every capacity from three
    things that do not depend on it: the distinct-item count, the number
    of reused accesses whose reuse time is at most each window size, and
    the sampled footprint curve at those sizes.  A profile keeps exactly
    those, so one stream is sorted and sampled once however many
    (K, device, capacity) queries ask about it.

    It is filled lazily.  The distinct count (one value sort) comes
    first and answers every capacity that holds all items.  The
    packed-key sort, the reuse-time histogram and the footprint curve
    wait for the first capacity below it; the curve is kept per
    ``(seed, samples_per_size)``.  The profile holds O(window sizes)
    numbers and no per-access array, so every query passes the stream
    it was built from again.
    """

    #: Log-spaced window sizes used for footprint sampling.
    NUM_WINDOW_SIZES = 24

    def __init__(self) -> None:
        self.distinct: int | None = None
        #: ``(sizes, hits_within)``: reused accesses with reuse time
        #: ``<= sizes[j]``, filled with the first footprint curve.
        self._reuse: tuple[np.ndarray, np.ndarray] | None = None
        self._footprints: dict[tuple[int, int], np.ndarray] = {}

    def hits(
        self,
        stream: np.ndarray,
        capacity_items: float,
        *,
        seed: int = 0,
        samples_per_size: int = 48,
    ) -> int:
        """Modelled hits of ``stream`` in ``capacity_items`` items of cache.

        An access with reuse time ``t`` hits iff ``t`` is at most the
        largest window size whose footprint fits in the capacity.
        """
        n = stream.size
        if self.distinct is None:
            self.distinct = int(sorted_unique(stream).size)
            METRICS.inc("gpusim.reuse_profile.builds")
        if capacity_items >= self.distinct:
            # Everything fits: every non-cold access hits.
            return n - self.distinct
        fp = self._footprints.get((seed, samples_per_size))
        if fp is None:
            METRICS.inc("gpusim.reuse_profile.detail_builds")
            prev = previous_positions(stream)
            if self._reuse is None:
                sizes = sorted_unique(
                    np.geomspace(1, n, num=self.NUM_WINDOW_SIZES).astype(np.int64)
                )
                reused = np.flatnonzero(prev >= 0)
                within = np.cumsum(np.bincount(reused - prev[reused], minlength=n))
                self._reuse = (sizes, within[np.minimum(sizes, n - 1)])
            fp = sampled_footprint(
                stream,
                self._reuse[0],
                samples_per_size=samples_per_size,
                seed=seed,
                prev=prev,
            )
            self._footprints[(seed, samples_per_size)] = fp
        # Largest reuse time whose footprint still fits in the cache.
        fits = np.flatnonzero(fp <= capacity_items)
        return int(self._reuse[1][fits[-1]]) if fits.size else 0


class FootprintCacheModel:
    """Analytic LRU hit-rate estimator for a single access stream.

    An access with reuse time ``t`` hits iff the expected footprint of a
    ``t``-access window fits in the effective capacity.  The effective
    capacity is the cache size divided by ``concurrency``, modelling the
    interleaving of many concurrent warps' streams (each warp sees only a
    fraction of the cache).  The answer comes from the stream's
    :class:`ReuseProfile`; callers that query one stream repeatedly pass
    the same profile each time.
    """

    def __init__(
        self,
        capacity_bytes: int,
        bytes_per_item: float,
        *,
        concurrency: float = 1.0,
        samples_per_size: int = 48,
        seed: int = 0,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if bytes_per_item <= 0:
            raise ValueError("bytes_per_item must be positive")
        if concurrency < 1.0:
            raise ValueError("concurrency must be >= 1")
        self.capacity_bytes = int(capacity_bytes)
        self.bytes_per_item = float(bytes_per_item)
        self.concurrency = float(concurrency)
        self.samples_per_size = int(samples_per_size)
        self.seed = int(seed)

    @property
    def capacity_items(self) -> float:
        """Items that fit in the effective (concurrency-shared) capacity."""
        return self.capacity_bytes / self.concurrency / self.bytes_per_item

    def run(
        self, stream: np.ndarray, profile: ReuseProfile | None = None
    ) -> CacheStats:
        """Estimate hits for ``stream`` (array of item ids, access order).

        ``profile`` must have been built from this same stream; without
        one a fresh profile is used and dropped.
        """
        stream = np.asarray(stream)
        if stream.size == 0:
            return CacheStats(accesses=0, hits=0)
        if profile is None:
            profile = ReuseProfile()
        hits = profile.hits(
            stream,
            self.capacity_items,
            seed=self.seed,
            samples_per_size=self.samples_per_size,
        )
        return CacheStats(accesses=stream.size, hits=hits)

    def hit_rate(self, stream: np.ndarray) -> float:
        """Convenience wrapper returning just the hit fraction."""
        return self.run(stream).hit_rate


class LRUCache:
    """Exact set-associative LRU cache simulator (small streams only).

    Used in tests as ground truth for :class:`FootprintCacheModel`.
    ``num_sets == 1`` gives fully-associative LRU.
    """

    def __init__(
        self, capacity_items: int, *, num_sets: int = 1
    ) -> None:
        if capacity_items <= 0:
            raise ValueError("capacity_items must be positive")
        if num_sets <= 0 or capacity_items % num_sets != 0:
            raise ValueError("capacity must divide evenly into sets")
        self.capacity_items = capacity_items
        self.num_sets = num_sets
        self.ways = capacity_items // num_sets
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
        self.hits = 0
        self.accesses = 0

    def access(self, item: int) -> bool:
        """Access one item; returns True on hit."""
        s = self._sets[int(item) % self.num_sets]
        self.accesses += 1
        if item in s:
            s.move_to_end(item)
            self.hits += 1
            return True
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[item] = True
        return False

    def run(self, stream) -> CacheStats:
        """Run a whole stream; accumulates into and returns overall stats."""
        for item in np.asarray(stream).ravel():
            self.access(int(item))
        return CacheStats(accesses=self.accesses, hits=self.hits)
