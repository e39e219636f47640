"""The sort-based set primitives against the NumPy calls they replace.

``sorted_unique`` must equal ``np.unique`` (values, dtype, counts) and
the packed-key ``previous_positions`` must equal the stable-argsort
version it replaced, kept below as the reference.  The generator digests
were recorded before the hot sites moved onto the primitive: graphs must
stay array-identical, since every report is computed from them.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.graphs import chung_lu_graph
from repro.graphs.generators import GENERATOR_FAMILIES, generate_graph
from repro.sortops import previous_positions, sorted_unique


def _int_arrays(bound):
    """int32/int64 arrays (length 0-300) of small values, so duplicates
    are common, mixed with values up to ``bound`` in magnitude."""
    return st.sampled_from([np.int32, np.int64]).flatmap(
        lambda dt: hnp.arrays(
            dt,
            st.integers(0, 300),
            elements=st.integers(-50, 50) | st.integers(
                max(-bound, int(np.iinfo(dt).min)),
                min(bound, int(np.iinfo(dt).max)),
            ),
        )
    )


_INT_ARRAYS = _int_arrays(2**63)
# previous_positions packs (item - min) * n + position into an int64.
_STREAMS = _int_arrays(2**50)


@settings(max_examples=80, deadline=None)
@given(_INT_ARRAYS)
def test_sorted_unique_equals_np_unique(a):
    got = sorted_unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    got_v, got_c = sorted_unique(a, return_counts=True)
    want_v, want_c = np.unique(a, return_counts=True)
    np.testing.assert_array_equal(got_v, want_v)
    assert got_c.dtype == want_c.dtype
    np.testing.assert_array_equal(got_c, want_c)


@pytest.mark.parametrize("dt", [np.int32, np.int64])
def test_sorted_unique_edge_shapes(dt):
    for a in (np.array([], dtype=dt), np.array([-7], dtype=dt),
              np.full(5, -3, dtype=dt), np.array([[3, 1], [3, -1]], dtype=dt)):
        np.testing.assert_array_equal(sorted_unique(a), np.unique(a))
        for got, want in zip(sorted_unique(a, return_counts=True),
                             np.unique(a, return_counts=True)):
            np.testing.assert_array_equal(got, want)


def _previous_positions_argsort(stream):
    """The stable-argsort implementation ``previous_positions`` replaced."""
    stream = np.asarray(stream)
    n = stream.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(stream, kind="stable")
    sorted_items = stream[order]
    pos = order.astype(np.int64)
    out = np.full(n, -1, dtype=np.int64)
    same_as_prev = sorted_items[1:] == sorted_items[:-1]
    out[pos[1:]] = np.where(same_as_prev, pos[:-1], -1)
    return out


@settings(max_examples=80, deadline=None)
@given(_STREAMS)
def test_previous_positions_equals_stable_argsort(a):
    got = previous_positions(a)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _previous_positions_argsort(a))


def test_previous_positions_overflow_guard():
    big = np.array([-(2**62), 2**62], dtype=np.int64)
    with pytest.raises(ValueError, match="int64 key limit"):
        previous_positions(big)
    # The largest span that still fits: (span * n) - 1 == int64 max.
    edge = np.array([0, 2**62 - 1], dtype=np.int64)
    np.testing.assert_array_equal(
        previous_positions(edge), _previous_positions_argsort(edge)
    )
    wide = np.array([7, 2**61, 7, -5], dtype=np.int64)
    with pytest.raises(ValueError):
        previous_positions(wide)


def _digest(S):
    h = hashlib.sha256()
    h.update(repr(S.shape).encode())
    for a in (S.row, S.col, S.val):
        h.update(str(a.dtype).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


#: (family, seed) -> digest of generate_graph(family, 600, 4000,
#: skew=0.7, seed=seed), recorded with the np.unique-based generators.
_PINNED = {
    ("chung-lu", 0): "3f34ac0d4e9490d7",
    ("chung-lu", 3): "ff951232cf99f4c9",
    ("community", 0): "8f1885b9295fa40f",
    ("community", 3): "93fb3ddc30d72325",
    ("lognormal", 0): "5ef2c3e79ef23041",
    ("lognormal", 3): "601b39109766d149",
    ("rmat", 0): "56fa7f7e8742a6ac",
    ("rmat", 3): "20793421d9fe8504",
}


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("seed", [0, 3])
def test_generator_families_match_pinned_digests(family, seed):
    S = generate_graph(family, 600, 4000, skew=0.7, seed=seed)
    assert _digest(S) == _PINNED[(family, seed)]


def test_symmetric_generator_matches_pinned_digest():
    # symmetric=True runs the second dedupe pass (_dedupe on both halves).
    S = chung_lu_graph(600, 4000, seed=5, symmetric=True)
    assert _digest(S) == "2dde2d5aa803dd32"
