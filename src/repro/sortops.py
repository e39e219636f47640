"""Sort-based set primitives over integer arrays.

On integer input NumPy 2.x's ``np.unique`` takes a hash-table path
(``_unique_hash``) whenever no index/inverse/count output is requested,
then sorts the hashed result.  On the int64 edge and pair keys
deduplicated here, that path is tens of times slower than one
``np.sort`` plus an adjacent-difference mask (36-63x on 0.4M-8M random
keys, 2-CPU Xeon), with identical output.  This module holds that one
primitive, plus the packed-key sort behind the L2 footprint model's
previous-access array.

It imports only NumPy, so every package can use it without adding an
import edge.  The determinism linter's ``lint/bare-unique`` rule keeps
hot packages on it.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)


def sorted_unique(a, *, return_counts: bool = False):
    """Sorted distinct values of ``a`` (flattened), like ``np.unique``.

    With ``return_counts`` also returns how often each value occurs, as
    an ``intp`` array.  Values, dtype and counts equal ``np.unique``'s
    for integer input.
    """
    s = np.sort(np.asarray(a), axis=None)
    # True at the first element of each run of equal values.
    mask = np.empty(s.size, dtype=bool)
    mask[:1] = True
    np.not_equal(s[1:], s[:-1], out=mask[1:])
    uniq = s[mask]
    if not return_counts:
        return uniq
    starts = np.flatnonzero(mask)
    return uniq, np.diff(starts, append=s.size)


def previous_positions(stream) -> np.ndarray:
    """Position of the previous access to the same item, or ``-1``.

    Each access becomes one int64 key ``(item - min) * n + position``,
    so a single unstable ``np.sort`` orders accesses by item and, within
    an item, by position, the order a stable argsort on item id gives.
    Raises ``ValueError`` when ``(max - min + 1) * n`` exceeds the int64
    range the keys live in.
    """
    stream = np.asarray(stream).ravel()
    n = stream.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lo, hi = int(stream.min()), int(stream.max())
    if (hi - lo + 1) * n - 1 > _INT64_MAX:
        raise ValueError(
            f"previous_positions: item span {hi - lo + 1} x stream length "
            f"{n} exceeds the int64 key limit {_INT64_MAX}"
        )
    key = (stream.astype(np.int64) - lo) * n
    key += np.arange(n, dtype=np.int64)
    key.sort()
    item, pos = np.divmod(key, n)
    out = np.full(n, -1, dtype=np.int64)
    out[pos[1:]] = np.where(item[1:] == item[:-1], pos[:-1], -1)
    return out
