"""Content fingerprints for estimate-cache keys.

A simulated kernel estimate is a pure function of ``(matrix structure,
kernel name + configuration, K, device, cost params)`` (DESIGN.md §1,
"Determinism").  This module turns each of those inputs into a short,
stable string so the tuple can address a memo entry — in process or on
disk — without holding a reference to the original objects.

Matrix fingerprints hash the *structure* (shape, nnz, row/col index
bytes); stored values never enter a cost model, so two matrices with the
same sparsity pattern share every estimate.  Hashing a few MB of index
arrays costs milliseconds, and a weak id-keyed memo makes repeat
fingerprints of the same live object free — the common case in sweeps,
where one graph is estimated by many kernels.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import fields, is_dataclass
from functools import lru_cache

import numpy as np

#: id(matrix) -> (weakref to the matrix, fingerprint).  The weakref both
#: detects id reuse after garbage collection and lets entries be pruned.
_MATRIX_MEMO: dict[int, tuple[weakref.ref, str]] = {}
_MATRIX_MEMO_MAX = 256


def _hash_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a)  # hashes the buffer in place; tobytes() would copy it
    return h.hexdigest()


def _memo_get(memo: dict, obj):
    """Fingerprint memoized for the live object ``obj``, else ``None``."""
    entry = memo.get(id(obj))
    if entry is not None and entry[0]() is obj:
        return entry[1]
    return None


def _memo_put(memo: dict, limit: int, obj, fp: str) -> None:
    """Remember ``fp`` for ``obj``, pruning dead entries at ``limit``."""
    if len(memo) >= limit:
        for k in [k for k, (r, _) in memo.items() if r() is None]:
            del memo[k]
        if len(memo) >= limit:
            memo.clear()
    try:
        memo[id(obj)] = (weakref.ref(obj), fp)
    except TypeError:  # not weakrefable: skip the memo
        pass


def matrix_fingerprint(S) -> str:
    """Structure fingerprint of a :class:`~repro.formats.HybridMatrix`.

    ``(shape, nnz, blake2b(row digest, col digest))`` — value arrays are
    deliberately excluded: cost models depend only on sparsity structure.
    The index digests are :func:`array_fingerprint`'s, so the L2 model's
    key for ``S.col`` is a memo hit rather than a second hash of its bytes.
    """
    fp = _memo_get(_MATRIX_MEMO, S)
    if fp is None:
        digests = array_fingerprint(S.row) + array_fingerprint(S.col)
        fp = (
            f"m{S.shape[0]}x{S.shape[1]}-nnz{S.nnz}-"
            f"{hashlib.blake2b(digests.encode(), digest_size=16).hexdigest()}"
        )
        _memo_put(_MATRIX_MEMO, _MATRIX_MEMO_MAX, S, fp)
    return fp


#: id(array) -> (weakref, digest); same shape as _MATRIX_MEMO.
_ARRAY_MEMO: dict[int, tuple[weakref.ref, str]] = {}
_ARRAY_MEMO_MAX = 512


def array_fingerprint(a: np.ndarray) -> str:
    """Full-content digest of one array: blake2b over dtype, shape, bytes.

    Memoized per live array object, under the same assumption as
    :func:`matrix_fingerprint`: arrays handed to the cost models are not
    mutated in place (the L2 model's access streams are a matrix's
    ``row``/``col`` or a temporary built per estimate).
    """
    fp = _memo_get(_ARRAY_MEMO, a)
    if fp is None:
        fp = _hash_arrays(a)
        _memo_put(_ARRAY_MEMO, _ARRAY_MEMO_MAX, a, fp)
    return fp


def register_fingerprint(S, fp: str) -> None:
    """Pre-seed the matrix memo with a known fingerprint.

    The shared store records each segment's fingerprint in its header,
    so a process attaching a matrix already knows the answer — seeding
    the memo means the first estimate in that process skips re-hashing
    the index arrays entirely.
    """
    try:
        _MATRIX_MEMO[id(S)] = (weakref.ref(S), fp)
    except TypeError:
        pass


@lru_cache(maxsize=256)
def _frozen_dataclass_fingerprint(obj) -> str:
    parts = [type(obj).__name__]
    for f in fields(obj):
        parts.append(f"{f.name}={getattr(obj, f.name)!r}")
    return "|".join(parts)


def dataclass_fingerprint(obj) -> str:
    """Stable fingerprint of a flat dataclass (DeviceSpec, CostParams).

    Field names and reprs are concatenated in declaration order; every
    simulator parameter dataclass holds only scalars/strings/tuples, so
    ``repr`` is exact (floats round-trip via ``repr`` since Python 3.1).
    """
    if not is_dataclass(obj):
        return repr(obj)
    try:
        # DeviceSpec/CostParams are frozen (hashable) dataclasses, and a
        # batch reuses a handful of them thousands of times — an LRU on
        # the instance beats rebuilding the repr string per request.
        return _frozen_dataclass_fingerprint(obj)
    except TypeError:  # unhashable (mutable) dataclass: compute directly
        parts = [type(obj).__name__]
        for f in fields(obj):
            parts.append(f"{f.name}={getattr(obj, f.name)!r}")
        return "|".join(parts)


#: Canonical feature order for selection models and world training rows.
#: Appending is safe (models record the names they were trained with);
#: reordering or renaming breaks every serialized model, so don't.
FEATURE_NAMES = (
    "nodes",
    "nnz",
    "density",
    "degree_mean",
    "degree_std",
    "degree_cv",
    "degree_max",
    "degree_p99",
    "frac_heavy_rows",
    "frac_empty_rows",
)


def structural_features(S) -> dict:
    """Structure-only feature row for one matrix, JSON-ready.

    Degree dispersion (cv), tail mass (p99 / heavy-row fraction) and
    density are the axes the paper's own sensitivity study (Fig. 12)
    shows drive kernel crossovers; empty-row fraction separates the
    row-parallel baselines, which pay for rows they skip.  Everything is
    a deterministic function of the sparsity structure — the same
    quantities the estimate-cache fingerprint keys on — so rows are
    byte-stable across runs and processes, and a selection model trained
    on one sweep's rows applies to any matrix with those statistics.

    Duck-typed on ``shape`` / ``nnz`` / ``row_degrees()`` so the perf
    layer stays import-free of :mod:`repro.graphs`.
    """
    n = int(S.shape[0])
    deg = S.row_degrees()
    if deg.size:
        mean = float(deg.mean())
        std = float(deg.std())
        cv = std / mean if mean else 0.0
        dmax = int(deg.max())
        p99 = float(np.quantile(deg, 0.99))
        heavy = float(np.mean(deg > 4.0 * mean)) if mean else 0.0
        empty = float(np.mean(deg == 0))
    else:
        mean = std = cv = 0.0
        dmax = 0
        p99, heavy, empty = 0.0, 0.0, 0.0
    return {
        "nodes": n,
        "nnz": int(S.nnz),
        "density": float(S.nnz / (n * n)) if n else 0.0,
        "degree_mean": mean,
        "degree_std": std,
        "degree_cv": cv,
        "degree_max": dmax,
        "degree_p99": p99,
        "frac_heavy_rows": heavy,
        "frac_empty_rows": empty,
    }


def feature_vector(features: dict) -> list[float]:
    """Flatten a :func:`structural_features` dict into FEATURE_NAMES order.

    The float list is what selection models consume and what world
    reports store per training row; keeping the flattening here (next to
    the order it encodes) means no caller hand-rolls its own ordering.
    """
    return [float(features[name]) for name in FEATURE_NAMES]


#: id(kernel) -> (weakref, fingerprint); same shape as _MATRIX_MEMO.
#: Kernel instances are immutable after __init__ (no method assigns
#: attributes), so memoizing per live object is safe.
_KERNEL_FP_MEMO: dict[int, tuple[weakref.ref, str]] = {}
_KERNEL_FP_MEMO_MAX = 256


def kernel_config_fingerprint(kernel) -> str:
    """Fingerprint of a kernel instance's constructor configuration.

    Kernel objects store their (scalar) constructor parameters as
    instance attributes, so the sorted ``__dict__`` captures everything
    that can change an estimate besides the registered name.
    """
    fp = _memo_get(_KERNEL_FP_MEMO, kernel)
    if fp is None:
        attrs = getattr(kernel, "__dict__", {})
        body = ",".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
        fp = f"{kernel.name}({body})"
        _memo_put(_KERNEL_FP_MEMO, _KERNEL_FP_MEMO_MAX, kernel, fp)
    return fp
