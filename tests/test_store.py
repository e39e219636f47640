"""Shared graph/matrix store: lifecycle, corruption, and fallbacks.

The store's contract is *transport optimization, never correctness
dependency*: every test here pins one edge of that contract — zero-copy
round-trips, concurrent attach from separate processes, unlink on
shutdown, corrupted-segment detection degrading to the pickle/inline
path with identical results, and the probe-once dispatch fix.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.engine import Engine, EstimateRequest, ShardedExecutor
from repro.engine.core import _Point, _WorkUnit, _execute_unit
from repro.gpusim import TESLA_V100
from repro.obs import METRICS
from repro.obs.metrics import snapshot
from repro.store import (
    SharedGraphStore,
    StoreAttachError,
    get_store,
    reset_store,
    store_counters,
)

from tests.conftest import random_hybrid

pytestmark = pytest.mark.store


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_store()
    yield
    reset_store()


def _toy_unit(S, store_ref=None, index=0):
    return _WorkUnit(
        graph="toy",
        S=S,
        points=[
            _Point(
                index=index, op="spmm", kernel="hp-spmm", kwargs=(),
                k=32, device=TESLA_V100,
            )
        ],
        check_plans=False,
        capture_errors=False,
        span="engine.estimate",
        cat="engine",
        store_ref=store_ref,
    )


# ----------------------------------------------------------------------
# Publish / attach round-trips
# ----------------------------------------------------------------------

def test_publish_attach_roundtrip():
    S = random_hybrid(120, 120, 900, seed=61)
    store = get_store()
    handle = store.publish(S)

    # A *fresh* store instance has no memo, so this is a real attach
    # through the segment name — the same path a non-forked process
    # would take.
    attacher = SharedGraphStore(backend=handle.backend)
    attached = attacher.attach(handle)
    np.testing.assert_array_equal(attached.row, S.row)
    np.testing.assert_array_equal(attached.col, S.col)
    np.testing.assert_array_equal(attached.val, S.val)
    assert attached.shape == S.shape
    assert not attached.row.flags.writeable
    assert attacher.counters()["attaches"] == 1

    # Re-attaching is a memo hit, not a second mapping.
    again = attacher.attach(handle)
    assert again is attached
    assert attacher.counters()["attach_hits"] == 1


def test_publish_is_idempotent_by_fingerprint():
    S = random_hybrid(100, 100, 700, seed=62)
    store = get_store()
    h1 = store.publish(S)
    h2 = store.publish(S)
    assert h1 == h2
    counters = store.counters()
    assert counters["publishes"] == 1
    assert counters["publish_hits"] == 1
    assert counters["segments"] == 1


def test_shared_matrix_is_segment_backed_and_equal():
    S = random_hybrid(90, 90, 500, seed=63)
    store = get_store()
    shared = store.shared_matrix(S)
    np.testing.assert_array_equal(shared.row, S.row)
    np.testing.assert_array_equal(shared.val, S.val)
    assert not shared.row.flags.writeable
    assert store.counters()["bytes_shared"] > 0
    # The publisher's copy IS the segment: a separate attacher sees the
    # same physical bytes that shared references.
    handle = store.publish(S)
    attached = SharedGraphStore(backend=handle.backend).attach(handle)
    np.testing.assert_array_equal(attached.row, shared.row)


def test_registry_graphs_come_back_store_backed():
    from repro.graphs import load_graph

    before = get_store().counters()["segments"]
    # A max_edges value no other test uses, so the registry's lru_cache
    # cannot serve a matrix loaded before this store existed.
    dataset = load_graph("aifb", max_edges=17_000)
    assert not dataset.matrix.row.flags.writeable
    assert get_store().counters()["segments"] == before + 1


# ----------------------------------------------------------------------
# Concurrency and cross-process attach
# ----------------------------------------------------------------------

def _attach_and_sum(handle, outq):
    # A brand-new store instance: forces a name-based attach even though
    # fork inherited the parent's populated singleton.
    attacher = SharedGraphStore(backend=handle.backend)
    M = attacher.attach(handle)
    outq.put(
        (int(M.row.sum()), int(M.col.sum()), float(M.val.sum()),
         attacher.counters()["attaches"])
    )


def test_concurrent_attach_from_two_processes():
    S = random_hybrid(150, 150, 1200, seed=64)
    handle = get_store().publish(S)
    ctx = multiprocessing.get_context("fork")
    outq = ctx.Queue()
    procs = [
        ctx.Process(target=_attach_and_sum, args=(handle, outq))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    replies = [outq.get(timeout=30) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    expected = (int(S.row.sum()), int(S.col.sum()), float(S.val.sum()), 1)
    assert replies == [expected, expected]
    # The transient attachers' exits must not have unlinked the segment.
    again = SharedGraphStore(backend=handle.backend).attach(handle)
    np.testing.assert_array_equal(again.row, S.row)


# ----------------------------------------------------------------------
# Lifecycle: unlink on shutdown
# ----------------------------------------------------------------------

def test_mmap_backend_unlinks_files_on_shutdown(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_BACKEND", "mmap")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    S = random_hybrid(80, 80, 400, seed=65)
    store = SharedGraphStore()
    handle = store.publish(S)
    assert os.path.exists(handle.name)
    matrix = store.shared_matrix(S)

    store.shutdown()
    assert not os.path.exists(handle.name)
    # Matrices attached before shutdown keep valid mappings...
    np.testing.assert_array_equal(matrix.row, S.row)
    # ...but new attaches fail cleanly.
    with pytest.raises(StoreAttachError):
        SharedGraphStore().attach(handle)


def test_shm_segment_gone_after_reset():
    S = random_hybrid(70, 70, 300, seed=66)
    handle = get_store().publish(S)
    reset_store()
    with pytest.raises(StoreAttachError):
        SharedGraphStore(backend=handle.backend).attach(handle)


# ----------------------------------------------------------------------
# Corruption detection
# ----------------------------------------------------------------------

def test_corrupted_magic_is_rejected():
    S = random_hybrid(60, 60, 250, seed=67)
    store = get_store()
    handle = store.publish(S)
    seg = store._segments[handle.fingerprint]
    seg.buf[:4] = b"XXXX"
    with pytest.raises(StoreAttachError, match="bad magic"):
        SharedGraphStore(backend=handle.backend).attach(handle)


def test_fingerprint_mismatch_is_rejected():
    S = random_hybrid(60, 60, 250, seed=68)
    store = get_store()
    handle = store.publish(S)
    forged = dataclasses.replace(handle, fingerprint="m1x1-nnz1-deadbeef")
    with pytest.raises(StoreAttachError, match="recycled or corrupted"):
        SharedGraphStore(backend=handle.backend).attach(forged)


def test_truncated_backing_file_is_rejected_cleanly(tmp_path, monkeypatch):
    """A zero-length mmap file surfaces as StoreAttachError, not ValueError.

    Regression: ``mmap.mmap`` raises ``ValueError`` (not ``OSError``) on
    an empty backing file, which used to escape the attach-error
    contract — and leak the descriptor — instead of letting callers
    degrade to the pickle path.
    """
    monkeypatch.setenv("REPRO_STORE_BACKEND", "mmap")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    S = random_hybrid(60, 60, 250, seed=70)
    store = SharedGraphStore()
    handle = store.publish(S)
    # A crashed publisher can leave the file truncated to zero bytes.
    with open(handle.name, "w+b"):
        pass
    with pytest.raises(StoreAttachError):
        SharedGraphStore().attach(handle)
    store.shutdown()


def test_sharded_attach_failure_falls_back_to_parent_copy():
    """A worker losing the segment degrades, with identical results."""
    S = random_hybrid(110, 110, 800, seed=69)
    real = get_store().publish(S)
    # Structurally valid handle pointing at a segment that was never
    # created — the worker's attach raises StoreAttachError, and the
    # parent must re-evaluate from its own full copy.  The fingerprint
    # is forged as well: with the real one, the worker would serve the
    # matrix from the segment memo it inherited at fork and never
    # consult the bogus name (which is the desired behavior, tested
    # above via reset/unlink).
    bad = dataclasses.replace(
        real, name=f"{real.name}_gone", fingerprint=f"{real.fingerprint}x"
    )
    units = [_toy_unit(S, store_ref=bad, index=0),
             _toy_unit(S, store_ref=real, index=1)]
    expected = [_execute_unit(_toy_unit(S, index=i)) for i in range(2)]

    before = store_counters()["fallbacks"]
    with ShardedExecutor(workers=2) as executor:
        mapped = executor.map(_execute_unit, units)
    assert store_counters()["fallbacks"] == before + 1
    for got, want in zip(mapped, expected):
        assert [
            (o.index, o.status, o.time_s, o.gflops) for o in got.outcomes
        ] == [
            (o.index, o.status, o.time_s, o.gflops) for o in want.outcomes
        ]


# ----------------------------------------------------------------------
# Engine dispatch equivalence and accounting
# ----------------------------------------------------------------------

def _spmm_requests():
    return [
        EstimateRequest(op="spmm", kernel=kernel, graph="aifb", k=k,
                        max_edges=20_000)
        for kernel in ("hp-spmm", "ge-spmm") for k in (32, 64)
    ]


def test_inline_dispatch_never_touches_store():
    """Only executors that ship work publish: an inline batch leaves the
    store alone, while the same batch sharded publishes its matrix."""
    reqs = _spmm_requests()
    Engine().estimate_batch(reqs)  # registry load (and its publish) first
    before = store_counters()
    inline = Engine().estimate_batch(reqs)
    assert store_counters() == before  # no store traffic at all
    with ShardedExecutor(workers=2) as executor:
        sharded = Engine(executor=executor).estimate_batch(reqs)
    after = store_counters()
    assert after["publishes"] + after["publish_hits"] > (
        before["publishes"] + before["publish_hits"]
    )
    assert [
        (r.status, r.time_s, r.gflops, r.bound) for r in inline
    ] == [
        (r.status, r.time_s, r.gflops, r.bound) for r in sharded
    ]


def test_sharded_dispatch_uses_store_and_counts_in_snapshot():
    reqs = _spmm_requests()
    inline = Engine().estimate_batch(reqs)
    with ShardedExecutor(workers=2) as executor:
        sharded = Engine(executor=executor).estimate_batch(reqs)
    assert [
        (r.status, r.time_s, r.gflops, r.bound) for r in inline
    ] == [
        (r.status, r.time_s, r.gflops, r.bound) for r in sharded
    ]
    counters = store_counters()
    assert counters["segments"] >= 1
    assert counters["bytes_shared"] > 0
    # Worker-side attach activity shipped back through the executor.
    assert counters["attaches"] + counters["attach_hits"] >= 1
    snap = snapshot()
    for key in ("store.attaches", "store.bytes_shared", "store.fallbacks",
                "store.publishes", "store.segments"):
        assert key in snap
    assert snap["store.bytes_shared"] == counters["bytes_shared"]


# ----------------------------------------------------------------------
# ShardedExecutor probe-once (the per-batch double-serialization fix)
# ----------------------------------------------------------------------

def test_pickle_probe_runs_once_per_executor_lifetime():
    METRICS.reset()
    with ShardedExecutor(workers=2) as executor:
        assert executor.map(str, [1, 2, 3]) == ["1", "2", "3"]
        assert executor.map(str, [4, 5]) == ["4", "5"]
        assert executor.map(str, [6]) == ["6"]
    assert METRICS.get("engine.shard_probes") == 1
    assert METRICS.get("engine.shard_fallbacks") == 0


def test_unpicklable_probe_verdict_is_cached_too():
    METRICS.reset()
    double = lambda x: 2 * x  # noqa: E731 - deliberately unpicklable
    with ShardedExecutor(workers=2) as executor:
        assert executor.map(double, [1, 2]) == [2, 4]
        assert executor.map(double, [3]) == [6]
    assert METRICS.get("engine.shard_probes") == 1
    assert METRICS.get("engine.shard_fallbacks") == 2


def test_probe_cache_clears_on_stop():
    METRICS.reset()
    executor = ShardedExecutor(workers=2)
    with executor:
        executor.map(str, [1])
    with executor:
        executor.map(str, [2])
    assert METRICS.get("engine.shard_probes") == 2


def test_worker_loop_replies_even_when_accounting_raises(monkeypatch):
    """A failure inside the counter-delta accounting still yields a reply.

    Regression: ``delta`` was first bound inside the ``finally`` that
    computes it, so if ``store_counters()`` raised there the error-reply
    constructor hit ``NameError`` and the worker loop died silently,
    wedging the parent's result collection.
    """
    import queue

    from repro.engine import executors as executors_mod

    calls = {"n": 0}

    def flaky_counters():
        calls["n"] += 1
        if calls["n"] > 1:  # the post-item read in the finally
            raise RuntimeError("accounting boom")
        return {"attaches": 0, "attach_hits": 0, "fallbacks": 0}

    monkeypatch.setattr(executors_mod, "store_counters", flaky_counters)
    inbox: queue.Queue = queue.Queue()
    outbox: queue.Queue = queue.Queue()
    inbox.put((0, lambda x: x * 2, 21, None))
    inbox.put(None)  # _STOP sentinel
    executors_mod._shard_worker_loop(inbox, outbox)

    seq, status, payload, spans, pid, delta = outbox.get_nowait()
    assert (seq, status) == (0, "error")
    assert isinstance(payload, RuntimeError)
    assert "accounting boom" in str(payload)
    assert delta == {}
