"""Fingerprint-addressed, memory-mapped graph/matrix store.

Work shipped to :class:`~repro.engine.ShardedExecutor` worker servers
would otherwise carry pickled matrices through the worker queues, and
every worker would materialize its own copy of every graph it was ever
shipped.  The store removes that tax by writing each matrix's arrays
**once** into a shared-memory segment (or an on-disk mmap file)
addressed by its structural fingerprint; every consumer attaches a
zero-copy NumPy view instead of receiving pickled bytes.

Addressing
----------
A segment is named by :func:`repro.perf.fingerprint.matrix_fingerprint`
— the same structural fingerprint the estimate cache keys on — so two
call sites publishing the same sparsity pattern share one segment, and
an attached matrix's fingerprint is known without re-hashing its index
arrays (:func:`repro.perf.fingerprint.register_fingerprint` pre-seeds
the memo at attach time, which is what kills the per-process
fingerprint recompute the sharded workers used to pay).

Segment layout
--------------
``magic (8 bytes) | header length (8 ASCII digits) | JSON header |
padding to 1024 | arrays``, each array 64-byte aligned.  The header
repeats the fingerprint, dtypes, shapes, and offsets; an attach
validates magic, fingerprint, and size before building views, so a
corrupted or recycled segment raises :class:`StoreAttachError` instead
of returning garbage — executors treat that error as "re-evaluate this
item in the parent, which still holds the matrix".

Backends
--------
``shm``
    ``multiprocessing.shared_memory`` segments (default).  Attaching
    processes unregister from the resource tracker so a worker's exit
    cannot unlink a segment the parent still serves.
``mmap``
    Plain files under ``REPRO_STORE_DIR`` (default: a per-process
    directory in the system temp dir) mapped with ``mmap``.  Selected
    via ``REPRO_STORE_BACKEND=mmap`` or automatically when shared
    memory cannot be created.

Lifecycle
---------
Segments persist for the publishing process's lifetime; consumers keep
their mappings open for as long as the process lives, so attached views
never dangle.  :meth:`SharedGraphStore.shutdown` unlinks every segment
name (subsequent attaches fail; existing views stay valid because the
mapping is retained), and an ``atexit`` hook performs the same unlink so
no segment outlives the run.  A publish that fails (``StoreError``)
degrades that one work unit to shipping its matrix itself.
"""

from __future__ import annotations

import atexit
import json
import mmap
import os
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from ..config import env_str
from ..formats import HybridMatrix
from ..obs import trace_span
from ..perf.fingerprint import matrix_fingerprint, register_fingerprint

MAGIC = b"RPRSTOR1"
HEADER_SIZE = 1024
_ALIGN = 64

BACKEND_SHM = "shm"
BACKEND_MMAP = "mmap"
_VALID_BACKENDS = (BACKEND_SHM, BACKEND_MMAP)


class StoreError(RuntimeError):
    """The store could not publish a matrix (creation/write failure)."""


class StoreAttachError(StoreError):
    """A consumer could not attach a published segment.

    Raised for missing segments (unlinked names), size mismatches, and
    corrupted headers.  Executors catch exactly this type and re-evaluate
    the item in the parent, whose copy still holds the matrix.
    """


def _resolve_backend() -> str:
    raw = env_str("REPRO_STORE_BACKEND").lower()
    if not raw:
        return BACKEND_SHM
    if raw not in _VALID_BACKENDS:
        raise ValueError(
            f"REPRO_STORE_BACKEND must be one of {list(_VALID_BACKENDS)}; "
            f"got {raw!r}"
        )
    return raw


def _resolve_store_dir() -> str:
    """Directory for mmap-backend files (shared by forked workers)."""
    return env_str("REPRO_STORE_DIR") or os.path.join(
        tempfile.gettempdir(), f"repro-store-{os.getpid()}"
    )


@dataclass(frozen=True)
class StoreHandle:
    """Everything a consumer needs to attach one published matrix.

    Handles are tiny (a few hundred bytes) and picklable — this is what
    executors ship over the wire instead of the matrix itself.
    """

    fingerprint: str
    backend: str                 #: BACKEND_SHM | BACKEND_MMAP
    name: str                    #: shm segment name or absolute file path
    total_bytes: int             #: full segment size including header
    shape: tuple[int, int]
    arrays: tuple                #: ((field, dtype_str, length, offset), ...)


def _layout(S: HybridMatrix) -> tuple[tuple, int]:
    """Aligned (field, dtype, length, offset) entries + total size."""
    entries = []
    offset = HEADER_SIZE
    for field in ("row", "col", "val"):
        arr = getattr(S, field)
        offset = ((offset + _ALIGN - 1) // _ALIGN) * _ALIGN
        entries.append((field, str(arr.dtype), int(arr.size), offset))
        offset += arr.nbytes
    return tuple(entries), offset


def _unregister_shm(shm) -> None:
    """Drop a segment from the resource tracker.

    ``SharedMemory`` registers segments with the resource tracker even
    when merely attaching (CPython gh-82300), so a shard worker's exit
    could unlink a segment the publisher still serves.
    Only the publisher keeps its registration — its ``unlink()`` (the
    shutdown/atexit path) clears it, and it is the crash-recovery net
    until then.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _neuter_shm(shm) -> None:
    """Disarm ``SharedMemory.__del__``'s close of the mapping.

    The store keeps mappings open for the process lifetime because
    attached matrices are zero-copy views into them; the default
    finalizer would try to close the mmap under those live exports and
    raise ``BufferError`` at interpreter teardown.  The mapping stays
    reachable through the ``view -> memoryview -> mmap`` chain, so
    dropping the object's own references only silences the finalizer
    (the file descriptor is still closed by it).
    """
    try:
        shm._buf = None
        shm._mmap = None
    except AttributeError:
        pass


class _Segment:
    """One live mapping: keeps the buffer's owner object alive."""

    __slots__ = ("handle", "owner", "buf", "matrix", "payload_bytes")

    def __init__(self, handle, owner, buf, matrix, payload_bytes):
        self.handle = handle
        self.owner = owner          # SharedMemory | (file, mmap)
        self.buf = buf              # writable memoryview/mmap
        self.matrix = matrix        # zero-copy HybridMatrix over buf
        self.payload_bytes = payload_bytes

    def unlink(self) -> None:
        """Remove the segment's name; the mapping itself stays valid."""
        try:
            if isinstance(self.owner, tuple):  # mmap backend: (file, mm)
                os.remove(self.handle.name)
            else:
                self.owner.unlink()
        except (OSError, FileNotFoundError):
            pass


class SharedGraphStore:
    """The fingerprint-addressed segment registry for one process tree.

    The publishing process holds :attr:`_segments` (fingerprint →
    mapping); forked workers inherit both the dict and the mappings, so
    an attach for an inherited fingerprint is a dictionary lookup — the
    arrays are already shared pages.  Workers attaching segments
    published *after* the fork map them by name and memoize in
    :attr:`_attached`.
    """

    def __init__(self, backend: str | None = None) -> None:
        self.backend = backend or _resolve_backend()
        self._lock = threading.Lock()
        self._segments: dict[str, _Segment] = {}
        self._attached: dict[str, _Segment] = {}
        self._seq = 0
        # Counters, merged into obs snapshots as ``store.*`` (the same
        # instance-owned pattern as the estimate cache).
        self.publishes = 0
        self.publish_hits = 0
        self.attaches = 0
        self.attach_hits = 0
        self.fallbacks = 0
        self.bytes_shared = 0

    # -- publishing -----------------------------------------------------
    def publish(self, S: HybridMatrix) -> StoreHandle:
        """Write ``S`` into a shared segment (idempotent by fingerprint)."""
        fp = matrix_fingerprint(S)
        with self._lock:
            seg = self._segments.get(fp)
            if seg is not None:
                self.publish_hits += 1
                return seg.handle
        arrays, total = _layout(S)
        header = json.dumps(
            {
                "fingerprint": fp,
                "shape": list(S.shape),
                "arrays": [list(e) for e in arrays],
                "total_bytes": total,
            }
        ).encode()
        if len(MAGIC) + 8 + len(header) > HEADER_SIZE:
            raise StoreError(
                f"store header too large ({len(header)} bytes) for "
                f"fingerprint {fp!r}"
            )
        with trace_span("store.publish", cat="store", bytes=total):
            with self._lock:
                self._seq += 1
                seq = self._seq
            try:
                owner, buf, name = self._create(total, seq)
            except OSError as exc:
                raise StoreError(
                    f"cannot create {self.backend} segment "
                    f"({total} bytes): {exc}"
                ) from exc
            buf[: len(MAGIC)] = MAGIC
            buf[len(MAGIC): len(MAGIC) + 8] = f"{len(header):08d}".encode()
            buf[len(MAGIC) + 8: len(MAGIC) + 8 + len(header)] = header
            handle = StoreHandle(
                fingerprint=fp,
                backend=self.backend,
                name=name,
                total_bytes=total,
                shape=(int(S.shape[0]), int(S.shape[1])),
                arrays=arrays,
            )
            views = {}
            for field, dtype, length, offset in arrays:
                view = np.frombuffer(
                    buf, dtype=np.dtype(dtype), count=length, offset=offset
                )
                view[:] = getattr(S, field)
                view.setflags(write=False)
                views[field] = view
            matrix = HybridMatrix(
                row=views["row"], col=views["col"], val=views["val"],
                shape=handle.shape,
            )
            register_fingerprint(matrix, fp)
            payload = total - HEADER_SIZE
            seg = _Segment(handle, owner, buf, matrix, payload)
        with self._lock:
            raced = self._segments.get(fp)
            if raced is None:
                self._segments[fp] = seg
                self.publishes += 1
                self.bytes_shared += payload
                return handle
            self.publish_hits += 1
        # Concurrent publish: keep the first copy.  The loser's unlink
        # touches /dev/shm or the filesystem, so it runs after the lock
        # is released rather than stalling every other store caller.
        seg.unlink()
        return raced.handle

    def shared_matrix(self, S: HybridMatrix) -> HybridMatrix:
        """``S`` re-backed by its shared segment (published on demand).

        The returned matrix's arrays are read-only views into the
        segment, so the publisher and every attached process reference
        one physical copy.  Falls back to ``S`` itself when publication
        fails.
        """
        try:
            handle = self.publish(S)
        except StoreError:
            with self._lock:
                self.fallbacks += 1
            return S
        with self._lock:
            return self._segments[handle.fingerprint].matrix

    def _create(self, total: int, seq: int):
        """(owner, writable buffer, name) for a fresh segment."""
        if self.backend == BACKEND_SHM:
            from multiprocessing import shared_memory

            name = f"rstore_{os.getpid()}_{seq}"
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=total, name=name
                )
            except (OSError, ValueError, FileExistsError):
                # /dev/shm unavailable or name taken: degrade to mmap
                # files for this and every later segment.
                self.backend = BACKEND_MMAP
                return self._create(total, seq)
            buf = shm.buf
            # Keep the publisher's resource-tracker registration:
            # ``SharedMemory.unlink()`` (our shutdown path) clears it,
            # and it is the crash-recovery net until then.
            _neuter_shm(shm)
            return shm, buf, name
        directory = _resolve_store_dir()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"rstore_{os.getpid()}_{seq}.bin")
        f = open(path, "w+b")
        try:
            f.truncate(total)
            mm = mmap.mmap(f.fileno(), total)
        except OSError:
            f.close()
            raise
        return (f, mm), mm, path

    # -- attaching ------------------------------------------------------
    def attach(self, handle: StoreHandle) -> HybridMatrix:
        """Zero-copy view of a published matrix; validates the segment."""
        with self._lock:
            seg = self._segments.get(handle.fingerprint)
            if seg is None:
                seg = self._attached.get(handle.fingerprint)
            if seg is not None:
                self.attach_hits += 1
                return seg.matrix
        with trace_span("store.attach", cat="store", bytes=handle.total_bytes):
            owner, buf = self._open(handle)
            try:
                self._validate(handle, buf)
            except StoreAttachError:
                self._close(owner)
                raise
            views = {}
            for field, dtype, length, offset in handle.arrays:
                view = np.frombuffer(
                    buf, dtype=np.dtype(dtype), count=length, offset=offset
                )
                view.setflags(write=False)
                views[field] = view
            matrix = HybridMatrix(
                row=views["row"], col=views["col"], val=views["val"],
                shape=tuple(handle.shape),
            )
            register_fingerprint(matrix, handle.fingerprint)
            seg = _Segment(
                handle, owner, buf, matrix,
                handle.total_bytes - HEADER_SIZE,
            )
        with self._lock:
            self._attached[handle.fingerprint] = seg
            self.attaches += 1
        return matrix

    def _open(self, handle: StoreHandle):
        if handle.backend == BACKEND_SHM:
            from multiprocessing import shared_memory

            try:
                shm = shared_memory.SharedMemory(name=handle.name)
            except (OSError, ValueError) as exc:
                raise StoreAttachError(
                    f"cannot attach shm segment {handle.name!r}: {exc}"
                ) from exc
            buf = shm.buf
            _unregister_shm(shm)
            _neuter_shm(shm)
            return shm, buf
        try:
            f = open(handle.name, "rb")
        except OSError as exc:
            raise StoreAttachError(
                f"cannot attach mmap segment {handle.name!r}: {exc}"
            ) from exc
        try:
            # ValueError covers a zero-length backing file (truncated by
            # a crashed publisher): mmap refuses an empty map.
            mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            f.close()
            raise StoreAttachError(
                f"cannot attach mmap segment {handle.name!r}: {exc}"
            ) from exc
        return (f, mm), mm

    @staticmethod
    def _close(owner) -> None:
        try:
            if isinstance(owner, tuple):
                owner[1].close()
                owner[0].close()
            else:
                owner.close()
        except (OSError, BufferError):
            pass

    @staticmethod
    def _validate(handle: StoreHandle, buf) -> None:
        """Corruption check: magic, fingerprint, and size must match."""
        if len(buf) < handle.total_bytes:
            raise StoreAttachError(
                f"segment {handle.name!r} truncated: {len(buf)} < "
                f"{handle.total_bytes} bytes"
            )
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise StoreAttachError(
                f"segment {handle.name!r} has a corrupted header "
                f"(bad magic)"
            )
        try:
            hlen = int(bytes(buf[len(MAGIC): len(MAGIC) + 8]))
            header = json.loads(
                bytes(buf[len(MAGIC) + 8: len(MAGIC) + 8 + hlen])
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise StoreAttachError(
                f"segment {handle.name!r} has an unreadable header: {exc}"
            ) from exc
        if header.get("fingerprint") != handle.fingerprint:
            raise StoreAttachError(
                f"segment {handle.name!r} holds fingerprint "
                f"{header.get('fingerprint')!r}, expected "
                f"{handle.fingerprint!r} (recycled or corrupted segment)"
            )

    # -- accounting -----------------------------------------------------
    def record_fallback(self, count: int = 1) -> None:
        """Count a consumer degrading to the pickle/inline path."""
        with self._lock:
            self.fallbacks += count

    def absorb(self, delta: dict) -> None:
        """Fold a worker process's counter deltas into this instance.

        Sharded worker servers attach segments in their own process;
        their replies carry ``{counter: delta}`` dicts so the parent's
        snapshot (and run manifests) see the sharing actually happening.
        """
        if not delta:
            return
        with self._lock:
            for key in ("attaches", "attach_hits", "fallbacks"):
                if delta.get(key):
                    setattr(self, key, getattr(self, key) + int(delta[key]))

    def counters(self) -> dict:
        """Plain-dict counter snapshot (``store.*`` in obs snapshots)."""
        with self._lock:
            return {
                "publishes": self.publishes,
                "publish_hits": self.publish_hits,
                "attaches": self.attaches,
                "attach_hits": self.attach_hits,
                "fallbacks": self.fallbacks,
                "segments": len(self._segments),
                "bytes_shared": self.bytes_shared,
            }

    # -- lifecycle ------------------------------------------------------
    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    def shutdown(self) -> None:
        """Unlink every published segment name (idempotent).

        Mappings stay open, so matrices already attached anywhere remain
        valid; only *new* attaches fail.  Counters are preserved —
        shutdown mid-run must not zero the run's accounting.
        """
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._attached.clear()
            self.bytes_shared = 0
        for seg in segments:
            seg.unlink()


_STORE: SharedGraphStore | None = None
_STORE_LOCK = threading.Lock()


def get_store() -> SharedGraphStore:
    """The process-wide store (created on first use)."""
    global _STORE
    with _STORE_LOCK:
        if _STORE is None:
            _STORE = SharedGraphStore()
        return _STORE


def reset_store() -> None:
    """Shut down and drop the process-wide store (tests)."""
    global _STORE
    with _STORE_LOCK:
        store, _STORE = _STORE, None
    if store is not None:
        store.shutdown()


def shared_matrix(S: HybridMatrix) -> HybridMatrix:
    """Module-level convenience for :meth:`SharedGraphStore.shared_matrix`.

    The transparent-integration hook :mod:`repro.graphs.registry` calls
    on every loaded dataset.
    """
    return get_store().shared_matrix(S)


def store_counters() -> dict:
    """Counter snapshot of the process-wide store (zeros when unused)."""
    with _STORE_LOCK:
        store = _STORE
    if store is None:
        return {
            "publishes": 0, "publish_hits": 0, "attaches": 0,
            "attach_hits": 0, "fallbacks": 0, "segments": 0,
            "bytes_shared": 0,
        }
    return store.counters()


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    with _STORE_LOCK:
        store = _STORE
    if store is not None:
        try:
            store.shutdown()
        except Exception:
            pass
