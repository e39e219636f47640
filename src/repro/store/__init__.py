"""Zero-copy shared graph/matrix store (see :mod:`repro.store.core`)."""

from .core import (
    SharedGraphStore,
    StoreAttachError,
    StoreError,
    StoreHandle,
    get_store,
    reset_store,
    shared_matrix,
    store_counters,
)

__all__ = [
    "SharedGraphStore",
    "StoreAttachError",
    "StoreError",
    "StoreHandle",
    "get_store",
    "reset_store",
    "shared_matrix",
    "store_counters",
]
