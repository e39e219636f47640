"""Hybrid CSR/COO format (paper Fig. 2(d)) — the format HP kernels consume.

The hybrid format is row-major-sorted COO: CSR's compressed row pointer is
decoded into a complete per-element row-index array while the row-grouped
ordering of CSR is preserved.  GNN frameworks store sampled subgraphs in
this format directly (paper Section II), which is why HP-SpMM / HP-SDDMM
need no preprocessing at kernel-launch time.  Likewise the simulator
derives each matrix's row structure (:class:`RowStructure`) once and
every cost model and plan builder reads it from the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .base import SparseFormatError, as_index_array, as_value_array, check_bounds, check_shape
from .coo import COOMatrix
from .csr import CSRMatrix


@dataclass(frozen=True)
class RowStructure:
    """Row-level structure of a row-sorted nnz stream, O(rows) in memory.

    Both arrays are int64 and read-only.  Row degrees are not stored:
    they are one ``np.diff`` of ``indptr`` away (:attr:`degrees`).

    Attributes
    ----------
    indptr : length ``rows + 1``
        CSR row pointer.
    changes : ascending
        The nnz offsets ``i`` in ``[1, nnz)`` where ``row[i] != row[i-1]``
        (the first element of every non-empty row but the first).
    """

    indptr: np.ndarray
    changes: np.ndarray

    @classmethod
    def build(cls, row: np.ndarray, num_rows: int | None = None) -> "RowStructure":
        """Derive the structure of ``row``, which must be non-decreasing.

        ``num_rows`` defaults to ``row[-1] + 1``.  Raises ``ValueError``
        naming the first descent when ``row`` breaks the hybrid-format
        invariant: every consumer would otherwise read garbage.
        """
        row = np.asarray(row)
        descents = row[1:] < row[:-1]
        if descents.any():
            bad = int(np.argmax(descents))
            raise ValueError(
                "row indices must be non-decreasing (hybrid CSR/COO "
                f"invariant); row[{bad}]={int(row[bad])} > "
                f"row[{bad + 1}]={int(row[bad + 1])}"
            )
        if num_rows is None:
            num_rows = int(row[-1]) + 1 if row.size else 0
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        if row.size:
            np.cumsum(np.bincount(row, minlength=num_rows), out=indptr[1:])
        changes = indptr[:-1][np.diff(indptr) > 0][1:]
        indptr.setflags(write=False)
        changes.setflags(write=False)
        return cls(indptr=indptr, changes=changes)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def degrees(self) -> np.ndarray:
        """Stored elements per row (int64, a fresh array)."""
        return np.diff(self.indptr)


class _WeakReferenceable:
    """Slotted base giving :class:`HybridMatrix` its ``__weakref__`` slot.

    ``dataclass(weakref_slot=True)`` needs Python 3.11; an inherited
    slot works on every supported version.  The fingerprint memos hold
    matrices by weak reference.
    """

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class HybridMatrix(_WeakReferenceable):
    """Row-sorted COO with the invariant that rows are grouped and ascending.

    Attributes
    ----------
    row, col : int32 arrays of length ``nnz``
        Row / column index of each element; ``row`` is non-decreasing.
    val : float32 array of length ``nnz``
        Stored values.
    shape : (int, int)
        Dense shape ``(M, N)``.

    The row structure is derived on first use and kept on the instance
    until it dies; it is never pickled (:meth:`row_structure`).  The
    class has slots: the cache is a fifth slot rather than a dict key
    added on first use, so every instance has the same layout.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]
    _rows: RowStructure | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_arrays(cls, row, col, val=None, *, shape=None) -> "HybridMatrix":
        """Build from raw arrays, verifying the row-sorted invariant."""
        r = as_index_array(row, "row")
        c = as_index_array(col, "col")
        if r.size != c.size:
            raise SparseFormatError(
                f"row ({r.size}) and col ({c.size}) lengths differ"
            )
        v = as_value_array(val, "val", r.size)
        if r.size > 1 and np.any(np.diff(r) < 0):
            raise SparseFormatError(
                "hybrid CSR/COO requires non-decreasing row indices; "
                "use COOMatrix.sorted_by_row() first"
            )
        if shape is None:
            m = int(r[-1]) + 1 if r.size else 0
            n = int(c.max()) + 1 if c.size else 0
            shape = (m, n)
        m, n = check_shape(shape)
        check_bounds(r, m, "row")
        check_bounds(c, n, "col")
        return cls(row=r, col=c, val=v, shape=(m, n))

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "HybridMatrix":
        """Sort a COO matrix row-major and wrap it."""
        s = coo if coo.is_row_sorted() else coo.sorted_by_row()
        return cls(row=s.row, col=s.col, val=s.val, shape=s.shape)

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "HybridMatrix":
        """Decode CSR's row pointer into a full row-index array (Fig. 2(d))."""
        return cls(
            row=csr.decode_row_indices(),
            col=csr.indices.copy(),
            val=csr.data.copy(),
            shape=csr.shape,
        )

    @classmethod
    def from_scipy(cls, mat) -> "HybridMatrix":
        """Convert any scipy sparse matrix."""
        return cls.from_csr(CSRMatrix.from_scipy(mat))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored elements."""
        return int(self.val.size)

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    def memory_elements(self) -> int:
        """Storage cost in array elements: ``3 * NNZ`` (paper Section II)."""
        return 3 * self.nnz

    def row_structure(self) -> RowStructure:
        """This matrix's :class:`RowStructure`, built once and then cached.

        Like the fingerprint memo, the cache assumes ``row`` is never
        mutated in place.  Two threads racing on the first use each build
        an equal structure and one is kept.  Raises ``ValueError`` if
        ``row`` is not non-decreasing.
        """
        rows = self._rows
        if rows is None:
            rows = RowStructure.build(self.row, self.shape[0])
            object.__setattr__(self, "_rows", rows)
        return rows

    def __reduce__(self):
        # Rebuild from the four fields; the structure cache stays behind.
        return (type(self), (self.row, self.col, self.val, self.shape))

    def row_degrees(self) -> np.ndarray:
        """Number of stored elements per row (int64)."""
        return self.row_structure().degrees

    def indptr(self) -> np.ndarray:
        """The CSR row pointer (int64, read-only)."""
        return self.row_structure().indptr

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        """View as (already sorted) COO."""
        return COOMatrix(row=self.row, col=self.col, val=self.val, shape=self.shape)

    def to_csr(self) -> CSRMatrix:
        """Compress the row-index array back into CSR."""
        return CSRMatrix(
            indptr=self.indptr().astype(self.row.dtype),
            indices=self.col.copy(),
            data=self.val.copy(),
            shape=self.shape,
        )

    def to_scipy(self) -> sp.csr_matrix:
        """Convert to ``scipy.sparse.csr_matrix``."""
        return self.to_csr().to_scipy()

    def to_dense(self) -> np.ndarray:
        """Densify (test-sized matrices only); duplicate entries are summed."""
        return self.to_coo().to_dense()

    def permute_rows(self, perm: np.ndarray) -> "HybridMatrix":
        """Apply a row permutation: new row ``i`` is old row ``perm[i]``.

        Used by the reordering techniques (GCR et al.).  The result is
        re-sorted to restore the hybrid invariant.
        """
        perm = np.asarray(perm)
        if perm.shape != (self.shape[0],):
            raise SparseFormatError(
                f"perm must have length {self.shape[0]}, got {perm.shape}"
            )
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size, dtype=perm.dtype)
        new_rows = inverse[self.row]
        order = np.lexsort((self.col, new_rows))
        return HybridMatrix(
            row=new_rows[order].astype(self.row.dtype),
            col=self.col[order],
            val=self.val[order],
            shape=self.shape,
        )

    def permute_symmetric(self, perm: np.ndarray) -> "HybridMatrix":
        """Apply the same permutation to rows and columns.

        This is the transform GCR performs on a (square) adjacency matrix:
        nodes of one community become contiguous in both dimensions.
        """
        if self.shape[0] != self.shape[1]:
            raise SparseFormatError("symmetric permutation requires a square matrix")
        perm = np.asarray(perm)
        if perm.shape != (self.shape[0],):
            raise SparseFormatError(
                f"perm must have length {self.shape[0]}, got {perm.shape}"
            )
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size, dtype=perm.dtype)
        new_rows = inverse[self.row]
        new_cols = inverse[self.col]
        order = np.lexsort((new_cols, new_rows))
        return HybridMatrix(
            row=new_rows[order].astype(self.row.dtype),
            col=new_cols[order].astype(self.col.dtype),
            val=self.val[order],
            shape=self.shape,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HybridMatrix(shape={self.shape}, nnz={self.nnz})"
