"""Unit tests for the hybrid CSR/COO format (paper Fig. 2(d))."""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix, CSRMatrix, HybridMatrix, SparseFormatError


def test_rejects_unsorted_rows():
    with pytest.raises(SparseFormatError):
        HybridMatrix.from_arrays([1, 0], [0, 0])


def test_from_coo_sorts():
    coo = COOMatrix.from_arrays([2, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0])
    h = HybridMatrix.from_coo(coo)
    assert list(h.row) == [0, 1, 2]
    np.testing.assert_allclose(h.to_dense(), coo.to_dense())


def test_from_csr_matches_fig2d(paper_fig2_matrix):
    # The paper's example decodes to row indices 0 0 1 2 2 2 3.
    h = paper_fig2_matrix
    np.testing.assert_array_equal(h.row, [0, 0, 1, 2, 2, 2, 3])
    np.testing.assert_array_equal(h.col, [0, 2, 2, 0, 1, 3, 2])


def test_memory_elements_matches_paper_formula(paper_fig2_matrix):
    # Paper Section II: hybrid CSR/COO needs 3 * NNZ elements.
    assert paper_fig2_matrix.memory_elements() == 3 * 7


def test_round_trips_between_formats(medium_matrix):
    h = medium_matrix
    via_csr = HybridMatrix.from_csr(h.to_csr())
    via_coo = HybridMatrix.from_coo(h.to_coo())
    np.testing.assert_array_equal(via_csr.row, h.row)
    np.testing.assert_array_equal(via_coo.col, h.col)
    np.testing.assert_allclose(via_csr.to_dense(), h.to_dense())


def test_indptr_is_inverse_of_decode(medium_matrix):
    h = medium_matrix
    ptr = h.indptr()
    assert ptr[0] == 0
    assert ptr[-1] == h.nnz
    rebuilt = np.repeat(np.arange(h.shape[0]), np.diff(ptr))
    np.testing.assert_array_equal(rebuilt, h.row)


def test_permute_rows_identity(small_matrix):
    n = small_matrix.shape[0]
    p = np.arange(n)
    out = small_matrix.permute_rows(p)
    np.testing.assert_allclose(out.to_dense(), small_matrix.to_dense())


def test_permute_rows_semantics():
    h = HybridMatrix.from_arrays([0, 1], [0, 1], [1.0, 2.0], shape=(2, 2))
    # New row 0 is old row 1.
    out = h.permute_rows(np.array([1, 0]))
    dense = out.to_dense()
    assert dense[0, 1] == 2.0
    assert dense[1, 0] == 1.0


def test_permute_symmetric_preserves_structure(small_matrix):
    n = small_matrix.shape[0]
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    out = small_matrix.permute_symmetric(perm)
    # Permuting rows and columns by the same p: D_out = D[p][:, p].
    expected = small_matrix.to_dense()[np.ix_(perm, perm)]
    np.testing.assert_allclose(out.to_dense(), expected)
    # Invariants preserved.
    assert out.nnz == small_matrix.nnz
    assert np.all(np.diff(out.row) >= 0)


def test_permute_symmetric_requires_square():
    h = HybridMatrix.from_arrays([0], [1], None, shape=(2, 3))
    with pytest.raises(SparseFormatError):
        h.permute_symmetric(np.array([0, 1]))


def test_permute_rejects_bad_length(small_matrix):
    with pytest.raises(SparseFormatError):
        small_matrix.permute_rows(np.arange(3))


def test_row_degrees_match_csr(medium_matrix):
    np.testing.assert_array_equal(
        medium_matrix.row_degrees(), medium_matrix.to_csr().row_degrees()
    )


def test_empty_hybrid():
    h = HybridMatrix.from_arrays([], [], shape=(3, 3))
    assert h.nnz == 0
    assert h.indptr().tolist() == [0, 0, 0, 0]
    out = h.permute_symmetric(np.array([2, 1, 0]))
    assert out.nnz == 0


# -- the cached row structure ---------------------------------------------

def _indptr_per_call(h):
    """``indptr()`` before the row structure: one bincount per call."""
    counts = np.bincount(h.row, minlength=h.shape[0])
    ptr = np.zeros(h.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


@given(
    st.lists(st.integers(0, 5), min_size=0, max_size=60),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_row_structure_matches_per_call_arrays(degrees, cols):
    # Rows with zero degree (leading, inner and trailing) are included.
    deg = np.array(degrees, dtype=np.int64)
    row = np.repeat(np.arange(deg.size, dtype=np.int32), deg)
    h = HybridMatrix.from_arrays(
        row, np.zeros(row.size, dtype=np.int32), shape=(deg.size, cols)
    )
    np.testing.assert_array_equal(h.indptr(), _indptr_per_call(h))
    np.testing.assert_array_equal(
        h.row_degrees(),
        np.bincount(h.row, minlength=h.shape[0]).astype(np.int64),
    )
    assert h.indptr().dtype == h.row_degrees().dtype == np.int64
    np.testing.assert_array_equal(
        h.row_structure().changes, np.flatnonzero(np.diff(row)) + 1
    )


def test_row_structure_is_built_once_and_read_only(medium_matrix):
    h = dataclasses.replace(medium_matrix)
    rows = h.row_structure()
    assert h.row_structure() is rows
    assert h.indptr() is rows.indptr
    for a in (rows.indptr, rows.changes):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_row_structure_dies_with_its_matrix(medium_matrix):
    h = dataclasses.replace(medium_matrix)
    rows = weakref.ref(h.row_structure())
    indptr = weakref.ref(h.indptr())
    del h
    gc.collect()
    assert rows() is None and indptr() is None


def test_row_structure_is_not_pickled(medium_matrix):
    h = dataclasses.replace(medium_matrix)
    fresh = pickle.dumps(h)
    h.row_structure()
    assert pickle.dumps(h) == fresh
    clone = pickle.loads(pickle.dumps(h))
    assert clone._rows is None
    np.testing.assert_array_equal(clone.indptr(), h.indptr())


def test_row_structure_rejects_unsorted_rows():
    # The direct constructor skips from_arrays' check; the structure
    # still refuses to describe an unsorted stream.
    h = HybridMatrix(
        row=np.array([0, 2, 1], dtype=np.int32),
        col=np.zeros(3, dtype=np.int32),
        val=np.ones(3, dtype=np.float32),
        shape=(3, 1),
    )
    with pytest.raises(ValueError, match=r"non-decreasing.*row\[1\]=2"):
        h.indptr()
