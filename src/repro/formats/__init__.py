"""Sparse-matrix storage formats used by GNN frameworks (paper Fig. 2).

Three formats are provided:

* :class:`COOMatrix` — coordinate triples, unsorted.
* :class:`CSRMatrix` — compressed sparse row.
* :class:`HybridMatrix` — the hybrid CSR/COO format (row-sorted COO) that
  GNN frameworks use for sampled subgraphs and that HP-SpMM / HP-SDDMM
  consume without preprocessing.
"""

from .base import INDEX_DTYPE, VALUE_DTYPE, SparseFormatError
from .blocked_ell import BlockedEllMatrix, BlockedEllStats, blocked_ell_stats
from .coo import COOMatrix
from .csr import CSRMatrix
from .dcsr import DCSRMatrix
from .hybrid import HybridMatrix, RowStructure

__all__ = [
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "SparseFormatError",
    "BlockedEllMatrix",
    "BlockedEllStats",
    "blocked_ell_stats",
    "COOMatrix",
    "CSRMatrix",
    "DCSRMatrix",
    "HybridMatrix",
    "RowStructure",
]
