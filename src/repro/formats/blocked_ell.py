"""Blocked-Ellpack format — cuSPARSE's third SpMM input format.

Paper Section II notes cuSPARSE supports CSR, COO *and Blocked-Ellpack*
for SpMM.  Blocked-ELL tiles the matrix into ``block x block`` squares
and stores, for every block-row, a fixed number of column-block indices
(padding with empty blocks when a block-row has fewer).  Dense blocks
make GEMM-like kernels possible; the cost is padding — power-law graphs
pad catastrophically, which is why GNN frameworks avoid the format and
why this library models it for comparison purposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sortops import sorted_unique
from .base import SparseFormatError
from .hybrid import HybridMatrix


@dataclass(frozen=True)
class BlockedEllStats:
    """Structural statistics of a Blocked-ELL conversion (no dense data).

    Cheap to compute for any matrix; the kernel cost model needs only
    these, avoiding the O(block_rows x width x bs^2) dense allocation,
    which explodes on skewed graphs (a single hub row forces the whole
    matrix to its width).
    """

    block_size: int
    num_block_rows: int
    num_block_cols: int
    ell_width: int
    stored_blocks: int
    nnz: int
    stored_col_blocks: np.ndarray  #: block-column ids of stored blocks

    @property
    def padded_blocks(self) -> int:
        return self.num_block_rows * self.ell_width

    def padding_ratio(self) -> float:
        total = self.padded_blocks
        return 1.0 - self.stored_blocks / total if total else 0.0

    def occupancy(self) -> float:
        dense = self.stored_blocks * self.block_size**2
        return self.nnz / dense if dense else 0.0


def blocked_ell_stats(S: HybridMatrix, block_size: int = 16) -> BlockedEllStats:
    """Compute Blocked-ELL structure without materializing blocks."""
    if block_size <= 0:
        raise SparseFormatError("block_size must be positive")
    m, n = S.shape
    nbr = -(-m // block_size) if m else 0
    nbc = -(-n // block_size) if n else 0
    if S.nnz == 0 or nbr == 0:
        return BlockedEllStats(
            block_size=block_size,
            num_block_rows=nbr,
            num_block_cols=nbc,
            ell_width=0,
            stored_blocks=0,
            nnz=0,
            stored_col_blocks=np.zeros(0, dtype=np.int64),
        )
    brow = S.row.astype(np.int64) // block_size
    bcol = S.col.astype(np.int64) // block_size
    uniq = sorted_unique(brow * nbc + bcol)
    u_brow = uniq // nbc
    blocks_per_row = np.bincount(u_brow, minlength=nbr)
    return BlockedEllStats(
        block_size=block_size,
        num_block_rows=nbr,
        num_block_cols=nbc,
        ell_width=int(blocks_per_row.max()),
        stored_blocks=int(uniq.size),
        nnz=S.nnz,
        stored_col_blocks=(uniq % nbc),
    )


@dataclass(frozen=True)
class BlockedEllMatrix:
    """An ``M x N`` matrix in Blocked-Ellpack layout.

    Attributes
    ----------
    block_size : int
        Side of the square blocks.
    col_blocks : int32 array, shape (num_block_rows, ell_width)
        Column-block index per slot; ``-1`` marks a padding slot.
    values : float32 array, shape (num_block_rows, ell_width, bs, bs)
        Dense contents of each stored block (zeros where the pattern is
        empty).
    shape : (int, int)
        Logical dense shape (unpadded).
    """

    block_size: int
    col_blocks: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @property
    def num_block_rows(self) -> int:
        return int(self.col_blocks.shape[0])

    @property
    def ell_width(self) -> int:
        """Stored blocks per block-row (the padded width)."""
        return int(self.col_blocks.shape[1])

    @property
    def stored_blocks(self) -> int:
        """Non-padding blocks actually present."""
        return int(np.count_nonzero(self.col_blocks >= 0))

    @property
    def padded_blocks(self) -> int:
        return self.num_block_rows * self.ell_width

    def padding_ratio(self) -> float:
        """Padded slots / total slots — the format's waste factor."""
        total = self.padded_blocks
        return 1.0 - self.stored_blocks / total if total else 0.0

    def occupancy(self) -> float:
        """Nonzeros / stored dense elements (intra-block density)."""
        dense_elems = self.stored_blocks * self.block_size**2
        nnz = int(np.count_nonzero(self.values))
        return nnz / dense_elems if dense_elems else 0.0

    def memory_elements(self) -> int:
        """Storage cost in array elements (indices + dense blocks)."""
        return self.padded_blocks * (1 + self.block_size**2)

    @classmethod
    def from_hybrid(
        cls, S: HybridMatrix, block_size: int = 16
    ) -> "BlockedEllMatrix":
        """Convert from hybrid CSR/COO; ELL width = max blocks per row.

        The conversion itself is what cuSPARSE requires users to perform
        offline; its padding explodes on skewed graphs.
        """
        if block_size <= 0:
            raise SparseFormatError("block_size must be positive")
        m, n = S.shape
        nbr = -(-m // block_size) if m else 0
        nbc = -(-n // block_size) if n else 0
        if S.nnz == 0 or nbr == 0:
            return cls(
                block_size=block_size,
                col_blocks=np.full((nbr, 0), -1, dtype=np.int32),
                values=np.zeros(
                    (nbr, 0, block_size, block_size), dtype=np.float32
                ),
                shape=S.shape,
            )
        brow = (S.row.astype(np.int64) // block_size).astype(np.int64)
        bcol = (S.col.astype(np.int64) // block_size).astype(np.int64)
        key = brow * nbc + bcol
        uniq, inverse = np.unique(key, return_inverse=True)  # lint: allow(bare-unique) return_inverse takes NumPy's sort path, not the hash path
        u_brow = (uniq // nbc).astype(np.int64)
        u_bcol = (uniq % nbc).astype(np.int64)
        blocks_per_row = np.bincount(u_brow, minlength=nbr)
        width = int(blocks_per_row.max()) if blocks_per_row.size else 0

        col_blocks = np.full((nbr, width), -1, dtype=np.int32)
        slot_of_block = np.empty(uniq.size, dtype=np.int64)
        # Slot: rank of the block within its block-row (uniq is sorted by
        # (brow, bcol), so ranks are consecutive).
        row_start = np.zeros(nbr + 1, dtype=np.int64)
        np.cumsum(blocks_per_row, out=row_start[1:])
        slot_of_block = np.arange(uniq.size) - row_start[u_brow]
        col_blocks[u_brow, slot_of_block] = u_bcol.astype(np.int32)

        values = np.zeros(
            (nbr, width, block_size, block_size), dtype=np.float32
        )
        e_slot = slot_of_block[inverse]
        values[
            brow,
            e_slot,
            S.row.astype(np.int64) % block_size,
            S.col.astype(np.int64) % block_size,
        ] = S.val
        return cls(
            block_size=block_size,
            col_blocks=col_blocks,
            values=values,
            shape=S.shape,
        )

    def to_dense(self) -> np.ndarray:
        """Densify (test-sized matrices only)."""
        m, n = self.shape
        bs = self.block_size
        out = np.zeros((self.num_block_rows * bs, -(-n // bs) * bs),
                       dtype=np.float32)
        for br in range(self.num_block_rows):
            for s in range(self.ell_width):
                bc = int(self.col_blocks[br, s])
                if bc < 0:
                    continue
                out[br * bs:(br + 1) * bs, bc * bs:(bc + 1) * bs] = (
                    self.values[br, s]
                )
        return out[:m, :n]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockedEllMatrix(shape={self.shape}, bs={self.block_size}, "
            f"width={self.ell_width}, padding={self.padding_ratio():.2f})"
        )
