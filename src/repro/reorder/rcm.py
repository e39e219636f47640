"""Reverse Cuthill-McKee reordering — from-scratch BFS implementation.

RCM is the classic bandwidth-minimizing permutation: BFS from a minimum-
degree node, visiting neighbors in ascending-degree order, then reverse
the visit order.  Included as an additional locality baseline for the
ablation tooling (not a paper baseline, but a standard point of
reference for reordering studies).
"""

from __future__ import annotations

import numpy as np

from ..formats import HybridMatrix
from ..sortops import sorted_unique
from .base import Reorderer


class RCMReorderer(Reorderer):
    """Reverse Cuthill-McKee over the symmetrized adjacency structure."""

    name = "rcm"

    def permutation(self, S: HybridMatrix) -> np.ndarray:
        n = S.shape[0]
        # Symmetrize the structure so BFS sees an undirected graph.
        src = np.concatenate([S.row, S.col]).astype(np.int64)
        dst = np.concatenate([S.col, S.row]).astype(np.int64)
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        degrees = np.diff(indptr)

        visited = np.zeros(n, dtype=bool)
        out = np.empty(n, dtype=np.int64)
        pos = 0
        # Process every connected component, seeded at its min-degree node.
        node_by_degree = np.argsort(degrees, kind="stable")
        seed_cursor = 0
        while pos < n:
            while visited[node_by_degree[seed_cursor]]:
                seed_cursor += 1
            start = int(node_by_degree[seed_cursor])
            visited[start] = True
            out[pos] = start
            head = pos
            pos += 1
            while head < pos:
                u = int(out[head])
                head += 1
                neigh = dst[indptr[u] : indptr[u + 1]]
                neigh = neigh[~visited[neigh]]
                if neigh.size:
                    neigh = sorted_unique(neigh)
                    neigh = neigh[~visited[neigh]]
                    neigh = neigh[np.argsort(degrees[neigh], kind="stable")]
                    visited[neigh] = True
                    out[pos : pos + neigh.size] = neigh
                    pos += neigh.size
        return out[::-1].copy()
