"""Louvain community detection, from scratch — the engine of GCR.

Graph Clustering based Reordering (paper Section III-C) runs the Louvain
method to find communities and renumbers nodes so each community becomes
a contiguous block of rows/columns.  This implementation uses the
*parallel local-moving* formulation (the same family as the GPU Louvain
the paper cites): every pass evaluates, fully vectorized, the modularity
gain of moving each node to its best neighboring community, applies the
moves for a random half of the nodes (breaking oscillation), and then
aggregates communities into supernodes for the next level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats import HybridMatrix
from .base import Reorderer


@dataclass
class _Level:
    """A working graph at one Louvain level: symmetric weighted edges."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    num_nodes: int

    @property
    def total_weight(self) -> float:
        """Sum of edge weights counting both directions (2m)."""
        return float(self.weight.sum())


def _symmetrize(S: HybridMatrix) -> _Level:
    """Undirected weighted view of an adjacency matrix, self-loops dropped."""
    keep = S.row != S.col
    src = np.concatenate([S.row[keep], S.col[keep]]).astype(np.int64)
    dst = np.concatenate([S.col[keep], S.row[keep]]).astype(np.int64)
    w = np.abs(S.val[keep]).astype(np.float64)
    w = np.concatenate([w, w])
    # Merge duplicate (src, dst) pairs by summing weights.
    n = S.shape[0]
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    w = w[order]
    uniq_mask = np.empty(key.size, dtype=bool)
    if key.size:
        uniq_mask[0] = True
        uniq_mask[1:] = key[1:] != key[:-1]
    starts = np.nonzero(uniq_mask)[0]
    merged_w = np.add.reduceat(w, starts) if key.size else w
    ukey = key[starts] if key.size else key
    return _Level(
        src=(ukey // n),
        dst=(ukey % n),
        weight=merged_w,
        num_nodes=n,
    )


def _node_strengths(level: _Level) -> np.ndarray:
    """Weighted degree of each node."""
    return np.bincount(
        level.src, weights=level.weight, minlength=level.num_nodes
    )


def _best_moves(
    level: _Level,
    comm: np.ndarray,
    strength: np.ndarray,
    comm_strength: np.ndarray,
    two_m: float,
    resolution: float,
) -> tuple[np.ndarray, np.ndarray]:
    """For every node: best neighboring community and its modularity gain.

    Fully vectorized: edges are grouped by (node, neighbor community),
    weights summed per group, and the per-node maximum gain selected.
    """
    n = level.num_nodes
    dst_comm = comm[level.dst]
    key = level.src * np.int64(n) + dst_comm
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    w_s = level.weight[order]
    if key_s.size == 0:
        return comm.copy(), np.zeros(n)
    group_start = np.empty(key_s.size, dtype=bool)
    group_start[0] = True
    group_start[1:] = key_s[1:] != key_s[:-1]
    starts = np.nonzero(group_start)[0]
    w_group = np.add.reduceat(w_s, starts)
    g_node = (key_s[starts] // n).astype(np.int64)
    g_comm = (key_s[starts] % n).astype(np.int64)

    # Gain of node u joining community c (after conceptually leaving its
    # own): k_{u->c} - resolution * k_u * Sigma_c / 2m.  Remove the node's
    # own contribution when c is its current community.
    sigma = comm_strength[g_comm] - np.where(
        g_comm == comm[g_node], strength[g_node], 0.0
    )
    w_own = np.where(g_comm == comm[g_node], 0.0, w_group)
    gain = w_own - resolution * strength[g_node] * sigma / two_m

    # Current-community baseline gain for staying put.
    stay_sigma = comm_strength[comm] - strength
    stay_w = np.zeros(n)
    own_groups = g_comm == comm[g_node]
    stay_w[g_node[own_groups]] = w_group[own_groups]
    stay_gain = stay_w - resolution * strength * stay_sigma / two_m

    # Per-node argmax over its groups.
    best_comm = comm.copy()
    best_gain = stay_gain.copy()
    node_order = np.argsort(g_node, kind="stable")
    gn = g_node[node_order]
    gc = g_comm[node_order]
    gg = gain[node_order]
    node_starts = np.empty(gn.size, dtype=bool)
    node_starts[0] = True
    node_starts[1:] = gn[1:] != gn[:-1]
    seg = np.nonzero(node_starts)[0]
    max_per_node = np.maximum.reduceat(gg, seg)
    seg_nodes = gn[seg]
    # Identify one argmax entry per node: an entry equal to its segment max.
    seg_id = np.cumsum(node_starts) - 1
    is_max = gg == max_per_node[seg_id]
    # Keep the first max per segment.
    first_max = np.zeros(gn.size, dtype=bool)
    idx_max = np.nonzero(is_max)[0]
    keep = np.empty(idx_max.size, dtype=bool)
    if idx_max.size:
        keep[0] = True
        keep[1:] = seg_id[idx_max[1:]] != seg_id[idx_max[:-1]]
    first_max[idx_max[keep]] = True
    upd_nodes = gn[first_max]
    upd_comm = gc[first_max]
    upd_gain = gg[first_max]
    better = upd_gain > best_gain[upd_nodes] + 1e-12
    best_comm[upd_nodes[better]] = upd_comm[better]
    best_gain[upd_nodes[better]] = upd_gain[better]
    return best_comm, best_gain - stay_gain


def louvain_communities(
    S: HybridMatrix,
    *,
    resolution: float = 1.0,
    max_levels: int = 8,
    max_passes: int = 12,
    min_improvement: float = 1e-4,
    seed: int = 0,
) -> np.ndarray:
    """Community id per node of ``S`` via multi-level Louvain.

    Deterministic in ``seed``.  Returns an int64 array with community ids
    compacted to ``0..C-1``.
    """
    rng = np.random.default_rng(seed)
    level = _symmetrize(S)
    n0 = level.num_nodes
    mapping = np.arange(n0, dtype=np.int64)  # original node -> supernode

    for _ in range(max_levels):
        n = level.num_nodes
        two_m = level.total_weight
        if two_m <= 0 or n <= 1:
            break
        strength = _node_strengths(level)
        comm = np.arange(n, dtype=np.int64)
        comm_strength = strength.copy()

        moved_any = False
        for _ in range(max_passes):
            best_comm, gains = _best_moves(
                level, comm, strength, comm_strength, two_m, resolution
            )
            want = (best_comm != comm) & (gains > min_improvement)
            if not want.any():
                break
            # Move a random half of the willing nodes (oscillation breaker).
            candidates = np.nonzero(want)[0]
            take = rng.random(candidates.size) < 0.5
            if not take.any():
                take[rng.integers(0, candidates.size)] = True
            movers = candidates[take]
            np.add.at(comm_strength, comm[movers], -strength[movers])
            comm[movers] = best_comm[movers]
            np.add.at(comm_strength, comm[movers], strength[movers])
            moved_any = True

        # Compact community labels.
        uniq, comm = np.unique(comm, return_inverse=True)  # lint: allow(bare-unique) return_inverse takes NumPy's sort path, not the hash path
        if not moved_any or uniq.size == n:
            mapping = comm[mapping]
            break
        mapping = comm[mapping]

        # Aggregate: communities become supernodes.
        c = uniq.size
        key = comm[level.src] * np.int64(c) + comm[level.dst]
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        w_s = level.weight[order]
        gstart = np.empty(key_s.size, dtype=bool)
        gstart[0] = True
        gstart[1:] = key_s[1:] != key_s[:-1]
        starts = np.nonzero(gstart)[0]
        level = _Level(
            src=(key_s[starts] // c).astype(np.int64),
            dst=(key_s[starts] % c).astype(np.int64),
            weight=np.add.reduceat(w_s, starts),
            num_nodes=int(c),
        )

    # Compact the final labels over original nodes.
    _, compact = np.unique(mapping, return_inverse=True)  # lint: allow(bare-unique) return_inverse takes NumPy's sort path, not the hash path
    return compact.astype(np.int64)


def modularity(S: HybridMatrix, comm: np.ndarray, resolution: float = 1.0) -> float:
    """Newman modularity of a community assignment (undirected view)."""
    level = _symmetrize(S)
    two_m = level.total_weight
    if two_m <= 0:
        return 0.0
    strength = _node_strengths(level)
    internal = level.weight[comm[level.src] == comm[level.dst]].sum()
    comm_strength = np.bincount(comm, weights=strength)
    return float(
        internal / two_m
        - resolution * np.sum((comm_strength / two_m) ** 2)
    )


class GCRReorderer(Reorderer):
    """Graph Clustering based Reordering: Louvain + contiguous renumbering.

    Nodes of one community become consecutive; communities are laid out
    in descending size so the hottest operand rows cluster at the front.
    """

    name = "gcr-louvain"

    def __init__(self, *, resolution: float = 1.0, seed: int = 0) -> None:
        self.resolution = resolution
        self.seed = seed

    def permutation(self, S: HybridMatrix) -> np.ndarray:
        comm = louvain_communities(
            S, resolution=self.resolution, seed=self.seed
        )
        sizes = np.bincount(comm)
        order_of_comm = np.argsort(-sizes, kind="stable")
        rank = np.empty_like(order_of_comm)
        rank[order_of_comm] = np.arange(order_of_comm.size)
        return np.lexsort((np.arange(comm.size), rank[comm])).astype(np.int64)
