"""Subgraph samplers for graph-sampling (mini-batch) training.

The paper's graph-sampling dataset consists of 838 subgraphs collected
from training runs of sampling-based GNN models.  We reproduce the
collection by implementing the samplers those models use — GraphSAINT's
node / edge / random-walk samplers and GraphSAGE's neighbor sampler —
and applying them to the calibrated full graphs.

All samplers return *induced* subgraphs in hybrid CSR/COO form, with a
``node_map`` back to parent-graph ids (needed by training to gather
features), and are deterministic in their seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats import COOMatrix, HybridMatrix
from ..sortops import sorted_unique


@dataclass(frozen=True)
class Subgraph:
    """An induced subgraph plus the mapping to parent node ids."""

    matrix: HybridMatrix
    node_map: np.ndarray        #: subgraph node i == parent node node_map[i]
    sampler: str
    seed: int

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_edges(self) -> int:
        return self.matrix.nnz


def induced_subgraph(parent: HybridMatrix, nodes: np.ndarray) -> HybridMatrix:
    """Induced subgraph on ``nodes`` (parent ids, deduplicated + sorted)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    # Every sampler hands us a sorted_unique output already; only re-sort
    # when the strictly-increasing invariant doesn't hold.
    if nodes.size > 1 and not bool(np.all(nodes[1:] > nodes[:-1])):
        nodes = sorted_unique(nodes)
    n = parent.shape[0]
    relabel = np.full(n, -1, dtype=np.int64)
    relabel[nodes] = np.arange(nodes.size, dtype=np.int64)
    keep = (relabel[parent.row] >= 0) & (relabel[parent.col] >= 0)
    src = relabel[parent.row[keep]]
    dst = relabel[parent.col[keep]]
    val = parent.val[keep]
    coo = COOMatrix.from_arrays(src, dst, val, shape=(nodes.size, nodes.size))
    return HybridMatrix.from_coo(coo)


def saint_node_sampler(
    parent: HybridMatrix, budget: int, seed: int = 0
) -> Subgraph:
    """GraphSAINT node sampler: nodes drawn w.p. proportional to degree."""
    rng = np.random.default_rng(seed)
    deg = parent.row_degrees().astype(np.float64) + 1.0
    p = deg / deg.sum()
    budget = min(budget, parent.shape[0])
    nodes = rng.choice(parent.shape[0], size=budget, replace=False, p=p)
    nodes = sorted_unique(nodes)
    return Subgraph(
        matrix=induced_subgraph(parent, nodes),
        node_map=nodes,
        sampler="saint-node",
        seed=seed,
    )


def saint_edge_sampler(
    parent: HybridMatrix, budget_edges: int, seed: int = 0
) -> Subgraph:
    """GraphSAINT edge sampler: edges drawn uniformly, endpoints kept."""
    rng = np.random.default_rng(seed)
    nnz = parent.nnz
    budget_edges = min(budget_edges, nnz)
    idx = rng.choice(nnz, size=budget_edges, replace=False)
    nodes = sorted_unique(
        np.concatenate([parent.row[idx], parent.col[idx]]).astype(np.int64)
    )
    return Subgraph(
        matrix=induced_subgraph(parent, nodes),
        node_map=nodes,
        sampler="saint-edge",
        seed=seed,
    )


def saint_walk_sampler(
    parent: HybridMatrix,
    num_roots: int,
    walk_length: int,
    seed: int = 0,
) -> Subgraph:
    """GraphSAINT random-walk sampler: union of short walks from roots."""
    rng = np.random.default_rng(seed)
    n = parent.shape[0]
    indptr = parent.indptr()
    num_roots = min(num_roots, n)
    frontier = rng.choice(n, size=num_roots, replace=False)
    # All walk positions land in one preallocated (L+1, roots) matrix —
    # no per-step array copies or list concatenation.
    visited = np.empty((walk_length + 1, num_roots), dtype=np.int64)
    visited[0] = frontier
    current = frontier.astype(np.int64)
    for step in range(walk_length):
        deg = indptr[current + 1] - indptr[current]
        has = np.flatnonzero(deg > 0)
        nxt = current.copy()
        if has.size:
            movers = current[has]
            offs = (rng.random(has.size) * deg[has]).astype(np.int64)
            nxt[has] = parent.col[indptr[movers] + offs]
        current = nxt
        visited[step + 1] = current
    nodes = sorted_unique(visited)
    return Subgraph(
        matrix=induced_subgraph(parent, nodes),
        node_map=nodes,
        sampler="saint-walk",
        seed=seed,
    )


def sage_neighbor_sampler(
    parent: HybridMatrix,
    num_seeds: int,
    fanouts: tuple[int, ...] = (10, 10),
    seed: int = 0,
) -> Subgraph:
    """GraphSAGE neighbor sampler: k-hop expansion with per-hop fanout."""
    rng = np.random.default_rng(seed)
    n = parent.shape[0]
    indptr = parent.indptr()
    num_seeds = min(num_seeds, n)
    seeds = rng.choice(n, size=num_seeds, replace=False).astype(np.int64)
    layers = [seeds]
    frontier = seeds
    for fanout in fanouts:
        deg = (indptr[frontier + 1] - indptr[frontier]).astype(np.int64)
        take = np.minimum(deg, fanout)
        total = int(take.sum())
        if total == 0:
            break
        # One repeat of frontier *positions*, then gathers — instead of
        # materializing three independent np.repeat expansions.
        rep_idx = np.repeat(np.arange(frontier.size), take)
        offs = (rng.random(total) * deg[rep_idx]).astype(np.int64)
        neigh = parent.col[indptr[frontier[rep_idx]] + offs].astype(np.int64)
        layers.append(neigh)
        frontier = sorted_unique(neigh)
    nodes = sorted_unique(np.concatenate(layers))
    return Subgraph(
        matrix=induced_subgraph(parent, nodes),
        node_map=nodes,
        sampler="sage-neighbor",
        seed=seed,
    )


def build_sampling_dataset(
    parents: list,
    *,
    per_parent: int = 8,
    node_budget: int = 4000,
    seed: int = 0,
) -> list[Subgraph]:
    """Collect a mixed-sampler subgraph dataset (paper's 838 subgraphs).

    ``parents`` is a list of :class:`~repro.graphs.registry.Dataset`;
    each contributes ``per_parent`` subgraphs cycling over the four
    samplers.  The paper's full collection corresponds to
    ``per_parent ~ 44`` over the 19 full graphs; the default is sized for
    CI speed (scale up with the harness's ``--subgraphs`` option).
    """
    out: list[Subgraph] = []
    for gi, parent in enumerate(parents):
        mat = parent.matrix if hasattr(parent, "matrix") else parent
        for j in range(per_parent):
            s = seed + 1000 * gi + j
            kind = j % 4
            if kind == 0:
                sub = saint_node_sampler(mat, node_budget, seed=s)
            elif kind == 1:
                budget_e = min(mat.nnz, node_budget * 4)
                sub = saint_edge_sampler(mat, budget_e, seed=s)
            elif kind == 2:
                sub = saint_walk_sampler(mat, node_budget // 4, 4, seed=s)
            else:
                sub = sage_neighbor_sampler(
                    mat, node_budget // 8, (10, 10), seed=s
                )
            if sub.num_edges > 0:
                out.append(sub)
    return out
