"""Synthetic graph generators calibrated to the paper's datasets.

The paper evaluates on 19 public graphs (Table II) plus 838 sampled
subgraphs.  We cannot ship those datasets, so each is substituted by a
seeded synthetic graph matched on the statistics that drive kernel
behavior:

* node / edge count (scaled down uniformly, see ``repro.graphs.registry``),
* mean degree and degree skew (power-law exponent / log-normal sigma),
* community structure (planted partitions with shuffled node ids), which
  is what Graph Clustering based Reordering exploits.

All generators are deterministic functions of their seed.
"""

from __future__ import annotations

import numpy as np

from ..formats import COOMatrix, HybridMatrix
from ..sortops import sorted_unique


def _zipf_weights(n: int, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Expected-degree weights with a power-law tail, randomly permuted.

    ``gamma`` is the degree-distribution exponent; weights follow
    ``rank^(-1/(gamma-1))`` (Chung-Lu correspondence).  ``gamma <= 1``
    degenerates to uniform weights.
    """
    if n <= 0:
        return np.zeros(0)
    if gamma <= 1.0:
        w = np.ones(n)
    else:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        w = ranks ** (-1.0 / (gamma - 1.0))
    rng.shuffle(w)
    return w / w.sum()


def _sample_categorical(
    p_cum: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``size`` indices from a categorical given cumulative probs.

    The draws are looked up in sorted order and scattered back: the
    indices are the same, and ``searchsorted`` walks ``p_cum`` with
    ascending keys far faster than with random ones.
    """
    u = rng.random(size)
    order = np.argsort(u)
    out = np.empty(size, dtype=np.intp)
    out[order] = np.searchsorted(p_cum, u[order], side="right")
    return out


def _dedupe(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate edges (keeping one copy)."""
    key = src.astype(np.int64) * n + dst.astype(np.int64)
    key = sorted_unique(key)
    return (key // n).astype(np.int64), (key % n).astype(np.int64)


def _collect_unique_edges(
    draw,
    num_nodes: int,
    num_edges: int,
    rng: np.random.Generator,
    *,
    max_rounds: int = 12,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate unique edges until ``num_edges`` are collected.

    ``draw(m)`` returns ``m`` candidate (src, dst) pairs.  Skewed weight
    distributions collide heavily under deduplication, so a single
    oversampled draw systematically undershoots the requested edge count;
    this helper tops up in geometric rounds and finally downsamples to
    exactly ``num_edges`` (or returns all distinct edges if the graph is
    too dense to supply that many).
    """
    keys = np.empty(0, dtype=np.int64)
    acceptance = 1.0
    for _ in range(max_rounds):
        need = num_edges - keys.size
        if need <= 0:
            break
        m = min(int(need / max(acceptance, 0.02) * 1.3) + 16, 8 * num_edges + 16)
        src, dst = draw(m)
        new = src.astype(np.int64) * num_nodes + dst.astype(np.int64)
        before = keys.size
        keys = sorted_unique(np.concatenate([keys, new]))
        gained = keys.size - before
        acceptance = max(gained / m, 1e-3)
        if gained == 0:
            break  # the distribution is saturated; accept what we have
    if keys.size > num_edges:
        keep = rng.choice(keys.size, size=num_edges, replace=False)
        keys = np.sort(keys[keep])
    return (keys // num_nodes).astype(np.int64), (keys % num_nodes).astype(np.int64)


def chung_lu_graph(
    num_nodes: int,
    num_edges: int,
    *,
    gamma: float = 2.2,
    seed: int = 0,
    self_loops: bool = True,
    symmetric: bool = False,
) -> HybridMatrix:
    """Chung-Lu random graph: endpoints drawn proportional to weights.

    Produces a power-law degree distribution with exponent ``gamma``;
    no community structure (use :func:`community_graph` when locality
    matters).
    """
    rng = np.random.default_rng(seed)
    w = _zipf_weights(num_nodes, gamma, rng)
    cum = np.cumsum(w)
    cum[-1] = 1.0

    def draw(m: int):
        return (
            _sample_categorical(cum, m, rng),
            _sample_categorical(cum, m, rng),
        )

    src, dst = _collect_unique_edges(draw, num_nodes, num_edges, rng)
    return _finalize(src, dst, num_nodes, self_loops, symmetric)


def community_graph(
    num_nodes: int,
    num_edges: int,
    *,
    gamma: float = 2.2,
    num_communities: int = 0,
    p_in: float = 0.8,
    seed: int = 0,
    self_loops: bool = True,
    symmetric: bool = False,
) -> HybridMatrix:
    """Planted-partition graph with power-law degrees and shuffled ids.

    Nodes belong to communities; each edge's destination stays inside the
    source's community with probability ``p_in``.  Node ids are random
    with respect to community membership, so the natural ordering has
    poor locality — exactly the situation GCR's Louvain reordering
    repairs.
    """
    if not 0.0 <= p_in <= 1.0:
        raise ValueError("p_in must be in [0, 1]")
    rng = np.random.default_rng(seed)
    if num_communities <= 0:
        num_communities = max(4, int(np.sqrt(num_nodes) / 2))
    num_communities = min(num_communities, max(1, num_nodes))

    w = _zipf_weights(num_nodes, gamma, rng)
    community = rng.integers(0, num_communities, size=num_nodes)
    cum_global = np.cumsum(w)
    cum_global[-1] = 1.0

    # Community membership index, built once for all sampling rounds.
    members_by_comm = np.argsort(community, kind="stable")
    comm_sorted = community[members_by_comm]
    mstarts = np.searchsorted(comm_sorted, np.arange(num_communities))
    mends = np.append(mstarts[1:], num_nodes)
    comm_cums: list[np.ndarray | None] = []
    for c in range(num_communities):
        wc = w[members_by_comm[mstarts[c] : mends[c]]]
        cumc = np.cumsum(wc)
        comm_cums.append(cumc if cumc.size and cumc[-1] > 0 else None)

    def draw(m: int):
        src = _sample_categorical(cum_global, m, rng)
        dst = np.empty(m, dtype=np.int64)
        internal = rng.random(m) < p_in
        n_ext = int(np.count_nonzero(~internal))
        if n_ext:
            dst[~internal] = _sample_categorical(cum_global, n_ext, rng)
        if internal.any():
            int_idx = np.nonzero(internal)[0]
            int_comm = community[src[int_idx]]
            order = np.argsort(int_comm, kind="stable")
            int_idx = int_idx[order]
            int_comm = int_comm[order]
            starts = np.searchsorted(int_comm, np.arange(num_communities))
            ends = np.append(starts[1:], int_idx.size)
            for c in range(num_communities):
                lo, hi = starts[c], ends[c]
                if lo == hi:
                    continue
                cumc = comm_cums[c]
                if cumc is None:
                    dst[int_idx[lo:hi]] = _sample_categorical(
                        cum_global, hi - lo, rng
                    )
                    continue
                members = members_by_comm[mstarts[c] : mends[c]]
                u = rng.random(hi - lo) * cumc[-1]
                picks = np.minimum(
                    np.searchsorted(cumc, u, side="right"), members.size - 1
                )
                dst[int_idx[lo:hi]] = members[picks]
        return src, dst

    src, dst = _collect_unique_edges(draw, num_nodes, num_edges, rng)
    return _finalize(src, dst, num_nodes, self_loops, symmetric)


def lognormal_degree_graph(
    num_nodes: int,
    mean_degree: float,
    sigma: float,
    *,
    seed: int = 0,
    self_loops: bool = True,
) -> HybridMatrix:
    """Graph with log-normal expected degrees of controlled variance.

    Used by the Fig. 12 sensitivity suite: graphs share ``mean_degree``
    while ``sigma`` tunes the degree standard deviation (``sigma = 0``
    approaches a regular graph).
    """
    rng = np.random.default_rng(seed)
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    raw = rng.lognormal(mean=0.0, sigma=sigma, size=num_nodes)
    weights = raw / raw.sum()
    num_edges = int(round(mean_degree * num_nodes))
    cum = np.cumsum(weights)
    cum[-1] = 1.0

    # Degrees concentrate on the weighted side: draw *rows* by weight so
    # the out-degree distribution carries the variance, columns uniform.
    def draw(m: int):
        return (
            _sample_categorical(cum, m, rng),
            rng.integers(0, num_nodes, size=m),
        )

    src, dst = _collect_unique_edges(draw, num_nodes, num_edges, rng)
    return _finalize(src, dst, num_nodes, self_loops, symmetric=False)


def rmat_graph(
    num_nodes: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    self_loops: bool = True,
    symmetric: bool = False,
) -> HybridMatrix:
    """R-MAT recursive generator (Kronecker-style skew + blocks).

    ``a + b + c <= 1``; the remainder is the d-quadrant probability.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must not exceed 1")
    rng = np.random.default_rng(seed)
    levels = max(1, int(np.ceil(np.log2(max(2, num_nodes)))))

    def draw(m: int):
        src = np.zeros(m, dtype=np.int64)
        dst = np.zeros(m, dtype=np.int64)
        for _ in range(levels):
            u = rng.random(m)
            right = (u >= a) & (u < a + b)
            down = (u >= a + b) & (u < a + b + c)
            both = u >= a + b + c
            src = src * 2 + (down | both)
            dst = dst * 2 + (right | both)
        return src % num_nodes, dst % num_nodes

    src, dst = _collect_unique_edges(draw, num_nodes, num_edges, rng)
    return _finalize(src, dst, num_nodes, self_loops, symmetric)


#: Parametric generator families — the axis vocabulary of the scenario
#: universe (``repro.world``).  Each family maps the universe's
#: normalized ``skew`` knob onto its native skew parameter in
#: :func:`generate_graph`.
FAMILY_CHUNG_LU = "chung-lu"
FAMILY_COMMUNITY = "community"
FAMILY_LOGNORMAL = "lognormal"
FAMILY_RMAT = "rmat"

GENERATOR_FAMILIES: tuple[str, ...] = (
    FAMILY_CHUNG_LU,
    FAMILY_COMMUNITY,
    FAMILY_LOGNORMAL,
    FAMILY_RMAT,
)


def generate_graph(
    family: str,
    num_nodes: int,
    num_edges: int,
    *,
    skew: float = 0.5,
    p_in: float = 0.8,
    seed: int = 0,
) -> HybridMatrix:
    """One parametric entry point over every generator family.

    ``skew`` is the universe's normalized degree-skew knob in ``[0, 1]``
    (0 = near-uniform degrees, 1 = heaviest tail each family supports);
    it maps to the family-native parameter:

    * ``chung-lu`` / ``community`` — power-law exponent
      ``gamma = 3.2 - 1.6 * skew`` (3.2 is effectively uniform, 1.6 a
      very heavy tail);
    * ``lognormal`` — ``sigma = 0.1 + 2.0 * skew`` (the Fig. 12 sweep's
      range);
    * ``rmat`` — top-left quadrant mass ``a = 0.40 + 0.25 * skew`` with
      the remainder split evenly over b/c/d.

    ``p_in`` only shapes the ``community`` family (in-community edge
    probability); other families ignore it.  All outputs are
    deterministic functions of ``(family, num_nodes, num_edges, skew,
    p_in, seed)``.
    """
    if not 0.0 <= skew <= 1.0:
        raise ValueError(f"skew must be in [0, 1], got {skew}")
    if family == FAMILY_CHUNG_LU:
        return chung_lu_graph(
            num_nodes, num_edges, gamma=3.2 - 1.6 * skew, seed=seed
        )
    if family == FAMILY_COMMUNITY:
        return community_graph(
            num_nodes, num_edges, gamma=3.2 - 1.6 * skew, p_in=p_in,
            seed=seed,
        )
    if family == FAMILY_LOGNORMAL:
        return lognormal_degree_graph(
            num_nodes, num_edges / max(1, num_nodes), 0.1 + 2.0 * skew,
            seed=seed,
        )
    if family == FAMILY_RMAT:
        a = 0.40 + 0.25 * skew
        bc = (1.0 - a) / 3.0
        return rmat_graph(num_nodes, num_edges, a=a, b=bc, c=bc, seed=seed)
    raise ValueError(
        f"unknown generator family {family!r}; valid families are "
        f"{list(GENERATOR_FAMILIES)}"
    )


def _finalize(
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    self_loops: bool,
    symmetric: bool,
) -> HybridMatrix:
    """Assemble edges into a hybrid CSR/COO adjacency matrix."""
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = _dedupe(src, dst, n)
    if self_loops:
        loops = np.arange(n, dtype=np.int64)
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])
        src, dst = _dedupe(src, dst, n)
    coo = COOMatrix.from_arrays(src, dst, None, shape=(n, n))
    return HybridMatrix.from_coo(coo)
