"""Dataset registry: the 19 graphs of paper Table II, scaled.

Each entry records the paper's true node/edge counts plus the generator
parameters (degree exponent, community strength) that match the graph
family's character.  Graphs are scaled down uniformly — mean degree is
preserved, node count shrinks — so they fit the single-core simulator;
``scale=1.0`` with ``max_edges=None`` would regenerate at full size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..config import env_int, env_str
from ..formats import HybridMatrix
from ..store import shared_matrix
from .generators import community_graph

#: Default cap on generated edge count (before self-loops); override with
#: the REPRO_MAX_EDGES environment variable.
DEFAULT_MAX_EDGES = 1_500_000


@dataclass(frozen=True)
class GraphSpec:
    """Calibration record for one paper dataset."""

    name: str
    source: str           #: paper source collection (Table II)
    paper_nodes: int
    paper_edges: int
    gamma: float          #: degree power-law exponent (skew)
    p_in: float           #: community internal-edge probability
    communities: int      #: planted community count at full scale
    seed: int

    @property
    def paper_mean_degree(self) -> float:
        return self.paper_edges / self.paper_nodes

    def scaled_size(self, max_edges: int) -> tuple[int, int]:
        """(nodes, edges) after uniform scaling to at most ``max_edges``.

        Mean degree is preserved except for extremely dense graphs, where
        the scaled node count cannot host it (density is capped at 20% so
        the sparse structure remains meaningful).
        """
        scale = min(1.0, max_edges / self.paper_edges)
        nodes = max(256, int(round(self.paper_nodes * scale)))
        degree = min(self.paper_mean_degree, 0.2 * nodes)
        edges = int(round(degree * nodes))
        return nodes, edges


@dataclass(frozen=True)
class Dataset:
    """A generated dataset: the adjacency matrix plus its provenance."""

    spec: GraphSpec
    matrix: HybridMatrix

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_edges(self) -> int:
        return self.matrix.nnz


def _spec(name, source, nodes, edges, gamma, p_in, comms, seed) -> GraphSpec:
    return GraphSpec(
        name=name,
        source=source,
        paper_nodes=nodes,
        paper_edges=edges,
        gamma=gamma,
        p_in=p_in,
        communities=comms,
        seed=seed,
    )


#: The 19 graphs of paper Table II.  gamma/p_in reflect the family:
#: social graphs are skewed with strong communities, citation graphs
#: moderate, biological/interaction graphs dense and flatter.
FULL_GRAPH_SPECS: dict[str, GraphSpec] = {
    s.name: s
    for s in [
        _spec("flickr", "GraphSAINT", 89_250, 989_006, 2.0, 0.75, 300, 101),
        _spec("yelp", "GraphSAINT", 716_847, 13_954_819, 2.1, 0.75, 800, 102),
        _spec("amazon", "GraphSAINT", 1_598_960, 264_339_468, 2.0, 0.85, 1200, 103),
        _spec("corafull", "DGL", 19_793, 146_635, 2.3, 0.7, 70, 104),
        _spec("aifb", "DGL", 7_262, 44_298, 2.2, 0.6, 30, 105),
        _spec("mutag", "DGL", 27_163, 173_037, 2.2, 0.6, 90, 106),
        _spec("bgs", "DGL", 94_806, 656_226, 2.1, 0.6, 250, 107),
        _spec("am", "DGL", 881_680, 7_141_524, 1.9, 0.2, 900, 108),
        _spec("reddit", "DGL", 232_965, 114_848_857, 1.9, 0.7, 500, 109),
        _spec("arxiv", "OGB", 169_343, 2_484_941, 2.2, 0.7, 400, 110),
        _spec("proteins", "OGB", 132_534, 79_255_038, 2.4, 0.8, 300, 111),
        _spec("products", "OGB", 2_449_029, 126_167_053, 2.1, 0.8, 1500, 112),
        _spec("collab", "OGB", 235_868, 2_171_132, 2.3, 0.75, 500, 113),
        _spec("ddi", "OGB", 4_267, 2_140_089, 2.6, 0.5, 12, 114),
        _spec("ppa", "OGB", 576_289, 43_040_151, 2.2, 0.85, 700, 115),
        _spec("coauthor-cs", "gnnbench", 18_333, 163_788, 2.3, 0.8, 70, 116),
        _spec("amazon-photo", "gnnbench", 7_650, 245_812, 2.2, 0.75, 30, 117),
        _spec("amazon-computer", "gnnbench", 13_752, 505_474, 2.2, 0.75, 45, 118),
        _spec("coauthor-physics", "gnnbench", 34_493, 530_417, 2.3, 0.8, 110, 119),
    ]
}

#: Display order matching paper Table II.
FULL_GRAPH_ORDER: tuple[str, ...] = tuple(FULL_GRAPH_SPECS)


def max_edges_limit() -> int:
    """Edge cap for scaled generation (REPRO_MAX_EDGES overrides)."""
    return env_int("REPRO_MAX_EDGES", DEFAULT_MAX_EDGES)


def _cache_dir() -> str:
    """On-disk cache for generated graphs (generation is seconds-scale)."""
    base = env_str("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-graphs"
    )
    os.makedirs(base, exist_ok=True)
    return base


@lru_cache(maxsize=32)
def _load_cached(name: str, max_edges: int) -> Dataset:
    spec = FULL_GRAPH_SPECS[name]
    nodes, edges = spec.scaled_size(max_edges)
    path = os.path.join(_cache_dir(), f"{name}-{max_edges}-v1.npz")
    if os.path.exists(path):
        try:
            data = np.load(path)
            matrix = HybridMatrix.from_arrays(
                data["row"], data["col"], data["val"],
                shape=(int(data["m"]), int(data["n"])),
            )
            return Dataset(spec=spec, matrix=shared_matrix(matrix))
        except Exception:
            os.remove(path)  # corrupt cache entry: regenerate
    scale = nodes / spec.paper_nodes
    comms = max(4, int(round(spec.communities * np.sqrt(scale))))
    matrix = community_graph(
        nodes,
        edges,
        gamma=spec.gamma,
        num_communities=comms,
        p_in=spec.p_in,
        seed=spec.seed,
    )
    np.savez_compressed(
        path,
        row=matrix.row,
        col=matrix.col,
        val=matrix.val,
        m=matrix.shape[0],
        n=matrix.shape[1],
    )
    # Registry datasets are re-backed by their shared-store segment, so
    # the in-process copy IS the copy every worker attaches (zero-copy
    # dispatch) and the matrix arrives pre-fingerprinted.  Returns the
    # original matrix untouched when publication fails.
    return Dataset(spec=spec, matrix=shared_matrix(matrix))


def load_graph(name: str, *, max_edges: int | None = None) -> Dataset:
    """Generate (or fetch from cache) a calibrated dataset by name."""
    key = name.strip().lower()
    if key not in FULL_GRAPH_SPECS:
        raise KeyError(
            f"unknown graph {name!r}; choose from {sorted(FULL_GRAPH_SPECS)}"
        )
    return _load_cached(key, max_edges or max_edges_limit())


def load_all(max_edges: int | None = None) -> list[Dataset]:
    """All 19 Table II datasets in paper order."""
    return [load_graph(n, max_edges=max_edges) for n in FULL_GRAPH_ORDER]
