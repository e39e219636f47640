"""Fig. 10 — kernel performance on the graph-sampling dataset (V100, K=64).

Regenerates the subgraph comparison: samplers draw subgraphs from the
calibrated parent graphs (the paper collects 838 from ten sampling-based
GNN training runs), every kernel is timed on each, and the distribution
of speedups is summarized.  GCR is *not* applied — subgraphs are sampled
at runtime (paper Section IV-B2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import env_int
from ..formats import HybridMatrix
from ..gpusim import DeviceSpec, TESLA_V100
from ..graphs import build_sampling_dataset, load_graph
from .runner import (
    SDDMM_BASELINES,
    SPMM_BASELINES,
    SweepResult,
    sweep_sddmm,
    sweep_spmm,
)
from .tables import render_table

#: Parent graphs the sampling models of the paper train on.
DEFAULT_PARENTS: tuple[str, ...] = (
    "flickr",
    "yelp",
    "arxiv",
    "products",
    "ppa",
    "collab",
)


def default_subgraph_count() -> int:
    """Subgraphs to sample; REPRO_SUBGRAPHS=838 reproduces the full set."""
    return env_int("REPRO_SUBGRAPHS", 96)


@dataclass
class Fig10Result:
    """Speedup distribution over sampled subgraphs."""

    spmm: SweepResult
    sddmm: SweepResult
    num_subgraphs: int
    k: int
    device: str

    def summary_rows(self) -> list[list]:
        rows = []
        for b in SPMM_BASELINES:
            avg, pct = self.spmm.summary_vs("hp-spmm", b)
            s = self.spmm.speedups_vs("hp-spmm", b)
            rows.append(["spmm", b, avg, float(np.median(s)), pct])
        for b in SDDMM_BASELINES:
            avg, pct = self.sddmm.summary_vs("hp-sddmm", b)
            s = self.sddmm.speedups_vs("hp-sddmm", b)
            rows.append(["sddmm", b, avg, float(np.median(s)), pct])
        return rows

    def render(self) -> str:
        return render_table(
            ["op", "baseline", "avg speedup", "median", "win %"],
            self.summary_rows(),
            title=(
                f"Fig. 10 — sparse kernels, graph-sampling dataset "
                f"({self.device}, K={self.k}, {self.num_subgraphs} subgraphs)"
            ),
        )


def sample_subgraphs(
    *,
    parents: tuple[str, ...] = DEFAULT_PARENTS,
    num_subgraphs: int | None = None,
    max_edges: int | None = None,
    seed: int = 0,
) -> list[tuple[str, HybridMatrix]]:
    """The seeded ``(name, matrix)`` sampling dataset Fig. 10 sweeps."""
    total = num_subgraphs or default_subgraph_count()
    per_parent = max(1, total // len(parents))
    datasets = [load_graph(p, max_edges=max_edges) for p in parents]
    subs = build_sampling_dataset(datasets, per_parent=per_parent, seed=seed)
    return [(f"{s.sampler}-{i}", s.matrix) for i, s in enumerate(subs)]


def run_fig10(
    *,
    k: int = 64,
    device: DeviceSpec = TESLA_V100,
    parents: tuple[str, ...] = DEFAULT_PARENTS,
    num_subgraphs: int | None = None,
    max_edges: int | None = None,
    seed: int = 0,
    subgraphs: list[tuple[str, HybridMatrix]] | None = None,
) -> Fig10Result:
    """Run the Fig. 10 experiment.

    ``subgraphs`` is a dataset from :func:`sample_subgraphs`; callers
    sweeping several devices sample once and pass it to each run (the
    sampling arguments are then ignored).
    """
    named = subgraphs
    if named is None:
        named = sample_subgraphs(
            parents=parents,
            num_subgraphs=num_subgraphs,
            max_edges=max_edges,
            seed=seed,
        )
    spmm = sweep_spmm(named, ("hp-spmm",) + SPMM_BASELINES, k=k, device=device)
    sddmm = sweep_sddmm(
        named, ("hp-sddmm",) + SDDMM_BASELINES, k=k, device=device
    )
    return Fig10Result(
        spmm=spmm,
        sddmm=sddmm,
        num_subgraphs=len(named),
        k=k,
        device=device.name,
    )
