"""Fig. 12 — sensitivity to node-degree variance.

Ten graphs with the same mean degree (21-25 in the paper) and ascending
degree standard deviation; the y-axis is HP-SpMM's speedup over GE-SpMM
(node-parallel, so variance hurts it).  The paper reports Pearson's
r = 0.90 between degree std-dev and speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import Engine, EstimateRequest, make_executor
from ..gpusim import DeviceSpec, TESLA_V100
from ..graphs import DegreeStats, pearson_r, variance_graph, variance_suite_specs
from .tables import render_table


@dataclass
class Fig12Result:
    """(degree std-dev, speedup) series plus the correlation."""

    stds: list[float]
    speedups: list[float]
    pearson: float
    mean_degrees: list[float]

    def render(self) -> str:
        rows = [
            [i + 1, self.mean_degrees[i], self.stds[i], self.speedups[i]]
            for i in range(len(self.stds))
        ]
        table = render_table(
            ["graph #", "mean degree", "degree std", "speedup over GE-SpMM (x)"],
            rows,
            title="Fig. 12 — speedup vs node-degree standard deviation",
        )
        return table + f"\nPearson's r = {self.pearson:.3f} (paper: 0.90)"


def run_fig12(
    *,
    k: int = 64,
    device: DeviceSpec = TESLA_V100,
    num_graphs: int = 10,
    num_nodes: int = 20_000,
    mean_degree: float = 23.0,
    seed: int = 7,
) -> Fig12Result:
    """Run the degree-variance sensitivity experiment.

    One executor (``REPRO_JOBS`` picks it) both builds the suite graphs
    and prices them; results are identical for every worker count.
    """
    specs = variance_suite_specs(
        num_graphs=num_graphs,
        num_nodes=num_nodes,
        mean_degree=mean_degree,
        seed=seed,
    )
    names = [f"variance-{i}" for i in range(len(specs))]
    requests = [
        EstimateRequest(op="spmm", kernel=kernel, graph=name, k=k, device=device)
        for name in names
        for kernel in ("hp-spmm", "ge-spmm")
    ]
    with make_executor() as executor:
        graphs = executor.map(variance_graph, specs)
        batch = Engine(executor=executor).estimate_batch(
            requests, matrices=dict(zip(names, graphs))
        )
    times = [res.time_s for res in batch]
    rows = []
    for i, graph in enumerate(graphs):
        st = DegreeStats.of(graph)
        t_hp, t_ge = times[2 * i], times[2 * i + 1]
        rows.append((st.std, st.mean, t_ge / t_hp))
    # Ascending std-dev order, as in the paper's figure (and as
    # variance_suite orders the graphs).
    rows.sort(key=lambda r: r[0])
    stds = [r[0] for r in rows]
    means = [r[1] for r in rows]
    speedups = [r[2] for r in rows]
    return Fig12Result(
        stds=stds,
        speedups=speedups,
        pearson=pearson_r(stds, speedups),
        mean_degrees=means,
    )
