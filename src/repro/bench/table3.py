"""Table III — average speedups and win percentages on both platforms.

Aggregates the Fig. 9 (full-graph) and Fig. 10 (graph-sampling) sweeps
over Tesla V100 and Tesla A30 into the paper's summary table.  The
``paper`` column carries the published values for side-by-side
comparison in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim import TESLA_A30, TESLA_V100
from .fig9 import run_fig9
from .fig10 import run_fig10, sample_subgraphs
from .runner import SDDMM_BASELINES, SPMM_BASELINES
from .tables import render_table

#: Published Table III values: {(device, dataset, baseline): (avg, win%)}.
PAPER_TABLE3 = {
    ("v100", "full", "cusparse-csr-alg2"): (1.90, None),
    ("v100", "samp", "cusparse-csr-alg2"): (2.06, 100.0),
    ("v100", "full", "cusparse-csr-alg3"): (2.75, None),
    ("v100", "samp", "cusparse-csr-alg3"): (3.33, 98.0),
    ("v100", "full", "cusparse-coo-alg4"): (1.82, None),
    ("v100", "samp", "cusparse-coo-alg4"): (1.68, 100.0),
    ("v100", "full", "ge-spmm"): (6.50, None),
    ("v100", "samp", "ge-spmm"): (8.71, 97.38),
    ("v100", "full", "row-split"): (10.85, None),
    ("v100", "samp", "row-split"): (10.09, 100.0),
    ("v100", "full", "dgl-sddmm"): (1.81, None),
    ("v100", "samp", "dgl-sddmm"): (1.31, 88.66),
    ("v100", "full", "cusparse-csr-sddmm"): (10.90, None),
    ("v100", "samp", "cusparse-csr-sddmm"): (7.87, 100.0),
    ("a30", "full", "cusparse-csr-alg2"): (2.53, None),
    ("a30", "samp", "cusparse-csr-alg2"): (2.05, 100.0),
    ("a30", "full", "cusparse-csr-alg3"): (3.52, None),
    ("a30", "samp", "cusparse-csr-alg3"): (3.40, 100.0),
    ("a30", "full", "cusparse-coo-alg4"): (2.29, None),
    ("a30", "samp", "cusparse-coo-alg4"): (1.65, 100.0),
    ("a30", "full", "ge-spmm"): (8.45, None),
    ("a30", "samp", "ge-spmm"): (8.61, 98.93),
    ("a30", "full", "row-split"): (13.33, None),
    ("a30", "samp", "row-split"): (8.75, 100.0),
    ("a30", "full", "dgl-sddmm"): (2.08, None),
    ("a30", "samp", "dgl-sddmm"): (1.54, 99.17),
    ("a30", "full", "cusparse-csr-sddmm"): (11.17, None),
    ("a30", "samp", "cusparse-csr-sddmm"): (10.49, 100.0),
}


@dataclass
class Table3Result:
    """Measured vs paper Table III."""

    rows: list[list]

    def render(self) -> str:
        return render_table(
            [
                "device",
                "dataset",
                "baseline",
                "avg speedup",
                "paper",
                "win %",
                "paper win %",
            ],
            self.rows,
            title="Table III — average speedup of HP kernels over baselines",
        )

    def measured(self, device: str, dataset: str, baseline: str) -> float:
        for row in self.rows:
            if row[0] == device and row[1] == dataset and row[2] == baseline:
                return row[3]
        raise KeyError((device, dataset, baseline))


def run_table3(
    *,
    k: int = 64,
    max_edges: int | None = None,
    num_subgraphs: int | None = None,
    devices: tuple[str, ...] = ("v100", "a30"),
) -> Table3Result:
    """Run the Table III aggregation (the heaviest experiment)."""
    device_map = {"v100": TESLA_V100, "a30": TESLA_A30}
    rows: list[list] = []
    # One seeded sampling dataset serves every device's Fig. 10 sweep.
    subgraphs = sample_subgraphs(max_edges=max_edges, num_subgraphs=num_subgraphs)
    for dev_name in devices:
        device = device_map[dev_name]
        fig9 = run_fig9(k=k, device=device, max_edges=max_edges)
        fig10 = run_fig10(k=k, device=device, subgraphs=subgraphs)
        for dataset, sweep_pair in (("full", fig9), ("samp", fig10)):
            for baseline in SPMM_BASELINES:
                avg, pct = sweep_pair.spmm.summary_vs("hp-spmm", baseline)
                paper = PAPER_TABLE3.get((dev_name, dataset, baseline), (None, None))
                rows.append(
                    [dev_name, dataset, baseline, avg, paper[0] or "-", pct, paper[1] or "-"]
                )
            for baseline in SDDMM_BASELINES:
                avg, pct = sweep_pair.sddmm.summary_vs("hp-sddmm", baseline)
                paper = PAPER_TABLE3.get((dev_name, dataset, baseline), (None, None))
                rows.append(
                    [dev_name, dataset, baseline, avg, paper[0] or "-", pct, paper[1] or "-"]
                )
    return Table3Result(rows=rows)
