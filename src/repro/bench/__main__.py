"""CLI: run paper experiments and write reports.

Usage::

    python -m repro.bench fig9 [--k 64] [--max-edges 1500000]
    python -m repro.bench all --workers 4
    python -m repro.bench list

Reports are printed and written under ``results/`` (override with
REPRO_RESULTS_DIR), each with a ``<id>.manifest.json`` run manifest
beside it.  ``--workers N`` (or ``REPRO_JOBS``) fans sweep work over N
shard worker processes when N is 2 or more; reports are identical
either way.  ``--timing`` appends a wall-clock + estimate cache summary
line per experiment.  ``REPRO_TRACE=<path>`` records a Chrome-trace/
Perfetto span timeline of the whole run, shard-worker spans included,
and exports it on exit.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..obs import export_trace, tracing_enabled
from ..perf import estimate_cache_stats
from . import EXPERIMENTS, write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig9 fig10 fig11 fig12 fig13 table3 table4 "
        "table5 tcgnn reorder frontier), 'all', or 'list'",
    )
    parser.add_argument("--k", type=int, default=None, help="feature dimension")
    parser.add_argument(
        "--max-edges", type=int, default=None, help="edge cap for scaled graphs"
    )
    parser.add_argument(
        "--subgraphs", type=int, default=None, help="sampling-dataset size (fig10/table3)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard worker processes for sweeps (sets REPRO_JOBS; below "
        "2 = inline, 0 = all cores)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print per-experiment wall-clock and estimate-cache stats",
    )
    parser.add_argument(
        "--predicted-frontier",
        action="store_true",
        help="frontier experiment only: sweep each graph's top-k "
        "predicted kernels instead of the full field (report goes to "
        "results/frontier_predicted.txt; full sweep stays the oracle)",
    )
    parser.add_argument(
        "--topk",
        type=int,
        default=None,
        help="predicted-frontier width (default REPRO_SELECT_TOPK)",
    )
    args = parser.parse_args(argv)
    if args.predicted_frontier and args.experiment != "frontier":
        parser.error("--predicted-frontier only applies to 'frontier'")
    if args.topk is not None and not args.predicted_frontier:
        parser.error("--topk requires --predicted-frontier")
    if args.workers is not None:
        os.environ["REPRO_JOBS"] = str(args.workers)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; try 'list' for options"
            )
        runner = EXPERIMENTS[name]
        kwargs = {}
        if args.k is not None and name not in ("reorder", "table2"):
            kwargs["k"] = args.k
        if args.max_edges is not None and name != "fig12":
            kwargs["max_edges"] = args.max_edges
        if args.subgraphs is not None and name in ("fig10", "table3"):
            kwargs["num_subgraphs"] = args.subgraphs
        report_id = name
        if name == "frontier" and args.predicted_frontier:
            from ..select import default_topk

            kwargs["top_k"] = (
                args.topk if args.topk is not None else default_topk()
            )
            report_id = "frontier_predicted"
        t0 = time.time()  # lint: allow(wallclock) CLI progress display only; never enters reports
        result = runner(**kwargs)
        if hasattr(result, "render"):
            text = result.render()
        else:
            text = "\n\n".join(r.render() for r in result)
        print(text)
        path = write_report(report_id, text, config=kwargs)
        print(f"[{name} done in {time.time() - t0:.1f}s -> {path}]\n")  # lint: allow(wallclock) progress display
        if args.timing:
            cs = estimate_cache_stats()
            print(
                f"[timing {name}: {time.time() - t0:.2f}s | estimate cache "  # lint: allow(wallclock) --timing display
                f"{cs.hits} hits / {cs.misses} misses "
                f"({100.0 * cs.hit_rate:.0f}%), {cs.entries} entries]\n"
            )
    if tracing_enabled():
        trace_path = export_trace()
        print(f"[trace -> {trace_path}] (load in chrome://tracing or ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
