"""CLI: sample a scenario universe, sweep every kernel, write the map.

Usage::

    python -m repro.world --samples 64 --seed 0
    python -m repro.world --preset smoke
    python -m repro.world --grid 8x6 --workers 2
    python -m repro.world --samples 240 --workers 2 --out nightly

Reports land as ``results/world_<out>.json`` (override the directory
with ``REPRO_RESULTS_DIR``) with a run manifest beside them; the global
kernel ranking and the density x skew crossover grid print to stdout.
Exit status is nonzero when any engine evaluation errored — the CI
smoke and nightly jobs rely on that as their zero-error gate.
"""

from __future__ import annotations

import argparse
import sys

from ..obs import export_trace, tracing_enabled
from .report import (
    build_report,
    render_crossover_table,
    render_ranking_table,
    write_world_report,
)
from .sweep import run_world_sweep
from .universe import (
    DEFAULT_MIN_NODES,
    default_max_nodes,
    default_samples,
    default_seed,
    grid_universe,
    sample_universe,
)

#: ``--preset`` bundles; explicit flags override individual entries.
PRESETS = {
    "smoke": {"samples": 16, "seed": 0, "max_nodes": 512, "out": "smoke"},
}


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        d, s = spec.lower().split("x", 1)
        return int(d), int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--grid wants DEGREESxSKEWS (e.g. 8x6), got {spec!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.world",
        description=(
            "Sample a parametric universe of synthetic graphs and map "
            "where each kernel wins."
        ),
    )
    parser.add_argument(
        "--samples", type=int, default=None,
        help="sampled config count (default REPRO_WORLD_SAMPLES)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="universe sampling seed (default REPRO_WORLD_SEED)",
    )
    parser.add_argument(
        "--grid", type=_parse_grid, default=None, metavar="DxS",
        help="full density x skew grid instead of stratified sampling",
    )
    parser.add_argument(
        "--preset", choices=sorted(PRESETS),
        help="named parameter bundle (explicit flags still override)",
    )
    parser.add_argument(
        "--k", type=int, default=None,
        help="feature width (default REPRO_WORLD_K)",
    )
    parser.add_argument("--device", default="v100", help="device short name")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="shard workers (default REPRO_JOBS; <2 = inline)",
    )
    parser.add_argument(
        "--kernels", default=None,
        help="comma-separated kernel subset (default: every SpMM kernel)",
    )
    parser.add_argument(
        "--min-nodes", type=int, default=DEFAULT_MIN_NODES,
        help="size-axis floor",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None,
        help="size-axis cap (default REPRO_WORLD_MAX_NODES)",
    )
    parser.add_argument(
        "--out", default=None,
        help="report name: results/world_<out>.json (default 'sweep')",
    )
    args = parser.parse_args(argv)

    preset = PRESETS.get(args.preset, {})
    samples = (
        args.samples
        if args.samples is not None
        else preset.get("samples", default_samples())
    )
    seed = (
        args.seed if args.seed is not None else preset.get("seed", default_seed())
    )
    max_nodes = (
        args.max_nodes
        if args.max_nodes is not None
        else preset.get("max_nodes", default_max_nodes())
    )
    out = args.out if args.out is not None else preset.get("out", "sweep")
    kernels = (
        [kn.strip() for kn in args.kernels.split(",") if kn.strip()]
        if args.kernels
        else None
    )

    if args.grid is not None:
        degree_steps, skew_steps = args.grid
        configs = grid_universe(degree_steps, skew_steps, seed=seed)
        mode = "grid"
    else:
        configs = sample_universe(
            samples, seed, min_nodes=args.min_nodes, max_nodes=max_nodes
        )
        mode = "sampled"

    result = run_world_sweep(
        configs,
        kernels=kernels,
        k=args.k,
        device=args.device,
        workers=args.workers,
    )
    spec = {
        "mode": mode,
        "samples": len(configs),
        "seed": seed,
        "min_nodes": args.min_nodes,
        "max_nodes": max_nodes,
        "k": result.k,
        "device": result.device,
        "workers": result.workers,
        "kernels": result.kernels,
    }
    report = build_report(result, mode=mode, seed=seed)
    path = write_world_report(report, out, config=spec)

    print("## Kernel ranking\n")
    print(render_ranking_table(report))
    print("\n## Crossover map (top winner per region)\n")
    print(render_crossover_table(report))
    print(
        f"\n[world {mode} sweep: {len(configs)} configs x "
        f"{len(result.kernels)} kernels -> {path}]"
    )
    for name, reason in sorted(result.skipped_kernels.items()):
        print(f"[skipped {name}: ineligible on {result.device} — {reason}]")
    if tracing_enabled():
        trace_path = export_trace()
        print(f"[trace -> {trace_path}]")
    if result.errors:
        print(
            f"error: {result.errors} evaluation(s) failed; see the "
            f"per-kernel error records in {path}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
