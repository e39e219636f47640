"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {reports,serve,train} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it holds the per-layer metrics of a traced run (plus the
untraced reference run that ``bench.trace_overhead_ratio`` divides by).
The line before it is the run's provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    HERE,
    SRC,
    WORK,
    Child,
    child_env,
    cpu_ticks,
    emit,
    last_json_line,
    provenance,
    tree_problem,
)
from metrics import layer_metrics, result_line  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SERVER = os.path.join(HERE, "serve_server.py")
WORKLOADS = ("reports", "serve", "train")
#: Extra set-up-only processes per end-to-end run; ``setup_s`` is the
#: median over them and the measured processes.
SETUP_PROBES = 3
#: Fewest untraced repetitions a closed-loop run reports the median of.
#: One ``reports`` repetition alone outlasts the usual measuring time.  A
#: ``train`` repetition takes about 9 s, and its speed swings by a tenth
#: from one repetition to the next on a busy host: four are measured so
#: that the median covers as long a stretch as one ``reports`` repetition.
MIN_REPS = {"reports": 1, "train": 4}
#: Ceiling on one measured program process.
CHILD_TIMEOUT_S = 170
#: Ceiling on graph-cache priming (cold generation of every graph).
PRIME_TIMEOUT_S = 800


class RunDir:
    """Per-invocation scratch space under ``perfbench/.work``: child logs,
    shared-store files and trace dumps.  Removed when the run succeeds."""

    def __init__(self) -> None:
        os.makedirs(WORK, exist_ok=True)
        for name in os.listdir(WORK):
            if name.startswith("run-"):  # left behind by an interrupted run
                shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
        self.path = os.path.join(WORK, f"run-{os.getpid()}")
        os.makedirs(self.path)
        self._seq = 0

    def child_files(self, label: str) -> tuple[dict, str]:
        """(environment, log path) for one more program process."""
        self._seq += 1
        tag = f"{self._seq:02d}-{label}"
        return (child_env(os.path.join(self.path, f"store-{tag}")),
                os.path.join(self.path, f"{tag}.log"))

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class ProgramFailed(RuntimeError):
    """A program process exited abnormally; no result can be reported."""


def _log_tail(path: str, lines: int = 20) -> str:
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def run_worker(run: RunDir, mode: str, *flags: str, timeout: float = CHILD_TIMEOUT_S):
    """One fresh worker process; returns (its JSON line, the Child)."""
    env, log = run.child_files(mode)
    cmd = [sys.executable, WORKER, mode, "--spawn-ns", "{spawn_ns}", *flags]
    with Child(cmd, env, log) as child:
        code = child.wait(timeout)
    if code != 0:
        raise ProgramFailed(f"{mode} worker exited {code}:\n{_log_tail(log)}")
    return last_json_line(child.stdout), child


# ----------------------------------------------------------------------
# reports / train: closed loop, one fresh process per repetition
# ----------------------------------------------------------------------

def closed_loop(run: RunDir, workload: str, seconds: float, trace: bool) -> dict:
    reps = []
    start = time.monotonic()
    # Repeat the fixed work, each time in a fresh process, at least
    # MIN_REPS times and then while another repetition is expected to end
    # within the measuring time (exactly once untraced when tracing).
    while not reps or (
        not trace
        and (len(reps) < MIN_REPS[workload]
             or time.monotonic() - start
             + sum(r["run_s"] for r in reps) / len(reps) <= seconds)
    ):
        out, child = run_worker(run, workload)
        out.update(cpu_s=child.cpu_s, peak_rss_mb=child.peak_rss_mb)
        reps.append(out)
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    run_s = median([r["run_s"] for r in reps])
    if trace:
        traced, _ = run_worker(run, workload, "--trace")
        attempted += traced["attempted"]
        failures += traced["failures"]
        values = layer_metrics(traced["spans"], traced["counters"])
        values["bench.trace_overhead_ratio"] = traced["run_s"] / run_s
        return {"values": values, "attempted": attempted,
                "failed": len(failures), "failures": failures}
    setups = [r["setup_s"] for r in reps]
    for _ in range(SETUP_PROBES):
        setups.append(run_worker(run, workload, "--setup-only")[0]["setup_s"])
    values = {
        "setup_s": median(setups),
        "run_s": run_s,
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }
    return {"values": values, "attempted": attempted,
            "failed": len(failures), "failures": failures}


# ----------------------------------------------------------------------
# serve: open loop against a separate server process
# ----------------------------------------------------------------------

def _start_server(run: RunDir, trace_out: str | None) -> tuple[Child, float, dict]:
    env, log = run.child_files("serve")
    cmd = [sys.executable, SERVER] + (["--trace-out", trace_out] if trace_out else [])
    child = Child(cmd, env, log)
    try:
        stamp, line = child.wait_line('{"serving"', timeout=CHILD_TIMEOUT_S)
    except TimeoutError:
        child.close()
        raise ProgramFailed(f"server never became ready:\n{_log_tail(log)}")
    return child, (stamp - child.spawn_ns) / 1e9, json.loads(line)["serving"]


def _stop_server(child: Child) -> None:
    child.stop()
    if child.wait(timeout=60) != 0:
        raise ProgramFailed(f"server exited {child.returncode}")


def serve_pass(run: RunDir, seed: int, seconds: float, trace_out: str | None) -> dict:
    """Warm-up plus the rate steps against one fresh server."""
    import serve_load as sl
    from repro.graphs import FULL_GRAPH_ORDER
    from repro.serve.net import ServeClient

    keys = sl.signatures(FULL_GRAPH_ORDER)
    server, setup_s, serving = _start_server(run, trace_out)
    steps, failed, failures = [], 0, []
    with server:
        with ServeClient(serving["host"], serving["port"], retry_for_s=10) as client:
            warm = sl.make_stream(
                seed, "warmup", sl.WARMUP_RATE,
                int(sl.WARMUP_RATE * sl.WARMUP_SECONDS), len(keys),
            )
            sl.collect(sl.send_step(client, warm, keys)[0], 60)
            before = client.stats()
            for rate in sl.RATES:
                stream = sl.make_stream(
                    seed, f"step-{rate}", rate,
                    sl.step_requests(rate, seconds), len(keys),
                )
                sent, lags = sl.send_step(client, stream, keys)
                outcomes = sl.collect(sent, 60)
                after = client.stats()
                step = sl.step_metrics(rate, outcomes, lags, before, after)
                steps.append(step)
                bad = sl.oracle_failures(
                    outcomes, sl.derive_seed(seed, f"oracle-{rate}")
                )
                failed += step["errors"] + len(bad)
                failures += bad
                if step["errors"]:
                    failures.append(f"{step['errors']} requests failed at {rate} Hz")
                before = after
        _stop_server(server)
    return {
        "setup_s": setup_s, "steps": steps,
        "attempted": sum(s["requests"] for s in steps),
        "failed": failed, "failures": failures,
        "cpu_s": server.cpu_s, "peak_rss_mb": server.peak_rss_mb,
    }


def _serve_traced_layers(dump: dict, steps: list[dict]) -> dict:
    from spans import layer_totals

    window = (steps[0]["window_ns"][0], steps[-1]["window_ns"][1])
    totals = layer_totals(dump["names"], [tuple(s) for s in dump["spans"]], window)
    first, last = dump["snapshots"][0][1], dump["snapshots"][-1][1]
    counters = {k: v - first.get(k, 0) for k, v in last.items()
                if isinstance(v, (int, float))}
    values = layer_metrics(totals, counters)
    for step in steps:
        lo, hi = step["window_ns"]
        depths = [d for t, d in dump["queue_depth"] if lo <= t < hi]
        values[f"serve.queue_depth_max.r{step['rate']}"] = max(depths, default=0)
    return values


def serve(run: RunDir, seed: int, seconds: float, trace: bool) -> dict:
    import serve_load as sl

    # This process is the load generator and the oracle: it imports the
    # program and loads graphs itself, under the same file locations.
    os.environ.update(run.child_files("client")[0])
    sys.path.insert(0, SRC)
    base = serve_pass(run, seed, seconds, None)
    steps = base["steps"]
    attempted, failures = base["attempted"], list(base["failures"])
    if not trace:
        setups = [base["setup_s"]]
        for _ in range(SETUP_PROBES):
            server, setup_s, _ = _start_server(run, None)
            # Leaving the block kills and reaps the probe.  SIGTERM would
            # race the server: it prints its readiness line before it
            # installs its SIGTERM handler, and a signal in between ends
            # it with the default action instead of a clean shutdown.
            with server:
                setups.append(setup_s)
        values = {
            "setup_s": median(setups),
            "run_s": sum(s["makespan_s"] for s in steps),
            "cpu_s": base["cpu_s"],
            "peak_rss_mb": base["peak_rss_mb"],
        }
        return {"values": values, "attempted": attempted,
                "failed": base["failed"], "failures": failures}

    dump_path = run.file("serve-trace.json")
    traced = serve_pass(run, seed, seconds, dump_path)
    with open(dump_path) as f:
        values = _serve_traced_layers(json.load(f), traced["steps"])
    for step in steps:
        r = f"r{step['rate']}"
        for key in ("latency_p50_ms", "latency_p99_ms", "goodput_ratio"):
            values[f"{key}.{r}"] = step[key]
        for key in ("queue_wait_p50_ms", "queue_wait_p99_ms", "batches",
                    "batch_size_mean", "coalesced", "deduped", "degraded",
                    "shed", "full_ratio"):
            values[f"serve.{key}.{r}"] = step[key]
        values[f"bench.generator_lag_p99_ms.{r}"] = step["generator_lag_p99_ms"]
    values["max_rate_hz"] = sl.max_rate(steps)
    values["bench.trace_overhead_ratio"] = traced["cpu_s"] / base["cpu_s"]
    return {
        "values": values,
        "attempted": attempted + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "failures": failures + traced["failures"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so every started process is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    problem = tree_problem()
    if problem:
        print(f"error: not a checkout of the program: {problem}", file=sys.stderr)
        return 2
    run = RunDir()
    ticks_at_start = cpu_ticks()
    try:
        # Untimed, in its own process: generate any graph missing from
        # the on-disk cache, so set-up always reads a warm cache.
        run_worker(run, "prime", timeout=PRIME_TIMEOUT_S)
        trace = bool(args.trace)
        if args.workload == "serve":
            result = serve(run, args.seed, args.seconds, trace)
        else:
            result = closed_loop(run, args.workload, args.seconds, trace)
    except (ProgramFailed, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"[logs kept in {run.path}]", file=sys.stderr)
        return 1
    run.remove()
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    emit({"provenance": provenance(args.workload, args.seed, trace,
                                   child_env("<per-process>"), ticks_at_start)})
    emit(result_line("per_layer" if trace else "end_to_end",
                     result["values"], result["attempted"], result["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
