"""Shared pieces of the benchmark: paths, child environment, statistics,
provenance, and the fresh-process state check."""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "results")
#: Everything a run writes lives here (ignored by git).
WORK = os.path.join(HERE, ".work")
GRAPH_CACHE = os.path.join(WORK, "graphs")

#: Edge caps: the committed reports were made at 400k edges; the serving
#: tier runs over the 19 registry graphs at 60k.
REPORT_MAX_EDGES = 400_000
SERVE_MAX_EDGES = 60_000


def tree_problem() -> str | None:
    """Why this checkout cannot be benchmarked, or None."""
    for path in (os.path.join(SRC, "repro"), RESULTS):
        if not os.path.isdir(path):
            return f"missing {os.path.relpath(path, ROOT)}/ in {ROOT}"
    return None


def child_env(store_dir: str) -> dict:
    """Environment for every program process the benchmark starts.

    Inherited ``REPRO_*`` settings are dropped so each run uses the
    program's defaults, except for the locations that keep every file the
    program writes inside this checkout: the graph cache, the results
    directory and the shared store (the ``mmap`` backend writes files
    where the default ``shm`` backend would write to ``/dev/shm``).
    BLAS runs one thread, so wall and CPU time do not depend on how busy
    the other cores are, and the hash seed is fixed, so allocation order
    (and with it peak RSS) repeats from run to run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=SRC,
        REPRO_CACHE_DIR=GRAPH_CACHE,
        REPRO_RESULTS_DIR=os.path.join(WORK, "results"),
        REPRO_STORE_BACKEND="mmap",
        REPRO_STORE_DIR=store_dir,
    )
    return env


class Child:
    """One program process started by the benchmark.

    Standard output is collected by a reader thread (each line is
    timestamped on arrival, so a readiness line can be timed), standard
    error goes to ``log_path``, and :meth:`wait` reaps the process with
    ``os.wait4`` to obtain its own resource usage: peak RSS and CPU time
    of exactly this process.
    """

    def __init__(self, cmd: list[str], env: dict, log_path: str) -> None:
        self.spawn_ns = time.monotonic_ns()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [arg.replace("{spawn_ns}", str(self.spawn_ns)) for arg in cmd],
                stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT,
            )
        self.lines: list[tuple[int, str]] = []
        self._line_added = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.rusage = None
        self.returncode: int | None = None

    def _read(self) -> None:
        for raw in self.proc.stdout:
            with self._line_added:
                self.lines.append((time.monotonic_ns(), raw.decode(errors="replace")))
                self._line_added.notify_all()
        with self._line_added:
            self._line_added.notify_all()

    def wait_line(self, prefix: str, timeout: float) -> tuple[int, str]:
        """(arrival ns, text) of the first stdout line starting with
        ``prefix``; raises ``TimeoutError`` if none arrives in time."""
        deadline = time.monotonic() + timeout
        with self._line_added:
            while True:
                for stamp, line in self.lines:
                    if line.startswith(prefix):
                        return stamp, line
                remaining = deadline - time.monotonic()
                # A finished reader means stdout closed: the line never comes.
                if remaining <= 0 or not self._reader.is_alive():
                    raise TimeoutError(f"no {prefix!r} line from {self.proc.args}")
                self._line_added.wait(min(remaining, 0.1))

    def stop(self) -> None:
        """Ask the process to shut down cleanly (SIGTERM)."""
        if self.returncode is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self, timeout: float) -> int:
        """Reap the process; kills it and raises on timeout."""
        deadline = time.monotonic() + timeout
        while self.returncode is None:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.returncode = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.returncode
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, self.rusage = os.wait4(self.proc.pid, 0)
                self.returncode = self.proc.returncode = (
                    os.waitstatus_to_exitcode(status)
                )
                self._reader.join(timeout=5)
                raise TimeoutError(f"{self.proc.args} did not finish in {timeout}s")
            time.sleep(0.01)
        self._reader.join(timeout=5)
        return self.returncode

    @property
    def stdout(self) -> str:
        return "".join(line for _, line in self.lines)

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime

    def close(self) -> None:
        """Kill and reap the process if it is still running."""
        if self.returncode is None:
            self.proc.kill()
            self.wait(timeout=10)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = int(len(ordered) * pct / 100.0 + 0.5) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def emit(payload: dict) -> None:
    """One JSON object on one line of standard output."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    """The last line of ``text`` that parses as a JSON object."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    raise ValueError("no JSON result line in process output")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs so far, or None off Linux.

    Steal is time the hypervisor ran someone else on this machine's
    CPUs; a run with a large steal share measured a busy host.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def provenance(workload: str, seed: int, trace: bool, env: dict,
               ticks_at_start: tuple[int, int] | None) -> dict:
    """Versions, machine and configuration every result is tied to."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    steal_share = None
    ticks = cpu_ticks()
    if ticks and ticks_at_start and ticks[1] > ticks_at_start[1]:
        steal_share = (ticks[0] - ticks_at_start[0]) / (ticks[1] - ticks_at_start[1])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "cpu_steal_share": steal_share,
        "platform": platform.platform(),
        "repro_env": {k: v for k, v in sorted(env.items())
                      if k.startswith("REPRO_")},
        "blas_threads": env.get("OPENBLAS_NUM_THREADS"),
    }


def fresh_state_problems() -> list[str]:
    """Process-global program state that should be empty at run start.

    A measured run must not inherit the estimate cache, cost priors,
    loaded graphs or kernel/fingerprint memos of earlier work: carried
    state turns misses into hits and hides set-up cost.  Returns one
    message per non-empty item (empty list = fresh).
    """
    from repro.engine import core as engine_core
    from repro.engine import cost_priors
    from repro.graphs import registry
    from repro.perf import estimate_cache_stats
    from repro.perf import fingerprint

    problems = []
    cache = estimate_cache_stats()
    if cache.entries or cache.hits or cache.misses:
        problems.append(
            f"estimate cache holds {cache.entries} entries "
            f"({cache.hits} hits, {cache.misses} misses)"
        )
    if cost_priors().snapshot():
        problems.append("cost priors already observed")
    loaded = registry._load_cached.cache_info().currsize
    if loaded:
        problems.append(f"graph cache holds {loaded} datasets")
    for module, attr in (
        (engine_core, "_KERNEL_MEMO"),
        (fingerprint, "_MATRIX_MEMO"),
        (fingerprint, "_KERNEL_FP_MEMO"),
    ):
        memo = getattr(module, attr, None)
        if memo:
            problems.append(f"{module.__name__}.{attr} holds {len(memo)} entries")
    return problems
