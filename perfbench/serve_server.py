"""Server process for the ``serve`` workload.

Runs the program's own serving entry point, ``python -m repro.serve
--serve``, with its default configuration (inline engine, default queue
watermark and batching) on an ephemeral local port.  It prints the
program's readiness line ``{"serving": {...}}`` and serves until
SIGTERM.

With ``--trace-out PATH`` the layer wrappers of :mod:`spans` are
installed before the front end starts, and two server-side series are
kept for the load generator to cut at its step boundaries: the queue
depth after each submission, and an ``repro.obs.snapshot()`` taken every
time a client asks for the ``stats`` frame.  Everything is written to
``PATH`` as JSON when the server shuts down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import fresh_state_problems  # noqa: E402


def _install_trace():
    from repro.obs import snapshot
    from repro.serve.server import EstimationServer
    from spans import SpanRecorder, instrument_program

    recorder = SpanRecorder()
    instrument_program(recorder)
    depth_samples: list[tuple[int, int]] = []
    snapshots: list[tuple[int, dict]] = []

    submit = EstimationServer.submit
    stats = EstimationServer.stats

    def traced_submit(self, request):
        pending = submit(self, request)
        depth_samples.append((time.monotonic_ns(), self.queue_depth))
        return pending

    def traced_stats(self):
        snapshots.append((time.monotonic_ns(), snapshot()))
        return stats(self)

    EstimationServer.submit = traced_submit
    EstimationServer.stats = traced_stats

    def dump(path: str) -> None:
        payload = recorder.dump()
        payload["queue_depth"] = depth_samples
        payload["snapshots"] = snapshots
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f)
        os.replace(tmp, path)

    return dump


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.serve.__main__ import main as serve_main

    stale = fresh_state_problems()
    if stale:
        print("error: process-global state is not fresh: " + "; ".join(stale),
              file=sys.stderr)
        return 3
    dump = _install_trace() if args.trace_out else None
    code = serve_main(["--serve", "--host", "127.0.0.1", "--port", "0"])
    if dump is not None:
        dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
