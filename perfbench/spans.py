"""In-memory span recording around the program's layer entry points.

A traced run wraps each layer's public entry points *from the
benchmark's side*: the program's own source is never edited.  Every
wrapper records one span ``(id, parent id, name, start ns, end ns)`` in
memory; call counts and self time (a span's duration minus the time its
child spans cover) are derived afterwards by :func:`layer_totals`.

Wrapping binds the name the caller actually uses: a function imported
with ``from module import name`` lives under that name in every
importing module, so :func:`Instrumenter.function` rebinds it wherever
it appears in a loaded ``repro`` module.  Methods are replaced on their
class, so every instance (and every caller) sees the wrapper.

Timestamps come from ``time.monotonic_ns`` (``CLOCK_MONOTONIC`` on
Linux), which is shared by every process on the machine, so spans
recorded in the server process can be cut at step boundaries taken in
the load-generator process.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time


class SpanRecorder:
    """Append-only span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: (span id, parent id or -1, name id, start ns, end ns)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._next_id = itertools.count()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        nid = self.name_id(name)
        spans = self.spans
        next_id = self._next_id
        local = self._local
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(next_id)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, nid, start, end))

        return wrapper

    def dump(self) -> dict:
        """JSON-ready copy of every recorded span."""
        return {"names": list(self.names), "spans": [list(s) for s in self.spans]}


def layer_totals(
    names: list[str],
    spans,
    window: tuple[int, int] | None = None,
) -> dict[str, dict[str, float]]:
    """``{name: {"calls": n, "self_s": s}}`` from recorded spans.

    Self time is a span's duration minus the durations of its direct
    children.  With ``window=(start_ns, end_ns)`` only spans that start
    inside the window count (children are attributed the same way, so a
    parent inside the window still loses the time of its children).
    """
    child_ns: dict[int, int] = {}
    for sid, parent, _nid, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, nid, start, end in spans:
        if window is not None and not (window[0] <= start < window[1]):
            continue
        entry = out.setdefault(names[nid], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns.get(sid, 0)) / 1e9
    return out


class Instrumenter:
    """Installs :class:`SpanRecorder` wrappers on the program's layers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def function(self, fn, name: str) -> None:
        """Rebind ``fn`` to its wrapper in every loaded ``repro`` module."""
        wrapper = self.recorder.wrap(fn, name)
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "") or ""
            if modname != "repro" and not modname.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def method(self, cls, attr: str, name: str) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by its wrapper."""
        setattr(cls, attr, self.recorder.wrap(cls.__dict__[attr], name))


def instrument_program(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the benchmark attributes time to.

    Imports the whole program surface first, so later ``from … import``
    statements inside functions resolve to the wrappers too.
    """
    import repro.serve.__main__  # noqa: F401 - binds the serve CLI names
    import repro.serve.net  # noqa: F401
    from repro.analysis import schedule
    from repro.bench.fig9 import Fig9Result
    from repro.bench.fig12 import Fig12Result
    from repro.bench.table3 import Table3Result
    from repro.bench.table5 import Table5Result
    from repro.engine import Engine
    from repro.gnn import autograd, models, optim, sparse_ops, timing
    from repro.gpusim import FootprintCacheModel, launch
    from repro.graphs import generators, registry, samplers, stats
    from repro.kernels.api import (
        SDDMM_REGISTRY,
        SPMM_REGISTRY,
        SDDMMKernel,
        SpMMKernel,
    )
    from repro.perf import estimate_cache, fingerprint
    from repro.serve import estimator, server
    from repro.store import SharedGraphStore

    ins = Instrumenter(recorder)
    # graphs: registry load, generation, subgraph sampling
    ins.function(registry.load_graph, "graphs.load")
    for gen in (generators.community_graph, generators.generate_graph,
                stats.variance_graph):
        ins.function(gen, "graphs.generate")
    for sampler in (samplers.saint_node_sampler, samplers.saint_edge_sampler,
                    samplers.saint_walk_sampler,
                    samplers.sage_neighbor_sampler):
        ins.function(sampler, "graphs.sample")
    # store: segment publication
    ins.method(SharedGraphStore, "publish", "store.publish")
    # analysis: plan construction and the schedule checker
    ins.function(schedule.plan_for_kernel, "analysis.plan_build")
    ins.function(schedule.check_plan, "analysis.check_plan")
    # perf: structural fingerprints and the estimate cache
    ins.function(fingerprint.matrix_fingerprint, "perf.fingerprint")
    ins.function(estimate_cache.cached_estimate, "perf.cached_estimate")
    # kernels: public estimate (every request) and the cache-miss
    # workload build each registered kernel implements
    ins.method(SpMMKernel, "estimate", "kernels.spmm.estimate")
    ins.method(SDDMMKernel, "estimate", "kernels.sddmm.estimate")
    for op, registry_ in (("spmm", SPMM_REGISTRY), ("sddmm", SDDMM_REGISTRY)):
        for cls in sorted(set(registry_.values()), key=lambda c: c.__name__):
            if "_estimate" in cls.__dict__:
                ins.method(cls, "_estimate", f"kernels.{op}.build")
    # gpusim: launch simulation and the L2 footprint model
    ins.function(launch.simulate_launch, "gpusim.simulate_launch")
    ins.method(FootprintCacheModel, "run", "gpusim.l2_model")
    # engine: batch planning + dispatch
    ins.method(Engine, "estimate_batch", "engine.batch")
    # serve: one micro-batch, and the degraded quick model
    ins.method(server.EstimationServer, "_process_batch", "serve.batch")
    ins.function(estimator.quick_estimate, "serve.quick_estimate")
    # gnn: forward, backward, numeric SpMM, simulated-time accrual
    ins.method(models.GCN, "__call__", "gnn.forward")
    ins.method(autograd.Tensor, "backward", "gnn.backward")
    ins.function(sparse_ops.spmm, "gnn.spmm_numeric")
    ins.method(sparse_ops.GraphOperand, "__init__", "gnn.graph_prep")
    for attr in ("spmm_time", "sddmm_time"):
        ins.method(timing.TimingContext, attr, "gnn.timing")
    ins.method(optim.Adam, "step", "gnn.step")
    # the harness's own report rendering
    for cls in (Fig9Result, Table3Result, Fig12Result, Table5Result):
        ins.method(cls, "render", "bench.render")
