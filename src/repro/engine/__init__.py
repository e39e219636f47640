"""``repro.engine`` — the unified estimation pipeline.

One pipeline serves every evaluation path in the repo: build an
:class:`EstimateRequest`, plan it (graph + device resolution, kernel
registry lookup, optional static plan check), execute it through a
pluggable :class:`Executor`, get an :class:`EstimateResult` back.  The
bench runner, the fig/table CLI scripts, the serve layer, and GNN
training-epoch timing all mount this module instead of carrying private
copies of kernel dispatch, cache wiring, plan checking, and span
instrumentation.

Quickstart::

    from repro.engine import Engine, EstimateRequest

    eng = Engine()
    res = eng.estimate(
        EstimateRequest(op="spmm", kernel="hp-spmm", graph="ca-2010", k=64)
    )
    print(res.time_s, res.bound, res.gflops)

See DESIGN.md ("Execution engine") for the pipeline diagram and the
executor strategies.
"""

from .bounds import (
    BOUND_ATOMIC,
    BOUND_BALANCE,
    BOUND_DRAM,
    BOUND_FMA,
    BOUND_ISSUE,
    BOUND_L2,
    BOUND_LAUNCH,
    VALID_BOUNDS,
    check_bound,
)
from .core import (
    STATUS_ERROR,
    STATUS_OK,
    BatchResult,
    Engine,
    EngineConfig,
    EstimateRequest,
    EstimateResult,
    PlanCheckError,
    Selection,
    default_engine,
    estimate_caching_enabled,
    plan_checking_enabled,
)
from .executors import (
    Executor,
    InlineExecutor,
    ShardedExecutor,
    make_executor,
    resolve_jobs,
)
from .priors import CostPriorBook, cost_priors
from .registry import (
    OP_SDDMM,
    OP_SPMM,
    VALID_OPS,
    kernel_factory,
    make_kernel,
    valid_kernels,
)

__all__ = [
    "BOUND_ATOMIC",
    "BOUND_BALANCE",
    "BOUND_DRAM",
    "BOUND_FMA",
    "BOUND_ISSUE",
    "BOUND_L2",
    "BOUND_LAUNCH",
    "BatchResult",
    "CostPriorBook",
    "Engine",
    "EngineConfig",
    "EstimateRequest",
    "EstimateResult",
    "Executor",
    "InlineExecutor",
    "OP_SDDMM",
    "OP_SPMM",
    "PlanCheckError",
    "STATUS_ERROR",
    "STATUS_OK",
    "Selection",
    "ShardedExecutor",
    "VALID_BOUNDS",
    "VALID_OPS",
    "check_bound",
    "cost_priors",
    "default_engine",
    "estimate_caching_enabled",
    "kernel_factory",
    "make_executor",
    "make_kernel",
    "plan_checking_enabled",
    "resolve_jobs",
    "valid_kernels",
]
