"""The two evaluation paths behind the estimation server.

* :func:`full_estimate` is the authoritative path: the kernel's cost
  model on the GPU simulator, routed through :mod:`repro.engine` (and
  therefore through the process-wide estimate cache), exactly what the
  bench harness reports.
* :func:`quick_estimate` is the degraded path: a closed-form roofline
  over aggregate matrix statistics (nnz, shape, K) with no warp-workload
  construction, no memory-transaction modeling and no cache-model
  sampling.  It is O(1), answers in microseconds, and is what the server
  falls back to when a request's deadline cannot survive the full path.

Batch fan-out lives in the engine now: the server builds engine
requests per micro-batch group and executes them through its configured
:class:`~repro.engine.Executor` (inline by default, or the sharded
worker servers).  Both paths label their answers from
the one bound vocabulary in :mod:`repro.engine.bounds`.
"""

from __future__ import annotations

from ..engine import (
    BOUND_DRAM,
    BOUND_FMA,
    EstimateRequest as EngineRequest,
    default_engine,
)
from ..formats import HybridMatrix
from ..gpusim import DeviceSpec


def full_estimate(
    op: str, kernel: str, S: HybridMatrix, k: int, device: DeviceSpec
) -> tuple[float, float, str]:
    """Authoritative cost-model estimate: (time_s, preprocessing_s, bound)."""
    res = default_engine().estimate(
        EngineRequest(op=op, kernel=kernel, k=k, device=device),
        matrix=S,
    )
    return res.time_s, res.preprocessing_s, res.bound


def quick_estimate(
    op: str, S: HybridMatrix, k: int, device: DeviceSpec
) -> tuple[float, str]:
    """Closed-form roofline approximation: (time_s, bound).

    Byte counts assume the compulsory traffic of each op — sparse
    structure (8 B per nonzero for index+value), the gathered/streamed
    K-wide operand rows, and the output — priced at peak DRAM bandwidth
    against the FP32 FMA roofline.  No occupancy, imbalance, L2 or
    tail-effect modeling: that is exactly the fidelity the degraded
    path trades away for latency.
    """
    m = S.shape[0]
    nnz = S.nnz
    flops = 2.0 * nnz * k
    if op == "spmm":
        # indices+values, one gathered K-row per nonzero, dense output.
        bytes_moved = 8.0 * nnz + 4.0 * k * nnz + 4.0 * k * m
    else:  # sddmm: two K-row reads per nonzero, nnz-length output.
        bytes_moved = 8.0 * nnz + 8.0 * k * nnz + 4.0 * nnz
    t_mem = bytes_moved / device.dram_bandwidth
    t_fma = flops / device.peak_fp32_flops
    time_s = max(t_mem, t_fma) + device.kernel_launch_overhead_s
    return time_s, (BOUND_DRAM if t_mem >= t_fma else BOUND_FMA)
