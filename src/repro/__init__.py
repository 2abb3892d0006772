"""Reproduction of *Loop Transformations Leveraging Hardware Prefetching*
(Sioutas, Stuijk, Corporaal, Basten, Somers — CGO 2018).

Quickstart::

    from repro import Var, RVar, Buffer, Func, optimize, Machine
    from repro.arch import intel_i7_5930k

    n = 2048
    i, j = Var("i"), Var("j")
    k = RVar("k", n)
    A, B = Buffer("A", (n, n)), Buffer("B", (n, n))
    C = Func("C")
    C[i, j] = 0.0
    C[i, j] = C[i, j] + A[i, k] * B[k, j]
    C.set_bounds({i: n, j: n})

    arch = intel_i7_5930k()
    result = optimize(C, arch)          # the paper's optimization flow
    print(result.describe())

    machine = Machine(arch)             # trace-driven platform simulator
    print(machine.time_funcs([(C, result.schedule)]), "ms")

The **stable, versioned** entry point is :mod:`repro.api`::

    from repro import OptimizeRequest, api
    result = api.optimize(OptimizeRequest(func=C, arch=arch))

It subsumes the five legacy keyword surfaces (``optimize``,
``optimize_temporal``, ``optimize_spatial``, ``safe_optimize``,
``optimize_pipeline``) behind one frozen request/result pair; see
docs/API.md's "Stable API" section.

Package map: :mod:`repro.ir` (the Halide-like DSL), :mod:`repro.arch`
(platforms), :mod:`repro.cachesim` + :mod:`repro.sim` (the simulated
hardware), :mod:`repro.core` (the paper's optimizer), :mod:`repro.baselines`
(comparison techniques), :mod:`repro.robust` (graceful degradation:
``safe_optimize`` with fallback chain, deadlines and fault injection),
:mod:`repro.obs` (observability: structured tracing of search, simulation
and sweeps behind a zero-overhead default), :mod:`repro.cache` (the
persistent cross-run schedule cache), :mod:`repro.bench` (Table 4's
benchmarks plus the ``python -m repro.bench`` perf harness) and
:mod:`repro.experiments` (one regenerator per table/figure).
"""

from repro import api
from repro.api import OptimizeOptions, OptimizeRequest, OptimizeResult
from repro.arch import ArchSpec, CacheSpec, platform_by_name
from repro.cache import ScheduleCache
from repro.core import (
    Classification,
    Locality,
    OptimizationResult,
    classify,
    optimize,
)
from repro.ir import (
    Buffer,
    Func,
    Pipeline,
    RVar,
    Schedule,
    Var,
    float32,
    float64,
    int32,
    lower,
    print_nest,
)
from repro.robust import (
    Diagnostics,
    FallbackPolicy,
    SafeResult,
    safe_optimize,
    safe_optimize_pipeline,
)
from repro.sim import Machine
from repro.util import (
    Deadline,
    DeadlineExceeded,
    ReproError,
    ValidationError,
)

__version__ = "2.0.0"

__all__ = [
    "api",
    "OptimizeOptions",
    "OptimizeRequest",
    "OptimizeResult",
    "ScheduleCache",
    "ArchSpec",
    "CacheSpec",
    "platform_by_name",
    "Classification",
    "Locality",
    "OptimizationResult",
    "classify",
    "optimize",
    "Buffer",
    "Func",
    "Pipeline",
    "RVar",
    "Schedule",
    "Var",
    "float32",
    "float64",
    "int32",
    "lower",
    "print_nest",
    "Machine",
    "Diagnostics",
    "FallbackPolicy",
    "SafeResult",
    "safe_optimize",
    "safe_optimize_pipeline",
    "Deadline",
    "DeadlineExceeded",
    "ReproError",
    "ValidationError",
    "__version__",
]
