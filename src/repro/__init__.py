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

The names below are imported on first use, so ``import repro`` itself
loads no numpy and no optimizer (docs/API.md, "Importing repro").
"""

import os

# Nothing in the package calls BLAS, yet OpenBLAS starts a pool of
# worker threads when numpy loads.  One thread unless the caller chose
# otherwise; it takes effect only if numpy is not imported yet, and
# child processes (sweep and fleet workers) inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro._lazy import lazy_exports  # noqa: E402

__version__ = "3.0.0"

#: Each public name and the module it is imported from on first use
#: (PEP 562), so ``import repro.arch`` does not load the optimizer,
#: the simulator or the schedule cache.
_EXPORTS = {
    "api": "repro.api",
    "OptimizeOptions": "repro.api",
    "OptimizeRequest": "repro.api",
    "OptimizeResult": "repro.api",
    "ScheduleCache": "repro.cache",
    "ArchSpec": "repro.arch",
    "CacheSpec": "repro.arch",
    "platform_by_name": "repro.arch",
    "Classification": "repro.core",
    "Locality": "repro.core",
    "OptimizationResult": "repro.core",
    "classify": "repro.core",
    "optimize": "repro.core",
    "Buffer": "repro.ir",
    "Func": "repro.ir",
    "Pipeline": "repro.ir",
    "RVar": "repro.ir",
    "Schedule": "repro.ir",
    "Var": "repro.ir",
    "float32": "repro.ir",
    "float64": "repro.ir",
    "int32": "repro.ir",
    "lower": "repro.ir",
    "print_nest": "repro.ir",
    "Machine": "repro.sim",
    "Diagnostics": "repro.robust",
    "FallbackPolicy": "repro.robust",
    "SafeResult": "repro.robust",
    "safe_optimize": "repro.robust",
    "safe_optimize_pipeline": "repro.robust",
    "Deadline": "repro.util",
    "DeadlineExceeded": "repro.util",
    "ReproError": "repro.util",
    "ValidationError": "repro.util",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
