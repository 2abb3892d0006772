"""The paper's benchmark suite (Table 4) plus six extras, as spec rows.

:mod:`repro.bench.suite` holds one spec row per benchmark with its paper
and small sizes; :func:`make_benchmark` lowers a row into a fresh
:class:`BenchmarkCase` and :func:`size_for` gives its size keywords.

:mod:`repro.bench.perf` (CLI: ``python -m repro.bench``) times the
*search machinery itself* over this suite and gates CI against the
committed ``BENCH_search.json`` baseline; see docs/API.md
§ *Performance*.
"""

from repro.bench.suite import (
    BENCHMARKS,
    BenchmarkCase,
    benchmark_names,
    make_benchmark,
    size_for,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkCase",
    "benchmark_names",
    "make_benchmark",
    "size_for",
]
