"""Performance measurement of the optimizer itself (``repro bench``).

The ROADMAP's north star is a system that is fast *as a program*, not
just one that finds fast schedules — so this module times the search
machinery on the Table 4 suite and writes the numbers to
``BENCH_search.json``, the committed baseline behind CI's
``bench-regression`` gate.

Two families of numbers:

* **Phase timings** — classify, raw ``emu`` (Algorithm 1), the temporal
  (Algorithm 2) and spatial (Algorithm 3) searches, each in
  milliseconds summed over the suite.  These trend the cost of the
  building blocks.
* **End-to-end scenarios** — the full ``optimize`` flow over every
  suite stage, three ways:

  - ``serial_uncached`` — emu memoization disabled, no schedule cache:
    the reference path, and the source of the reference schedules;
  - ``cold`` — caches start empty, emu memoization on: what a first run
    on a fresh machine pays;
  - ``warm`` — emu memo hot and every schedule served by a
    :class:`repro.cache.ScheduleCache`: what every later run pays.

  The scenarios must produce **bit-identical schedules**; the harness
  verifies this and records it, and the CI gate fails on regressions of
  the two speedup ratios beyond a tolerance (machine-independent, where
  absolute milliseconds are not).

Determinism note: timings use ``time.perf_counter`` and vary run to
run; the JSON therefore separates ``*_ms`` (informational) from the
``speedup_*`` ratios and the ``schedules_identical`` flag (gated).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch import ArchSpec, intel_i7_5930k
from repro.bench.suite import benchmark_names, make_benchmark, size_for
from repro.cache import ScheduleCache, optimize_options
from repro.core.classify import classify
from repro.core.emu import (
    EmuParams,
    clear_emu_cache,
    configure_emu_cache,
    emu,
    emu_cache_stats,
)
from repro.core.optimizer import optimize
from repro.ir.serialize import schedule_to_dict

#: Schema tag of BENCH_search.json; bump on incompatible layout change.
BENCH_FORMAT = "repro-bench-search-v2"

#: Benchmarks whose optimization exercises each search phase.
_TEMPORAL_NAMES = ("matmul", "gemm", "syrk")
_SPATIAL_NAMES = ("tpm", "tp")

#: The fast (CI) subset: one benchmark per search family plus a
#: contiguous one, small problem sizes.
_FAST_NAMES = ("matmul", "syrk", "tpm", "copy")


def _now_ms() -> float:
    return time.perf_counter() * 1000.0


def _suite_cases(fast: bool) -> List[Tuple[str, object]]:
    names = _FAST_NAMES if fast else benchmark_names()
    return [
        (name, make_benchmark(name, **size_for(name, small=fast)))
        for name in names
    ]


def _time_call(fn: Callable[[], object]) -> float:
    start = _now_ms()
    fn()
    return _now_ms() - start


def _phase_timings(cases, arch: ArchSpec, fast: bool) -> Dict[str, float]:
    """Per-phase milliseconds, summed over the suite (memo disabled so
    the numbers mean 'one honest evaluation', not 'one dict lookup')."""
    from repro.core.spatial import optimize_spatial
    from repro.core.temporal import optimize_temporal

    previous = configure_emu_cache(False)
    clear_emu_cache()
    try:
        classify_ms = 0.0
        for _, case in cases:
            for stage in case.pipeline:
                classify_ms += _time_call(lambda s=stage: classify(s))

        emu_ms = 0.0
        emu_calls = 0
        for level in (1, 2):
            for width in (8, 32, 128):
                for stride in (256, 1024, 2048):
                    params = EmuParams(
                        level=level,
                        row_width_elems=width,
                        row_stride_elems=stride,
                        max_rows=256 if fast else 2048,
                        dts=4,
                    )
                    emu_ms += _time_call(lambda p=params: emu(arch, p))
                    emu_calls += 1

        temporal_ms = 0.0
        spatial_ms = 0.0
        by_name = dict(cases)
        for name in _TEMPORAL_NAMES:
            if name not in by_name:
                continue
            for stage in by_name[name].pipeline:
                info = classify(stage)
                if info.locality.name != "TEMPORAL":
                    continue
                temporal_ms += _time_call(
                    lambda s=stage, i=info: optimize_temporal(s, arch, i.info)
                )
        for name in _SPATIAL_NAMES:
            if name not in by_name:
                continue
            for stage in by_name[name].pipeline:
                info = classify(stage)
                if info.locality.name != "SPATIAL":
                    continue
                spatial_ms += _time_call(
                    lambda s=stage, i=info: optimize_spatial(s, arch, i.info)
                )
    finally:
        configure_emu_cache(previous)
        clear_emu_cache()
    return {
        "classify_ms": round(classify_ms, 3),
        "emu_ms": round(emu_ms, 3),
        "emu_calls": emu_calls,
        "temporal_ms": round(temporal_ms, 3),
        "spatial_ms": round(spatial_ms, 3),
    }


def _optimize_suite(
    cases,
    arch: ArchSpec,
    *,
    cache: Optional[ScheduleCache],
) -> Tuple[float, List[Dict]]:
    """Time one full pass of ``optimize`` over every suite stage.

    Returns (elapsed_ms, serialized schedules in stage order) so the
    caller can verify cross-scenario schedule identity.
    """
    options = optimize_options()
    schedules: List[Dict] = []
    start = _now_ms()
    for _, case in cases:
        for stage in case.pipeline:
            schedule = None
            if cache is not None:
                schedule = cache.get(stage, arch, options)
            if schedule is None:
                schedule = optimize(stage, arch).schedule
                if cache is not None:
                    cache.put(stage, arch, options, schedule)
            schedules.append(schedule_to_dict(schedule))
    return _now_ms() - start, schedules


def run_bench(
    *,
    fast: bool = False,
    arch: Optional[ArchSpec] = None,
) -> Dict:
    """Measure everything; returns the BENCH_search.json payload."""
    arch = arch or intel_i7_5930k()
    cases = _suite_cases(fast)

    phases = _phase_timings(cases, arch, fast)

    # --- end-to-end scenarios (fresh caches per scenario) -------------
    previous = configure_emu_cache(False)
    clear_emu_cache()
    try:
        serial_ms, serial_schedules = _optimize_suite(
            cases, arch, cache=None
        )
    finally:
        configure_emu_cache(previous)

    configure_emu_cache(True)
    clear_emu_cache()
    cold_ms, cold_schedules = _optimize_suite(cases, arch, cache=None)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ScheduleCache(os.path.join(tmp, "schedules.jsonl"))
        # Populate: one pass fills the schedule cache and the emu memo...
        _optimize_suite(cases, arch, cache=cache)
        # ...and the warm pass is what a second run of the same sweep pays.
        warm_ms, warm_schedules = _optimize_suite(
            cases, arch, cache=cache
        )
        warm_cache_stats = cache.stats.to_dict()
    emu_stats = emu_cache_stats()
    clear_emu_cache()

    identical = serial_schedules == cold_schedules == warm_schedules
    payload = {
        "format": BENCH_FORMAT,
        "mode": "fast" if fast else "full",
        "arch": arch.name,
        "benchmarks": [name for name, _ in cases],
        "phases": phases,
        "end_to_end": {
            "stages": len(serial_schedules),
            "serial_uncached_ms": round(serial_ms, 3),
            "cold_ms": round(cold_ms, 3),
            "warm_ms": round(warm_ms, 3),
            "speedup_cold": round(serial_ms / max(cold_ms, 1e-9), 3),
            "speedup_warm": round(serial_ms / max(warm_ms, 1e-9), 3),
            "schedules_identical": identical,
        },
        "emu_cache": {
            "hits": emu_stats.hits,
            "misses": emu_stats.misses,
            "hit_rate": round(emu_stats.hit_rate, 4),
        },
        "schedule_cache": warm_cache_stats,
    }
    return payload


# ---------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------

#: The ratios the CI gate protects (regression-only: current may exceed
#: the baseline freely, it may not fall more than ``tolerance`` below).
GATED_RATIOS = ("speedup_cold", "speedup_warm")


def check_regression(
    current: Dict, baseline: Dict, *, tolerance: float = 0.2
) -> List[str]:
    """Compare a fresh run against the committed baseline.

    Returns a list of human-readable failures (empty = gate passes).
    Only machine-independent quantities are gated: the two speedup
    ratios (within ``tolerance``, one-sided) and schedule identity.
    Absolute milliseconds are informational.
    """
    failures: List[str] = []
    if current.get("format") != baseline.get("format"):
        failures.append(
            f"format mismatch: current={current.get('format')!r} "
            f"baseline={baseline.get('format')!r} (regenerate the baseline)"
        )
        return failures
    if current.get("mode") != baseline.get("mode"):
        failures.append(
            f"mode mismatch: current={current.get('mode')!r} "
            f"baseline={baseline.get('mode')!r} (compare like with like)"
        )
        return failures
    cur_e2e = current.get("end_to_end", {})
    base_e2e = baseline.get("end_to_end", {})
    if not cur_e2e.get("schedules_identical", False):
        failures.append(
            "schedules are not identical across serial/cold/cached "
            "scenarios — determinism regression"
        )
    for key in GATED_RATIOS:
        cur = cur_e2e.get(key)
        base = base_e2e.get(key)
        if cur is None or base is None:
            failures.append(f"missing ratio {key!r} in current or baseline")
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            failures.append(
                f"{key} regressed: {cur:.2f}x < {floor:.2f}x "
                f"(baseline {base:.2f}x - {tolerance:.0%} tolerance)"
            )
    return failures
