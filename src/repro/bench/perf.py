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
  - ``warm`` — every schedule served by a
    :class:`repro.cache.ScheduleCache`, so no search runs: what every
    later run pays.

  One run times ``ROUNDS`` rounds, each one serial, one warm and one
  cold pass back to back.  It reports each scenario's median pass and
  each speedup as the median of the rounds' ratios.  A warm pass takes
  under a millisecond, and the speed of a shared machine can change
  between two passes timed seconds apart by more than the gate's
  tolerance; a ratio of adjacent passes shares the machine's state.

  The scenarios must produce **bit-identical schedules**; the harness
  verifies this and records it.  The CI gate fails when they differ,
  when a warm pass misses the schedule cache or runs a search, and when
  ``speedup_cold`` falls beyond a tolerance (machine-independent, where
  absolute milliseconds are not).  ``speedup_warm`` is
  ``serial_uncached_ms / warm_ms``: it grows with the cost of the
  search, not with how well the cache works, so it is informational.

Determinism note: timings use ``time.perf_counter`` and vary run to
run; the JSON therefore separates ``*_ms`` and ``speedup_warm``
(informational) from ``speedup_cold``, the warm-pass counts and the
``schedules_identical`` flag (gated).
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch import ArchSpec, intel_i7_5930k
from repro.bench.suite import benchmark_names, make_benchmark, size_for
from repro.cache import ScheduleCache
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
from repro.options import OptimizeOptions
from repro.util.gate import floor_failures, like_with_like

#: Schema tag of BENCH_search.json; bump on incompatible layout change.
BENCH_FORMAT = "repro-bench-search-v2"

#: Benchmarks whose optimization exercises each search phase.
_TEMPORAL_NAMES = ("matmul", "gemm", "syrk")
_SPATIAL_NAMES = ("tpm", "tp")

#: The fast (CI) subset: one benchmark per search family plus a
#: contiguous one, small problem sizes.
_FAST_NAMES = ("matmul", "syrk", "tpm", "copy")

#: Timed rounds of the end-to-end scenarios per run.
ROUNDS = 5


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
) -> Tuple[float, List[Dict], int]:
    """Time one full pass of ``optimize`` over every suite stage.

    Returns (elapsed_ms, serialized schedules in stage order, searches
    run) so the caller can verify cross-scenario schedule identity and
    that a warm pass searched nothing.
    """
    options = OptimizeOptions().cache_dict()
    schedules: List[Dict] = []
    searches = 0
    start = _now_ms()
    for _, case in cases:
        for stage in case.pipeline:
            schedule = None
            if cache is not None:
                schedule = cache.get(stage, arch, options)
            if schedule is None:
                schedule = optimize(stage, arch).schedule
                searches += 1
                if cache is not None:
                    cache.put(stage, arch, options, schedule)
            schedules.append(schedule_to_dict(schedule))
    return _now_ms() - start, schedules, searches


def run_bench(
    *,
    fast: bool = False,
    arch: Optional[ArchSpec] = None,
) -> Dict:
    """Measure everything; returns the BENCH_search.json payload."""
    arch = arch or intel_i7_5930k()
    cases = _suite_cases(fast)

    phases = _phase_timings(cases, arch, fast)

    # --- end-to-end scenarios (fresh emu memo per cold pass) ----------
    serial, cold, warm = [], [], []
    warm_hits = warm_misses = 0
    previous = configure_emu_cache(True)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cache = ScheduleCache(os.path.join(tmp, "schedules.jsonl"))
            # One pass fills the schedule cache the warm passes read.
            _optimize_suite(cases, arch, cache=cache)
            for _ in range(ROUNDS):
                configure_emu_cache(False)
                clear_emu_cache()
                serial.append(_optimize_suite(cases, arch, cache=None))
                # A warm pass is what a second run of the same sweep pays.
                configure_emu_cache(True)
                hits, misses = cache.stats.hits, cache.stats.misses
                warm.append(_optimize_suite(cases, arch, cache=cache))
                warm_hits += cache.stats.hits - hits
                warm_misses += cache.stats.misses - misses
                if len(warm) == 1:
                    warm_cache_stats = cache.stats.to_dict()
                clear_emu_cache()
                cold.append(_optimize_suite(cases, arch, cache=None))
        # The last cold pass's memo counters (every cold pass's are equal).
        emu_stats = emu_cache_stats()
    finally:
        configure_emu_cache(previous)
        clear_emu_cache()

    serial_ms, cold_ms, warm_ms = (
        statistics.median(ms for ms, _, _ in passes)
        for passes in (serial, cold, warm)
    )
    # Each speedup is the median of its rounds' ratios: a ratio of two
    # passes timed moments apart.
    speedup_cold, speedup_warm = (
        statistics.median(
            s / max(ms, 1e-9) for (s, _, _), (ms, _, _) in zip(serial, passes)
        )
        for passes in (cold, warm)
    )
    serial_schedules = serial[0][1]
    identical = all(
        schedules == serial_schedules
        for _, schedules, _ in serial + cold + warm
    )
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
            "speedup_cold": round(speedup_cold, 3),
            "speedup_warm": round(speedup_warm, 3),
            "schedules_identical": identical,
            "warm_passes": len(warm),
            "warm_hits": warm_hits,
            "warm_misses": warm_misses,
            "warm_searches": sum(searches for _, _, searches in warm),
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
GATED_RATIOS = ("speedup_cold",)

#: The warm-pass counts the CI gate requires of the current run alone.
WARM_COUNTS = ("warm_passes", "warm_hits", "warm_misses", "warm_searches")


def check_regression(
    current: Dict, baseline: Dict, *, tolerance: float = 0.2
) -> List[str]:
    """Compare a fresh run against the committed baseline.

    Returns a list of human-readable failures (empty = gate passes).
    Only machine-independent quantities are gated: schedule identity,
    a warm path served wholly from the schedule cache (every lookup of
    every warm pass a hit, no search), and ``speedup_cold`` (within
    ``tolerance``, one-sided).  Absolute milliseconds and
    ``speedup_warm`` are informational.
    """
    failures = like_with_like(current, baseline, ("mode",), "mode mismatch")
    if failures:
        return failures
    cur_e2e = current.get("end_to_end", {})
    base_e2e = baseline.get("end_to_end", {})
    if not cur_e2e.get("schedules_identical", False):
        failures.append(
            "schedules are not identical across serial/cold/cached "
            "scenarios — determinism regression"
        )
    counts = [cur_e2e.get(key) for key in WARM_COUNTS]
    if None in counts:
        failures.append("missing warm-pass counts in current")
    else:
        passes, hits, misses, searches = counts
        lookups = passes * cur_e2e.get("stages", 0)
        if not lookups or (hits, misses, searches) != (lookups, 0, 0):
            failures.append(
                f"warm passes not served from the schedule cache: "
                f"{hits} hits and {misses} misses in {lookups} lookups, "
                f"{searches} searches — schedule-cache regression"
            )
    for key in GATED_RATIOS:
        failures += floor_failures(
            key,
            cur_e2e.get(key),
            base_e2e.get(key),
            tolerance,
            unit="x",
            missing=f"ratio {key!r}",
        )
    return failures
