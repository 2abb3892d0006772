"""Concurrency contract of the ``repro.api`` facade.

The facade documents itself as safe for concurrent callers: schedules
are pure functions of (func, arch, options), deadlines and tracers are
contextvar-scoped, and the emu memo is lock-guarded.  These tests hold
it to that — N threads running mixed temporal/spatial optimizations must
produce bit-identical serialized schedules to a sequential run.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.ir.serialize import schedule_to_dict
from repro.util import resolve_workers

from tests.helpers import make_matmul, make_transpose_mask


def _workload(arch):
    """(tag, request-factory) pairs; factories build fresh Funcs because
    Funcs are mutable and must never be shared across threads."""
    return [
        (
            "matmul-temporal",
            lambda: api.OptimizeRequest(
                arch=arch, func=make_matmul(48)[0], mode=api.MODE_TEMPORAL
            ),
        ),
        (
            "matmul-auto",
            lambda: api.OptimizeRequest(
                arch=arch, func=make_matmul(64)[0], mode=api.MODE_AUTO
            ),
        ),
        (
            "tpm-spatial",
            lambda: api.OptimizeRequest(
                arch=arch,
                func=make_transpose_mask(64)[0],
                mode=api.MODE_SPATIAL,
            ),
        ),
        (
            "tpm-auto",
            lambda: api.OptimizeRequest(
                arch=arch, func=make_transpose_mask(48)[0], mode=api.MODE_AUTO
            ),
        ),
    ]


def _serialize(result):
    """Canonical bytes for whatever the mode produced (schedule or the
    search decision), so bit-identity is comparable across runs."""
    if result.schedule is not None:
        return json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    search = result.temporal or result.spatial
    return json.dumps(
        {
            "tiles": search.tiles,
            "cost": search.cost,
            "inter": getattr(search, "inter_order", None),
            "intra": getattr(search, "intra_order", None),
            "parallel": search.parallel_var,
        },
        sort_keys=True,
    )


class TestConcurrentCallers:
    def test_threaded_matches_sequential_bit_for_bit(self, arch):
        workload = _workload(arch)
        sequential = {
            tag: _serialize(api.optimize(build())) for tag, build in workload
        }
        # Each workload item runs twice concurrently, interleaving
        # temporal and spatial searches across threads.
        tasks = [(tag, build) for tag, build in workload] * 2
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                (tag, pool.submit(lambda b=build: api.optimize(b())))
                for tag, build in tasks
            ]
            for tag, future in futures:
                assert _serialize(future.result(timeout=120)) == sequential[tag]

    def test_concurrent_callers_with_distinct_deadlines(self, arch):
        # Deadlines travel in contextvars: one caller's generous budget
        # must not leak into another thread (and vice versa).
        def run(deadline_ms):
            return api.optimize(
                api.OptimizeRequest(
                    arch=arch,
                    func=make_matmul(48)[0],
                    mode=api.MODE_AUTO,
                    deadline_ms=deadline_ms,
                )
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            generous = pool.submit(run, 60_000.0)
            unbounded = pool.submit(run, None)
            assert _serialize(generous.result(timeout=120)) == _serialize(
                unbounded.result(timeout=120)
            )


class TestJobsAuto:
    """The ``"auto"`` worker spelling lives on in ``resolve_workers``
    (server pool, sweep ``--jobs``); the facade no longer takes ``jobs``."""

    def test_resolve_jobs_auto_spelling(self):
        auto = resolve_workers("auto", name="jobs")
        assert resolve_workers(0, name="jobs") == auto
        assert resolve_workers(3, name="jobs") == 3
        for bad in ("many", -1, 1.5):
            with pytest.raises(ValueError, match="^jobs"):
                resolve_workers(bad, name="jobs")

    def test_default_jobs_tracks_cpu_count(self):
        cores = os.cpu_count() or 1
        assert resolve_workers("auto") == max(1, min(8, cores))

    def test_api_rejects_bad_jobs_spellings(self, arch):
        # Removed in 2.0: every spelling, good or bad, is a TypeError.
        for value in ("fast", -2, "auto", 1):
            with pytest.raises(TypeError, match="jobs"):
                api.OptimizeOptions(jobs=value)
        with pytest.raises(TypeError, match="jobs"):
            api.OptimizeRequest(
                arch=arch, func=make_matmul(48)[0], jobs="fast"
            )
