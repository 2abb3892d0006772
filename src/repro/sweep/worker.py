"""Isolated measurement worker: ``python -m repro.sweep.worker``.

The sweep runner executes every cell in a fresh subprocess running this
module, so a crash (segfault, OOM kill, interpreter abort) costs one
cell, never the sweep.  Protocol, designed to stay debuggable by hand:

* stdin — one JSON envelope ``{"cell": {...}, "deadline_s": <float?>,
  "schedule_cache": "<path?>"}`` (the optional path names a shared
  :class:`repro.cache.ScheduleCache` file consulted/updated for the
  ``proposed``/``proposed_nti`` techniques — appends are line-atomic, so
  concurrent workers may share it);
* stdout — one JSON line, either
  ``{"ok": true, "ms": <float>, "elapsed_s": <float>,
  "schedules": [...]}`` (the chosen schedules serialized with
  :func:`repro.ir.serialize.schedule_to_dict`, journaled for replay) or
  ``{"ok": false, "error": "<type>", "message": "<str>"}``;
* exit code — 0 for a measured cell, 1 for a structured failure;
  anything else (or unparsable stdout) is treated as a crash by the
  parent.

``deadline_s`` installs a cooperative :class:`~repro.util.Deadline`
around the measurement, slightly tighter than the parent's hard
timeout, so slow searches stop at a checkpoint with a clean
``DeadlineExceeded`` instead of being SIGKILLed mid-write.

Fault injection (test-only): the ``REPRO_WORKER_FAULT`` environment
variable — armed per spawn by the runner's :class:`repro.robust.FaultPlan`
and read with :meth:`repro.robust.FaultSpec.from_env` — makes the worker
die (``kill``), stall (``hang:<seconds>``), or emit garbage output
(``corrupt``) so the runner's retry/quarantine paths can be exercised
deterministically.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

from repro.arch import platform_by_name
from repro.experiments.harness import modeled_optimize_seconds, schedules_for
from repro.ir.serialize import schedule_to_dict
from repro.robust.faults import (
    KIND_HANG,
    KIND_KILL,
    WORKER_FAULT_ENV,
    FaultSpec,
)
from repro.sweep.cell import KIND_OPTIMIZE_RUNTIME, SweepCell
from repro.util import Deadline
from repro.util.deadline import active_deadline


def _apply_injected_fault() -> None:
    """Honor REPRO_WORKER_FAULT before doing any real work."""
    try:
        spec = FaultSpec.from_env(WORKER_FAULT_ENV)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if spec is None:
        return
    if spec.kind == KIND_KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.kind == KIND_HANG:
        time.sleep(spec.seconds)
    else:  # KIND_CORRUPT
        sys.stdout.write("\x00corrupt-worker-output-not-json\n")
        sys.stdout.flush()
        raise SystemExit(0)


def run_cell(payload: dict) -> dict:
    """Measure one cell; returns the result envelope (never raises)."""
    cell = SweepCell.from_dict(payload["cell"])
    deadline_s = payload.get("deadline_s")
    cache_path = payload.get("schedule_cache")
    schedule_cache = None
    if cache_path:
        from repro.cache import ScheduleCache

        schedule_cache = ScheduleCache(cache_path)
    config = cell.config()
    started = time.perf_counter()
    schedules = None
    try:
        arch = platform_by_name(cell.platform)
        case = config.case(cell.benchmark, dict(cell.size_overrides))
        deadline = Deadline(deadline_s, label=f"sweep:{cell.key()}")
        with active_deadline(deadline):
            if cell.kind == KIND_OPTIMIZE_RUNTIME:
                value = modeled_optimize_seconds(case, arch)
            else:
                schedules = schedules_for(
                    case,
                    cell.technique,
                    arch,
                    config=config,
                    autotune_evals=cell.autotune_evals,
                    cache=schedule_cache,
                    options=cell.options,
                )
                machine = config.machine(arch)
                value = machine.time_pipeline(case.pipeline, schedules)
    except BaseException as exc:  # noqa: BLE001 — report, don't crash
        return {
            "ok": False,
            "error": type(exc).__name__,
            "message": str(exc) or type(exc).__name__,
            "elapsed_s": time.perf_counter() - started,
        }
    return {
        "ok": True,
        "ms": value,
        "elapsed_s": time.perf_counter() - started,
        "schedules": (
            None
            if schedules is None
            else [
                schedule_to_dict(schedules[stage]) for stage in case.pipeline
            ]
        ),
    }


def main() -> int:
    _apply_injected_fault()
    try:
        payload = json.loads(sys.stdin.read())
    except json.JSONDecodeError as exc:
        print(
            json.dumps(
                {"ok": False, "error": "ProtocolError", "message": str(exc)}
            )
        )
        return 1
    result = run_cell(payload)
    print(json.dumps(result))
    return 0 if result.get("ok") else 1


if __name__ == "__main__":
    raise SystemExit(main())
