"""The chaos engine: drive a live fleet through a scripted fault plan.

``run_scenario`` is the one entry point.  For a given ``(scenario,
seed)`` it:

1. builds the deterministic :class:`repro.chaos.plan.ChaosPlan`;
2. computes *reference answers* for every planned identity on a
   standalone :class:`repro.serve.OptimizeServer` (no fleet, no faults)
   — the ground truth the chaos run must match bit-for-bit;
3. boots a real :class:`repro.fleet.testing.FleetThread` (worker
   subprocesses, supervisor probe gate, router with circuit breakers)
   tuned for fast failure detection;
4. fires the planned requests through blocking
   :class:`repro.serve.ServeClient` instances on a small thread pool
   while a controller thread injects the scripted faults — each fault
   triggers on *completed-request count*, not wall time, so the same
   fault lands at the same logical point on any machine;
5. snapshots the router's metrics and ``/fleet/status``; and
6. evaluates the global invariants
   (:func:`repro.chaos.invariants.evaluate_invariants`) and returns a
   :class:`ChaosResult` whose ``report`` is bit-reproducible for the
   same seed.

Faults injected here are real operating-system faults against real
processes — SIGKILL, SIGSTOP, appended garbage bytes in cache files, a
rolling restart racing the load — not mocks, which is the point: the
invariants hold because the serving stack's own failover, breaker,
deadline, and self-healing machinery handles them.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache import shard_cache_path
from repro.chaos.invariants import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SHED,
    Invariant,
    build_report,
    evaluate_invariants,
)
from repro.chaos.plan import (
    ACTION_CORRUPT_CACHE,
    ACTION_KILL,
    ACTION_ROLL,
    ACTION_SUSPEND,
    ChaosPlan,
    build_plan,
    get_scenario,
)
from repro.obs.events import EVENT_CHAOS_FAULT
from repro.obs.tracer import NULL_TRACER
from repro.serve.client import ServeClient
from repro.util.errors import ServeError, ServeOverloaded

__all__ = ["ChaosResult", "run_scenario"]

#: Garbage appended to each shard store by the corrupt-cache action:
#: one line of non-JSON noise, one checksum-mismatched record and one
#: line that is not UTF-8.
_CORRUPT_LINES = (
    b"@@@ chaos: not json at all @@@\n"
    b'{"k": "chaos-bad-checksum", "v": {"schedule": []}, "sum": "feedface"}\n'
    b"\xff\xfe chaos: not UTF-8 \xc0\n"
)


@dataclass
class ChaosResult:
    """Everything one chaos run produced.

    ``report`` is the deterministic part (bit-identical across runs of
    the same seed); ``observations`` holds the timing-flavored rest —
    counters, shed tallies, per-shard states — for humans and logs.
    """

    plan: ChaosPlan
    ok: bool
    report: Dict
    invariants: List[Invariant] = field(default_factory=list)
    observations: Dict = field(default_factory=dict)


class _Controller:
    """Fires the plan's actions as the completed-request count crosses
    each action's ``after_responses`` threshold."""

    def __init__(self, plan, supervisor, cache_path, tracer):
        self.plan = plan
        self.supervisor = supervisor
        self.cache_path = cache_path
        self.tracer = tracer
        self.completed = 0
        self.fired: List[Dict] = []
        self.suspended: List[int] = []
        self._cv = threading.Condition()
        self._done = False
        self._roll_threads: List[threading.Thread] = []
        self._thread = threading.Thread(
            target=self._run, name="repro-chaos-controller", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def note_completed(self) -> None:
        with self._cv:
            self.completed += 1
            self._cv.notify_all()

    def finish(self, timeout_s: float = 30.0) -> None:
        with self._cv:
            self._done = True
            self._cv.notify_all()
        self._thread.join(timeout=timeout_s)
        for thread in self._roll_threads:
            thread.join(timeout=timeout_s)
        for shard in self.suspended:
            try:
                self.supervisor.resume_worker(shard)
            except Exception:
                pass  # already reclaimed by the probe gate

    def _run(self) -> None:
        for action in sorted(self.plan.actions, key=lambda a: a.after_responses):
            with self._cv:
                while self.completed < action.after_responses and not self._done:
                    self._cv.wait(timeout=0.05)
                if self._done and self.completed < action.after_responses:
                    return
            if action.delay_s:
                time.sleep(action.delay_s)
            self._fire(action)

    def _fire(self, action) -> None:
        if action.kind == ACTION_KILL:
            self.supervisor.kill_worker(action.shard)
        elif action.kind == ACTION_SUSPEND:
            self.supervisor.suspend_worker(action.shard)
            self.suspended.append(action.shard)
        elif action.kind == ACTION_ROLL:
            thread = threading.Thread(
                target=self._roll, name="repro-chaos-roll", daemon=True
            )
            thread.start()
            self._roll_threads.append(thread)
        elif action.kind == ACTION_CORRUPT_CACHE:
            self._corrupt_caches()
        self.fired.append({"kind": action.kind, "shard": action.shard})
        self.tracer.event(
            EVENT_CHAOS_FAULT,
            kind=action.kind,
            shard=action.shard,
            after_responses=action.after_responses,
        )

    def _roll(self) -> None:
        try:
            self.supervisor.rolling_restart(drain_timeout_s=30.0)
        except RuntimeError:
            # A chaos kill landed on the shard mid-roll; the probe
            # gate's restart path owns recovery from here.
            pass

    def _corrupt_caches(self) -> None:
        for shard in range(self.plan.scenario.workers):
            path = shard_cache_path(self.cache_path, shard)
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, _CORRUPT_LINES)
                os.fsync(fd)
            finally:
                os.close(fd)


def _canonical(result: Dict) -> str:
    """The bit-compare key: the schedules document, canonically dumped."""
    return json.dumps(result.get("schedules"), sort_keys=True)


def _reference_answers(plan: ChaosPlan, work_dir: str) -> Dict[str, str]:
    """Ground truth from a standalone, fault-free server."""
    from repro.serve.testing import ServerThread

    reference: Dict[str, str] = {}
    cache = os.path.join(work_dir, "reference-cache.jsonl")
    with ServerThread(queue_limit=64, cache_path=cache) as server:
        client = ServeClient(port=server.port, timeout_s=120.0, retries=2)
        for identity in plan.identities:
            result = client.optimize(
                identity.benchmark, identity.platform, fast=identity.fast
            )
            reference[identity.identity] = _canonical(result)
    return reference


def _fire_request(planned, port, plan, controller) -> Dict:
    """One planned request through its own client; never raises."""
    scenario = plan.scenario
    client = ServeClient(
        port=port,
        timeout_s=60.0,
        retries=scenario.client_retries,
        backoff_base_s=0.05,
        backoff_cap_s=0.5,
        backoff_seed=plan.seed * 1000 + planned.index,
    )
    outcome: Dict = {"index": planned.index, "identity": planned.identity}
    try:
        result = client.optimize(
            planned.benchmark,
            planned.platform,
            fast=planned.fast,
            deadline_ms=scenario.deadline_ms,
        )
        outcome.update(
            status=OUTCOME_OK,
            schedules=_canonical(result),
            served_by=result.get("served_by"),
            shard=result.get("shard"),
        )
    except ServeOverloaded as exc:
        outcome.update(
            status=OUTCOME_SHED,
            retry_after_s=exc.retry_after_s,
            reason=exc.reason,
            error=str(exc),
        )
    except (ServeError, ConnectionError, OSError) as exc:
        outcome.update(status=OUTCOME_FAILED, error=f"{type(exc).__name__}: {exc}")
    finally:
        controller.note_completed()
    return outcome


def run_scenario(
    name: str,
    *,
    seed: int,
    requests: Optional[int] = None,
    work_dir: Optional[str] = None,
    tracer=None,
) -> ChaosResult:
    """Run one seeded scenario end to end and judge its invariants."""
    from repro.fleet.testing import FleetThread

    tracer = tracer if tracer is not None else NULL_TRACER
    plan = build_plan(get_scenario(name), seed, requests=requests)
    scenario = plan.scenario
    if work_dir is None:
        work_dir = tempfile.mkdtemp(prefix=f"repro-chaos-{name}-")
    os.makedirs(work_dir, exist_ok=True)

    if scenario.tune is not None:
        return _run_tune_scenario(plan, work_dir, tracer)

    reference = _reference_answers(plan, work_dir)

    cache_path = (
        os.path.join(work_dir, "fleet-cache.jsonl") if scenario.use_cache
        else None
    )
    fleet = FleetThread(
        workers=scenario.workers,
        cache_path=cache_path,
        queue_limit=scenario.queue_limit,
        probe_interval_s=0.15,
        probe_timeout_s=1.0,
        down_after=2,
        restart_backoff_base_s=0.05,
        restart_backoff_cap_s=0.5,
        flap_threshold=100,  # chaos kills are intentional, not flapping
        worker_env=plan.worker_env,
        tracer=tracer,
        router_kwargs={
            "forward_timeout_s": 60.0,
            "breaker_open_for_s": 0.5,
            "tracer": tracer,
        },
    )
    controller = _Controller(plan, fleet.supervisor, cache_path, tracer)
    outcomes: List[Dict] = []
    with fleet:
        controller.start()
        try:
            with ThreadPoolExecutor(
                max_workers=scenario.client_concurrency,
                thread_name_prefix="repro-chaos-client",
            ) as pool:
                futures = [
                    pool.submit(
                        _fire_request, planned, fleet.port, plan, controller
                    )
                    for planned in plan.requests
                ]
                outcomes = [future.result() for future in futures]
        finally:
            controller.finish()
        admin = ServeClient(port=fleet.port, timeout_s=30.0, retries=2)
        counters = admin.metrics().get("counters", {})
        status_code, status = admin.get("/fleet/status")
        if status_code != 200:
            status = None

    outcomes.sort(key=lambda outcome: outcome["index"])
    invariants = evaluate_invariants(
        plan,
        outcomes,
        reference=reference,
        counters=counters,
        status=status,
        cache_path=cache_path,
    )
    report = build_report(plan, invariants)
    observations = {
        "work_dir": work_dir,
        "counters": counters,
        "outcomes": {
            state: sum(1 for o in outcomes if o["status"] == state)
            for state in (OUTCOME_OK, OUTCOME_SHED, OUTCOME_FAILED)
        },
        "failover_served": sum(
            1 for o in outcomes if o.get("served_by") == "failover"
        ),
        "faults_fired": controller.fired,
        "workers": [
            {k: w.get(k) for k in ("shard", "state", "restarts", "breaker")}
            for w in (status or {}).get("workers", [])
        ],
    }
    return ChaosResult(
        plan=plan,
        ok=report["ok"],
        report=report,
        invariants=invariants,
        observations=observations,
    )


def _run_tune_scenario(plan: ChaosPlan, work_dir: str, tracer) -> ChaosResult:
    """A scenario whose load is one journaled tune grid, not a request
    mix: faults fire on settled-cell counts, and after the faulted run
    a second pass resumes from the same journal — the report must fold
    to the same bytes (the tune layer's crash contract, under real
    SIGKILLs instead of a clean restart)."""
    from repro.cache import check_shard_caches
    from repro.fleet.testing import FleetThread
    from repro.sweep import Journal
    from repro.tune import (
        CELL_QUARANTINED,
        CELL_RESUMED,
        build_tune_request,
        plan_tune_cells,
    )
    from repro.tune import tune_id as tune_identity
    from repro.tune.runner import TuneRunner

    scenario = plan.scenario
    spec = dict(scenario.tune)
    request = build_tune_request(
        kernels=spec.get("kernels"),
        families=spec.get("families"),
        platforms=spec.get("platforms", ("i7-5930k",)),
        grid=spec.get("grid"),
        fast=spec.get("fast", True),
    )
    cells = plan_tune_cells(request)
    job_id = tune_identity(request)
    journal = Journal(os.path.join(work_dir, "tune-journal.jsonl"))
    cache_path = (
        os.path.join(work_dir, "fleet-cache.jsonl") if scenario.use_cache
        else None
    )
    fleet = FleetThread(
        workers=scenario.workers,
        cache_path=cache_path,
        queue_limit=scenario.queue_limit,
        probe_interval_s=0.15,
        probe_timeout_s=1.0,
        down_after=2,
        restart_backoff_base_s=0.05,
        restart_backoff_cap_s=0.5,
        flap_threshold=100,
        worker_env=plan.worker_env,
        tracer=tracer,
        router_kwargs={
            "forward_timeout_s": 60.0,
            "breaker_open_for_s": 0.5,
            "tracer": tracer,
        },
    )
    controller = _Controller(plan, fleet.supervisor, cache_path, tracer)
    with fleet:
        controller.start()
        try:
            runner = TuneRunner(
                journal,
                port=fleet.port,
                jobs=2,
                timeout_s=60.0,
                client_retries=scenario.client_retries,
                tracer=tracer,
            )
            report = runner.run(
                cells,
                tune_id=job_id,
                on_record=lambda _record: controller.note_completed(),
            )
            resumed = TuneRunner(
                journal, port=fleet.port, jobs=1, timeout_s=60.0,
                tracer=tracer,
            ).run(cells, tune_id=job_id)
        finally:
            controller.finish()
        admin = ServeClient(port=fleet.port, timeout_s=30.0, retries=2)
        counters = admin.metrics().get("counters", {})
        status_code, status = admin.get("/fleet/status")
        if status_code != 200:
            status = None

    document = report.document()
    resumed_document = resumed.document()
    invariants = []

    quarantined = sorted(o.cell.key() for o in report.quarantined)
    invariants.append(Invariant(
        "tune_all_cells_ok",
        not quarantined,
        "every tune cell settled ok despite the faults" if not quarantined
        else f"quarantined cells: {quarantined}",
    ))
    invariants.append(Invariant(
        "tune_cells_complete",
        len(report.outcomes) == len(cells),
        "every planned cell produced exactly one outcome"
        if len(report.outcomes) == len(cells)
        else f"{len(report.outcomes)} outcomes for {len(cells)} cells",
    ))
    not_resumed = sorted(
        o.cell.key() for o in resumed.outcomes
        if o.status not in (CELL_RESUMED, CELL_QUARANTINED)
    )
    identical = json.dumps(document, sort_keys=True) == json.dumps(
        resumed_document, sort_keys=True
    )
    invariants.append(Invariant(
        "tune_resume_identical",
        identical and not not_resumed,
        "the journal resume replayed every cell and reproduced the "
        "report bit-for-bit"
        if identical and not not_resumed
        else (
            f"cells re-run instead of resumed: {not_resumed}; "
            f"reports identical: {identical}"
        ),
    ))
    if cache_path is not None:
        cache_report = check_shard_caches(
            cache_path, list(range(scenario.workers))
        )
        corrupt = sum(
            shard.get("corrupt_lines", 0)
            for shard in cache_report.get("shards", {}).values()
        )
        cache_ok = bool(cache_report.get("consistent")) and corrupt == 0
        invariants.append(Invariant(
            "tune_cache_consistent",
            cache_ok,
            "shard schedule caches are mutually consistent and clean"
            if cache_ok
            else (
                f"mismatched keys: {cache_report.get('mismatched_keys')}; "
                f"corrupt lines: {corrupt}"
            ),
        ))

    chaos_report = build_report(plan, invariants)
    chaos_report["tune"] = {"tune_id": job_id, "cells": len(cells)}
    observations = {
        "work_dir": work_dir,
        "counters": counters,
        "outcomes": {
            "ok": sum(
                1 for o in report.outcomes if o.status != CELL_QUARANTINED
            ),
            "failed": len(report.quarantined),
        },
        "failover_served": counters.get("failover", 0),
        "faults_fired": controller.fired,
        "tune_report": document,
        "workers": [
            {k: w.get(k) for k in ("shard", "state", "restarts", "breaker")}
            for w in (status or {}).get("workers", [])
        ],
    }
    return ChaosResult(
        plan=plan,
        ok=chaos_report["ok"],
        report=chaos_report,
        invariants=invariants,
        observations=observations,
    )
