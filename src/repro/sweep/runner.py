"""The crash-safe sweep runner.

``SweepRunner.run(cells)`` drives a list of :class:`SweepCell` to
completion with the durability story a tens-of-minutes evaluation needs:

* **process isolation** — every attempt runs ``python -m
  repro.sweep.worker`` in a fresh subprocess; a crash or OOM kill costs
  one attempt, not the sweep;
* **timeouts** — each attempt gets a hard wall-clock bound (the worker
  also installs a slightly tighter cooperative
  :class:`~repro.util.Deadline` so it usually stops cleanly first);
* **retries** — failed attempts back off exponentially with
  deterministic jitter (seeded per cell+attempt, so reruns behave
  identically) before trying again;
* **quarantine** — a cell that exhausts its retries is journaled as
  ``quarantined`` (the poison list) and rendered as ``—`` downstream;
  the sweep itself keeps going;
* **journaling** — every outcome is durably appended to the
  :class:`~repro.sweep.journal.Journal` the moment it is known, so a
  SIGKILL of the driver never loses a completed cell, and a re-run
  resumes exactly where the last one died;
* **parallelism** — ``jobs > 1`` runs that many workers concurrently
  (cells are independent measurements).

Every cell carries a :class:`~repro.robust.Diagnostics` trail recording
each attempt and its failure; the trail is journaled with the record so
a post-mortem never depends on scrollback.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.core.exitcodes import EXIT_QUARANTINED
from repro.experiments.harness import mark_quarantined, seed_measure_cache
from repro.obs.events import (
    EVENT_CELL_ATTEMPT,
    EVENT_CELL_OK,
    EVENT_CELL_QUARANTINED,
    EVENT_CELL_RESUMED,
    EVENT_CELL_RETRY,
)
from repro.obs.tracer import NULL_TRACER
from repro.robust import Diagnostics, FaultPlan
from repro.robust.faults import SITE_SPAWN, WORKER_FAULT_ENV
from repro.sweep.cell import SweepCell
from repro.sweep.journal import (
    STATUS_OK,
    STATUS_QUARANTINED,
    Journal,
    JournalRecord,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for failed cells.

    ``max_attempts`` bounds total tries per cell; the delay before retry
    *k* (1-based) is ``backoff_s * multiplier**(k-1)``, scaled by a
    deterministic jitter factor in ``[1, 1+jitter]`` derived from the
    cell key — identical across reruns, uncorrelated across cells so
    parallel retries do not stampede in lockstep.
    """

    max_attempts: int = 3
    backoff_s: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0 or self.multiplier < 1 or self.jitter < 0:
            raise ValueError("backoff_s >= 0, multiplier >= 1, jitter >= 0")

    def delay_before(self, cell_key: str, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (2-based)."""
        base = self.backoff_s * self.multiplier ** (attempt - 2)
        rng = random.Random(f"{cell_key}#{attempt}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class CellOutcome:
    """What happened to one cell in this run."""

    cell: SweepCell
    status: str  # "ok" | "quarantined" | "resumed"
    ms: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None


@dataclass
class SweepReport:
    """Aggregate result of ``SweepRunner.run``."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    journal_diagnostics: List[str] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def completed(self) -> int:
        return self._count("ok")

    @property
    def resumed(self) -> int:
        return self._count("resumed")

    @property
    def quarantined(self) -> int:
        return self._count("quarantined")

    @property
    def retried(self) -> int:
        return sum(1 for o in self.outcomes if o.attempts > 1)

    def exit_code(self) -> int:
        return EXIT_QUARANTINED if self.quarantined else 0

    def summary(self) -> str:
        total = len(self.outcomes)
        parts = [
            f"sweep: {total} cells — {self.resumed} resumed from journal, "
            f"{self.completed} measured ({self.retried} after retries), "
            f"{self.quarantined} quarantined"
        ]
        for outcome in self.outcomes:
            if outcome.status == "quarantined":
                parts.append(
                    f"  quarantined {outcome.cell.key()} after "
                    f"{outcome.attempts} attempts: {outcome.error}"
                )
        parts.extend(f"  journal: {note}" for note in self.journal_diagnostics)
        return "\n".join(parts)


class SweepRunner:
    """Executes cells in isolated workers, journaling every outcome."""

    def __init__(
        self,
        journal: Journal,
        *,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        progress: Optional[TextIO] = None,
        tracer=None,
        schedule_cache: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.journal = journal
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan
        self.progress = progress
        #: Optional path of a shared repro.cache.ScheduleCache file; each
        #: worker consults it before searching and stores what it finds
        #: (appends are line-atomic, so concurrent workers can share it).
        self.schedule_cache = schedule_cache
        # Explicit, not ambient: worker threads (jobs > 1) do not inherit
        # the caller's context variables, so the cell-lifecycle events
        # would silently vanish with a contextvar-based default.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Diagnostics trail per cell key, populated during run().
        self.trails: Dict[str, Diagnostics] = {}

    # -- public API ----------------------------------------------------

    def run(self, cells: Sequence[SweepCell]) -> SweepReport:
        """Bring every cell to a journaled outcome; never raises per-cell."""
        report = SweepReport()
        journaled = self.journal.load()
        report.journal_diagnostics = list(self.journal.load_diagnostics)
        for note in report.journal_diagnostics:
            self._log(note)

        pending: List[SweepCell] = []
        seen: set = set()
        for cell in cells:
            key = cell.key()
            if key in seen:
                continue
            seen.add(key)
            record = journaled.get(key)
            if record is not None and record.status == STATUS_OK:
                if self.tracer.enabled:
                    self.tracer.count("sweep.cells.resumed")
                    self.tracer.event(
                        EVENT_CELL_RESUMED, cell=key, ms=record.ms
                    )
                report.outcomes.append(
                    CellOutcome(cell, "resumed", ms=record.ms)
                )
            elif record is not None and record.status == STATUS_QUARANTINED:
                report.outcomes.append(
                    CellOutcome(
                        cell,
                        "quarantined",
                        attempts=record.attempts,
                        error=record.error,
                    )
                )
            else:
                pending.append(cell)

        if pending:
            self._log(
                f"sweep: {len(pending)} cells to measure "
                f"({len(seen) - len(pending)} already journaled), "
                f"jobs={self.jobs}"
            )
            with self.tracer.span(
                "sweep.run", pending=len(pending), jobs=self.jobs
            ):
                if self.jobs == 1:
                    outcomes = [self._run_cell(c) for c in pending]
                else:
                    with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                        outcomes = list(pool.map(self._run_cell, pending))
            report.outcomes.extend(outcomes)

        self.install(journal_records=self.journal.load())
        return report

    def install(
        self, journal_records: Optional[Dict[str, JournalRecord]] = None
    ) -> Tuple[int, int]:
        """Seed the in-process measurement memo from the journal.

        Completed cells become cache entries (the journal acting as the
        persistent ``_MEASURE_CACHE``); quarantined cells go on the
        harness poison list so the regenerators render ``—`` instead of
        re-running a known-bad measurement.  Returns ``(ok, quarantined)``
        counts.
        """
        records = (
            journal_records
            if journal_records is not None
            else self.journal.load()
        )
        ok_entries = {
            r.cell.memo_key(): r.ms
            for r in records.values()
            if r.status == STATUS_OK and r.ms is not None
        }
        bad_keys = [
            r.cell.memo_key()
            for r in records.values()
            if r.status == STATUS_QUARANTINED
        ]
        seed_measure_cache(ok_entries)
        mark_quarantined(bad_keys)
        return len(ok_entries), len(bad_keys)

    # -- one cell ------------------------------------------------------

    def _run_cell(self, cell: SweepCell) -> CellOutcome:
        key = cell.key()
        trail = Diagnostics()
        self.trails[key] = trail
        traced = self.tracer.enabled
        last_error = "unknown failure"
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                delay = self.retry.delay_before(key, attempt)
                trail.info(
                    "retry", f"attempt {attempt} after {delay:.2f}s backoff"
                )
                if traced:
                    self.tracer.count("sweep.retries")
                    self.tracer.event(
                        EVENT_CELL_RETRY,
                        cell=key,
                        attempt=attempt,
                        backoff_s=round(delay, 4),
                        error=last_error,
                    )
                time.sleep(delay)
            if traced:
                self.tracer.count("sweep.attempts")
                self.tracer.event(EVENT_CELL_ATTEMPT, cell=key, attempt=attempt)
            started = time.perf_counter()
            ok, payload, error = self._attempt(cell)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if ok:
                ms = float(payload["ms"])
                trail.info(
                    "worker",
                    f"measured {ms:.4f} ms (attempt {attempt})",
                    elapsed_ms=elapsed_ms,
                )
                self.journal.append(
                    JournalRecord(
                        cell=cell,
                        status=STATUS_OK,
                        ms=ms,
                        attempts=attempt,
                        trail=[r.describe() for r in trail],
                        schedules=payload.get("schedules"),
                    )
                )
                if traced:
                    self.tracer.count("sweep.cells.ok")
                    self.tracer.event(
                        EVENT_CELL_OK,
                        cell=key,
                        ms=ms,
                        attempt=attempt,
                        elapsed_ms=round(elapsed_ms, 3),
                    )
                self._log(f"  ok         {key} ({ms:.2f} ms)")
                return CellOutcome(cell, "ok", ms=ms, attempts=attempt)
            last_error = error or "unknown failure"
            trail.error(
                "worker",
                f"attempt {attempt} failed: {last_error}",
                elapsed_ms=elapsed_ms,
            )
            self._log(f"  attempt {attempt} failed for {key}: {last_error}")
        self.journal.append(
            JournalRecord(
                cell=cell,
                status=STATUS_QUARANTINED,
                attempts=self.retry.max_attempts,
                error=last_error,
                trail=[r.describe() for r in trail],
            )
        )
        if traced:
            self.tracer.count("sweep.cells.quarantined")
            self.tracer.event(
                EVENT_CELL_QUARANTINED,
                cell=key,
                attempts=self.retry.max_attempts,
                error=last_error,
            )
        self._log(
            f"  quarantine {key} after {self.retry.max_attempts} attempts"
        )
        return CellOutcome(
            cell,
            "quarantined",
            attempts=self.retry.max_attempts,
            error=last_error,
        )

    def _attempt(
        self, cell: SweepCell
    ) -> Tuple[bool, Optional[dict], Optional[str]]:
        """One isolated worker execution: (ok, payload, error)."""
        envelope = json.dumps(
            {
                "cell": cell.to_dict(),
                # Leave the worker ~10% headroom to stop cooperatively
                # before the hard kill below.
                "deadline_s": (
                    self.timeout_s * 0.9 if self.timeout_s else None
                ),
                "schedule_cache": self.schedule_cache,
            }
        )
        env = dict(os.environ)
        # The worker must resolve `repro` exactly as this process does,
        # even when run from a different working directory.
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else os.pathsep.join([src_dir, existing])
        )
        if self.fault_plan is not None:
            spec = self.fault_plan.next(SITE_SPAWN)
            if spec is not None:
                env[WORKER_FAULT_ENV] = spec.env()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.sweep.worker"],
                input=envelope,
                capture_output=True,
                text=True,
                env=env,
                timeout=self.timeout_s,
            )
        except subprocess.TimeoutExpired:
            return False, None, f"timeout after {self.timeout_s}s (killed)"
        except OSError as exc:
            return False, None, f"failed to spawn worker: {exc}"
        if proc.returncode not in (0, 1):
            return (
                False,
                None,
                f"worker crashed with exit code {proc.returncode}",
            )
        try:
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            return False, None, "worker produced corrupt/empty output"
        if not isinstance(payload, dict) or "ok" not in payload:
            return False, None, "worker produced a malformed result object"
        if payload["ok"]:
            return True, payload, None
        return (
            False,
            None,
            f"{payload.get('error', 'Error')}: "
            f"{payload.get('message', 'worker reported failure')}",
        )

    # -- logging -------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.progress is not None:
            print(message, file=self.progress, flush=True)
