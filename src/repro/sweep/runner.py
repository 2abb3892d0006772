"""The crash-safe cell runner shared by sweeps and tunes.

:class:`CellRunner` brings a list of :class:`SweepCell` to journaled
outcomes with the durability story a tens-of-minutes evaluation needs;
:class:`SweepRunner` (one ``python -m repro.sweep.worker`` subprocess
per attempt) and :class:`repro.tune.TuneRunner` (one ``/v1/optimize``
through the fleet per attempt) supply only the attempt itself:

* **resume** — duplicate cells run once; a cell the journal already
  holds as ``ok`` or ``quarantined`` settles from its record and is
  never attempted again;
* **retries** — any exception from an attempt is a failed attempt;
  failed attempts back off exponentially with deterministic jitter
  (seeded per cell+attempt, so reruns behave identically) before trying
  again;
* **quarantine** — a cell that exhausts its retries is journaled as
  ``quarantined`` (the poison list) and rendered as ``—`` downstream;
  the run itself keeps going;
* **journaling** — every outcome is durably appended to the
  :class:`~repro.sweep.journal.Journal` the moment it is known, so a
  SIGKILL of the driver never loses a completed cell, and a re-run
  resumes exactly where the last one died;
* **parallelism** — ``jobs > 1`` runs that many cells concurrently
  (cells are independent measurements); outcomes still settle in one
  order: resumed cells first, then live cells in input order.

The sweep's attempts add **process isolation** (a crash or OOM kill
costs one attempt, not the sweep) and **timeouts** (a hard wall-clock
bound per attempt; the worker also installs a slightly tighter
cooperative :class:`~repro.util.Deadline` so it usually stops cleanly
first).

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
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.core.exitcodes import EXIT_QUARANTINED
from repro.experiments.harness import mark_quarantined, seed_measure_cache
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


class AttemptFailed(Exception):
    """A failed attempt whose message is already its journaled error."""


def _error_text(exc: Exception) -> str:
    if isinstance(exc, AttemptFailed):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _failure_text(exc: Exception) -> str:
    """A failed attempt's trail entry: its error, and for an exception
    other than :class:`AttemptFailed` (a bug, not a reported failure) the
    innermost frame of its traceback, ``file:line in function``."""
    frames = traceback.extract_tb(exc.__traceback__)
    if isinstance(exc, AttemptFailed) or not frames:
        return _error_text(exc)
    frame = frames[-1]
    return (
        f"{_error_text(exc)} ({frame.filename}:{frame.lineno} in "
        f"{frame.name})"
    )


#: Counter bumped with each ``<namespace>.cell.<what>`` event.
_COUNTERS = {
    "resumed": "cells.resumed",
    "attempt": "attempts",
    "retry": "retries",
    "ok": "cells.ok",
    "quarantined": "cells.quarantined",
}


@dataclass
class CellOutcome:
    """What happened to one cell in this run."""

    cell: SweepCell
    status: str  # "ok" | "quarantined" | "resumed"
    ms: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    schedules: Optional[List[Dict]] = None


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
        return sum(
            1 for o in self.outcomes
            if o.status != "resumed" and o.attempts > 1
        )

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


class CellRunner:
    """The journaled cell lifecycle, written once for every runner.

    Subclasses set :attr:`namespace` and implement :meth:`_attempt`
    (return ``(ms, schedules)`` or raise); :meth:`_journal_trail` picks
    the journaled wording of a cell's trail.
    """

    #: Prefix of the progress line, trace events and counters.
    namespace: str

    def __init__(
        self,
        journal: Journal,
        *,
        jobs: int,
        retry: Optional[RetryPolicy],
        progress: Optional[TextIO],
        tracer,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.journal = journal
        self.jobs = jobs
        self.retry = retry or RetryPolicy()
        self.progress = progress
        # Explicit, not ambient: worker threads (jobs > 1) do not inherit
        # the caller's context variables, so the cell-lifecycle events
        # would silently vanish with a contextvar-based default.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sleeper = sleeper
        #: Diagnostics trail per cell key, populated during run().
        self.trails: Dict[str, Diagnostics] = {}
        self._lock = threading.Lock()

    def _attempt(
        self, cell: SweepCell, attempt: int
    ) -> Tuple[float, Optional[List[Dict]]]:
        """One try at a cell: ``(ms, schedules)``, or raise."""
        raise NotImplementedError

    def _journal_trail(
        self, trail: Diagnostics, errors: List[str]
    ) -> List[str]:
        """The trail journaled with a cell: every diagnostics record."""
        return [record.describe() for record in trail]

    # -- the run loop --------------------------------------------------

    def _run(
        self,
        cells: Sequence[SweepCell],
        settle: Callable[[CellOutcome], None],
    ) -> None:
        """Bring every distinct cell to a journaled outcome, handing each
        to ``settle`` under one lock: resumed cells first, then live
        cells in input order."""

        def settle_locked(outcome: CellOutcome) -> None:
            with self._lock:
                settle(outcome)

        journaled = self.journal.load()
        for note in self.journal.load_diagnostics:
            self._log(note)
        pending: List[SweepCell] = []
        seen: set = set()
        for cell in cells:
            key = cell.key()
            if key in seen:
                continue
            seen.add(key)
            record = journaled.get(key)
            if record is None:
                pending.append(cell)
            elif record.status == STATUS_OK:
                self._emit("resumed", cell=key, ms=record.ms)
                settle_locked(CellOutcome(
                    cell,
                    "resumed",
                    ms=record.ms,
                    attempts=record.attempts,
                    schedules=record.schedules,
                ))
            else:
                settle_locked(CellOutcome(
                    cell,
                    "quarantined",
                    attempts=record.attempts,
                    error=record.error,
                ))
        if not pending:
            return
        self._log(
            f"{self.namespace}: {len(pending)} cells to measure "
            f"({len(seen) - len(pending)} already journaled), "
            f"jobs={self.jobs}"
        )
        with self.tracer.span(
            f"{self.namespace}.run", pending=len(pending), jobs=self.jobs
        ):
            if self.jobs == 1:
                for outcome in map(self._run_cell, pending):
                    settle_locked(outcome)
            else:
                with ThreadPoolExecutor(
                    max_workers=self.jobs,
                    thread_name_prefix=f"repro-{self.namespace}",
                ) as pool:
                    for outcome in pool.map(self._run_cell, pending):
                        settle_locked(outcome)

    # -- one cell ------------------------------------------------------

    def _run_cell(self, cell: SweepCell) -> CellOutcome:
        key = cell.key()
        trail = Diagnostics()
        self.trails[key] = trail
        errors: List[str] = []
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                delay = self.retry.delay_before(key, attempt)
                trail.info(
                    "retry", f"attempt {attempt} after {delay:.2f}s backoff"
                )
                self._emit(
                    "retry",
                    cell=key,
                    attempt=attempt,
                    backoff_s=round(delay, 4),
                    error=errors[-1],
                )
                self.sleeper(delay)
            self._emit("attempt", cell=key, attempt=attempt)
            started = time.perf_counter()
            try:
                ms, schedules = self._attempt(cell, attempt)
            except Exception as exc:  # noqa: BLE001 — a failed attempt
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                errors.append(_error_text(exc))
                trail.error(
                    "worker",
                    f"attempt {attempt} failed: {_failure_text(exc)}",
                    elapsed_ms=elapsed_ms,
                )
                self._log(
                    f"  attempt {attempt} failed for {key}: {errors[-1]}"
                )
                continue
            elapsed_ms = (time.perf_counter() - started) * 1000.0
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
                    trail=self._journal_trail(trail, errors),
                    schedules=schedules,
                )
            )
            self._emit(
                "ok",
                cell=key,
                ms=ms,
                attempt=attempt,
                elapsed_ms=round(elapsed_ms, 3),
            )
            self._log(f"  ok         {key} ({ms:.2f} ms)")
            return CellOutcome(
                cell, "ok", ms=ms, attempts=attempt, schedules=schedules
            )
        attempts = self.retry.max_attempts
        self.journal.append(
            JournalRecord(
                cell=cell,
                status=STATUS_QUARANTINED,
                attempts=attempts,
                error=errors[-1],
                trail=self._journal_trail(trail, errors),
            )
        )
        self._emit(
            "quarantined", cell=key, attempts=attempts, error=errors[-1]
        )
        self._log(f"  quarantine {key} after {attempts} attempts")
        return CellOutcome(
            cell, "quarantined", attempts=attempts, error=errors[-1]
        )

    # -- observability -------------------------------------------------

    def _emit(self, what: str, **attrs) -> None:
        """One ``<namespace>.cell.<what>`` event and its counter."""
        if self.tracer.enabled:
            self.tracer.count(f"{self.namespace}.{_COUNTERS[what]}")
            self.tracer.event(f"{self.namespace}.cell.{what}", **attrs)

    def _log(self, message: str) -> None:
        if self.progress is not None:
            print(message, file=self.progress, flush=True)


class SweepRunner(CellRunner):
    """Executes cells in isolated workers, journaling every outcome."""

    namespace = "sweep"

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
        super().__init__(
            journal, jobs=jobs, retry=retry, progress=progress, tracer=tracer
        )
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.timeout_s = timeout_s
        self.fault_plan = fault_plan
        #: Optional path of a shared repro.cache.ScheduleCache file; each
        #: worker consults it before searching and stores what it finds
        #: (appends are line-atomic, so concurrent workers can share it).
        self.schedule_cache = schedule_cache

    # -- public API ----------------------------------------------------

    def run(self, cells: Sequence[SweepCell]) -> SweepReport:
        """Bring every cell to a journaled outcome; never raises per-cell."""
        report = SweepReport()
        self._run(cells, report.outcomes.append)
        report.journal_diagnostics = list(self.journal.load_diagnostics)
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

    # -- one attempt ---------------------------------------------------

    def _attempt(
        self, cell: SweepCell, attempt: int
    ) -> Tuple[float, Optional[List[Dict]]]:
        """One isolated worker execution."""
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
            raise AttemptFailed(
                f"timeout after {self.timeout_s}s (killed)"
            ) from None
        except OSError as exc:
            raise AttemptFailed(f"failed to spawn worker: {exc}") from None
        if proc.returncode not in (0, 1):
            raise AttemptFailed(
                f"worker crashed with exit code {proc.returncode}"
            )
        try:
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            raise AttemptFailed(
                "worker produced corrupt/empty output"
            ) from None
        if not isinstance(payload, dict) or "ok" not in payload:
            raise AttemptFailed("worker produced a malformed result object")
        if not payload["ok"]:
            raise AttemptFailed(
                f"{payload.get('error', 'Error')}: "
                f"{payload.get('message', 'worker reported failure')}"
            )
        return float(payload["ms"]), payload.get("schedules")
