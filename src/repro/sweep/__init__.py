"""Crash-safe, resumable experiment sweeps.

The paper's evaluation is a long sequential sweep dominated by
autotuner searches; this package makes it survivable and restartable:

* :mod:`repro.sweep.cell` — :class:`SweepCell`, the unit of work (one
  ``measure_case`` invocation, fully pinned down);
* :mod:`repro.sweep.plan` — cell discovery by dry-running the
  regenerators in recording mode;
* :mod:`repro.sweep.worker` — the isolated subprocess that measures one
  cell (``python -m repro.sweep.worker``);
* :mod:`repro.sweep.runner` — the one journaled cell lifecycle
  (``CellRunner``: dedupe, journal resume, retries with backoff +
  jitter, quarantine, parallel ``--jobs``) that both
  :class:`SweepRunner` (attempts in worker subprocesses, with timeouts)
  and :class:`repro.tune.TuneRunner` run their cells through;
* :mod:`repro.sweep.journal` — the append-only, checksummed JSONL store
  that doubles as a persistent cross-process measurement cache.

``python -m repro.experiments`` (or ``python -m repro sweep``) drives
the whole thing; see ``docs/API.md`` for the journal format, resume
semantics, and the quarantine policy.
"""

from repro.sweep.cell import (
    KIND_MEASURE,
    KIND_OPTIMIZE_RUNTIME,
    KIND_TUNE,
    SweepCell,
)
from repro.sweep.journal import (
    JOURNAL_FORMAT,
    Journal,
    JournalRecord,
    STATUS_OK,
    STATUS_QUARANTINED,
)
from repro.sweep.plan import plan_cells
from repro.sweep.runner import (
    CellOutcome,
    RetryPolicy,
    SweepReport,
    SweepRunner,
)

__all__ = [
    "CellOutcome",
    "JOURNAL_FORMAT",
    "Journal",
    "JournalRecord",
    "KIND_MEASURE",
    "KIND_OPTIMIZE_RUNTIME",
    "KIND_TUNE",
    "RetryPolicy",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "SweepCell",
    "SweepReport",
    "SweepRunner",
    "plan_cells",
]
