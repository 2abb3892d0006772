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

from repro._lazy import lazy_exports

#: Each public name and the module that defines it, imported on first use
#: (PEP 562): a sweep worker imports ``repro.sweep.cell`` and never the
#: runner, the planner or the journal.
_EXPORTS = {
    "CellOutcome": "repro.sweep.runner",
    "JOURNAL_FORMAT": "repro.sweep.journal",
    "Journal": "repro.sweep.journal",
    "JournalRecord": "repro.sweep.journal",
    "KIND_MEASURE": "repro.sweep.cell",
    "KIND_OPTIMIZE_RUNTIME": "repro.sweep.cell",
    "KIND_TUNE": "repro.sweep.cell",
    "RetryPolicy": "repro.sweep.runner",
    "STATUS_OK": "repro.sweep.journal",
    "STATUS_QUARANTINED": "repro.sweep.journal",
    "SweepCell": "repro.sweep.cell",
    "SweepReport": "repro.sweep.runner",
    "SweepRunner": "repro.sweep.runner",
    "plan_cells": "repro.sweep.plan",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
