"""Fleet-scale autotuning: ``POST /v1/tune`` and ``repro tune``.

ROADMAP open item 4 — the job-lifecycle layer that composes every prior
subsystem into the production end-state:

* :mod:`repro.tune.schema` — the ``repro-tune-v1`` request / stream /
  ``repro-tune-report-v1`` wire formats and their validators;
* :mod:`repro.tune.planner` — expand a request (corpus kernels or
  families × platforms × an options grid) into ``tune``-kind
  :class:`~repro.sweep.SweepCell` values;
* :mod:`repro.tune.runner` — :class:`TuneRunner`: the sweep's own cell
  runner (:class:`repro.sweep.runner.CellRunner`: resume, retry,
  quarantine, journaling in the checksummed ``repro-sweep-v1``
  :class:`~repro.sweep.Journal`) with every attempt an ordinary
  ``/v1/optimize`` through the fleet router (coalescing, deadlines,
  breakers and failover apply); settled cells stream as chunked NDJSON,
  and milliseconds come from a deterministic simulator replay so an
  interrupted-then-resumed tune reports bit-identically to an
  uninterrupted one.

Entry points: ``python -m repro tune`` (CLI) and ``POST /v1/tune`` on
the fleet router; see docs/API.md, "Tuning".
"""

from repro.tune.planner import plan_tune_cells, resolve_kernels
from repro.tune.runner import (
    TuneOutcome,
    TuneReport,
    TuneRunner,
    baseline_ms_for,
    replay_ms,
)
from repro.tune.schema import (
    CELL_OK,
    CELL_QUARANTINED,
    CELL_RESUMED,
    TUNE_FORMAT,
    TUNE_REPORT_FORMAT,
    build_tune_request,
    cell_record,
    tune_id,
    tune_report,
    validate_tune_record,
    validate_tune_report,
    validate_tune_request,
)

__all__ = [
    "CELL_OK",
    "CELL_QUARANTINED",
    "CELL_RESUMED",
    "TUNE_FORMAT",
    "TUNE_REPORT_FORMAT",
    "TuneOutcome",
    "TuneReport",
    "TuneRunner",
    "baseline_ms_for",
    "build_tune_request",
    "cell_record",
    "plan_tune_cells",
    "replay_ms",
    "resolve_kernels",
    "tune_id",
    "tune_report",
    "validate_tune_record",
    "validate_tune_report",
    "validate_tune_request",
]
