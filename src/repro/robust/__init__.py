"""Graceful degradation: safe optimization with fallbacks and deadlines.

The paper's flow (Fig. 1) is a straight-line pipeline; this package wraps
it with the robustness layer a production deployment needs:

* :mod:`repro.robust.policy` — the fallback chain (proposed →
  auto-scheduler → baseline → untransformed) and its budgets;
* :mod:`repro.robust.safe` — :func:`safe_optimize`, which walks the chain
  under per-rung deadlines and always returns a legal schedule under a
  lenient policy;
* :mod:`repro.robust.diagnostics` — structured warning/error records
  returned on every result instead of printed or lost;
* :mod:`repro.robust.faults` — the fault-injection framework the test
  suite uses to prove every degradation path.
"""

from repro.robust.diagnostics import (
    DiagnosticRecord,
    Diagnostics,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
)
from repro.robust.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SERVE_FAULT_ENV,
    WORKER_FAULT_ENV,
    corrupt_worker,
    crash_job,
    exhaust_deadline,
    hang_worker,
    inject,
    kill_worker,
    poison,
    raise_on,
    slow_job,
)
from repro.robust.policy import (
    FALLBACK_CHAIN,
    FallbackPolicy,
    RUNG_AUTOSCHEDULER,
    RUNG_BASELINE,
    RUNG_CACHE,
    RUNG_PROPOSED,
    RUNG_UNTRANSFORMED,
)
from repro.robust.safe import (
    RungAttempt,
    SafeResult,
    safe_optimize,
    safe_optimize_pipeline,
)

__all__ = [
    "DiagnosticRecord",
    "Diagnostics",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "SERVE_FAULT_ENV",
    "WORKER_FAULT_ENV",
    "corrupt_worker",
    "crash_job",
    "exhaust_deadline",
    "hang_worker",
    "inject",
    "kill_worker",
    "poison",
    "raise_on",
    "slow_job",
    "FALLBACK_CHAIN",
    "FallbackPolicy",
    "RUNG_AUTOSCHEDULER",
    "RUNG_BASELINE",
    "RUNG_CACHE",
    "RUNG_PROPOSED",
    "RUNG_UNTRANSFORMED",
    "RungAttempt",
    "SafeResult",
    "safe_optimize",
    "safe_optimize_pipeline",
]
