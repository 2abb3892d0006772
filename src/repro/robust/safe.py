"""``safe_optimize``: the paper's flow with graceful degradation.

:func:`repro.core.optimize` is a straight-line pipeline — classification
feeds Algorithm 2/3, which feed scheduling — and any
:class:`~repro.util.ReproError` aborts the whole run.  ``safe_optimize``
wraps it in a **fallback chain** (see :mod:`repro.robust.policy`): each
rung is attempted under a per-rung :class:`~repro.util.Deadline`, any
failure is recorded in a :class:`~repro.robust.diagnostics.Diagnostics`
collector, and the flow descends until some rung produces a schedule that
passes structural validation.  The last rung (the untransformed nest) runs
without a deadline and cannot realistically fail, so a lenient policy
always returns a legal schedule — the "always return a legal schedule"
discipline production autoschedulers adopt.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch import ArchSpec
from repro.baselines.autoscheduler import autoschedule
from repro.baselines.baseline import baseline_schedule
from repro.core.optimizer import OptimizationResult, optimize
from repro.core.standard import untransformed_schedule
from repro.ir.func import Func, Pipeline
from repro.ir.schedule import Schedule
from repro.ir.validate import validate_func, validate_schedule
from repro.obs.events import EVENT_RUNG
from repro.obs.tracer import current_tracer
from repro.options import OptimizeOptions
from repro.robust.diagnostics import Diagnostics
from repro.robust.policy import (
    RUNG_AUTOSCHEDULER,
    RUNG_BASELINE,
    RUNG_CACHE,
    RUNG_PROPOSED,
    RUNG_UNTRANSFORMED,
    FallbackPolicy,
)
from repro.util import (
    Deadline,
    ReproError,
    ValidationError,
    active_deadline,
)

#: Non-``ReproError`` exception classes a lenient policy also treats as a
#: rung failure.  Anything outside this set (``KeyboardInterrupt``,
#: ``MemoryError``, plain bugs raising ``TypeError``...) propagates.
_UNEXPECTED_CAUGHT = (ValueError, KeyError, ZeroDivisionError, OverflowError)


@dataclass(frozen=True)
class RungAttempt:
    """The outcome of trying one fallback rung."""

    rung: str
    ok: bool
    elapsed_ms: float
    error_type: Optional[str] = None
    error: Optional[str] = None

    def describe(self) -> str:
        status = "ok" if self.ok else f"failed ({self.error_type}: {self.error})"
        return f"{self.rung}: {status} in {self.elapsed_ms:.1f} ms"


@dataclass
class SafeResult:
    """What :func:`safe_optimize` returns — always with diagnostics.

    Attributes
    ----------
    func / schedule:
        The optimized Func and the legal schedule that will be used.
    rung:
        The fallback rung that produced ``schedule``.
    result:
        The full :class:`~repro.core.OptimizationResult` when the
        ``proposed`` rung succeeded, else ``None``.
    attempts:
        Every rung tried, in order, with timing and failure cause.
    diagnostics:
        Structured warning/error records for the whole run.
    elapsed_ms:
        Wall-clock time of the entire chain.
    """

    func: Func
    schedule: Schedule
    rung: str
    result: Optional[OptimizationResult]
    attempts: List[RungAttempt] = field(default_factory=list)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    elapsed_ms: float = 0.0

    @property
    def fell_back(self) -> bool:
        """True when the best rung (``proposed``) did not produce the
        schedule — i.e. the flow degraded.  A schedule-cache hit is a
        replayed ``proposed`` result, not a degradation."""
        return self.rung not in (RUNG_PROPOSED, RUNG_CACHE)

    def describe(self) -> str:
        lines = [
            f"{self.func.name}: rung={self.rung} "
            f"({'degraded' if self.fell_back else 'full flow'}), "
            f"{self.elapsed_ms:.1f} ms total",
        ]
        lines += [f"  attempt {a.describe()}" for a in self.attempts]
        summary = self.diagnostics.summary()
        if summary:
            lines += ["  " + line for line in summary.splitlines()]
        return "\n".join(lines)


def _rung_builders(
    func: Func,
    arch: ArchSpec,
    policy: FallbackPolicy,
    options: OptimizeOptions,
) -> Dict[str, Callable[[], Tuple[Schedule, Optional[OptimizationResult]]]]:
    """One zero-argument builder per rung, sharing the call's inputs."""

    def proposed() -> Tuple[Schedule, Optional[OptimizationResult]]:
        result = optimize(func, arch, **options.flow_kwargs())
        if policy.require_finite_cost:
            _check_finite_cost(result)
        return result.schedule, result

    def auto_scheduler() -> Tuple[Schedule, Optional[OptimizationResult]]:
        return autoschedule(func, arch).schedule, None

    def baseline() -> Tuple[Schedule, Optional[OptimizationResult]]:
        return baseline_schedule(func, arch), None

    def untransformed() -> Tuple[Schedule, Optional[OptimizationResult]]:
        schedule = untransformed_schedule(
            func,
            arch,
            parallelize=options.parallelize,
            vectorize=options.vectorize,
            nontemporal=False,
        )
        return schedule, None

    return {
        RUNG_PROPOSED: proposed,
        RUNG_AUTOSCHEDULER: auto_scheduler,
        RUNG_BASELINE: baseline,
        RUNG_UNTRANSFORMED: untransformed,
    }


def _check_finite_cost(result: OptimizationResult) -> None:
    """Reject analytical-search outcomes whose cost is NaN or infinite.

    A poisoned (NaN) or degenerate (every candidate rejected → ``inf``)
    cost means the analytical model did not actually discriminate between
    candidates; the auto-scheduler rung is then the better-informed choice.
    """
    search = result.temporal or result.spatial
    if search is not None and not math.isfinite(search.cost):
        raise ValidationError(
            f"{result.func.name}: analytical search produced a non-finite "
            f"cost ({search.cost!r}); refusing the proposed schedule"
        )


def safe_optimize(
    func: Func,
    arch: ArchSpec,
    policy: Optional[FallbackPolicy] = None,
    *,
    options: Optional[OptimizeOptions] = None,
    cache=None,
) -> SafeResult:
    """Optimize ``func`` with fallbacks, deadlines and diagnostics.

    ``policy`` says how to degrade; ``options`` (default
    :class:`~repro.options.OptimizeOptions`) are the optimizer switches:
    the ``proposed`` rung runs :func:`repro.core.optimize` with all of
    them, ``multistride`` included, and the ``untransformed`` rung
    honours ``parallelize``/``vectorize``.

    ``cache`` is an optional :class:`repro.cache.ScheduleCache`: it is
    consulted before the fallback chain — a replayable entry keyed by
    this exact (Func, arch, ``options.cache_dict()``) short-circuits the
    whole chain with ``rung="cache"`` — and a successful ``proposed`` rung
    stores its schedule back, so the next run with the same inputs skips
    the search entirely.  Entries that fail replay or validation degrade
    to misses; degraded (fallback) schedules are never cached.

    Walks ``policy.rungs`` best-first.  Each rung runs under a
    :class:`~repro.util.Deadline` of ``min(policy.deadline_ms, remaining
    total budget)``; any :class:`~repro.util.ReproError` (including
    :class:`~repro.util.DeadlineExceeded` raised by the cooperative
    checkpoints inside Algorithm 2/3) or a small set of unexpected
    exceptions triggers descent to the next rung.  The terminal
    ``untransformed`` rung runs without a deadline.

    Raises
    ------
    ValidationError
        When ``policy.validate_inputs`` is on and ``func`` itself is
        invalid — no rung could produce a legal schedule for it.
    ReproError
        In ``strict`` policies, the first rung failure propagates; in
        lenient policies only the (never observed in practice) failure of
        every rung including ``untransformed`` re-raises.
    """
    policy = policy or FallbackPolicy()
    options = options or OptimizeOptions()
    diagnostics = Diagnostics()
    attempts: List[RungAttempt] = []
    started = time.perf_counter()

    if policy.validate_inputs:
        # An invalid Func is a hard failure, not a degradation: even the
        # untransformed rung cannot schedule unbounded/empty loops.
        validate_func(func)

    cache_options = options.cache_dict()
    if cache is not None and RUNG_PROPOSED in policy.rungs:
        hit = _consult_cache(cache, func, arch, cache_options, policy)
        if hit is not None:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            attempts.append(
                RungAttempt(rung=RUNG_CACHE, ok=True, elapsed_ms=elapsed_ms)
            )
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("schedule_cache.hits")
                tracer.event(
                    EVENT_RUNG,
                    func=func.name,
                    rung=RUNG_CACHE,
                    ok=True,
                    elapsed_ms=round(elapsed_ms, 3),
                )
            return SafeResult(
                func=func,
                schedule=hit,
                rung=RUNG_CACHE,
                result=None,
                attempts=attempts,
                diagnostics=diagnostics,
                elapsed_ms=elapsed_ms,
            )

    total = (
        Deadline(policy.total_deadline_ms / 1000.0, label="safe_optimize")
        if policy.total_deadline_ms is not None
        else None
    )
    builders = _rung_builders(func, arch, policy, options)
    last_error: Optional[BaseException] = None

    for index, rung in enumerate(policy.rungs):
        next_rung = (
            policy.rungs[index + 1] if index + 1 < len(policy.rungs) else None
        )
        deadline = _rung_deadline(rung, policy, total)
        rung_started = time.perf_counter()
        try:
            with active_deadline(deadline):
                schedule, result = builders[rung]()
                if policy.validate_schedules:
                    validate_schedule(schedule)
        except (ReproError,) + _UNEXPECTED_CAUGHT as exc:
            elapsed_ms = (time.perf_counter() - rung_started) * 1000.0
            attempts.append(
                RungAttempt(
                    rung=rung,
                    ok=False,
                    elapsed_ms=elapsed_ms,
                    error_type=exc.__class__.__name__,
                    error=str(exc),
                )
            )
            diagnostics.record_exception(
                rung, exc, elapsed_ms=elapsed_ms, fallback_to=next_rung
            )
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("rung.failures")
                tracer.event(
                    EVENT_RUNG,
                    func=func.name,
                    rung=rung,
                    ok=False,
                    error_type=exc.__class__.__name__,
                    elapsed_ms=round(elapsed_ms, 3),
                    fallback_to=next_rung,
                )
            last_error = exc
            if policy.strict:
                raise
            continue

        elapsed_ms = (time.perf_counter() - rung_started) * 1000.0
        attempts.append(RungAttempt(rung=rung, ok=True, elapsed_ms=elapsed_ms))
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                EVENT_RUNG,
                func=func.name,
                rung=rung,
                ok=True,
                elapsed_ms=round(elapsed_ms, 3),
            )
        if rung == RUNG_PROPOSED and cache is not None:
            # Only the full proposed flow is worth persisting: fallback
            # schedules are cheap to rebuild and would shadow a later
            # successful search under the same key.
            cache.put(
                func,
                arch,
                cache_options,
                schedule,
                meta={"rung": rung, "func": func.name, "arch": arch.name},
            )
        if rung != RUNG_PROPOSED:
            diagnostics.warning(
                rung,
                f"degraded schedule in use (rung {index + 1} of "
                f"{len(policy.rungs)})",
                elapsed_ms=elapsed_ms,
            )
        return SafeResult(
            func=func,
            schedule=schedule,
            rung=rung,
            result=result,
            attempts=attempts,
            diagnostics=diagnostics,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )

    # Every rung failed.  With a lenient policy this requires the
    # untransformed rung itself to raise, which means the input (or an
    # injected fault) is beyond repair — surface the last cause.
    assert last_error is not None
    raise last_error


def _consult_cache(
    cache, func: Func, arch: ArchSpec, options: Dict, policy: FallbackPolicy
) -> Optional[Schedule]:
    """A replayed-and-validated cached schedule, or ``None`` to search."""
    schedule = cache.get(func, arch, options)
    if schedule is None:
        return None
    if policy.validate_schedules:
        try:
            validate_schedule(schedule)
        except ReproError:
            return None
    return schedule


def _rung_deadline(
    rung: str, policy: FallbackPolicy, total: Optional[Deadline]
) -> Optional[Deadline]:
    """Per-rung deadline: min(per-rung budget, remaining total budget).

    The terminal ``untransformed`` rung is exempt in lenient policies so
    an exhausted budget still yields a legal schedule.
    """
    if rung == RUNG_UNTRANSFORMED and not policy.strict:
        return None
    budgets = []
    if policy.deadline_ms is not None:
        budgets.append(policy.deadline_ms / 1000.0)
    if total is not None:
        remaining = total.remaining()
        if remaining is not None:
            budgets.append(remaining)
    if not budgets:
        return None
    return Deadline(min(budgets), label=rung)


def safe_optimize_pipeline(
    pipeline: Pipeline,
    arch: ArchSpec,
    policy: Optional[FallbackPolicy] = None,
    *,
    options: Optional[OptimizeOptions] = None,
) -> Dict[Func, SafeResult]:
    """Run :func:`safe_optimize` on every stage of a pipeline.

    Stages are independent (compute_root), so one stage degrading does not
    affect the others; the per-stage results carry their own diagnostics.
    A ``total_deadline_ms`` in the policy applies **per stage** here — use
    an outer :class:`~repro.util.Deadline` for a whole-pipeline budget.
    """
    return {
        stage: safe_optimize(stage, arch, policy, options=options)
        for stage in pipeline
    }
