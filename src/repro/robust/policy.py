"""Degradation policy: which rungs to try, under which budgets.

The fallback chain orders schedule generators from "best when it works"
to "cannot fail":

1. ``proposed`` — the paper's full flow (:func:`repro.core.optimize`);
2. ``auto-scheduler`` — the Mullapudi-style heuristic baseline, which
   needs no classification or cache emulation;
3. ``baseline`` — parallel outer loop + vectorized inner loop;
4. ``untransformed`` — the definition's own loop nest, untransformed and
   run without a deadline so it always completes.

A :class:`FallbackPolicy` selects a suffix-closed subset of that chain
and sets per-rung and total deadlines: it says only how to degrade.  The
optimizer switches travel beside it as one
:class:`repro.options.OptimizeOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

RUNG_PROPOSED = "proposed"
RUNG_AUTOSCHEDULER = "auto-scheduler"
RUNG_BASELINE = "baseline"
RUNG_UNTRANSFORMED = "untransformed"

#: Pseudo-rung reported by ``safe_optimize`` when a persistent
#: :class:`repro.cache.ScheduleCache` served the schedule.  Not part of
#: :data:`FALLBACK_CHAIN` (it is not configurable — a cache hit simply
#: short-circuits the chain) and not a degradation: the cached schedule
#: *is* a previously computed ``proposed`` result.
RUNG_CACHE = "cache"

#: The full chain, best-first.  ``safe_optimize`` walks it left to right.
FALLBACK_CHAIN: Tuple[str, ...] = (
    RUNG_PROPOSED,
    RUNG_AUTOSCHEDULER,
    RUNG_BASELINE,
    RUNG_UNTRANSFORMED,
)


@dataclass(frozen=True)
class FallbackPolicy:
    """Configuration of :func:`repro.robust.safe_optimize`.

    Attributes
    ----------
    rungs:
        The fallback rungs to attempt, best-first.  Must be a subsequence
        of :data:`FALLBACK_CHAIN` and must end with ``untransformed`` —
        the rung that cannot fail — unless ``strict`` is set.
    deadline_ms:
        Per-rung time budget in milliseconds (``None`` = unbounded).
        Enforced cooperatively via the checkpoints threaded through the
        optimizer's candidate loops; the final ``untransformed`` rung is
        exempt so the flow always terminates with a schedule.
    total_deadline_ms:
        Budget for the whole chain; each rung gets the minimum of its own
        budget and what remains of the total.
    strict:
        Re-raise the first failure instead of descending.  The chain then
        degenerates to running ``rungs[0]`` with validation and deadline
        enforcement — useful when a crash is preferable to a silently
        slower schedule.
    validate_inputs:
        Run :func:`repro.ir.validate_func` before the first rung.
    validate_schedules:
        Run :func:`repro.ir.validate_schedule` on each rung's schedule;
        a structurally broken schedule triggers descent like any error.
    require_finite_cost:
        Reject a ``proposed`` result whose search cost is NaN/infinite
        (poisoned or degenerate analytical model) and descend.
    """

    rungs: Tuple[str, ...] = FALLBACK_CHAIN
    deadline_ms: Optional[float] = None
    total_deadline_ms: Optional[float] = None
    strict: bool = False
    validate_inputs: bool = True
    validate_schedules: bool = True
    require_finite_cost: bool = True

    def __post_init__(self) -> None:
        if not self.rungs:
            raise ValueError("a FallbackPolicy needs at least one rung")
        unknown = [r for r in self.rungs if r not in FALLBACK_CHAIN]
        if unknown:
            raise ValueError(
                f"unknown fallback rung(s) {unknown}; known: "
                f"{list(FALLBACK_CHAIN)}"
            )
        positions = [FALLBACK_CHAIN.index(r) for r in self.rungs]
        if positions != sorted(set(positions)):
            raise ValueError(
                f"rungs must be distinct and ordered best-first as in "
                f"{list(FALLBACK_CHAIN)}, got {list(self.rungs)}"
            )
        if not self.strict and self.rungs[-1] != RUNG_UNTRANSFORMED:
            raise ValueError(
                "a lenient policy must end with the 'untransformed' rung "
                "so a schedule is always produced"
            )
        for name in ("deadline_ms", "total_deadline_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    # -- conveniences --------------------------------------------------

    @classmethod
    def lenient(
        cls,
        deadline_ms: Optional[float] = None,
        **overrides,
    ) -> "FallbackPolicy":
        """The default production posture: degrade, never crash."""
        return cls(deadline_ms=deadline_ms, strict=False, **overrides)

    @classmethod
    def strict_policy(
        cls,
        deadline_ms: Optional[float] = None,
        **overrides,
    ) -> "FallbackPolicy":
        """Fail fast: validation + deadlines on, no degradation."""
        overrides.setdefault("rungs", (RUNG_PROPOSED,))
        return cls(deadline_ms=deadline_ms, strict=True, **overrides)

    def with_overrides(self, **kwargs) -> "FallbackPolicy":
        """Copy with some fields replaced (runs validation again)."""
        return replace(self, **kwargs)
