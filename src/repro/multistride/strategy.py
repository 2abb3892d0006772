"""The three-way strategy classifier: tile-only / multistride-only / combined.

The original paper's optimizer picks tile sizes; the multi-striding paper
shows a second, orthogonal lever.  For a given kernel the best choice is an
empirical question, so the classifier prices up to three concrete
candidates on a simulated machine with the multi-stream detector enabled:

* ``tile`` — the schedule the main optimizer produced (which may in fact
  be untransformed; the label names the *strategy family*, not a literal
  tiling);
* ``multistride`` — the standard untransformed schedule with the best
  feasible ``multistride(loop, K)`` applied: prefetch-friendliness instead
  of cache blocking;
* ``combined`` — the main optimizer's schedule with multistride applied on
  top (blocking for reuse *and* interleaved streams for the residual
  streaming traffic).

Decision rule: the incumbent ``tile`` strategy wins unless a challenger is
more than :data:`TIE_MARGIN` cheaper (schedule churn needs to pay for
itself), and ``combined`` must *strictly* beat ``multistride`` (given equal
cost, the simpler rewrite wins).  The classifier prices the candidates
only when a challenger exists; an unopposed incumbent is not simulated.
Pricing runs on a dedicated :class:`~repro.sim.machine.Machine` with a
reduced, fixed line budget, so a contested decision costs one short
simulation per candidate and is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional

from repro.arch import ArchSpec
from repro.cachesim.prefetch import StreamModelParams
from repro.ir.func import Func
from repro.ir.schedule import LoopKind, Schedule
from repro.multistride.search import (
    MultistridePlan,
    StreamRequest,
    apply_multistride,
    plan_multistride,
)
from repro.obs.events import EVENT_MULTISTRIDE
from repro.sim.machine import Machine

#: Line budget of the pricing simulations.  Small enough that each priced
#: candidate is a sub-second simulation, large enough to cover several pages
#: per stream (the regime where late-vs-on-time prefetches diverge).
PRICING_LINE_BUDGET = 40_000

#: A challenger must undercut the incumbent by this fraction; below it the
#: strategies are considered tied and the incumbent (no rewrite) wins.
TIE_MARGIN = 0.02

STRATEGY_TILE = "tile"
STRATEGY_MULTISTRIDE = "multistride"
STRATEGY_COMBINED = "combined"


@dataclass(frozen=True)
class MultistrideDecision:
    """Outcome of the classifier for one kernel.

    ``costs`` maps every *priced* strategy to its modeled milliseconds;
    strategies with no feasible candidate are absent.  The candidates are
    priced only when a challenger exists: an unopposed incumbent is not
    simulated, so its ``costs`` is empty.  ``schedule`` is the
    winning schedule — the caller's own object when ``tile`` wins, a fresh
    clone otherwise.
    """

    strategy: str
    schedule: Schedule
    costs: Mapping[str, float]
    streams: Optional[int] = None
    loop: Optional[str] = None
    plan: Optional[MultistridePlan] = field(default=None, repr=False)

    def describe(self) -> str:
        if not self.costs:
            return f"{self.strategy} (unopposed)"
        priced = ", ".join(
            f"{name} {self.costs[name]:.4f} ms"
            for name in (STRATEGY_TILE, STRATEGY_MULTISTRIDE, STRATEGY_COMBINED)
            if name in self.costs
        )
        chosen = self.strategy
        if self.streams is not None and self.strategy != STRATEGY_TILE:
            chosen = f"{self.strategy} ({self.loop} x{self.streams})"
        return f"{chosen} [{priced}]"


def pricing_machine(
    arch: ArchSpec,
    *,
    params: Optional[StreamModelParams] = None,
    line_budget: int = PRICING_LINE_BUDGET,
) -> Machine:
    """The machine every strategy is priced on: multi-stream detector
    enabled, fixed reduced budget.  The mef experiment uses the same
    factory so its published table matches the classifier's argmin."""
    return Machine(
        arch,
        line_budget=line_budget,
        stream_model=params or StreamModelParams(),
    )


def _schedule_flags(schedule: Schedule) -> Dict[str, bool]:
    kinds = {loop.kind for loop in schedule.loops()}
    return {
        "parallelize": LoopKind.PARALLEL in kinds,
        "vectorize": LoopKind.VECTORIZED in kinds,
        "nontemporal": schedule.nontemporal,
    }


def decide_strategy(
    func: Func,
    arch: ArchSpec,
    schedule: Schedule,
    *,
    multistride: StreamRequest = "auto",
    tracer=None,
    params: Optional[StreamModelParams] = None,
    machine: Optional[Machine] = None,
) -> MultistrideDecision:
    """Classify one kernel into tile-only / multistride-only / combined.

    ``schedule`` is the main optimizer's output (the ``tile`` incumbent);
    it is never mutated.  ``multistride`` is ``"auto"`` to search stream
    counts or an ``int >= 2`` to fix one.  The candidates are priced only
    when a challenger exists; an unopposed incumbent is not simulated and
    the decision's ``costs`` is empty.  A custom ``machine`` overrides
    the default pricing machine (it should have a stream model, otherwise
    every candidate prices identically and the incumbent always wins).
    """
    params = params or StreamModelParams()
    streams: StreamRequest = (
        multistride if isinstance(multistride, int) else "auto"
    )

    # The multistride-only candidate starts from the *standard* plain
    # schedule with the incumbent's parallel/vector/NT choices preserved,
    # so the comparison isolates blocking-vs-striding.
    from repro.core.standard import untransformed_schedule

    plain = untransformed_schedule(func, arch, **_schedule_flags(schedule))

    candidates: Dict[str, Schedule] = {STRATEGY_TILE: schedule}
    plans: Dict[str, MultistridePlan] = {}

    ms_plan = plan_multistride(plain, arch, streams=streams, params=params)
    if ms_plan is not None:
        candidates[STRATEGY_MULTISTRIDE] = apply_multistride(plain, ms_plan)
        plans[STRATEGY_MULTISTRIDE] = ms_plan

    combined_plan = plan_multistride(
        schedule, arch, streams=streams, params=params
    )
    if combined_plan is not None:
        combined = apply_multistride(schedule, combined_plan)
        ms_candidate = candidates.get(STRATEGY_MULTISTRIDE)
        # An untransformed incumbent makes "combined" the same rewrite as
        # multistride-only; don't price the duplicate.
        if ms_candidate is None or combined.describe() != ms_candidate.describe():
            candidates[STRATEGY_COMBINED] = combined
            plans[STRATEGY_COMBINED] = combined_plan

    # Only a contest needs pricing: with no challenger the incumbent wins
    # as is, and simulating it would only fill in a cost nobody compares.
    costs: Dict[str, float] = {}
    choice = STRATEGY_TILE
    if len(candidates) > 1:
        machine = machine or pricing_machine(arch, params=params)
        costs = {
            name: machine.time_funcs([(func, cand)])
            for name, cand in candidates.items()
        }
        threshold = costs[STRATEGY_TILE] * (1.0 - TIE_MARGIN)
        challengers = [
            (costs[name], rank, name)
            for rank, name in enumerate(
                (STRATEGY_MULTISTRIDE, STRATEGY_COMBINED)
            )
            if name in costs and costs[name] < threshold
        ]
        if challengers:
            # min() on (cost, rank): combined wins only by strictly beating
            # multistride — the rank breaks exact ties toward the simpler one.
            choice = min(challengers)[2]

    plan = plans.get(choice)
    decision = MultistrideDecision(
        strategy=choice,
        schedule=candidates[choice],
        costs=MappingProxyType(costs),
        streams=plan.streams if plan else None,
        loop=plan.loop if plan else None,
        plan=plan,
    )
    if tracer is not None and getattr(tracer, "enabled", False):
        tracer.event(
            EVENT_MULTISTRIDE,
            func=func.name,
            strategy=decision.strategy,
            streams=decision.streams,
            loop=decision.loop,
            **{f"cost_{k}": round(v, 6) for k, v in sorted(costs.items())},
        )
    return decision


__all__ = [
    "MultistrideDecision",
    "PRICING_LINE_BUDGET",
    "STRATEGY_COMBINED",
    "STRATEGY_MULTISTRIDE",
    "STRATEGY_TILE",
    "TIE_MARGIN",
    "decide_strategy",
    "pricing_machine",
]
