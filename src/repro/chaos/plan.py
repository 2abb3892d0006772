"""Seeded, fully deterministic chaos scenarios and their fault plans.

A :class:`ChaosScenario` is the *shape* of an experiment — fleet size,
request mix, and a script of :class:`ChaosAction` faults; a
:class:`ChaosPlan` is that shape made concrete by a seed: the exact
request list (benchmark identities in a fixed order), the resolved
target shard of every action, and the per-shard fault environment.
Everything derives from ``random.Random(f"{scenario}#{seed}")`` plus
the consistent-hash ring — two runs with the same seed produce the same
plan, byte for byte, which is what makes the engine's invariant reports
comparable across runs (``repro chaos run --check``).

Actions trigger on *progress*, not wall time: ``after_responses`` says
"fire once this many requests have completed", so a scripted kill lands
at the same logical point of the run on a loaded CI box and a fast
laptop alike (``delay_s`` adds an optional wall-clock nudge for faults
that must land mid-flight, e.g. a SIGKILL while a slow job is provably
in progress).

The shipped scenarios cover the failure-mode catalog in
``docs/API.md``: worker SIGKILL mid-request, SIGKILL during a rolling
restart, a hung (SIGSTOPped) worker, a slow shard, corrupted cache
files under load, and an admission-queue 429 storm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.fleet.hashring import HashRing
from repro.robust.faults import (
    SERVE_FAULT_ENV,
    SITE_JOB,
    FaultSpec,
    slow_job,
)
from repro.serve.identify import identify_request
from repro.serve.schema import build_request, parse_request

__all__ = [
    "ACTION_CORRUPT_CACHE",
    "ACTION_KILL",
    "ACTION_ROLL",
    "ACTION_SUSPEND",
    "ChaosAction",
    "ChaosPlan",
    "ChaosScenario",
    "PlannedRequest",
    "SCENARIOS",
    "build_plan",
    "get_scenario",
    "scenario_names",
]

# -- the action vocabulary ---------------------------------------------

ACTION_KILL = "kill_worker"          # SIGKILL one worker process
ACTION_SUSPEND = "suspend_worker"    # SIGSTOP one worker (hung, not dead)
ACTION_ROLL = "rolling_restart"      # fleet-wide drain/respawn, one shard at a time
ACTION_CORRUPT_CACHE = "corrupt_cache"  # append garbage to every shard store

_ACTION_KINDS = (
    ACTION_KILL,
    ACTION_SUSPEND,
    ACTION_ROLL,
    ACTION_CORRUPT_CACHE,
)

#: Benchmarks cheap enough (with ``fast=True``) for a chaos run's
#: request mix; the seed picks ``distinct_identities`` of them.
_BENCHMARK_ROSTER = ("matmul", "copy", "tp", "gemm", "syrk", "trmm")
_PLATFORM = "i7-5930k"


@dataclass(frozen=True)
class ChaosAction:
    """One scripted fault.

    ``shard`` may be a concrete shard index, ``None`` (the seed picks
    one), or the string ``"home:K"`` — the home shard of the plan's
    K-th identity, resolved through the same ring the router uses, so a
    scenario can guarantee it faults exactly the shard that is serving
    a known request.
    """

    kind: str
    after_responses: int = 0
    shard: object = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _ACTION_KINDS:
            raise ValueError(
                f"unknown chaos action {self.kind!r}; known: "
                f"{list(_ACTION_KINDS)}"
            )
        if self.after_responses < 0:
            raise ValueError(
                f"after_responses must be >= 0, got {self.after_responses}"
            )
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class ChaosScenario:
    """The seed-independent shape of one chaos experiment."""

    name: str
    description: str
    workers: int = 2
    requests: int = 8
    distinct_identities: int = 2
    queue_limit: int = 16
    client_retries: int = 8
    client_concurrency: int = 4
    deadline_ms: Optional[float] = None
    require_all_ok: bool = True
    use_cache: bool = True
    actions: Tuple[ChaosAction, ...] = ()
    #: Optional per-shard worker fault ``(shard_spec, spec)``: a one-shot
    #: ``slow``/``crash`` spec armed through ``REPRO_SERVE_FAULT``, so it
    #: fires on that shard's first job.
    worker_fault: Optional[Tuple[str, FaultSpec]] = None
    #: Optional tune-job shape (kernels/families/grid/fast — the
    #: :func:`repro.tune.build_tune_request` keywords).  When set the
    #: engine drives a journaled ``repro tune`` grid instead of the
    #: request mix, and ``after_responses`` counts settled tune cells.
    tune: Optional[Dict] = None


@dataclass(frozen=True)
class PlannedRequest:
    """One concrete request of the plan (identity + submission index)."""

    index: int
    benchmark: str
    platform: str
    fast: bool
    identity: str  # "benchmark@platform" — the reference-answer key


@dataclass
class ChaosPlan:
    """A scenario made concrete by a seed; everything here is
    reproducible from ``(scenario.name, seed)`` alone."""

    scenario: ChaosScenario
    seed: int
    requests: List[PlannedRequest] = field(default_factory=list)
    identities: List[PlannedRequest] = field(default_factory=list)
    actions: List[ChaosAction] = field(default_factory=list)
    worker_env: Dict[int, Dict[str, str]] = field(default_factory=dict)


def _home_shard(benchmark: str, platform: str, workers: int) -> int:
    """The shard the router will route this identity to (same math)."""
    request = parse_request(build_request(benchmark, platform, fast=True))
    _case, _arch, key = identify_request(request)
    return HashRing(list(range(workers))).route(key)


def _resolve_shard(
    spec: object, identities: List[PlannedRequest], workers: int,
    rng: random.Random,
) -> int:
    if spec is None:
        return rng.randrange(workers)
    if isinstance(spec, int):
        if not 0 <= spec < workers:
            raise ValueError(f"shard {spec} out of range for {workers} workers")
        return spec
    if isinstance(spec, str) and spec.startswith("home:"):
        identity = identities[int(spec.split(":", 1)[1]) % len(identities)]
        return _home_shard(identity.benchmark, identity.platform, workers)
    raise ValueError(f"unresolvable shard spec {spec!r}")


def build_plan(
    scenario: ChaosScenario, seed: int, *, requests: Optional[int] = None
) -> ChaosPlan:
    """Make the scenario concrete: same ``(name, seed)`` → same plan."""
    count = scenario.requests if requests is None else int(requests)
    if count < 1:
        raise ValueError(f"requests must be >= 1, got {count}")
    rng = random.Random(f"{scenario.name}#{seed}")
    wanted = min(scenario.distinct_identities, len(_BENCHMARK_ROSTER), count)
    benchmarks = rng.sample(_BENCHMARK_ROSTER, wanted)
    identities = [
        PlannedRequest(
            index=i,
            benchmark=benchmark,
            platform=_PLATFORM,
            fast=True,
            identity=f"{benchmark}@{_PLATFORM}",
        )
        for i, benchmark in enumerate(benchmarks)
    ]
    planned = [
        replace(
            identities[i % len(identities)],
            index=i,
        )
        for i in range(count)
    ]
    resolved_actions = [
        replace(
            action,
            shard=(
                None
                if action.kind in (ACTION_ROLL, ACTION_CORRUPT_CACHE)
                else _resolve_shard(
                    action.shard, identities, scenario.workers, rng
                )
            ),
        )
        for action in scenario.actions
    ]
    worker_env: Dict[int, Dict[str, str]] = {}
    if scenario.worker_fault is not None:
        shard_spec, fault = scenario.worker_fault
        if fault.site != SITE_JOB or (fault.n, fault.count) != (1, 1):
            raise ValueError(
                f"scenario {scenario.name!r}: a worker fault must be a "
                f"slow/crash fault firing once, on its shard's first job"
            )
        shard = _resolve_shard(shard_spec, identities, scenario.workers, rng)
        worker_env[shard] = {SERVE_FAULT_ENV: fault.env()}
    return ChaosPlan(
        scenario=scenario,
        seed=seed,
        requests=planned,
        identities=identities,
        actions=resolved_actions,
        worker_env=worker_env,
    )


# -- the shipped scenario catalog --------------------------------------

SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="kill-mid-request",
            description=(
                "SIGKILL the home shard while it is provably serving a "
                "slow request; the answer must arrive via failover, "
                "bit-identical to standalone"
            ),
            workers=2,
            requests=4,
            distinct_identities=1,
            client_retries=5,
            worker_fault=("home:0", slow_job(seconds=2.5)),
            actions=(
                ChaosAction(
                    kind=ACTION_KILL,
                    shard="home:0",
                    after_responses=0,
                    delay_s=0.8,
                ),
            ),
        ),
        ChaosScenario(
            name="kill-during-roll",
            description=(
                "start a rolling restart mid-load, then SIGKILL a worker "
                "while the roll is in flight; no admitted request may be "
                "lost"
            ),
            workers=3,
            requests=10,
            distinct_identities=3,
            client_retries=8,
            actions=(
                ChaosAction(kind=ACTION_ROLL, after_responses=2),
                ChaosAction(kind=ACTION_KILL, after_responses=4),
            ),
        ),
        ChaosScenario(
            name="hung-worker",
            description=(
                "SIGSTOP one worker mid-load (alive but silent); the "
                "probe gate must reclaim and respawn it while its "
                "keyspace fails over"
            ),
            workers=2,
            requests=8,
            distinct_identities=2,
            client_retries=8,
            actions=(
                ChaosAction(
                    kind=ACTION_SUSPEND, shard="home:0", after_responses=2
                ),
            ),
        ),
        ChaosScenario(
            name="slow-shard",
            description=(
                "one shard serves a pathologically slow job; every "
                "request still completes with the right answer and no "
                "retry storm"
            ),
            workers=2,
            requests=6,
            distinct_identities=2,
            client_retries=5,
            worker_fault=("home:0", slow_job(seconds=1.0)),
        ),
        ChaosScenario(
            name="corrupt-cache-under-load",
            description=(
                "corrupt every shard's schedule cache mid-load, then "
                "roll the fleet; workers must heal (quarantine + "
                "compact) and keep answering bit-identically"
            ),
            workers=2,
            requests=12,
            distinct_identities=3,
            client_retries=8,
            actions=(
                ChaosAction(kind=ACTION_CORRUPT_CACHE, after_responses=6),
                ChaosAction(kind=ACTION_ROLL, after_responses=8),
            ),
        ),
        ChaosScenario(
            name="tune-under-fire",
            description=(
                "SIGKILL a worker while a journaled tune grid is in "
                "flight; every cell must still settle ok (failover + "
                "retries) and a resume from the journal must reproduce "
                "the report bit-for-bit"
            ),
            workers=2,
            requests=4,  # informational: the grid below has 4 cells
            distinct_identities=2,
            client_retries=8,
            actions=(
                ChaosAction(kind=ACTION_KILL, after_responses=1),
            ),
            tune={
                "kernels": ["matmul", "mxv"],
                "grid": [{}, {"use_nti": False}],
                "fast": True,
            },
        ),
        ChaosScenario(
            name="429-storm",
            description=(
                "queue_limit=1 plus a burst of distinct identities: "
                "admission shedding must be loud (429 + Retry-After), "
                "bounded, and fully accounted"
            ),
            workers=2,
            requests=10,
            distinct_identities=6,
            queue_limit=1,
            client_retries=0,
            client_concurrency=10,
            require_all_ok=False,
            worker_fault=("home:0", slow_job(seconds=0.8)),
        ),
    )
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ChaosScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {name!r}; known: {scenario_names()}"
        ) from None
