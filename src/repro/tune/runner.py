"""The tune job executor: fan cells across the fleet, journal progress.

:class:`TuneRunner` drives one planned tune grid to completion.  Every
cell is executed as an **ordinary** ``/v1/optimize`` against the fleet
router — so request coalescing, deadline budgets, circuit breakers and
health-gated failover all apply to tune traffic unchanged, and every
schedule a cell searches lands in the home shard's
:class:`~repro.cache.ScheduleCache` as a side effect (the fleet is warm
for subsequent ``/v1/optimize`` calls by construction).

Crash safety is the sweep's own: :class:`TuneRunner` is a
:class:`repro.sweep.runner.CellRunner`, the same runner
:class:`repro.sweep.SweepRunner` is — per-cell retries on the
deterministic :class:`~repro.sweep.runner.RetryPolicy` backoff (any
error while submitting or replaying a cell is a failed attempt),
quarantine after the last attempt, and every settled cell appended to
the checksummed ``repro-sweep-v1`` :class:`~repro.sweep.Journal`.  A
SIGKILLed tune re-run on the same journal resumes: completed cells are
replayed from their journaled values, and because a cell's milliseconds
come from a **deterministic simulator replay** of the returned
schedules (never wall-clock), the final ``repro-tune-report-v1`` is
bit-identical to an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.exitcodes import EXIT_OK, EXIT_QUARANTINED
from repro.obs.events import EVENT_TUNE_REPORT, EVENT_TUNE_START
from repro.sweep import Journal, SweepCell
from repro.sweep.runner import CellOutcome, CellRunner, RetryPolicy
from repro.tune.schema import (
    CELL_OK,
    CELL_QUARANTINED,
    CELL_RESUMED,
    cell_record,
    tune_report,
)
from repro.util import ServeError


def _stable_seed(text: str) -> int:
    """A deterministic 32-bit seed from a cell key (for client backoff)."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16)


def _machine_for(cell: SweepCell):
    """The simulator used for deterministic cell replay."""
    from repro.arch import platform_by_name
    from repro.experiments.harness import ExperimentConfig

    arch = platform_by_name(cell.platform)
    return arch, ExperimentConfig(fast=cell.fast).machine(arch)


def replay_ms(cell: SweepCell, schedules_payload: Sequence[Dict]) -> float:
    """Simulated milliseconds of a cell's returned schedules.

    The serve worker already timed the schedules, but wall-clock numbers
    are not reproducible across runs or shards — so the tune layer
    re-times them on the deterministic simulator, making journaled
    values (and therefore resumed reports) bit-stable.
    """
    from repro.frontend.corpus import corpus_kernel
    from repro.ir.serialize import schedule_from_dict

    case = corpus_kernel(cell.benchmark).case(fast=cell.fast)
    arch, machine = _machine_for(cell)
    by_stage = {
        entry["stage"]: entry["schedule"] for entry in schedules_payload
    }
    schedules = {}
    for stage in case.pipeline:
        if stage.name not in by_stage:
            raise ServeError(
                f"result for {cell.key()} is missing stage {stage.name!r}"
            )
        schedules[stage] = schedule_from_dict(stage, by_stage[stage.name])
    return machine.time_pipeline(case.pipeline, schedules)


def baseline_ms_for(cell: SweepCell) -> float:
    """Deterministic baseline milliseconds for a cell's kernel."""
    from repro.experiments.harness import schedules_for
    from repro.frontend.corpus import corpus_kernel

    case = corpus_kernel(cell.benchmark).case(fast=cell.fast)
    arch, machine = _machine_for(cell)
    return machine.time_pipeline(
        case.pipeline, schedules_for(case, "baseline", arch)
    )


#: One settled tune cell (the runner's shared outcome type).
TuneOutcome = CellOutcome


@dataclass
class TuneReport:
    """Everything one finished tune produced."""

    tune_id: str
    platforms: List[str]
    outcomes: List[TuneOutcome] = field(default_factory=list)

    @property
    def quarantined(self) -> List[TuneOutcome]:
        return [o for o in self.outcomes if o.status == CELL_QUARANTINED]

    @staticmethod
    def record(outcome: TuneOutcome) -> Dict:
        """The repro-tune-v1 stream record for one settled cell."""
        cell = outcome.cell
        return cell_record(
            key=cell.key(),
            status=outcome.status,
            kernel=cell.benchmark,
            platform=cell.platform,
            options=cell.options.cache_dict(),
            ms=outcome.ms,
            baseline_ms=(
                baseline_ms_for(cell) if outcome.ms is not None else None
            ),
            error=outcome.error,
        )

    def document(self) -> Dict:
        """The final ``repro-tune-report-v1`` document (bit-stable)."""
        return tune_report(
            tune_id_value=self.tune_id,
            platforms=self.platforms,
            outcomes=[self.record(o) for o in self.outcomes],
        )

    def exit_code(self) -> int:
        return EXIT_QUARANTINED if self.quarantined else EXIT_OK

    def summary(self) -> str:
        ok = sum(
            1 for o in self.outcomes if o.status in (CELL_OK, CELL_RESUMED)
        )
        resumed = sum(1 for o in self.outcomes if o.status == CELL_RESUMED)
        parts = [
            f"tune {self.tune_id}: {len(self.outcomes)} cells: {ok} ok"
        ]
        if resumed:
            parts.append(f"{resumed} resumed from journal")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        return ", ".join(parts)

    def install_winners(self, cache) -> int:
        """Write each (kernel, platform) winner's schedules into a
        :class:`~repro.cache.ScheduleCache`; returns stores made.

        The fleet's shard caches are warm already (each cell ran as a
        real ``/v1/optimize`` on its home shard); this explicitly warms
        an *additional* cache — e.g. a standalone server's, or a local
        file handed to ``repro tune --schedule-cache``.
        """
        from repro.frontend.corpus import corpus_kernel
        from repro.ir.serialize import schedule_from_dict

        winners: Dict[str, TuneOutcome] = {}
        for outcome in self.outcomes:
            if outcome.ms is None or not outcome.schedules:
                continue
            slot = f"{outcome.cell.benchmark}@{outcome.cell.platform}"
            best = winners.get(slot)
            if best is None or outcome.ms < best.ms:
                winners[slot] = outcome
        stores = 0
        for outcome in winners.values():
            cell = outcome.cell
            kernel = corpus_kernel(cell.benchmark)
            case = kernel.case(fast=cell.fast)
            arch, _machine = _machine_for(cell)
            by_stage = {
                entry["stage"]: entry["schedule"]
                for entry in outcome.schedules
            }
            for stage in case.pipeline:
                payload = by_stage.get(stage.name)
                if payload is None:
                    continue
                cache.put(
                    stage,
                    arch,
                    cell.options.cache_dict(),
                    schedule_from_dict(stage, payload),
                    meta={
                        "origin": "tune",
                        "kernel": cell.benchmark,
                        "arch": arch.name,
                    },
                )
                stores += 1
        return stores


class TuneRunner(CellRunner):
    """Run tune cells against a fleet router, crash-safely.

    Parameters
    ----------
    journal:
        The resumable :class:`~repro.sweep.Journal` holding per-cell
        progress; pass the same path to resume an interrupted tune.
    host / port:
        The fleet router (or a single serve worker — the protocol is
        identical) every cell is submitted to.
    jobs:
        Concurrent in-flight cells (each on its own thread + client).
    timeout_s:
        Socket timeout for one cell round-trip.
    deadline_ms:
        Optional per-cell server-side budget, forwarded on the request.
    retry:
        A :class:`~repro.sweep.runner.RetryPolicy`; quarantine after its
        ``max_attempts``.
    client_retries:
        Shed-response (429/503) re-submissions *within* one attempt,
        delegated to :class:`~repro.serve.client.ServeClient`.
    """

    namespace = "tune"

    def __init__(
        self,
        journal: Journal,
        *,
        host: str = "127.0.0.1",
        port: int,
        jobs: int = 1,
        timeout_s: float = 120.0,
        deadline_ms: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        client_retries: int = 8,
        progress=None,
        tracer=None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(
            journal,
            jobs=jobs,
            retry=retry,
            progress=progress,
            tracer=tracer,
            sleeper=sleeper,
        )
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.deadline_ms = deadline_ms
        self.client_retries = client_retries

    def run(
        self,
        cells: Sequence[SweepCell],
        *,
        tune_id: str = "",
        on_record: Optional[Callable[[Dict], None]] = None,
    ) -> TuneReport:
        """Execute every cell (resuming from the journal); returns the
        report.  ``on_record`` is invoked once per settled cell with its
        stream record — resumed cells first, then live ones in input
        order (serialized under a lock for ``jobs > 1``)."""
        platforms = sorted({cell.platform for cell in cells})
        self.tracer.event(
            EVENT_TUNE_START,
            tune_id=tune_id,
            cells=len({cell.key() for cell in cells}),
            platforms=platforms,
        )
        report = TuneReport(tune_id=tune_id, platforms=platforms)

        def settle(outcome: TuneOutcome) -> None:
            report.outcomes.append(outcome)
            if on_record is not None:
                on_record(report.record(outcome))

        self._run(cells, settle)
        self.tracer.event(
            EVENT_TUNE_REPORT,
            tune_id=tune_id,
            cells=len(report.outcomes),
            quarantined=len(report.quarantined),
        )
        return report

    def _journal_trail(self, trail, errors: List[str]) -> List[str]:
        """The tune trail: one ``attempt N: Type: msg`` per failure."""
        return [
            f"attempt {attempt}: {error}"
            for attempt, error in enumerate(errors, 1)
        ]

    def _attempt(self, cell: SweepCell, attempt: int):
        """One live try: submit through the router, replay the answer."""
        from repro.frontend.corpus import corpus_kernel
        from repro.serve.client import ServeClient

        kernel = corpus_kernel(cell.benchmark)
        client = ServeClient(
            self.host,
            self.port,
            timeout_s=self.timeout_s,
            retries=self.client_retries,
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
            backoff_seed=_stable_seed(f"{cell.key()}#{attempt}"),
        )
        result = client.optimize(
            platform=cell.platform,
            fast=cell.fast,
            deadline_ms=self.deadline_ms,
            spec=kernel.spec,
            dims=dict(kernel.fast_dims if cell.fast else kernel.dims),
            dtypes=None if kernel.dtypes is None else dict(kernel.dtypes),
            params=None if kernel.params is None else dict(kernel.params),
            **cell.options.cache_dict(),
        )
        schedules = result.get("schedules") or []
        return replay_ms(cell, schedules), schedules
