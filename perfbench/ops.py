"""One operation of each offline workload, and the expected-output check.

An operation takes one :class:`plan.KernelInput` through the program's
public entry points:

* ``search`` — lower the spec, ``optimize`` every stage;
* ``price`` — the same, then lower the schedules and simulate them on
  the price machine (``Machine.run_pipeline``);
* ``multistride`` — ``optimize(..., multistride="auto")`` per stage,
  then price on a machine with the multi-stream prefetcher model.

With a tracer the same operation is split at each layer boundary so the
ledger can time the layers: the benchmark opens ``bench.*`` spans around
its own calls (the program's spans nest inside them), calls
``decide_strategy`` separately from ``optimize`` and lowers the
schedules before ``Machine.run_lowered``.  Both forms produce the same
schedules and simulated counters, and both are checked against the
expected outputs recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from plan import (
    MULTISTRIDE_LINE_BUDGET,
    PLATFORM,
    PRICE_LINE_BUDGET,
    KernelInput,
)

#: NestCounters fields recorded per simulated nest, in this order.
NEST_FIELDS = (
    "l1_hits", "l2_hits", "l3_hits", "mem_lines", "prefetch_mem_lines",
    "nt_lines", "writeback_lines", "late_pf_hits", "emitted_lines",
    "simulated_stmts", "total_stmts",
)

EXPECTED_FORMAT = "perfbench-expected-v1"

#: The clock of every host time an offline workload measures: CPU seconds
#: of this process.  Offline operations are single-threaded and never
#: wait, so this is their wall time minus the time the hypervisor of a
#: shared machine ran someone else (see also hostspeed.py).
cpu_clock = time.process_time


def schedule_digest(payload: Dict) -> str:
    """sha256 of a schedule's canonical ``schedule_to_dict`` JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def nest_rows(sim_result) -> List[List[int]]:
    """The recorded counters of every nest of one simulation."""
    return [
        [int(getattr(counters, name)) for name in NEST_FIELDS]
        for counters in sim_result.counters
    ]


class Program:
    """The program's public surface the benchmark drives, imported once.

    Constructing it imports the program; nothing here keeps state
    between operations except the machines, which are stateless between
    simulations.
    """

    def __init__(self) -> None:
        from repro.arch import platform_by_name
        from repro.cachesim import StreamModelParams
        from repro.core.optimizer import optimize
        from repro.frontend.corpus import corpus_kernel
        from repro.frontend.lowering import lower_spec
        from repro.ir.lower import lower_pipeline
        from repro.ir.serialize import schedule_to_dict
        from repro.multistride import decide_strategy
        from repro.sim.machine import Machine

        self.arch = platform_by_name(PLATFORM)
        self.corpus = corpus_kernel
        self.optimize = optimize
        self.decide_strategy = decide_strategy
        self.lower_spec = lower_spec
        self.lower_pipeline = lower_pipeline
        self.schedule_to_dict = schedule_to_dict
        self.price_machine = Machine(self.arch, line_budget=PRICE_LINE_BUDGET)
        self.multistride_machine = Machine(
            self.arch,
            line_budget=MULTISTRIDE_LINE_BUDGET,
            stream_model=StreamModelParams(),
        )

    def lower(self, kernel: KernelInput):
        return self.lower_spec(
            kernel.spec,
            dict(kernel.dims),
            dtypes=None if kernel.dtypes is None else dict(kernel.dtypes),
            params=None if kernel.params is None else dict(kernel.params),
            name=kernel.name,
        )

    def machine_for(self, workload: str):
        if workload == "multistride":
            return self.multistride_machine
        return self.price_machine

    def price(self, lowered, schedules, machine=None):
        """Simulate scheduled stages; returns the ``MachineReport``."""
        machine = machine or self.price_machine
        return machine.run_pipeline(lowered.pipeline, schedules)


@dataclass
class OpRecord:
    """What one operation produced and what it cost."""

    key: str
    #: CPU seconds (:data:`cpu_clock`); the offline runner rescales them
    #: to the nominal host speed (hostspeed.py).
    latency_s: float = 0.0
    optimize_s: float = 0.0
    schedules: Dict[str, str] = field(default_factory=dict)
    sim_ms: Optional[float] = None
    nests: Optional[List[List[int]]] = None
    error: Optional[str] = None
    #: Traced ops only: the stage Funcs in optimize order (the ledger
    #: replays classify on them).
    stages: List[object] = field(default_factory=list, repr=False)


def run_op(
    program: Program,
    workload: str,
    kernel: KernelInput,
    *,
    tracer=None,
    priced: Optional[List[Tuple[list, object]]] = None,
) -> OpRecord:
    """Run one operation; never raises (an exception is the op's error).

    With ``tracer`` the operation is split at layer boundaries and every
    simulation the benchmark itself starts is appended to ``priced`` as
    ``(nests, machine)`` for the ledger's replay.
    """
    record = OpRecord(key=kernel.key)
    started = cpu_clock()
    try:
        _run(program, workload, kernel, record, tracer, priced)
    except Exception as exc:  # the op fails; the run goes on
        record.error = f"{type(exc).__name__}: {exc}"
    record.latency_s = cpu_clock() - started
    return record


def _run(program, workload, kernel, record, tracer, priced) -> None:
    traced = tracer is not None
    if traced:
        with tracer.span("bench.lower_spec"):
            lowered = program.lower(kernel)
    else:
        lowered = program.lower(kernel)
    schedules = {}
    for stage in lowered.pipeline:
        t0 = cpu_clock()
        if workload != "multistride":
            schedule = program.optimize(
                stage, program.arch, **dict(kernel.overlay)
            ).schedule
        elif not traced:
            schedule = program.optimize(
                stage, program.arch, multistride="auto"
            ).schedule
        else:
            # optimize(multistride="auto") is exactly the plain flow
            # followed by the three-way classifier; split so the
            # classifier's own pricing is timed as its own layer.
            tile = program.optimize(stage, program.arch).schedule
            with tracer.span("bench.decide"):
                schedule = program.decide_strategy(
                    stage, program.arch, tile, multistride="auto",
                    tracer=tracer,
                ).schedule
        record.optimize_s += cpu_clock() - t0
        if traced:
            record.stages.append(stage)
        schedules[stage] = schedule
        record.schedules[stage.name] = schedule_digest(
            program.schedule_to_dict(schedule)
        )
    if workload == "search":
        return
    machine = program.machine_for(workload)
    if traced:
        with tracer.span("bench.lower"):
            nests = program.lower_pipeline(lowered.pipeline, schedules)
        with tracer.span("bench.price"):
            report = machine.run_lowered(nests)
        priced.append((nests, machine))
    else:
        report = program.price(lowered, schedules, machine)
    record.sim_ms = report.total_ms
    record.nests = nest_rows(report.sim)


# ---------------------------------------------------------------------
# Expected outputs
# ---------------------------------------------------------------------


def expected_entry(record: OpRecord) -> Dict:
    """The expected-output record of one op (what record_expected writes)."""
    entry: Dict = {"schedules": dict(record.schedules)}
    if record.sim_ms is not None:
        entry["sim_ms"] = record.sim_ms
    if record.nests is not None:
        entry["nests"] = record.nests
    return entry


def check_op(record: OpRecord, expected: Optional[Dict]) -> List[str]:
    """Mismatches between one op's outputs and its expected record."""
    if record.error is not None:
        return [f"{record.key}: {record.error}"]
    if expected is None:
        return [f"{record.key}: no expected output recorded"]
    problems = []
    if record.schedules != expected["schedules"]:
        problems.append(f"{record.key}: schedule digest differs")
    if record.nests is not None and record.nests != expected.get("nests"):
        problems.append(f"{record.key}: simulated counters differ")
    if record.sim_ms is not None and record.sim_ms != expected.get("sim_ms"):
        problems.append(
            f"{record.key}: simulated ms {record.sim_ms!r} != "
            f"{expected.get('sim_ms')!r}"
        )
    return problems


def geomean(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))
