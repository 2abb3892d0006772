"""Execution simulation: loop nests -> memory trace -> cache sim -> time.

The pipeline is:

1. :mod:`repro.sim.trace` assigns every buffer a base address and turns
   a lowered :class:`~repro.ir.loopnest.LoopNest` into a flat stream of
   **cache-line granular** ``(line, ref)`` accesses, one numpy pass per
   block of consecutive outer iterations.  Long nests are *sampled*:
   emission stops after a line budget and the covered fraction of the
   iteration space is recorded so costs can be extrapolated.
2. :mod:`repro.sim.executor` feeds the blocks to the demand loop of a
   :class:`~repro.cachesim.CacheHierarchy` and collects per-nest counter
   deltas.
3. :mod:`repro.sim.timing` converts counters into milliseconds with a
   documented cost model (issue width, vector lanes, per-level latencies,
   memory-level parallelism, a DRAM bandwidth roofline, and core scaling
   for parallel loops).
4. :mod:`repro.sim.machine` is the user-facing facade:
   ``Machine(arch).time_funcs(...)`` and friends.
"""

from repro.sim.trace import MemoryLayout, TraceGenerator, NestTrace
from repro.sim.executor import NestCounters, SimResult, run_nests
from repro.sim.timing import TimingModel, NestTime
from repro.sim.machine import Machine, MachineReport
from repro.sim.report import explain
from repro._lazy import lazy_exports

# The value interpreter checks schedules in tests; no timing run uses it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "BufferStore": "repro.sim.interpret",
    "execute": "repro.sim.interpret",
    "execute_nest": "repro.sim.interpret",
    "execute_pipeline": "repro.sim.interpret",
})

__all__ = [
    "MemoryLayout",
    "TraceGenerator",
    "NestTrace",
    "NestCounters",
    "SimResult",
    "run_nests",
    "TimingModel",
    "NestTime",
    "Machine",
    "MachineReport",
    "explain",
    "BufferStore",
    "execute",
    "execute_nest",
    "execute_pipeline",
]
