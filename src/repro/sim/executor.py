"""Drive generated traces through the cache hierarchy.

``run_nests`` executes a sequence of lowered nests (the definitions of one
or more pipeline stages, in order) against one shared
:class:`~repro.cachesim.CacheHierarchy`, so later stages see the cache state
earlier stages left behind — as on real hardware.

Each sampling window is a :class:`~repro.sim.trace.TraceGenerator` whose
blocks — flat ``(line, ref)`` streams in program order, as numpy arrays —
go straight into :meth:`CacheHierarchy.run`, which counts the serving
level of every access in place; no per-chunk or per-access work happens
here.  Each nest gets its own line budget; the per-nest counter deltas
and the sampling scale factor are recorded in a :class:`NestCounters`
for the timing model to extrapolate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cachesim import CacheHierarchy
from repro.ir.loopnest import LoopNest
from repro.obs.events import EVENT_SIM_NEST
from repro.obs.tracer import current_tracer
from repro.sim.trace import MemoryLayout, TraceGenerator


@dataclass
class NestCounters:
    """Simulated counters for one nest, before extrapolation."""

    nest: LoopNest
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    mem_lines: int = 0
    prefetch_mem_lines: int = 0
    nt_lines: int = 0
    writeback_lines: int = 0
    late_pf_hits: int = 0
    simulated_stmts: int = 0
    total_stmts: int = 0
    emitted_lines: int = 0
    truncated: bool = False

    @property
    def scale(self) -> float:
        if self.simulated_stmts <= 0:
            return 1.0
        return max(1.0, self.total_stmts / self.simulated_stmts)

    @property
    def demand_accesses(self) -> int:
        return self.l1_hits + self.l2_hits + self.l3_hits + self.mem_lines

    def scaled(self, name: str) -> float:
        """A counter extrapolated to the full nest."""
        return getattr(self, name) * self.scale


@dataclass
class SimResult:
    """Outcome of simulating a whole pipeline: per-nest counters plus the
    shared hierarchy and layout (exposed for diagnostics/tests)."""

    counters: List[NestCounters]
    hierarchy: CacheHierarchy
    layout: MemoryLayout

    def nest_named(self, name: str) -> NestCounters:
        for c in self.counters:
            if c.nest.name == name:
                return c
        raise KeyError(f"no simulated nest named {name!r}")

    def total_scaled(self, name: str) -> float:
        return sum(c.scaled(name) for c in self.counters)


#: An inner block larger than this is treated as unsampleable: untiled
#: nests have gigantic "inner blocks" (their whole row/plane sweeps) whose
#: steady state arrives within any reasonable window anyway, so only
#: genuine tile bodies — bounded by the cache working-set constraints —
#: should grow the window.
_MAX_REUSE_BLOCK = 150_000
#: Hard ceiling on any adaptively grown window.
_MAX_ADAPTIVE_BUDGET = 400_000


def _adaptive_budget(nest: LoopNest, base: int) -> int:
    """Grow the sampling window to cover the nest's inner reuse block.

    A tiled nest only shows its steady-state hit rates once the window
    spans a couple of complete tile passes; a window smaller than one pass
    measures pure cold-start and wildly overestimates latency.  The block
    is the longest innermost run of loops whose combined trip count stays
    within :data:`_MAX_REUSE_BLOCK`; the window gets twice that (in line
    accesses, which for strided reference mixes is about one per
    statement).
    """
    block = 1
    for loop in reversed(nest.loops):
        if block * loop.extent > _MAX_REUSE_BLOCK:
            break
        block *= loop.extent
    needed = 2 * block
    # Never grow beyond 8x the configured budget (smoke runs with tiny
    # budgets stay tiny) nor beyond the hard ceiling.
    return max(base, min(needed, 8 * base, _MAX_ADAPTIVE_BUDGET))


def run_nests(
    nests: Sequence[LoopNest],
    hierarchy: CacheHierarchy,
    *,
    layout: Optional[MemoryLayout] = None,
    line_budget: int = 200_000,
) -> SimResult:
    """Simulate ``nests`` in order on ``hierarchy``.

    Parameters
    ----------
    nests:
        Lowered nests, in execution order.
    hierarchy:
        The (fresh or pre-warmed) cache hierarchy to run against.
    layout:
        Shared memory layout; created on demand.  Pass one explicitly when
        several ``run_nests`` calls must agree on buffer placement.
    line_budget:
        Per-nest cap on emitted line accesses (sampling window), grown so
        the window covers at least two of the nest's inner reuse blocks
        (see :func:`_adaptive_budget`).
    """
    layout = layout or MemoryLayout()
    out: List[NestCounters] = []
    num_levels = hierarchy.num_levels
    tracer = current_tracer()
    for nest in nests:
        budget = _adaptive_budget(nest, line_budget)
        counters = NestCounters(nest=nest)
        # Window 1: a prefix of the iteration space.  If it does not cover
        # the nest, add a second window starting mid-space: long-distance
        # capacity misses (e.g. re-reading a whole input per outer filter
        # iteration) are invisible to a start-anchored window but dominate
        # such nests' real traffic.
        first = _run_window(
            nest, hierarchy, layout, counters, budget // 2 + budget % 2,
            phase=0.0, num_levels=num_levels,
        )
        if first.truncated:
            _run_window(
                nest, hierarchy, layout, counters, budget // 2,
                phase=0.5, num_levels=num_levels,
            )
            counters.truncated = True
        counters.total_stmts = first.total_stmts
        out.append(counters)
        if tracer.enabled:
            tracer.count("sim.nests")
            tracer.event(
                EVENT_SIM_NEST,
                nest=nest.name,
                l1_hits=counters.l1_hits,
                l2_hits=counters.l2_hits,
                l3_hits=counters.l3_hits,
                mem_lines=counters.mem_lines,
                prefetch_mem_lines=counters.prefetch_mem_lines,
                nt_lines=counters.nt_lines,
                writeback_lines=counters.writeback_lines,
                simulated_stmts=counters.simulated_stmts,
                total_stmts=counters.total_stmts,
                coverage=(
                    counters.simulated_stmts / counters.total_stmts
                    if counters.total_stmts
                    else 1.0
                ),
                truncated=counters.truncated,
                line_budget=budget,
            )
    return SimResult(counters=out, hierarchy=hierarchy, layout=layout)


def _run_window(
    nest: LoopNest,
    hierarchy: CacheHierarchy,
    layout: MemoryLayout,
    counters: NestCounters,
    budget: int,
    *,
    phase: float,
    num_levels: int,
):
    """Stream one sampling window into the hierarchy, accumulating into
    ``counters``; returns the window's trace record."""
    gen = TraceGenerator(
        nest, layout, hierarchy.line_size, line_budget=budget, phase=phase
    )
    stats = hierarchy.stats
    pf_mem_before = stats.prefetch_memory_lines
    wb_before = stats.writeback_lines
    late_before = stats.late_prefetch_hits
    nt_before = stats.nt_store_lines
    run = hierarchy.run
    kinds = gen.ref_kinds
    level_hits = [0] * (num_levels + 2)
    for block in gen.blocks():
        run(block.lines, block.refs, kinds, level_hits)
    # DRAM transactions after write-combining, not emitted store accesses.
    counters.nt_lines += stats.nt_store_lines - nt_before
    counters.l1_hits += level_hits[1]
    counters.l2_hits += level_hits[2]
    if num_levels >= 3:
        counters.l3_hits += level_hits[3]
        counters.mem_lines += level_hits[4]
    else:
        counters.mem_lines += level_hits[3]
    counters.simulated_stmts += gen.record.simulated_stmts
    counters.emitted_lines += gen.record.emitted_lines
    counters.truncated = counters.truncated or gen.record.truncated
    counters.prefetch_mem_lines += stats.prefetch_memory_lines - pf_mem_before
    counters.writeback_lines += stats.writeback_lines - wb_before
    counters.late_pf_hits += stats.late_prefetch_hits - late_before
    return gen.record
