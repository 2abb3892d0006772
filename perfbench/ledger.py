"""The traced run: per-layer numbers from the program's own spans.

A traced pass runs with a :class:`repro.obs.CollectingTracer` installed.
The program already records the spans ``optimize``, ``temporal.search``,
``temporal.order``, ``spatial.search`` and ``sim.run``, the candidate
counters, and one event per ``emu`` call and per simulated nest; the
benchmark adds ``bench.*`` spans around its own calls into each layer.

Three layers have no span of their own, so the ledger drives them again
from outside, on exactly the inputs the trace recorded:

* **classify** — each optimized stage is classified again;
* **emu** — every distinct recorded ``emu`` input (the memo's misses,
  since each pass starts from an empty memo) runs through ``emu()`` with
  the memo off, and must return the recorded ``max_ti``;
* **the simulator** — every ``sim.run`` the benchmark started is split:
  trace generation (``TraceGenerator.chunks()``, on the windows the
  ``sim.nest`` events report) is timed alone, the emitted lines are then
  replayed through a fresh ``CacheHierarchy`` (``access``/``nt_store``),
  and ``time_nest`` is timed last.  The replay must reproduce every
  ``sim.nest`` counter and the ``sim.total`` time exactly.

The layer table splits the traced pass's end-to-end time into these
layers plus an explicit ``unattributed`` row, so the shares sum to 100%.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Search spans whose self time excludes the emu calls made inside them.
SEARCH_SPANS = {
    "temporal.search": "search.temporal",
    "temporal.order": "search.order",
    "spatial.search": "search.spatial",
}

#: Counters a sim.nest event carries that the replay must reproduce.
NEST_CHECKS = (
    "l1_hits", "l2_hits", "l3_hits", "mem_lines", "prefetch_mem_lines",
    "nt_lines", "writeback_lines", "simulated_stmts", "total_stmts",
    "truncated",
)


@dataclass
class Ledger:
    """Per-layer numbers of one traced pass."""

    total_ms: float = 0.0
    #: Layer rows of the table, in pipeline order.
    rows: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class _SimRun:
    elapsed_ms: float = 0.0
    nests: List[Dict] = field(default_factory=list)
    total_ms: Optional[float] = None


def _walk(events: Sequence[Dict]):
    """Yield (kind, event, open-span stack) in record order."""
    stack: List[str] = []
    for event in events:
        kind = event["kind"]
        if kind == "span_begin":
            stack.append(event["name"])
            yield kind, event, tuple(stack)
        elif kind == "span_end":
            yield kind, event, tuple(stack)
            if stack and stack[-1] == event["name"]:
                stack.pop()
        else:
            yield kind, event, tuple(stack)


def _innermost_search(stack: Tuple[str, ...]) -> Optional[str]:
    for name in reversed(stack):
        if name in SEARCH_SPANS:
            return name
    return None


def analyze_offline(program, events, counters, stages, priced) -> Ledger:
    """Build the ledger of one traced offline pass.

    ``stages`` are the optimized stage Funcs in call order; ``priced``
    the ``(nests, machine)`` of every simulation the benchmark started,
    in order.
    """
    ledger = Ledger()
    span_ms: Dict[str, float] = defaultdict(float)
    span_calls: Dict[str, int] = defaultdict(int)
    emu_events: List[Tuple[Optional[str], int, Dict]] = []
    sim_runs: List[_SimRun] = []
    current: Optional[_SimRun] = None
    optimize_index = -1
    decide_sims = 0
    for kind, event, stack in _walk(events):
        name = event["name"]
        if kind == "span_begin":
            if name == "optimize":
                optimize_index += 1
            elif name == "sim.run" and "bench.price" in stack:
                current = _SimRun()
            continue
        if kind == "span_end":
            span_ms[name] += event["elapsed_ms"]
            span_calls[name] += 1
            if name == "sim.run":
                if "bench.decide" in stack:
                    decide_sims += 1
                elif current is not None:
                    current.elapsed_ms = event["elapsed_ms"]
                    sim_runs.append(current)
                    current = None
            continue
        if name == "emu":
            emu_events.append(
                (_innermost_search(stack), optimize_index, event["attrs"])
            )
        elif name == "sim.nest" and current is not None:
            current.nests.append(event["attrs"])
        elif name == "sim.total" and current is not None:
            current.total_ms = event["attrs"]["total_ms"]

    ledger.total_ms = span_ms["bench.op"]
    if optimize_index + 1 != len(stages):
        ledger.problems.append(
            f"{optimize_index + 1} optimize spans for {len(stages)} stages"
        )

    dts, classify_ms = _replay_classify(stages)
    emu_by_span, emu_ms = _replay_emu(
        program, emu_events, dts, counters, ledger.problems
    )

    rows = ledger.rows
    rows["frontend.lower_spec"] = span_ms["bench.lower_spec"]
    rows["classify"] = classify_ms
    rows["emu"] = emu_ms
    for span, row in SEARCH_SPANS.items():
        rows[row] = span_ms[span] - emu_by_span.get(span, 0.0)
    rows["multistride.decide"] = span_ms["bench.decide"]
    rows["lower"] = span_ms["bench.lower"]

    sim = _replay_sims(priced, sim_runs, ledger.problems)
    rows["trace"] = sim["trace_ms"]
    rows["cachesim"] = sim["cachesim_ms"]
    rows["timing"] = sim["timing_ms"]
    sim_run_ms = sum(run.elapsed_ms for run in sim_runs)
    rows["sim.unattributed"] = sim_run_ms - (
        sim["trace_ms"] + sim["cachesim_ms"] + sim["timing_ms"]
    )

    candidates = sum(
        counters.get(f"{phase}.candidates", 0)
        for phase in ("temporal", "spatial")
    )
    pruned = sum(
        value for name, value in counters.items()
        if name.startswith(("temporal.pruned.", "spatial.pruned."))
    )
    search_gross_ms = sum(span_ms[span] for span in SEARCH_SPANS)
    hits = counters.get("stats.emu_cache_hit", 0)
    misses = counters.get("stats.emu_cache_miss", 0)
    nests = sum(len(nests) for nests, _machine in priced)

    counts = ledger.counts
    counts["frontend.lower_spec"] = f"{span_calls['bench.lower_spec']} calls"
    counts["classify"] = f"{len(stages)} calls"
    counts["emu"] = f"{len(emu_events)} calls, {misses} run"
    counts["search.temporal"] = (
        f"{counters.get('temporal.candidates', 0)} candidates"
    )
    counts["search.spatial"] = (
        f"{counters.get('spatial.candidates', 0)} candidates"
    )
    counts["multistride.decide"] = f"{decide_sims} candidates priced"
    counts["lower"] = f"{nests} nests"
    counts["trace"] = f"{sim['emitted']} lines emitted"
    counts["cachesim"] = f"{sim['accesses']} line accesses"
    counts["timing"] = f"{nests} nests"
    counts["sim.unattributed"] = f"{len(sim_runs)} sim.run spans"

    metrics = ledger.metrics
    metrics["frontend.lower_spec.ms"] = rows["frontend.lower_spec"]
    metrics["frontend.lower_spec.calls"] = span_calls["bench.lower_spec"]
    metrics["classify.ms"] = classify_ms
    metrics["classify.calls"] = len(stages)
    metrics["emu.ms"] = emu_ms
    metrics["emu.calls"] = len(emu_events)
    metrics["emu.memo_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["search.temporal.ms"] = rows["search.temporal"]
    metrics["search.order.ms"] = rows["search.order"]
    metrics["search.spatial.ms"] = rows["search.spatial"]
    metrics["search.candidates"] = candidates
    metrics["search.pruned_frac"] = pruned / candidates if candidates else 0.0
    metrics["search.us_per_candidate"] = (
        1000.0 * search_gross_ms / candidates if candidates else 0.0
    )
    metrics["multistride.decide.ms"] = rows["multistride.decide"]
    metrics["multistride.candidates_priced"] = decide_sims
    metrics["lower.ms"] = rows["lower"]
    metrics["lower.nests"] = nests
    metrics["trace.ms"] = sim["trace_ms"]
    metrics["trace.emitted_lines"] = sim["emitted"]
    metrics["trace.ns_per_line"] = (
        1e6 * sim["trace_ms"] / sim["emitted"] if sim["emitted"] else 0.0
    )
    metrics["cachesim.ms"] = sim["cachesim_ms"]
    metrics["cachesim.line_accesses"] = sim["accesses"]
    metrics["cachesim.ns_per_access"] = (
        1e6 * sim["cachesim_ms"] / sim["accesses"] if sim["accesses"] else 0.0
    )
    metrics["timing.ms"] = sim["timing_ms"]
    metrics["sim.run.ms"] = sim_run_ms
    metrics["sim.unattributed.ms"] = rows["sim.unattributed"]
    metrics["sim.coverage"] = (
        (sim["trace_ms"] + sim["cachesim_ms"] + sim["timing_ms"]) / sim_run_ms
        if sim_run_ms else 0.0
    )
    return ledger


def _replay_classify(stages) -> Tuple[List[int], float]:
    """Classify every optimized stage again; returns (dtype sizes, ms)."""
    from repro.core.classify import classify

    dts: List[int] = []
    elapsed = 0.0
    for stage in stages:
        started = time.perf_counter()
        verdict = classify(stage)
        elapsed += time.perf_counter() - started
        dts.append(verdict.info.dtype_size)
    return dts, elapsed * 1000.0


def _replay_emu(program, emu_events, dts, counters, problems):
    """Run each distinct recorded emu input once with the memo off.

    Returns (ms attributed to the search span each first call sat in,
    total ms).  Every replay must return the recorded ``max_ti``.
    """
    from repro.core.emu import EmuParams, configure_emu_cache, emu

    first: Dict[Tuple, Tuple[Optional[str], int]] = {}
    for span, index, attrs in emu_events:
        if not 0 <= index < len(dts):
            problems.append("emu event outside any optimize span")
            continue
        key = (
            attrs["level"], attrs["row_width_elems"],
            attrs["row_stride_elems"], attrs["max_rows"], dts[index],
        )
        if key not in first:
            first[key] = (span, attrs["max_ti"])
        elif first[key][1] != attrs["max_ti"]:
            problems.append(f"emu {key}: inconsistent max_ti in the trace")
    misses = counters.get("stats.emu_cache_miss")
    if misses is not None and misses != len(first):
        problems.append(
            f"emu: {len(first)} distinct inputs but {misses} memo misses"
        )
    by_span: Dict[Optional[str], float] = defaultdict(float)
    previous = configure_emu_cache(False)
    try:
        for (level, width, stride, rows, size), (span, max_ti) in first.items():
            params = EmuParams(
                level=level, row_width_elems=width, row_stride_elems=stride,
                max_rows=rows, dts=size,
            )
            started = time.perf_counter()
            got = emu(program.arch, params)
            by_span[span] += (time.perf_counter() - started) * 1000.0
            if got != max_ti:
                problems.append(f"emu {params}: replay {got} != traced {max_ti}")
    finally:
        configure_emu_cache(previous)
    return by_span, sum(by_span.values())


def _hierarchy(machine, parallel: bool):
    """A fresh hierarchy configured the way ``Machine`` configures one."""
    from repro.cachesim import CacheHierarchy

    arch = machine.arch
    l1 = l2 = l3 = 1
    if parallel:
        if arch.l2_shared_across_cores:
            l2 = arch.n_cores
        elif arch.threads_per_core > 1:
            l1 = l2 = arch.threads_per_core
        l3 = arch.n_cores
    return CacheHierarchy(
        arch,
        l1_ways_divisor=l1,
        l2_ways_divisor=l2,
        l3_capacity_divisor=l3,
        enable_prefetch=machine.enable_prefetch,
        stream_model=machine.stream_model,
    )


def _replay_sims(priced, sim_runs, problems) -> Dict:
    out = {"trace_ms": 0.0, "cachesim_ms": 0.0, "timing_ms": 0.0,
           "emitted": 0, "accesses": 0}
    if len(priced) != len(sim_runs):
        problems.append(
            f"{len(sim_runs)} priced sim.run spans for {len(priced)} "
            f"simulations started"
        )
        return out
    for (nests, machine), run in zip(priced, sim_runs):
        if len(run.nests) != len(nests):
            problems.append(
                f"sim.run reports {len(run.nests)} nests, lowered {len(nests)}"
            )
            continue
        part = replay_sim(nests, machine, run, problems)
        for key in out:
            out[key] += part[key]
    return out


def replay_sim(nests, machine, run: _SimRun, problems: List[str]) -> Dict:
    """Split one simulation into trace generation, demand path and timing."""
    from repro.sim.executor import NestCounters
    from repro.sim.timing import time_nest, total_time_ms
    from repro.sim.trace import MemoryLayout, TraceGenerator

    arch = machine.arch
    hierarchy = _hierarchy(machine, any(n.parallel_loops() for n in nests))
    layout = MemoryLayout()

    # 1. Trace generation alone, window by window as the events report.
    started = time.perf_counter()
    windows = []
    for nest, event in zip(nests, run.nests):
        budget = event["line_budget"]
        gens = [TraceGenerator(
            nest, layout, hierarchy.line_size,
            line_budget=budget // 2 + budget % 2, phase=0.0,
        )]
        chunks = [list(gens[0].chunks())]
        if event["truncated"]:
            gens.append(TraceGenerator(
                nest, layout, hierarchy.line_size,
                line_budget=budget // 2, phase=0.5,
            ))
            chunks.append(list(gens[1].chunks()))
        windows.append((gens, chunks))
    trace_ms = (time.perf_counter() - started) * 1000.0

    # 2. The demand path on the emitted lines.
    num_levels = hierarchy.num_levels
    stats = hierarchy.stats
    access = hierarchy.access
    nt_store = hierarchy.nt_store
    all_counters = []
    accesses = 0
    started = time.perf_counter()
    for nest, (gens, chunk_lists) in zip(nests, windows):
        counters = NestCounters(nest=nest)
        for chunks in chunk_lists:
            pf_before = stats.prefetch_memory_lines
            wb_before = stats.writeback_lines
            late_before = stats.late_prefetch_hits
            level_hits = [0] * (num_levels + 2)
            for chunk in chunks:
                lines = chunk.lines.tolist()
                accesses += len(lines)
                if chunk.nontemporal:
                    before = stats.nt_store_lines
                    for line in lines:
                        nt_store(line)
                    counters.nt_lines += stats.nt_store_lines - before
                    continue
                is_write = chunk.is_store
                ref_id = chunk.ref_id
                for line in lines:
                    level_hits[
                        access(line, is_write=is_write, ref_id=ref_id).hit_level
                    ] += 1
            counters.l1_hits += level_hits[1]
            counters.l2_hits += level_hits[2]
            if num_levels >= 3:
                counters.l3_hits += level_hits[3]
                counters.mem_lines += level_hits[4]
            else:
                counters.mem_lines += level_hits[3]
            counters.prefetch_mem_lines += stats.prefetch_memory_lines - pf_before
            counters.writeback_lines += stats.writeback_lines - wb_before
            counters.late_pf_hits += stats.late_prefetch_hits - late_before
        counters.simulated_stmts = sum(g.record.simulated_stmts for g in gens)
        counters.emitted_lines = sum(g.record.emitted_lines for g in gens)
        counters.total_stmts = gens[0].record.total_stmts
        counters.truncated = len(gens) > 1 or gens[0].record.truncated
        all_counters.append(counters)
    cachesim_ms = (time.perf_counter() - started) * 1000.0

    # 3. The timing model.
    started = time.perf_counter()
    for counters in all_counters:
        time_nest(counters, arch, machine.timing)
    total = total_time_ms(all_counters, arch, machine.timing)
    timing_ms = (time.perf_counter() - started) * 1000.0

    for counters, event in zip(all_counters, run.nests):
        for name in NEST_CHECKS:
            if getattr(counters, name) != event[name]:
                problems.append(
                    f"replay of nest {event['nest']}: {name} "
                    f"{getattr(counters, name)} != traced {event[name]}"
                )
    if run.total_ms is not None and round(total, 6) != run.total_ms:
        problems.append(
            f"replayed total {round(total, 6)} ms != traced {run.total_ms} ms"
        )
    return {
        "trace_ms": trace_ms,
        "cachesim_ms": cachesim_ms,
        "timing_ms": timing_ms,
        "emitted": sum(c.emitted_lines for c in all_counters),
        "accesses": accesses,
    }


def render_table(title: str, total_ms: float, rows: Dict[str, float],
                 counts: Dict[str, str]) -> str:
    """The layer table: every row with ms, share and op count, then an
    ``unattributed`` row closing the total, and the named bottleneck
    (the largest attributed row)."""
    unattributed = total_ms - sum(rows.values())
    lines = [f"{title}: {total_ms:.1f} ms"]
    bottleneck = max(rows, key=rows.get) if rows else "-"
    for name, ms in list(rows.items()) + [("unattributed", unattributed)]:
        share = 100.0 * ms / total_ms if total_ms else 0.0
        mark = "  <- bottleneck" if name == bottleneck else ""
        lines.append(
            f"  |- {name:22s} {ms:11.1f} ms {share:6.1f}%  "
            f"{counts.get(name, '')}{mark}"
        )
    shares = sum(rows.values()) + unattributed
    lines.append(
        f"  `- shares sum to {100.0 * shares / total_ms if total_ms else 0.0:.1f}%;"
        f" bottleneck: {bottleneck}"
    )
    return "\n".join(lines)
