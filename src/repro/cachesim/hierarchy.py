"""The multi-level cache hierarchy with prefetchers and NT stores.

``CacheHierarchy`` glues the pieces together:

* demand accesses probe L1 -> L2 -> (L3) -> memory and fill every missed
  level on the way back (inclusive fills, LRU replacement);
* every demand access triggers the streaming (next-line) prefetchers at L1
  and L2 and trains the per-stream stride prefetcher, whose fills land in
  L2 (and L3 when present) — matching the paper's description of Intel's
  prefetchers;
* non-temporal stores bypass all levels (invalidating stale copies) and
  are counted as direct DRAM line transactions;
* ordinary stores are write-allocate (an RFO fetch) and contribute an
  eventual write-back per allocated line.

The hierarchy is *line-granular* and single-threaded; multi-core effects
are applied by :mod:`repro.sim.machine` through capacity/associativity
scaling, the same modelling device the paper itself uses
(``Liway / Nthreads``).

This class is the simulator's innermost loop.  A block of a trace goes
through :meth:`CacheHierarchy.run`, which splits the work in two:

* what depends on the trace alone runs in numpy, in passes of at most
  8,192 accesses: the write-back set, write-combining of non-temporal
  stores and the training of whichever prefetch engine is on, the
  legacy stride engine
  (:meth:`~repro.cachesim.prefetch.StridePrefetcher.train`) or the
  multi-stream detector
  (:meth:`~repro.cachesim.prefetch.MultiStreamPrefetcher.train`).  The
  paper's stride engine trains per load on that load's addresses only,
  and the detector's engines on the lines of their page, so every
  decision either makes is known before any cache state is;
* what depends on cache state runs in one Python demand loop
  (:meth:`CacheHierarchy._demand`): the probes, fills and evictions of
  every level, the next-line engine and the prefetch fills, each access
  handed the line offsets its engines prefetch.  Under the stream model
  the loop also keeps the clock that tells late prefetch hits from
  on-time ones.  The loop binds every set list, residency map and
  counter to a local and inlines the set index and the fills; counters
  are written back once per call.

One :meth:`~CacheHierarchy.access` or :meth:`~CacheHierarchy.nt_store`
skips numpy: it trains through the engines' scalar steps
(:meth:`~repro.cachesim.prefetch.StridePrefetcher.observe`,
:meth:`~repro.cachesim.prefetch.MultiStreamPrefetcher.advance`) and runs
the same loop on one line.
The generic :class:`~repro.cachesim.cache.SetAssocCache` API and the
engines' ``observe`` methods remain the reference implementation, which
the tests compose into a plain hierarchy to cross-check this path access
by access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch import ArchSpec
from repro.cachesim.cache import SetAssocCache
from repro.cachesim.prefetch import (
    MultiStreamPrefetcher,
    StreamModelParams,
    StridePrefetcher,
)
from repro.cachesim.stats import HierarchyStats

#: Access kinds of a reference, as :meth:`CacheHierarchy.run` reads them.
LOAD, STORE, NT_STORE = 0, 1, 2

#: The prefetch plan of an untrained demand access: the next-line
#: engine's line + 1 (see :meth:`CacheHierarchy.run`).
_UNTRAINED: Tuple[int, ...] = (1,)

#: Accesses per numpy pass of :meth:`CacheHierarchy.run`: its int64
#: temporaries stay near 64 KiB, under glibc's 128 KiB mmap threshold, so
#: they come from the heap instead of fresh mappings faulted in for every
#: pass.
_CHUNK = 8192


def access_kind(is_store: bool, nontemporal: bool) -> int:
    """The :meth:`CacheHierarchy.run` kind of a reference."""
    if nontemporal:
        return NT_STORE
    return STORE if is_store else LOAD


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one demand access: the level that served it (1..3, or 4
    for DRAM), whether that line had been prefetched there, and — under
    the multi-stream detector model — whether the prefetch was still in
    flight when the demand arrived (a *late* prefetch hit, which still
    pays part of the memory latency)."""

    hit_level: int
    prefetch_credit: bool
    late: bool = False


class CacheHierarchy:
    """L1/L2(/L3) + DRAM with streaming and stride prefetchers.

    The demand loop works directly on each level's
    :class:`~repro.cachesim.cache.SetAssocCache` representation: the
    residency map (every resident line -> its prefetch flag), which
    answers each probe with one ``get``, and one list per set in LRU order
    (oldest first).  A hit moves the line to the end unless it is already
    there and clears its flag; a fill appends and, when the set overflows,
    pops its head and deletes the victim from the map; a non-temporal
    store removes the line from both.  Fills dominate the cost (the
    ``price`` kernels evict 1.4 L1 and 0.7 L2 lines per access).  On the
    perfbench ``price`` streams :meth:`run` takes about 1,350 ns per line
    access, against about 1,700 ns when the loop trained the stride engine
    inline and probed set lists (CPU time on a 2-vCPU Xeon VM, scaled to
    perfbench's nominal host speed).  On the ``multistride`` streams it
    takes 23% less than when the multi-stream detector ran inside the
    loop (see docs/MODEL.md § 2.2).

    Parameters
    ----------
    arch:
        Platform description (cache geometry, prefetch degree/distance).
    l1_ways_divisor / l2_ways_divisor:
        Divide that level's associativity to model cache sharing by
        co-running threads (SMT siblings on Intel's private L1/L2, all
        cores on the ARM A15's shared L2) — the paper's effective
        associativity device.
    l3_capacity_divisor:
        Divide the L3 capacity to model sharing across cores.
    enable_prefetch:
        Master switch; disabling yields the prefetch-blind machine used by
        the ablation experiments.
    stream_model:
        Optional :class:`~repro.cachesim.prefetch.StreamModelParams`.
        When set, the legacy next-line + per-``ref_id`` stride engines are
        replaced by the bounded :class:`MultiStreamPrefetcher` (fixed
        engine pool, LRU eviction, in-flight prefetch latency) and demand
        hits on still-in-flight lines are flagged *late*.  ``None`` (the
        default) keeps the legacy model bit-for-bit — every committed
        baseline and golden trace runs with ``None``.
    """

    def __init__(
        self,
        arch: ArchSpec,
        *,
        l1_ways_divisor: int = 1,
        l2_ways_divisor: int = 1,
        l3_capacity_divisor: int = 1,
        enable_prefetch: bool = True,
        stream_model: Optional[StreamModelParams] = None,
    ) -> None:
        if min(l1_ways_divisor, l2_ways_divisor, l3_capacity_divisor) < 1:
            raise ValueError("divisors must be >= 1")
        self.arch = arch
        self.line_size = arch.l1.line_size
        self.enable_prefetch = enable_prefetch

        ways_divisors = {1: l1_ways_divisor, 2: l2_ways_divisor}
        self.levels: List[SetAssocCache] = []
        for idx, spec in enumerate(arch.levels, start=1):
            ways = max(1, spec.ways // ways_divisors.get(idx, 1))
            num_sets = spec.num_sets
            if idx == 3 and l3_capacity_divisor > 1:
                num_sets = max(1, num_sets // l3_capacity_divisor)
            # Intel LLCs use hashed ("complex") set indexing; private L1/L2
            # are plain modulo.
            self.levels.append(
                SetAssocCache(f"L{idx}", num_sets, ways, hashed_index=(idx == 3))
            )
        self.num_levels = len(self.levels)

        self.l2_stride = StridePrefetcher(
            degree=arch.l2_prefetches_per_access,
            max_distance=arch.l2_max_prefetch_distance,
        )
        # Trained stride -> the demand access's prefetch plan.
        self._plans: Dict[int, Tuple[int, ...]] = {}
        self.stream_model = stream_model
        self._multi: Optional[MultiStreamPrefetcher] = None
        # line -> simulated arrival time of its outstanding prefetch.
        self._inflight: dict = {}
        self.stats = HierarchyStats(levels=[c.stats for c in self.levels])
        self.stats.stream_tables["l2_stride"] = self.l2_stride.stats
        if stream_model is not None:
            self._multi = MultiStreamPrefetcher(stream_model)
            self.stats.stream_tables["multi_stream"] = self._multi.stats
        # Lines written at least once: each eventually costs one write-back
        # line on the DRAM bus (streaming kernels write each line once;
        # accumulations coalesce in cache, also once).
        self._dirty = set()
        # Write-combining coalescing for non-temporal stores.
        self._last_nt_line = None

    # ------------------------------------------------------------------

    def access(
        self, line: int, *, is_write: bool = False, ref_id: int = 0
    ) -> AccessResult:
        """One demand access to a cache line; returns where it hit."""
        stats = self.stats
        stats.total_accesses += 1
        if is_write and line not in self._dirty:
            self._dirty.add(line)
            stats.writeback_lines += 1
        # One access: the scalar engines train faster than a numpy pass
        # over a block of one.
        plan = ()
        if self.enable_prefetch:
            if self._multi is None:
                plan = _UNTRAINED
                targets = self.l2_stride.observe(ref_id, line)
                if targets:
                    plan = (1, *(target - line for target in targets))
            else:
                plan = self._multi.advance(line) or ()
        level_hits = [0] * (self.num_levels + 2)
        late = stats.late_prefetch_hits
        credit = self._demand((line,), (plan,), level_hits)
        return AccessResult(
            level_hits.index(1), credit, stats.late_prefetch_hits != late
        )

    def nt_store(self, line: int) -> None:
        """A non-temporal store: bypass caches, invalidate stale copies.

        Consecutive stores to the same line coalesce in the core's
        write-combining buffers and cost a single DRAM line transaction —
        the mechanism that makes ``movntps`` streams efficient.
        """
        self.stats.total_accesses += 1
        if line == self._last_nt_line:
            return
        self._last_nt_line = line
        self.stats.nt_store_lines += 1
        self._demand((line,), (None,), [0] * (self.num_levels + 2))

    def run(self, lines, refs, kinds, level_hits: List[int]) -> bool:
        """Drive a flat access stream through the hierarchy, in order.

        ``lines[i]`` is accessed through reference ``refs[i]`` (int64
        arrays, or sequences of ints), whose kind is ``kinds[refs[i]]``
        (:data:`LOAD`, :data:`STORE` or :data:`NT_STORE`; ``kinds`` is a
        sequence indexed by reference id).  The level that
        served each demand access (1..num_levels, ``num_levels + 1`` for
        DRAM) is counted into ``level_hits`` in place; non-temporal stores
        count nowhere there.  Returns whether the last demand access hit a
        prefetched line.

        What depends on the trace alone is done here in numpy, before the
        demand loop: the write-back set, write-combining of non-temporal
        stores, and the training of whichever prefetch engine is on.  The
        loop (:meth:`_demand`) then gets one *plan* per access: ``None``
        for a non-temporal store that reaches memory, else the line offsets
        the engines prefetch into L2 after the demand access.  The stream
        goes through in passes of at most ``_CHUNK`` accesses, each picking
        up the state the previous one left.
        """
        lines = np.asarray(lines, dtype=np.int64)
        refs = np.asarray(refs, dtype=np.int64)
        kinds = np.asarray(kinds, dtype=np.int64)
        credit = False
        for start in range(0, lines.size, _CHUNK):
            stop = start + _CHUNK
            credit = self._run_chunk(
                lines[start:stop], refs[start:stop], kinds, level_hits, credit
            )
        return credit

    def _run_chunk(self, lines, refs, kinds, level_hits, credit) -> bool:
        """One numpy pass of :meth:`run`; returns the last demand access's
        prefetch credit, ``credit`` when the pass has none."""
        stats = self.stats
        stats.total_accesses += int(lines.size)
        kind = kinds[refs]
        stored = lines[kind == STORE]
        if stored.size:
            written = set(stored.tolist()) - self._dirty
            self._dirty |= written
            stats.writeback_lines += len(written)
        nt = kind == NT_STORE
        demand = ~nt
        keep = demand
        if nt.any():
            # Consecutive non-temporal stores to one line coalesce: only
            # the first of a run reaches memory (and the loop).
            nt_lines = lines[nt]
            reaches = np.ones(nt_lines.size, dtype=bool)
            reaches[1:] = nt_lines[1:] != nt_lines[:-1]
            if self._last_nt_line is not None:
                reaches[0] = nt_lines[0] != self._last_nt_line
            self._last_nt_line = int(nt_lines[-1])
            stats.nt_store_lines += int(reaches.sum())
            keep = demand.copy()
            keep[np.flatnonzero(nt)[reaches]] = True
        # One plan per access: code 0 is the non-temporal store, 1 a demand
        # access whose engines issue only their default (the next line
        # under the legacy model, nothing under the stream model), 2 + k
        # the engine's k-th plan of the pass.
        codes = np.zeros(lines.size, dtype=np.int64)
        if not self.enable_prefetch:
            plans = [None, ()]
        elif self._multi is None:
            strides, codes[demand] = self.l2_stride.train(
                refs[demand], lines[demand]
            )
            plans = [None, _UNTRAINED]
            plans += [self._plan_for(step) for step in strides.tolist()]
        else:
            issued, codes[demand] = self._multi.train(lines[demand])
            plans = [None, (), *issued]
        codes[demand] += 1
        by_code = np.empty(len(plans), dtype=object)
        by_code[:] = plans
        return self._demand(
            lines[keep].tolist(), by_code[codes[keep]].tolist(), level_hits,
            credit,
        )

    def _plan_for(self, stride: int) -> Tuple[int, ...]:
        """Line offsets prefetched into L2 after a demand access trained on
        ``stride``: the next-line engine's +1 first, then the stride
        engine's targets."""
        plan = self._plans.get(stride)
        if plan is None:
            plan = self._plans[stride] = (
                _UNTRAINED + self.l2_stride.offsets(stride)
            )
        return plan

    def _demand(
        self, lines, plans, level_hits: List[int], credit: bool = False
    ) -> bool:
        """The demand loop: every access's cache-state-dependent work.

        ``plans[i]`` is ``None`` when ``lines[i]`` is a non-temporal store
        (invalidate every level's copy), else the prefetch plan of a demand
        access (see :meth:`run`).  Counts the serving levels into
        ``level_hits``; returns the last demand access's prefetch credit
        (``credit`` when there is none).  Under the stream model the loop
        owns the clock: one tick per demand access.
        """
        # L1 and L2 are modulo-indexed, an L3 is hashed (see __init__).
        l1, l2 = self.levels[0], self.levels[1]
        sets1, n1, w1, m1 = l1._sets, l1.num_sets, l1.ways, l1._resident
        sets2, n2, w2, m2 = l2._sets, l2.num_sets, l2.ways, l2._resident
        if self.num_levels >= 3:
            l3 = self.levels[2]
            sets3, n3, w3, m3 = l3._sets, l3.num_sets, l3.ways, l3._resident
        else:
            sets3, n3, w3, m3 = None, 1, 0, None
        nn3 = n3 * n3
        inflight = self._inflight

        multi = self._multi
        legacy = self.enable_prefetch and multi is None
        streamed = self.enable_prefetch and multi is not None
        if streamed:
            clock = multi._clock
            latency = multi.params.latency_accesses

        # Demand accesses served by L1 / L2 / L3 / DRAM.
        c1 = c2 = c3 = cm = 0
        pfh1 = pfh2 = pfh3 = 0          # demand hits on prefetched lines
        pfi1 = pfi2 = pfi3 = 0          # lines prefetch fills inserted
        evd1 = evd2 = evd3 = 0          # evictions by demand fills
        evp1 = evp2 = evp3 = 0          # evictions by prefetch fills
        pf_mem = late = on_time = 0

        for line, plan in zip(lines, plans):
            if plan is None:
                # Non-temporal store: drop every cached copy.
                if m1.pop(line, None) is not None:
                    sets1[line % n1].remove(line)
                if m2.pop(line, None) is not None:
                    sets2[line % n2].remove(line)
                if m3 is not None and m3.pop(line, None) is not None:
                    sets3[(line ^ line // n3 ^ line // nn3) % n3].remove(line)
                continue

            # Probe nearest first; fill every level that missed.  A probe
            # reads the line's prefetch flag (None: not resident).
            credit = m1.get(line)
            if credit is not None:
                if credit:
                    m1[line] = False
                    pfh1 += 1
                s1 = sets1[line % n1]
                if s1[-1] != line:
                    s1.remove(line)
                    s1.append(line)
                c1 += 1
            else:
                credit = m2.get(line)
                if credit is not None:
                    if credit:
                        m2[line] = False
                        pfh2 += 1
                    s2 = sets2[line % n2]
                    if s2[-1] != line:
                        s2.remove(line)
                        s2.append(line)
                    c2 += 1
                else:
                    if m3 is None:
                        credit = False
                        cm += 1
                    else:
                        s3 = sets3[(line ^ line // n3 ^ line // nn3) % n3]
                        credit = m3.get(line)
                        if credit is not None:
                            if credit:
                                m3[line] = False
                                pfh3 += 1
                            if s3[-1] != line:
                                s3.remove(line)
                                s3.append(line)
                            c3 += 1
                        else:
                            credit = False
                            cm += 1
                            s3.append(line)
                            m3[line] = False
                            if len(s3) > w3:
                                del m3[s3.pop(0)]
                                evd3 += 1
                    s2 = sets2[line % n2]
                    s2.append(line)
                    m2[line] = False
                    if len(s2) > w2:
                        del m2[s2.pop(0)]
                        evd2 += 1
                s1 = sets1[line % n1]
                s1.append(line)
                m1[line] = False
                if len(s1) > w1:
                    del m1[s1.pop(0)]
                    evd1 += 1

            if legacy:
                # Next-line engines: the L1 engine pulls line + 1 into L1;
                # it and the stride engine's targets (the plan) are then
                # brought into L2 (and L3) when L2 lacks them.
                nxt = line + 1
                if nxt not in m1:
                    t1 = sets1[nxt % n1]
                    t1.append(nxt)
                    m1[nxt] = True
                    pfi1 += 1
                    if len(t1) > w1:
                        del m1[t1.pop(0)]
                        evp1 += 1
            elif streamed:
                # A hit on a prefetched line is late when its prefetch
                # arrives after the clock reached by the previous access;
                # this access's prefetches arrive ``latency`` ticks after
                # its own.
                if line in inflight:
                    arrival = inflight.pop(line)
                    if credit:
                        if arrival > clock:
                            late += 1
                        else:
                            on_time += 1
                clock += 1
                arrival = clock + latency
            for offset in plan:
                target = line + offset
                if target < 0 or target in m2:
                    continue
                if m3 is None:
                    pf_mem += 1
                elif target not in m3:
                    pf_mem += 1
                    t3 = sets3[(target ^ target // n3 ^ target // nn3) % n3]
                    t3.append(target)
                    m3[target] = True
                    pfi3 += 1
                    if len(t3) > w3:
                        del m3[t3.pop(0)]
                        evp3 += 1
                t2 = sets2[target % n2]
                t2.append(target)
                m2[target] = True
                pfi2 += 1
                if len(t2) > w2:
                    del m2[t2.pop(0)]
                    evp2 += 1
                if streamed:
                    inflight[target] = arrival

        # Write the counters back.  served[k] is the count of level k + 1;
        # DRAM comes last.
        served = (c1, c2, c3, cm) if m3 is not None else (c1, c2, cm)
        for slot, count in enumerate(served, start=1):
            level_hits[slot] += count
        farther = sum(served)
        for level, count in zip(self.levels, served):
            farther -= count
            level.stats.hits += count
            level.stats.misses += farther
        stats = self.stats
        stats.memory_lines += cm
        stats.prefetch_memory_lines += pf_mem
        stats.late_prefetch_hits += late
        for level, hits, issued, ev_demand, ev_prefetch in zip(
            self.levels,
            (pfh1, pfh2, pfh3),
            (pfi1, pfi2, pfi3),
            (evd1, evd2, evd3),
            (evp1, evp2, evp3),
        ):
            level.stats.prefetch_hits += hits
            level.stats.prefetches_issued += issued
            level.stats.evictions += ev_demand + ev_prefetch
            level.stats.prefetch_evictions += ev_prefetch
        if streamed:
            multi._clock = clock
            multi.stats.late_hits += late
            multi.stats.on_time_hits += on_time
        return credit

    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Empty all levels and reset prefetcher training (not statistics)."""
        for cache in self.levels:
            cache.flush()
        self.l2_stride.reset()
        if self._multi is not None:
            self._multi.reset()
        self._inflight.clear()
        self._last_nt_line = None

    def summary(self) -> str:
        return self.stats.summary()
