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
through :meth:`CacheHierarchy.run` in one pass, which splits the work by
what it depends on:

* the trace alone, in numpy: the write-back set, write-combining of
  non-temporal stores and the training of whichever prefetch engine is
  on, the legacy stride engine
  (:meth:`~repro.cachesim.prefetch.StridePrefetcher.train`) or the
  multi-stream detector
  (:meth:`~repro.cachesim.prefetch.MultiStreamPrefetcher.train`).  The
  paper's stride engine trains per load on that load's addresses only,
  and the detector's engines on the lines of their page, so every
  decision either makes is known before any cache state is;
* every level that takes no prefetch fill, also in numpy
  (:meth:`SetAssocCache.run <repro.cachesim.cache.SetAssocCache.run>`,
  one per-set LRU stack-distance pass): L1 under the stream model, whose
  engines fill L2 and L3 only, and with prefetching off the whole
  hierarchy, L2 seeing exactly L1's misses and L3 seeing L2's, so that
  no loop runs at all;
* what depends on the state of a level that prefetches fill, in one
  Python loop, :meth:`CacheHierarchy._demand`, for both prefetch models:
  the probes, fills and evictions of every level the engines fill, and
  the prefetch fills of each access's plan.  Under the legacy model that
  is every level and every access, L1's next-line engine included; under
  the stream model it is L2 and L3, and the loop gets only L1's misses,
  the accesses whose engine issues and the L1 hits on a line that may
  still have a prefetch in flight, each with its clock tick, and tells
  late prefetch hits from on-time ones.  The loop binds every set list,
  residency map and counter to a local and inlines the set index and the
  fills; counters are written back once per call.

docs/MODEL.md § 2.2 gives what each part costs per access.

One :meth:`~CacheHierarchy.access` or :meth:`~CacheHierarchy.nt_store`
skips numpy: it trains through the engines' scalar steps
(:meth:`~repro.cachesim.prefetch.StridePrefetcher.observe`,
:meth:`~repro.cachesim.prefetch.MultiStreamPrefetcher.observe`), resolves
a numpy level through its :meth:`~repro.cachesim.cache.SetAssocCache.lookup`
and :meth:`~repro.cachesim.cache.SetAssocCache.fill` and runs the same
loop on one line.
The generic :class:`~repro.cachesim.cache.SetAssocCache` API and the
engines' ``observe`` methods remain the reference implementation, which
the tests compose into a plain hierarchy to cross-check this path access
by access.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from repro.arch import ArchSpec
from repro.cachesim.cache import SetAssocCache
from repro.cachesim.lru import stable_order
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

    The loop works directly on each level's
    :class:`~repro.cachesim.cache.SetAssocCache` representation: the
    residency map (every resident line -> its prefetch flag), which
    answers each probe with one ``get``, and one list per set in LRU order
    (oldest first).  A hit moves the line to the end unless it is already
    there and clears its flag; a fill appends and, when the set overflows,
    pops its head and deletes the victim from the map; a non-temporal
    store removes the line from both.  Fills dominate the cost (the
    ``price`` kernels evict 1.4 L1 and 0.7 L2 lines per access).  Which
    levels leave the loop for numpy depends on the prefetch model (see
    the module docstring): L1 under the stream model, every level with
    prefetching off, none under the legacy model.

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
        # One access: the scalar engines and the levels' lookup/fill steps
        # are faster than a numpy pass over a block of one.
        if not self.enable_prefetch:
            level = self.num_levels + 1
            for idx, cache in enumerate(self.levels, start=1):
                if cache.lookup(line):
                    level = idx
                    break
                cache.fill(line)
            if level > self.num_levels:
                stats.memory_lines += 1
            return AccessResult(level, False)
        level_hits = [0] * (self.num_levels + 2)
        multi = self._multi
        if multi is None:
            plan = _UNTRAINED
            targets = self.l2_stride.observe(ref_id, line)
            if targets:
                plan = (1, *(target - line for target in targets))
            tick = 0
        else:
            # L1 takes no prefetch fill: resolve it here, as run() does in
            # numpy, and hand the loop the outcome in the tick's sign.
            l1 = self.levels[0]
            hit = l1.lookup(line)
            if not hit:
                l1.fill(line)
            level_hits[1] = int(hit)
            targets, _ = multi.observe(ref_id, line)
            tick = -multi._clock if hit else multi._clock
            plan = tuple(target - line for target in targets)
        late = stats.late_prefetch_hits
        credit = self._demand((line,), (plan,), level_hits, (tick,))
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
        if not self.enable_prefetch:
            for cache in self.levels:
                cache.invalidate(line)
            return
        if self._multi is not None:
            self.levels[0].invalidate(line)
        self._demand((line,), (None,), [0] * (self.num_levels + 2))

    def run(self, lines, refs, kinds, level_hits: List[int]) -> None:
        """Drive a flat access stream through the hierarchy, in order.

        ``lines[i]`` is accessed through reference ``refs[i]`` (int64
        arrays, or sequences of ints), whose kind is ``kinds[refs[i]]``
        (:data:`LOAD`, :data:`STORE` or :data:`NT_STORE`; ``kinds`` is a
        sequence indexed by reference id).  The level that
        served each demand access (1..num_levels, ``num_levels + 1`` for
        DRAM) is counted into ``level_hits`` in place; non-temporal stores
        count nowhere there.

        What depends on the trace alone is done here in numpy, before the
        demand loop: the write-back set, write-combining of non-temporal
        stores, and the training of whichever prefetch engine is on.  So
        is every level that takes no prefetch fill
        (:meth:`SetAssocCache.run
        <repro.cachesim.cache.SetAssocCache.run>`): L1 under the stream
        model, every level with prefetching off.  The loop then gets one
        *plan* per access it still needs: ``None`` for a non-temporal
        store that reaches memory, else the line offsets the engines
        prefetch into L2 after the demand access.  The whole stream goes
        through in one pass: the executor's trace blocks already bound it.
        """
        lines = np.asarray(lines, dtype=np.int64)
        refs = np.asarray(refs, dtype=np.int64)
        kinds = np.asarray(kinds, dtype=np.int64)
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
            # the first of a run reaches memory (and the levels).
            nt_lines = lines[nt]
            reaches = np.ones(nt_lines.size, dtype=bool)
            reaches[1:] = nt_lines[1:] != nt_lines[:-1]
            if self._last_nt_line is not None:
                reaches[0] = nt_lines[0] != self._last_nt_line
            self._last_nt_line = int(nt_lines[-1])
            stats.nt_store_lines += int(reaches.sum())
            keep = demand.copy()
            keep[np.flatnonzero(nt)[reaches]] = True
        if not self.enable_prefetch:
            self._run_unprefetched(lines[keep], nt[keep], level_hits)
            return
        if self._multi is not None:
            self._run_streamed(lines, demand, keep, nt[keep], level_hits)
            return
        # One plan per access: code 0 is the non-temporal store, 1 a demand
        # access whose engines issue only the next line, 2 + k the stride
        # engine's k-th stride of the pass.
        codes = np.zeros(lines.size, dtype=np.int64)
        strides, codes[demand] = self.l2_stride.train(
            refs[demand], lines[demand]
        )
        codes[demand] += 1
        plans = [None, _UNTRAINED]
        plans += [
            _UNTRAINED + self.l2_stride.offsets(step)
            for step in strides.tolist()
        ]
        by_code = np.empty(len(plans), dtype=object)
        by_code[:] = plans
        self._demand(
            lines[keep].tolist(), by_code[codes[keep]].tolist(), level_hits
        )

    def _resolve(self, levels, lines, nt) -> List[np.ndarray]:
        """Run ``lines`` through ``levels``, levels that take no prefetch
        fill, in numpy: each level sees the previous one's misses.

        ``nt[i]`` marks a non-temporal store, which invalidates its line in
        every one of ``levels``.  Returns one hit mask per level, over the
        demand accesses for the first and over the previous level's misses
        for the others.  A store whose line is neither resident at the
        start nor demanded in the block finds it nowhere; the block splits
        at every other store, which then invalidates exactly.
        """
        at = np.flatnonzero(nt)
        cuts = []
        if at.size:
            stored = lines[at]
            maybe = np.zeros(at.size, dtype=bool)
            demanded = np.sort(lines[~nt])
            if demanded.size:
                near = demanded.searchsorted(stored).clip(
                    max=demanded.size - 1
                )
                maybe = demanded[near] == stored
            listed = stored.tolist()
            for level in levels:
                flags = level._resident
                maybe |= [line in flags for line in listed]
            cuts = at[maybe].tolist()
        found: List[List[np.ndarray]] = [[] for _ in levels]
        start = 0
        for cut in cuts + [lines.size]:
            reach = lines[start:cut][~nt[start:cut]]
            for level, hits in zip(levels, found):
                hit = level.run(reach)
                hits.append(hit)
                reach = reach[~hit]
            if cut < lines.size:
                for level in levels:
                    level.invalidate(int(lines[cut]))
            start = cut + 1
        return [np.concatenate(hits) for hits in found]

    def _run_unprefetched(self, lines, nt, level_hits) -> None:
        """A pass with prefetching off: every level in numpy, no loop.
        L2 sees exactly L1's misses, and L3 sees L2's."""
        found = self._resolve(self.levels, lines, nt)
        for slot, hits in enumerate(found, start=1):
            level_hits[slot] += int(np.count_nonzero(hits))
        missed = int(found[-1].size - np.count_nonzero(found[-1]))
        level_hits[self.num_levels + 1] += missed
        self.stats.memory_lines += missed

    def _run_streamed(self, lines, demand, keep, nt, level_hits) -> None:
        """A pass under the stream model: L1 in numpy, then the loop
        (:meth:`_demand`) for what L1 leaves to L2 and beyond.

        The loop gets each non-temporal store, each L1 miss, each access
        whose engine issues, and each L1 hit on a line that may still have
        a prefetch in flight: the first access to a line after a plan
        targets it, or the first of the pass to a line the in-flight map
        holds.  Every other access is an L1 hit with nothing to do past
        L1.  The clock ticks once per demand access; each access the loop
        gets carries its tick.
        """
        l1_hits = self._resolve(self.levels[:1], lines[keep], nt)[0]
        met = lines[demand]
        n = met.size
        multi = self._multi
        issued, codes = multi.train(met)
        ticks = np.arange(multi._clock + 1, multi._clock + n + 1)
        multi._clock += n
        hits = int(np.count_nonzero(l1_hits))
        level_hits[1] += hits
        go = ~l1_hits | (codes > 0)
        if hits and (issued or self._inflight):
            go |= self._maybe_inflight(met, issued, codes) & l1_hits
        sent = keep.copy()
        sent[demand] = go
        # An L1 hit goes with its tick negated.
        at = np.zeros(lines.size, dtype=np.int64)
        at[demand] = np.where(l1_hits, -ticks, ticks)
        # Plan code 0 is the non-temporal store, 1 a demand access that
        # issues nothing, 2 + k the k-th plan of the pass.
        code = np.zeros(lines.size, dtype=np.int64)
        code[demand] = codes + 1
        by_code = np.empty(len(issued) + 2, dtype=object)
        by_code[:] = [None, (), *issued]
        self._demand(
            lines[sent].tolist(), by_code[code[sent]].tolist(), level_hits,
            at[sent].tolist(),
        )

    def _maybe_inflight(self, met, issued, codes) -> np.ndarray:
        """Per demand access of ``met``, whether its line may have a
        prefetch in flight: it is the first access to its line after a
        plan targets the line, or the first of the pass to a line the
        in-flight map holds."""
        n = met.size
        # Each event, a line and the access after which it may be in
        # flight (-1: before the pass).
        lines = [np.fromiter(self._inflight, np.int64, len(self._inflight))]
        after = [np.full(lines[0].size, -1, dtype=np.int64)]
        issuing = np.flatnonzero(codes)
        if issuing.size:
            sizes = np.array([len(plan) for plan in issued])
            offsets = np.fromiter(
                (offset for plan in issued for offset in plan), np.int64
            )
            which = codes[issuing] - 1
            reps = sizes[which]
            source = np.repeat(issuing, reps)
            within = np.arange(source.size) - np.repeat(
                np.cumsum(reps) - reps, reps
            )
            first = np.cumsum(sizes)[which] - reps
            lines.append(met[source] + offsets[np.repeat(first, reps) + within])
            after.append(source)
        target = np.concatenate(lines)
        # The first access to each event's line past the event: in (line,
        # access) order, the next key past the event's.
        by_line = stable_order(met)
        ordered = met[by_line]
        span = n + 1
        found = np.searchsorted(
            ordered * span + by_line,
            target * span + np.concatenate(after),
            side="right",
        )
        inside = found < n
        found = found[inside]
        found = found[ordered[found] == target[inside]]
        maybe = np.zeros(n, dtype=bool)
        maybe[by_line[found]] = True
        return maybe

    def _demand(
        self, lines, plans, level_hits: List[int], ticks=None
    ) -> bool:
        """The demand loop: every access's cache-state work, both models.

        ``plans[i]`` is ``None`` when ``lines[i]`` is a non-temporal store
        (invalidate the copies of the levels the loop holds), else the
        prefetch plan of a demand access (see :meth:`run`).  Under the
        legacy model the loop holds every level: an access probes L1 first
        and L1's next-line engine fills line + 1.  Under the stream model
        it holds L2 and L3: L1 is already resolved, and ``ticks[i]`` is the
        clock after ``lines[i]`` ticked it, negated when the access hit L1.
        Every demand access then settles its line's prefetch in flight, and
        its plan's fills stay in flight until ``latency`` ticks later.
        Counts the serving levels the loop holds into ``level_hits``;
        returns the last demand access's prefetch credit (``False`` when
        there is none).
        """
        streamed = self._multi is not None
        # L1 and L2 are modulo-indexed, an L3 is hashed (see __init__).
        if streamed:
            sets1 = n1 = w1 = m1 = None
            inflight = self._inflight
            latency = self._multi.params.latency_accesses
        else:
            l1 = self.levels[0]
            sets1, n1, w1, m1 = l1._sets, l1.num_sets, l1.ways, l1._resident
        l2 = self.levels[1]
        sets2, n2, w2, m2 = l2._sets, l2.num_sets, l2.ways, l2._resident
        if self.num_levels >= 3:
            l3 = self.levels[2]
            sets3, n3, w3, m3 = l3._sets, l3.num_sets, l3.ways, l3._resident
        else:
            sets3, n3, w3, m3 = None, 1, 0, None
        nn3 = n3 * n3
        if ticks is None:
            ticks = repeat(0)

        # Demand accesses served by L1 / L2 / L3 / DRAM.
        c1 = c2 = c3 = cm = 0
        pfh1 = pfh2 = pfh3 = 0          # demand hits on prefetched lines
        pfi1 = pfi2 = pfi3 = 0          # lines prefetch fills inserted
        evd1 = evd2 = evd3 = 0          # evictions by demand fills
        evp1 = evp2 = evp3 = 0          # evictions by prefetch fills
        pf_mem = late = on_time = 0
        credit = False

        for line, plan, tick in zip(lines, plans, ticks):
            if plan is None:
                # Non-temporal store: drop every copy the loop holds.
                if m1 is not None and m1.pop(line, None) is not None:
                    sets1[line % n1].remove(line)
                if m2.pop(line, None) is not None:
                    sets2[line % n2].remove(line)
                if m3 is not None and m3.pop(line, None) is not None:
                    sets3[(line ^ line // n3 ^ line // nn3) % n3].remove(line)
                continue

            # Probe nearest first; fill every level that missed.  A probe
            # reads the line's prefetch flag (None: not resident).
            if streamed:
                if tick < 0:
                    # L1 takes no prefetch fill, so its hits carry no
                    # credit.
                    tick = -tick
                    credit = False
                else:
                    credit = None
            else:
                credit = m1.get(line)
                s1 = sets1[line % n1]
                if credit is not None:
                    if credit:
                        m1[line] = False
                        pfh1 += 1
                    if s1[-1] != line:
                        s1.remove(line)
                        s1.append(line)
                    c1 += 1
                else:
                    s1.append(line)
                    m1[line] = False
                    if len(s1) > w1:
                        del m1[s1.pop(0)]
                        evd1 += 1
            if credit is None:
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

            if streamed:
                # A hit on a prefetched line is late when its prefetch
                # arrives after the clock reached by the previous access;
                # this access's prefetches arrive ``latency`` ticks after
                # its own.
                if line in inflight:
                    arrival = inflight.pop(line)
                    if credit:
                        if arrival >= tick:
                            late += 1
                        else:
                            on_time += 1
                arrival = tick + latency
            else:
                # L1's next-line engine pulls line + 1 into L1.
                nxt = line + 1
                if nxt not in m1:
                    t1 = sets1[nxt % n1]
                    t1.append(nxt)
                    m1[nxt] = True
                    pfi1 += 1
                    if len(t1) > w1:
                        del m1[t1.pop(0)]
                        evp1 += 1
            # The plan's targets are brought into L2 (and L3) when L2
            # lacks them.
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

        self._count(
            level_hits, 1 if streamed else 0, (c1, c2, c3, cm), pf_mem,
            (pfh1, pfh2, pfh3), (pfi1, pfi2, pfi3), (evd1, evd2, evd3),
            (evp1, evp2, evp3),
        )
        if streamed:
            self.stats.late_prefetch_hits += late
            self._multi.stats.late_hits += late
            self._multi.stats.on_time_hits += on_time
        return credit

    def _count(self, level_hits, first, served, pf_mem, hits, issued,
               ev_demand, ev_prefetch) -> None:
        """Write the loop's counters back.  ``served`` counts the demand
        accesses L1, L2, L3 and DRAM served; the other tuples have one
        entry per level, L1 first.  The levels before index ``first`` were
        counted before the loop; an absent L3's entries are all zero."""
        levels = self.levels[first:]
        served = served[first:self.num_levels] + served[-1:]
        farther = sum(served)
        for slot, (level, count) in enumerate(zip(levels, served), first + 1):
            level_hits[slot] += count
            farther -= count
            level.stats.hits += count
            level.stats.misses += farther
        level_hits[self.num_levels + 1] += served[-1]
        stats = self.stats
        stats.memory_lines += served[-1]
        stats.prefetch_memory_lines += pf_mem
        for level, *counts in zip(levels, hits[first:], issued[first:],
                                  ev_demand[first:], ev_prefetch[first:]):
            level.stats.prefetch_hits += counts[0]
            level.stats.prefetches_issued += counts[1]
            level.stats.evictions += counts[2] + counts[3]
            level.stats.prefetch_evictions += counts[3]

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
