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

This class is the simulator's innermost loop.  All traffic — a block of
a trace, one :meth:`~CacheHierarchy.access`, one
:meth:`~CacheHierarchy.nt_store` — goes through one demand loop,
:meth:`CacheHierarchy.run`, over a flat ``(line, ref)`` stream.  The loop
binds every set list, prefetch-flag set, engine table and counter to a
local, and inlines the set index, the fills, the next-line engine and the
stride (or multi-stream) engine training; counters are written back once
per call.
The generic :class:`~repro.cachesim.cache.SetAssocCache` API and the
engines' ``observe`` methods remain the reference implementation, which
the tests compose into a plain hierarchy to cross-check this loop access
by access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch import ArchSpec
from repro.cachesim.cache import SetAssocCache
from repro.cachesim.prefetch import (
    MultiStreamPrefetcher,
    StreamModelParams,
    StridePrefetcher,
    _Engine,
    _Stream,
)
from repro.cachesim.stats import HierarchyStats

#: Access kinds of a reference, as :meth:`CacheHierarchy.run` reads them.
LOAD, STORE, NT_STORE = 0, 1, 2


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

    The demand loop (:meth:`run`) works directly on each level's
    :class:`~repro.cachesim.cache.SetAssocCache` representation: one list
    per set in LRU order (oldest first) and one set of the level's lines
    whose prefetch flag is up.  A hit moves the line to the end unless it
    is already there and drops its flag; a fill appends and, when the set
    overflows, pops its head and discards the victim's flag; a
    non-temporal store removes the line and its flag.  Fills dominate the
    cost (the ``price`` kernels evict 1.4 L1 and 0.7 L2 lines per access);
    the loop takes about 1-3 µs per line access on those kernels
    (2-vCPU Xeon, CPython 3.11).

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
        # Stride -> line offsets one trained access prefetches: the
        # next-line engine's +1 first, then the stride engine's targets.
        self._stride_offsets: Dict[int, Tuple[int, ...]] = {}
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
        level_hits = [0] * (self.num_levels + 2)
        late = self.stats.late_prefetch_hits
        credit = self.run(
            (line,), (ref_id,), {ref_id: STORE if is_write else LOAD}, level_hits
        )
        return AccessResult(
            level_hits.index(1), credit, self.stats.late_prefetch_hits != late
        )

    def nt_store(self, line: int) -> None:
        """A non-temporal store: bypass caches, invalidate stale copies.

        Consecutive stores to the same line coalesce in the core's
        write-combining buffers and cost a single DRAM line transaction —
        the mechanism that makes ``movntps`` streams efficient.
        """
        self.run((line,), (0,), (NT_STORE,), [0] * (self.num_levels + 2))

    def run(
        self,
        lines: Sequence[int],
        refs: Sequence[int],
        kinds,
        level_hits: List[int],
    ) -> bool:
        """Drive a flat access stream through the hierarchy, in order.

        ``lines[i]`` is accessed through reference ``refs[i]``, whose kind
        is ``kinds[refs[i]]`` (:data:`LOAD`, :data:`STORE` or
        :data:`NT_STORE`).  The level that served each demand access
        (1..num_levels, ``num_levels + 1`` for DRAM) is counted into
        ``level_hits`` in place; non-temporal stores count nowhere there.
        Returns whether the last demand access hit a prefetched line.
        """
        # L1 and L2 are modulo-indexed, an L3 is hashed (see __init__).
        l1, l2 = self.levels[0], self.levels[1]
        sets1, n1, w1, f1 = l1._sets, l1.num_sets, l1.ways, l1._prefetched
        sets2, n2, w2, f2 = l2._sets, l2.num_sets, l2.ways, l2._prefetched
        if self.num_levels >= 3:
            l3 = self.levels[2]
            sets3, n3, w3, f3 = l3._sets, l3.num_sets, l3.ways, l3._prefetched
        else:
            sets3, n3, w3, f3 = None, 1, 0, None
        nn3 = n3 * n3
        kind_store, kind_nt = STORE, NT_STORE
        dirty = self._dirty
        inflight = self._inflight
        last_nt = self._last_nt_line

        multi = self._multi
        legacy = self.enable_prefetch and multi is None
        streamed = self.enable_prefetch and multi is not None
        stride = self.l2_stride
        streams = stride._streams
        max_streams = stride.max_streams
        threshold = stride.train_threshold
        offsets_of = self._stride_offsets
        if multi is not None:
            params = multi.params
            engines = multi._engines
            clock = multi._clock
            page_lines = params.page_lines
            n_engines = params.n_engines
            m_threshold = params.train_threshold
            m_degree = params.degree
            m_distance = params.max_distance
            latency = params.latency_accesses

        # Demand accesses served by L1 / L2 / L3 / DRAM.
        c1 = c2 = c3 = cm = 0
        pfh1 = pfh2 = pfh3 = 0          # demand hits on prefetched lines
        pfi1 = pfi2 = pfi3 = 0          # lines prefetch fills inserted
        evd1 = evd2 = evd3 = 0          # evictions by demand fills
        evp1 = evp2 = evp3 = 0          # evictions by prefetch fills
        pf_mem = writebacks = nt_lines = nt_accesses = late = on_time = 0
        s_issued = s_trained = m_issued = m_trained = 0
        credit = False

        for line, ref in zip(lines, refs):
            kind = kinds[ref]
            if kind == kind_nt:
                nt_accesses += 1
                if line != last_nt:
                    last_nt = line
                    nt_lines += 1
                    s1 = sets1[line % n1]
                    if line in s1:
                        s1.remove(line)
                        f1.discard(line)
                    s2 = sets2[line % n2]
                    if line in s2:
                        s2.remove(line)
                        f2.discard(line)
                    if sets3 is not None:
                        s3 = sets3[(line ^ line // n3 ^ line // nn3) % n3]
                        if line in s3:
                            s3.remove(line)
                            f3.discard(line)
                continue

            # Probe nearest first; fill every level that missed.
            s1 = sets1[line % n1]
            if line in s1:
                credit = line in f1
                if credit:
                    f1.discard(line)
                    pfh1 += 1
                if s1[-1] != line:
                    s1.remove(line)
                    s1.append(line)
                c1 += 1
            else:
                s2 = sets2[line % n2]
                if line in s2:
                    credit = line in f2
                    if credit:
                        f2.discard(line)
                        pfh2 += 1
                    if s2[-1] != line:
                        s2.remove(line)
                        s2.append(line)
                    c2 += 1
                else:
                    credit = False
                    if sets3 is None:
                        cm += 1
                    else:
                        s3 = sets3[(line ^ line // n3 ^ line // nn3) % n3]
                        if line in s3:
                            credit = line in f3
                            if credit:
                                f3.discard(line)
                                pfh3 += 1
                            if s3[-1] != line:
                                s3.remove(line)
                                s3.append(line)
                            c3 += 1
                        else:
                            cm += 1
                            s3.append(line)
                            if len(s3) > w3:
                                f3.discard(s3.pop(0))
                                evd3 += 1
                    s2.append(line)
                    if len(s2) > w2:
                        f2.discard(s2.pop(0))
                        evd2 += 1
                s1.append(line)
                if len(s1) > w1:
                    f1.discard(s1.pop(0))
                    evd1 += 1

            if multi is not None and line in inflight:
                arrival = inflight.pop(line)
                if credit:
                    if arrival > clock:
                        late += 1
                    else:
                        on_time += 1
            if kind == kind_store and line not in dirty:
                # Write-allocate: the dirty line eventually goes back out,
                # whether the allocation came from a demand miss or a
                # prefetch.
                dirty.add(line)
                writebacks += 1

            if legacy:
                # Next-line engines: the L1 engine pulls line + 1 into L1;
                # it and the stride engine's targets are then brought into
                # L2 (and L3) when L2 lacks them.
                nxt = line + 1
                t1 = sets1[nxt % n1]
                if nxt not in t1:
                    t1.append(nxt)
                    f1.add(nxt)
                    pfi1 += 1
                    if len(t1) > w1:
                        f1.discard(t1.pop(0))
                        evp1 += 1
                # Stride engine training, per reference stream.
                offsets = (1,)
                st = streams.get(ref)
                if st is None:
                    if len(streams) >= max_streams:
                        streams.popitem(last=False)
                        stride.stats.evictions += 1
                    st = streams[ref] = _Stream()
                    st.last_line = line
                    stride.stats.allocations += 1
                    occupancy = stride.stats.occupancy = len(streams)
                    if occupancy > stride.stats.peak_occupancy:
                        stride.stats.peak_occupancy = occupancy
                else:
                    streams.move_to_end(ref)
                    step = line - st.last_line
                    if step:
                        st.last_line = line
                        if step == st.stride:
                            confidence = st.confidence = st.confidence + 1
                        else:
                            st.stride = step
                            confidence = st.confidence = 1
                        if confidence >= threshold:
                            if confidence == threshold:
                                s_trained += 1
                            offsets = offsets_of.get(step)
                            if offsets is None:
                                offsets = self._offsets_for(step)
                            s_issued += len(offsets) - 1
                for offset in offsets:
                    target = line + offset
                    if target < 0:
                        continue
                    t2 = sets2[target % n2]
                    if target in t2:
                        continue
                    if sets3 is None:
                        pf_mem += 1
                    else:
                        t3 = sets3[(target ^ target // n3 ^ target // nn3) % n3]
                        if target not in t3:
                            pf_mem += 1
                            t3.append(target)
                            f3.add(target)
                            pfi3 += 1
                            if len(t3) > w3:
                                f3.discard(t3.pop(0))
                                evp3 += 1
                    t2.append(target)
                    f2.add(target)
                    pfi2 += 1
                    if len(t2) > w2:
                        f2.discard(t2.pop(0))
                        evp2 += 1

            elif streamed:
                # Multi-stream detector: one engine per page, LRU pool.
                clock += 1
                page = line // page_lines
                engine = engines.get(page)
                if engine is None:
                    if len(engines) >= n_engines:
                        engines.popitem(last=False)
                        multi.stats.evictions += 1
                    engines[page] = _Engine(page, line)
                    multi.stats.allocations += 1
                    occupancy = multi.stats.occupancy = len(engines)
                    if occupancy > multi.stats.peak_occupancy:
                        multi.stats.peak_occupancy = occupancy
                    continue
                engines.move_to_end(page)
                step = line - engine.last_line
                if not step:
                    continue
                engine.last_line = line
                if step == engine.stride:
                    confidence = engine.confidence = engine.confidence + 1
                else:
                    engine.stride = step
                    confidence = engine.confidence = 1
                    engine.issued_until = line
                if confidence < m_threshold:
                    continue
                if confidence == m_threshold:
                    m_trained += 1
                    engine.issued_until = line
                # Rate-limited issue along the stride, within the run-ahead
                # window, never past the page boundary.
                page_lo = page * page_lines
                page_hi = page_lo + page_lines - 1
                arrival = clock + latency
                frontier = engine.issued_until
                for _ in range(m_degree):
                    target = frontier + step
                    if (
                        target < page_lo
                        or target > page_hi
                        or abs(target - line) > m_distance
                    ):
                        break
                    frontier = target
                    m_issued += 1
                    if target < 0:
                        continue
                    t2 = sets2[target % n2]
                    if target in t2:
                        continue
                    if sets3 is None:
                        pf_mem += 1
                    else:
                        t3 = sets3[(target ^ target // n3 ^ target // nn3) % n3]
                        if target not in t3:
                            pf_mem += 1
                            t3.append(target)
                            f3.add(target)
                            pfi3 += 1
                            if len(t3) > w3:
                                f3.discard(t3.pop(0))
                                evp3 += 1
                    t2.append(target)
                    f2.add(target)
                    pfi2 += 1
                    if len(t2) > w2:
                        f2.discard(t2.pop(0))
                        evp2 += 1
                    inflight[target] = arrival
                engine.issued_until = frontier

        # Write the counters back.  served[k] is the count of level k + 1;
        # DRAM comes last.
        served = (c1, c2, c3, cm) if sets3 is not None else (c1, c2, cm)
        for slot, count in enumerate(served, start=1):
            level_hits[slot] += count
        demand = sum(served)
        farther = demand
        for level, count in zip(self.levels, served):
            farther -= count
            level.stats.hits += count
            level.stats.misses += farther
        self._last_nt_line = last_nt
        stats = self.stats
        stats.total_accesses += demand + nt_accesses
        stats.memory_lines += cm
        stats.prefetch_memory_lines += pf_mem
        stats.nt_store_lines += nt_lines
        stats.writeback_lines += writebacks
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
        stride.stats.trained += s_trained
        stride.stats.prefetches_issued += s_issued
        if multi is not None:
            multi._clock = clock
            multi.stats.trained += m_trained
            multi.stats.prefetches_issued += m_issued
            multi.stats.late_hits += late
            multi.stats.on_time_hits += on_time
        return credit

    def _offsets_for(self, step: int) -> Tuple[int, ...]:
        """Line offsets a trained stride-``step`` access prefetches."""
        stride = self.l2_stride
        offsets = [1]
        for d in range(1, stride.degree + 1):
            offset = step * d
            if abs(offset) > stride.max_distance and abs(step) > 1:
                break
            if abs(offset) > stride.max_distance * 4:
                break
            offsets.append(offset)
        self._stride_offsets[step] = out = tuple(offsets)
        return out

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
