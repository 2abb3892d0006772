"""Hardware prefetch engines.

Three engines, matching the mechanisms the two reproduced papers reason
about:

* :class:`NextLinePrefetcher` — the *streaming* prefetcher present at L1 and
  L2: after every demand reference to line ``n`` it requests line ``n + 1``.
  This is the engine that makes a row of ``T`` contiguous elements cost one
  cold miss instead of ``T / lc`` (the paper's Eq. 2 -> Eq. 3 step).
* :class:`StridePrefetcher` — the *constant-stride* engine: it tracks the
  stride of each reference stream (per ``ref_id``, standing in for the
  program counter of the load) and, once the stride is confirmed, requests
  the next ``degree`` lines along the stride, bounded by a maximum distance
  (the paper's ``L2pref`` and ``L2maxpref``, ~20 lines on Intel).  This is
  the engine that lets tiled code with non-unit inter-tile strides still
  find its data in L2/L3 — the reason the paper weighs misses with the L2
  and L3 access times (Eq. 11) rather than the memory latency.
* :class:`MultiStreamPrefetcher` — the bounded multi-stream detector of the
  multi-striding model (Blom et al., "Multi-Strided Access Patterns to
  Boost Hardware Prefetching"): a fixed pool of stream engines, one per
  4 KiB page being streamed, with deterministic LRU eviction.  Engines
  train like the stride engine but are *rate-limited* (at most ``degree``
  issues per trigger, never past the page boundary) and every prefetch is
  *in flight* for ``latency_accesses`` demand accesses — a demand hit that
  arrives before its prefetch is a **late** prefetch hit and still pays
  part of the memory latency.  Splitting one access stream into K
  interleaved sub-streams multiplies the per-stream demand gap by K, which
  is exactly what turns late hits into on-time hits — the effect the
  ``multistride(loop, K)`` directive exists to exploit.

The stride and multi-stream engines keep one kind of table: a bounded LRU
table of stride detectors, keyed by load or by page, each entry holding
its last line, its stride and the confidence of its current run.  Both
step it one access at a time through :func:`_touch` (``observe``) and a
block at a time in numpy through :class:`_TableWalk` (``train``); each
engine supplies only its key and what it issues.  Both
count into :class:`StreamTableStats`, the occupancy/eviction counters
:class:`repro.cachesim.stats.HierarchyStats` surfaces under
``stream_tables``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cachesim.lru import lru_table, stable_order


@dataclass
class StreamTableStats:
    """Occupancy/eviction counters of one bounded stream table."""

    capacity: int = 0
    allocations: int = 0       # streams/engines ever allocated
    evictions: int = 0         # LRU evictions (table was full)
    peak_occupancy: int = 0    # high-water mark of live entries
    occupancy: int = 0         # live entries right now
    trained: int = 0           # entries that reached the train threshold
    prefetches_issued: int = 0
    late_hits: int = 0         # demand hits that beat the prefetch arrival
    on_time_hits: int = 0      # demand hits after the prefetch arrived

    def snapshot(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "allocations": self.allocations,
            "evictions": self.evictions,
            "peak_occupancy": self.peak_occupancy,
            "occupancy": self.occupancy,
            "trained": self.trained,
            "prefetches_issued": self.prefetches_issued,
            "late_hits": self.late_hits,
            "on_time_hits": self.on_time_hits,
        }


def _touch(
    table: OrderedDict, key: int, capacity: int, stats: StreamTableStats,
    new: Callable, *args,
) -> Tuple[object, bool]:
    """Touch ``key`` in the bounded LRU ``table``: returns ``(entry,
    False)`` with the entry made most recently used, or, when ``key`` is
    absent, ``(new(*args), True)`` for the entry allocated in its place,
    after evicting the least recently used one from a full table."""
    entry = table.get(key)
    if entry is not None:
        table.move_to_end(key)
        return entry, False
    if len(table) >= capacity:
        table.popitem(last=False)
        stats.evictions += 1
    entry = table[key] = new(*args)
    stats.allocations += 1
    stats.occupancy = len(table)
    if stats.occupancy > stats.peak_occupancy:
        stats.peak_occupancy = stats.occupancy
    return entry, True


class _TableWalk:
    """A block of accesses to a bounded LRU table of stride detectors,
    walked key by key in numpy.

    The table's entries act as accesses just before the block, in LRU
    order, that resume their entry's life: combined position ``k < held``
    is entry ``k``, block access ``i`` is ``held + i``.  The walk visits
    the accesses key by key, each key's in time order, from one stable
    sort.  The table is LRU, so an access finds its entry iff
    :func:`~repro.cachesim.lru.lru_table` says so.  Every access that
    misses starts a life, which runs to the entry's eviction; within it
    the stride is the step between consecutive distinct lines and the
    confidence the length of the current run of equal strides, continuing
    the run a carried entry holds when it matches.

    Over the walk's non-zero steps (walk positions ``moving``) the walk
    holds ``s`` the stride, ``lv`` the life, ``run_start`` the step that
    starts the run, ``carry`` the confidence the run carries in, and
    ``conf`` the confidence; ``life`` maps every field an entry carries to
    its per-life values.  The engine reads these to decide what it issues,
    then :meth:`finish` closes the lives and returns the table after the
    block.
    """

    def __init__(self, table: OrderedDict, keys: np.ndarray,
                 lines: np.ndarray, capacity: int, threshold: int,
                 stats: StreamTableStats) -> None:
        held = self.held = len(table)
        self._table = table
        self._stats = stats
        carried = list(table.values())
        every = np.concatenate((np.fromiter(table, np.int64, held), keys))
        order = self.order = stable_order(every)
        walked = self._walked = every[order]
        new_key = np.ones(order.size, dtype=bool)
        new_key[1:] = walked[1:] != walked[:-1]
        ends = np.flatnonzero(np.append(new_key[1:], True))
        # ``found[w]``: the walk's access w finds its key's entry, which the
        # previous access of the walk touched last.  ``_last``: the walk
        # position of each key's last use, for the keys the table holds
        # after the block, least recently used first.
        hit, final = lru_table(every, capacity, order)
        found = hit[order]
        self._last = ends[np.searchsorted(
            walked[ends], every[final[-capacity:]]
        )]
        walk_lines = self.lines = np.concatenate((
            np.fromiter((e.last_line for e in carried), np.int64, held),
            lines,
        ))[order]
        step = np.zeros(order.size, dtype=np.int64)
        step[1:] = walk_lines[1:] - walk_lines[:-1]
        step[~found] = 0
        self._life = np.cumsum(~found) - 1
        self.starts = np.flatnonzero(~found)
        entry = order[self.starts]
        self.allocations = self.starts.size - held
        # The lives the table's entries resume, and those entries.
        self._resumed = np.flatnonzero(entry < held)
        self._carried = [carried[k] for k in entry[self._resumed].tolist()]
        self.life: Dict[str, np.ndarray] = {}
        stride = self.carry_in("stride", 0)
        confidence = self.carry_in("confidence", 0)

        moving = self.moving = np.flatnonzero(step)
        s = self.s = step[moving]
        lv = self.lv = self._life[moving]
        first_of_life = np.ones(s.size, dtype=bool)
        first_of_life[1:] = lv[1:] != lv[:-1]
        breaks = first_of_life.copy()
        breaks[1:] |= s[1:] != s[:-1]
        index = np.arange(s.size)
        run_start = self.run_start = np.maximum.accumulate(
            np.where(breaks, index, 0)
        )
        self.carry = np.where(
            first_of_life & (s == stride[lv]), confidence[lv], 0
        )[run_start]
        self.conf = index - run_start + 1 + self.carry
        stats.trained += int((self.conf == threshold).sum())

    def carry_in(self, name: str, fresh) -> np.ndarray:
        """Per life, the field ``name`` of the entry it resumes, else
        ``fresh`` (one value, or one per life); :meth:`finish` writes it
        into every entry it builds."""
        values = self.life[name] = np.empty(self.starts.size, dtype=np.int64)
        values[:] = fresh
        values[self._resumed] = [getattr(e, name) for e in self._carried]
        return values

    def block(self, walked: np.ndarray) -> np.ndarray:
        """The block accesses at walk positions ``walked``."""
        return self.order[walked] - self.held

    def finish(self, new: Callable, **closing: np.ndarray) -> OrderedDict:
        """Close each life on its last step's stride and confidence (and on
        each per-step field of ``closing``), count the block's allocations and
        evictions, and return the table after the block: the most recently
        used keys in LRU order, each entry untouched by the block kept, the
        others built by ``new(key, last line)`` in the state of their last
        life."""
        life = self.life
        if self.moving.size:
            lv = self.lv
            last = np.flatnonzero(np.append(lv[1:] != lv[:-1], True))
            closing.update(stride=self.s, confidence=self.conf)
            for name, values in closing.items():
                life[name][lv[last]] = values[last]
        kept = self._last
        fields = {
            name: values[self._life[kept]].tolist()
            for name, values in life.items()
        }
        table: OrderedDict = OrderedDict()
        for k, (at, key, line) in enumerate(zip(
            self.order[kept].tolist(), self._walked[kept].tolist(),
            self.lines[kept].tolist(),
        )):
            if at < self.held:
                table[key] = self._table[key]
                continue
            entry = table[key] = new(key, line)
            for name, values in fields.items():
                setattr(entry, name, values[k])
        stats = self._stats
        if self.allocations:
            stats.allocations += self.allocations
            # Every entry the table held or allocated is in it or evicted.
            stats.evictions += self.held + self.allocations - len(table)
            occupancy = stats.occupancy = len(table)
            if occupancy > stats.peak_occupancy:
                stats.peak_occupancy = occupancy
        return table


class NextLinePrefetcher:
    """Streaming (adjacent-line) prefetcher.

    Parameters
    ----------
    degree:
        Number of consecutive next lines requested per demand access.
        A degree of 0 is legal and yields an engine that never requests
        anything (the disabled configuration of the ablations).
    """

    __slots__ = ("degree",)

    def __init__(self, degree: int = 1) -> None:
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        self.degree = degree

    def requests(self, line: int) -> List[int]:
        """Lines to prefetch after a demand access to ``line``."""
        return [line + d for d in range(1, self.degree + 1)]


class _Stream:
    """Per-reference-stream state of the stride prefetcher."""

    __slots__ = ("last_line", "stride", "confidence")

    def __init__(self, last_line: Optional[int] = None) -> None:
        self.last_line = last_line
        self.stride = 0
        self.confidence = 0


class StridePrefetcher:
    """Constant-stride prefetcher with per-stream training.

    A stream is identified by ``ref_id`` (one per array reference in the
    source statement, standing in for the load PC).  After two consecutive
    accesses with the same non-zero line stride the engine is *trained* and
    issues ``degree`` prefetches along the stride, each no farther than
    ``max_distance`` lines from the demand access.

    Zero-stride repeats (several accesses within one line) neither train
    nor reset the detector, mirroring real hardware that filters same-line
    accesses before the prefetch unit.

    The stream table is *bounded*: at most ``max_streams`` entries live at
    once, evicted in deterministic least-recently-used order (hardware
    stride tables hold a few dozen entries, not one per static load ever
    seen).  The default is far above any single nest's reference count, so
    bounding never changes existing single-nest simulations; occupancy and
    evictions are surfaced through :attr:`stats`.
    """

    __slots__ = (
        "degree", "max_distance", "max_streams", "_streams",
        "train_threshold", "stats",
    )

    def __init__(
        self,
        degree: int = 2,
        max_distance: int = 20,
        train_threshold: int = 2,
        max_streams: int = 64,
    ) -> None:
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        if max_distance <= 0:
            raise ValueError(f"max_distance must be positive, got {max_distance}")
        if max_streams <= 0:
            raise ValueError(f"max_streams must be positive, got {max_streams}")
        if train_threshold < 1:
            raise ValueError(
                f"train_threshold must be at least 1, got {train_threshold}"
            )
        self.degree = degree
        self.max_distance = max_distance
        self.train_threshold = train_threshold
        self.max_streams = max_streams
        self._streams: "OrderedDict[int, _Stream]" = OrderedDict()
        self.stats = StreamTableStats(capacity=max_streams)

    def observe(self, ref_id: int, line: int) -> List[int]:
        """Record a demand access; return lines to prefetch (maybe empty)."""
        stream, _ = _touch(
            self._streams, ref_id, self.max_streams, self.stats, _Stream
        )
        if stream.last_line is None:
            stream.last_line = line
            return []
        stride = line - stream.last_line
        if stride == 0:
            return []
        stream.last_line = line
        if stride == stream.stride:
            stream.confidence += 1
        else:
            stream.stride = stride
            stream.confidence = 1
        if stream.confidence < self.train_threshold:
            return []
        if stream.confidence == self.train_threshold:
            self.stats.trained += 1
        offsets = self.offsets(stride)
        self.stats.prefetches_issued += len(offsets)
        return [line + offset for offset in offsets]

    def offsets(self, stride: int) -> Tuple[int, ...]:
        """Line offsets (from the demand line) that an access trained on
        ``stride`` prefetches: what :meth:`observe` returns, minus the
        line."""
        out = []
        for d in range(1, self.degree + 1):
            offset = stride * d
            if abs(offset) > self.max_distance and abs(stride) > 1:
                break
            if abs(offset) > self.max_distance * 4:
                break
            out.append(offset)
        return tuple(out)

    def train(
        self, refs: np.ndarray, lines: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`observe` every ``(refs[i], lines[i])`` in order, in numpy.

        Returns ``(strides, codes)``: the distinct strides the block's
        trained accesses prefetch along, ascending, and per access 0 where
        :meth:`observe` would return no prefetch because its stream is new,
        untrained or repeats its line, else ``k + 1`` for ``strides[k]``.
        The table, its LRU order and every statistic end exactly as that
        sequence of :meth:`observe` calls leaves them.

        Training depends on the address stream alone, so it runs over a
        whole block at once, in one :class:`_TableWalk` of the table keyed
        by ref id; a trained access prefetches along its stride.
        """
        n = int(refs.size)
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        walk = _TableWalk(
            self._streams, refs, lines, self.max_streams,
            self.train_threshold, self.stats,
        )
        trained = walk.conf >= self.train_threshold
        strides, which, counts = np.unique(
            walk.s[trained], return_inverse=True, return_counts=True
        )
        codes = np.zeros(n, dtype=np.int64)
        codes[walk.block(walk.moving[trained])] = which + 1
        self.stats.prefetches_issued += sum(
            len(self.offsets(stride)) * count
            for stride, count in zip(strides.tolist(), counts.tolist())
        )
        self._streams = walk.finish(lambda ref, line: _Stream(line))
        return strides, codes

    def reset(self) -> None:
        """Forget all stream training state (statistics are kept)."""
        self._streams.clear()
        self.stats.occupancy = 0

    def stream_state(self, ref_id: int) -> Tuple[int, int]:
        """(stride, confidence) of a stream — diagnostics and tests."""
        stream = self._streams.get(ref_id)
        if stream is None:
            return (0, 0)
        return (stream.stride, stream.confidence)


# ---------------------------------------------------------------------------
# The bounded multi-stream detector (multi-striding model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamModelParams:
    """Constants of the bounded multi-stream detector model.

    The defaults model an Intel-style L2 streamer: a small pool of stream
    engines tracking one 4 KiB page each, rate-limited issue, bounded
    run-ahead, and a prefetch pipeline whose latency — measured in demand
    accesses, the simulator's clock — exceeds what a *single* stream's
    run-ahead can hide.  That gap is the multi-striding opportunity.

    Attributes
    ----------
    n_engines:
        Concurrent stream engines (table capacity, LRU-evicted).
    train_threshold:
        Consecutive same-stride accesses before an engine issues.
    degree:
        Prefetch issues per trigger (the rate limit).
    max_distance:
        Run-ahead cap in lines (the paper's ``L2maxpref``).
    page_lines:
        Lines per tracked region (4 KiB page / 64 B line = 64); engines
        never prefetch past their page boundary and a stream entering a
        new page must retrain a fresh engine, as on real hardware.
    latency_accesses:
        Demand accesses a prefetch stays in flight; a demand hit earlier
        than that is *late* and still stalls.  The default is chosen
        against ``max_distance``: a single vectorized stream touches a
        new line every ~4 accesses, so its run-ahead hides at most
        ``20 * 4 = 80`` accesses — short of the pipeline's 160.  Four
        interleaved sub-streams quadruple the per-stream gap and clear
        it.  That asymmetry *is* the multi-striding opportunity.
    """

    n_engines: int = 8
    train_threshold: int = 2
    degree: int = 2
    max_distance: int = 20
    page_lines: int = 64
    latency_accesses: int = 160

    def __post_init__(self) -> None:
        if self.n_engines <= 0:
            raise ValueError(f"n_engines must be positive, got {self.n_engines}")
        if self.train_threshold < 1:
            raise ValueError(
                f"train_threshold must be at least 1, "
                f"got {self.train_threshold}"
            )
        if self.degree < 0:
            raise ValueError(f"degree must be non-negative, got {self.degree}")
        if self.max_distance <= 0:
            raise ValueError(
                f"max_distance must be positive, got {self.max_distance}"
            )
        if self.page_lines <= 0:
            raise ValueError(
                f"page_lines must be positive, got {self.page_lines}"
            )
        if self.latency_accesses < 0:
            raise ValueError(
                f"latency_accesses must be non-negative, "
                f"got {self.latency_accesses}"
            )


class _Engine:
    """One stream engine: tracks a single page's access stream."""

    __slots__ = ("page", "last_line", "stride", "confidence", "issued_until")

    def __init__(self, page: int, line: int) -> None:
        self.page = page
        self.last_line = line
        self.stride = 0
        self.confidence = 0
        # Highest line already requested along the stride (run-ahead
        # frontier); meaningful only once trained.
        self.issued_until = line


class MultiStreamPrefetcher:
    """Bounded multi-stream detector with deterministic LRU eviction.

    Engines are keyed by 4 KiB page, allocated on first touch and evicted
    least-recently-used when the pool of ``n_engines`` is full.  A trained
    engine issues at most ``degree`` prefetches per trigger, keeps its
    run-ahead within ``max_distance`` lines and never crosses its page.

    :meth:`observe` ticks the clock, one tick per demand access, and
    returns ``(targets, arrival)`` where ``arrival`` is the access-count
    timestamp at which the issued lines stop being in flight; the
    reference hierarchy of the tests uses it to classify later demand hits
    as late/on-time.  The engines never read the clock, so :meth:`train`
    (a block, in numpy) leaves it alone:
    :meth:`CacheHierarchy.run <repro.cachesim.hierarchy.CacheHierarchy.run>`
    ticks it once per demand access.
    """

    __slots__ = ("params", "_engines", "stats", "_clock")

    def __init__(self, params: Optional[StreamModelParams] = None) -> None:
        self.params = params or StreamModelParams()
        # page -> _Engine, LRU order (first = coldest).
        self._engines: "OrderedDict[int, _Engine]" = OrderedDict()
        self.stats = StreamTableStats(capacity=self.params.n_engines)
        self._clock = 0

    @property
    def occupancy(self) -> int:
        return len(self._engines)

    def observe(self, ref_id: int, line: int) -> Tuple[List[int], int]:
        """Record a demand access at the next clock tick.

        Returns ``(targets, arrival_clock)``: the lines to prefetch (maybe
        empty) and the clock at which they arrive, which is the access's
        own tick when it triggers no issue.
        """
        self._clock += 1
        p = self.params
        page = line // p.page_lines
        engine, allocated = _touch(
            self._engines, page, p.n_engines, self.stats, _Engine, page, line
        )
        if allocated:
            return [], self._clock
        stride = line - engine.last_line
        if stride == 0:
            return [], self._clock
        engine.last_line = line
        if stride == engine.stride:
            engine.confidence += 1
        else:
            engine.stride = stride
            engine.confidence = 1
            engine.issued_until = line
        if engine.confidence < p.train_threshold:
            return [], self._clock
        if engine.confidence == p.train_threshold:
            self.stats.trained += 1
            engine.issued_until = line
        # Rate-limited issue along the stride: at most ``degree`` new lines,
        # within the run-ahead window, never past the page boundary.
        targets: List[int] = []
        page_lo = page * p.page_lines
        page_hi = page_lo + p.page_lines - 1
        frontier = engine.issued_until
        for _ in range(p.degree):
            nxt = frontier + stride
            if nxt < page_lo or nxt > page_hi:
                break
            if abs(nxt - line) > p.max_distance:
                break
            targets.append(nxt)
            frontier = nxt
        engine.issued_until = frontier
        self.stats.prefetches_issued += len(targets)
        return targets, self._clock + p.latency_accesses

    def train(
        self, lines: np.ndarray
    ) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
        """:meth:`observe` over every line in order, in numpy.

        Returns ``(plans, codes)``: the distinct non-empty issues of the
        block, each as line offsets from its demand line in issue order,
        and per access 0 where it issues nothing, else ``k + 1`` for
        ``plans[k]``.  The pool, its LRU order, every engine field and
        every statistic end exactly as that sequence of :meth:`observe`
        calls leaves them; the clock is not touched.

        The engines read the line stream alone, never cache state, so a
        block goes through in one :class:`_TableWalk` of the pool keyed by
        page.  From the access that trains a run (or, for a run the pool
        carries in trained, from the carried last line), an access ``u``
        strides along has the run-ahead frontier ``F = min(F0 + degree *
        (t + 1), max_distance // |s| + u, page edge)`` in stride units,
        where ``t`` counts the run's triggers before it and ``F0`` is the
        frontier the run starts from; it issues the lines between the
        previous frontier and ``F``.
        """
        n = int(lines.size)
        codes = np.zeros(n, dtype=np.int64)
        if n == 0:
            return [], codes
        p = self.params
        threshold = p.train_threshold
        walk = _TableWalk(
            self._engines, lines // p.page_lines, lines, p.n_engines,
            threshold, self.stats,
        )
        # A new engine's frontier is the line it was allocated at.
        life_until = walk.carry_in("issued_until", walk.lines[walk.starts])
        s, lv, run_start, carry = walk.s, walk.lv, walk.run_start, walk.carry
        at = walk.lines[walk.moving]
        # Where the run's frontier is counted from: the training access
        # (frontier 0, ``t == u``), or for a run carried in trained the
        # carried last line (carried frontier, ``t == u - 1``).
        trig = np.flatnonzero(walk.conf >= threshold)
        ts = s[trig]
        rs = run_start[trig]
        fresh = carry[trig] < threshold
        base = np.where(fresh, rs + threshold - 1 - carry[trig], rs - 1)
        u = trig - base
        t = np.where(fresh, u, u - 1)
        origin = at[trig] - ts * u
        f0 = np.where(fresh, 0, (life_until[lv[trig]] - origin) // ts)
        page_lo = origin // p.page_lines * p.page_lines
        edge = np.where(
            ts > 0, page_lo + p.page_lines - 1 - origin, origin - page_lo
        ) // np.abs(ts)
        reach = p.max_distance // np.abs(ts) + u
        frontier = np.minimum(np.minimum(f0 + p.degree * (t + 1), reach), edge)
        previous = np.where(
            t == 0,
            f0,
            np.minimum(np.minimum(f0 + p.degree * t, reach - 1), edge),
        )
        count = frontier - previous
        self.stats.prefetches_issued += int(count.sum())
        # A life's frontier is its trained run's, else the line where the
        # run began (or the carried one, for a run carried in untrained).
        until = np.where(carry > 0, life_until[lv], at[run_start])
        until[trig] = origin + ts * frontier
        # One plan per distinct (step, first offset, count), packed into one
        # key; consecutive issues mostly repeat their plan.
        plans: List[Tuple[int, ...]] = []
        issuing = np.flatnonzero(count)
        if issuing.size:
            width = p.max_distance + 2
            key = (
                ts[issuing] * width + previous[issuing] + 1 - u[issuing]
            ) * (p.degree + 1) + count[issuing]
            change = np.ones(key.size, dtype=bool)
            change[1:] = key[1:] != key[:-1]
            distinct, which = np.unique(key[change], return_inverse=True)
            for packed in distinct.tolist():
                rest, n_lines = divmod(packed, p.degree + 1)
                stride, lo = divmod(rest, width)
                plans.append(
                    tuple(stride * j for j in range(lo, lo + n_lines))
                )
            codes[walk.block(walk.moving[trig[issuing]])] = (
                which[np.cumsum(change) - 1] + 1
            )
        self._engines = walk.finish(_Engine, issued_until=until)
        return plans, codes

    def reset(self) -> None:
        """Forget all engines and the clock (statistics are kept)."""
        self._engines.clear()
        self.stats.occupancy = 0
        self._clock = 0
