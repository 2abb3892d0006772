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

The stride and multi-stream tables share :class:`StreamTableStats`, the
occupancy/eviction counters :class:`repro.cachesim.stats.HierarchyStats`
surfaces under ``stream_tables``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cachesim.lru import lru_hits, stable_order


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

    def __init__(self) -> None:
        self.last_line = None
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
        "train_threshold", "stats", "_offsets",
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
        # Stride -> the line offsets a trained access prefetches.
        self._offsets: Dict[int, Tuple[int, ...]] = {}

    def _stream_for(self, ref_id: int) -> _Stream:
        stream = self._streams.get(ref_id)
        if stream is not None:
            self._streams.move_to_end(ref_id)
            return stream
        stream = _Stream()
        if len(self._streams) >= self.max_streams:
            self._streams.popitem(last=False)
            self.stats.evictions += 1
        self._streams[ref_id] = stream
        self.stats.allocations += 1
        self.stats.occupancy = len(self._streams)
        if self.stats.occupancy > self.stats.peak_occupancy:
            self.stats.peak_occupancy = self.stats.occupancy
        return stream

    def observe(self, ref_id: int, line: int) -> List[int]:
        """Record a demand access; return lines to prefetch (maybe empty)."""
        stream = self._stream_for(ref_id)
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
        out: List[int] = []
        for d in range(1, self.degree + 1):
            target = line + stride * d
            if abs(target - line) > self.max_distance and abs(stride) > 1:
                break
            if abs(stride * d) > self.max_distance * 4:
                break
            out.append(target)
        self.stats.prefetches_issued += len(out)
        return out

    def offsets(self, stride: int) -> Tuple[int, ...]:
        """Line offsets (from the demand line) that an access trained on
        ``stride`` prefetches: what :meth:`observe` returns, minus the
        line."""
        out = self._offsets.get(stride)
        if out is None:
            found = []
            for d in range(1, self.degree + 1):
                offset = stride * d
                if abs(offset) > self.max_distance and abs(stride) > 1:
                    break
                if abs(offset) > self.max_distance * 4:
                    break
                found.append(offset)
            out = self._offsets[stride] = tuple(found)
        return out

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
        whole block at once, one id's accesses after another.  The table
        is LRU, so an access finds its stream iff
        :func:`~repro.cachesim.lru.lru_hits` says so.  A stream's life runs
        from its allocation to its eviction; within it the stride is the
        step between consecutive distinct lines and the confidence is the
        length of the current run of equal strides.
        """
        n = int(refs.size)
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        cap = self.max_streams
        streams = self._streams
        # The table's entries act as accesses just before the block, in LRU
        # order, that resume their stream's life: combined position ``k <
        # held`` is entry ``k``, block access ``i`` is ``held + i``.
        held = len(streams)
        carried = list(streams.values())
        keys = np.concatenate((np.fromiter(streams, np.int64, held), refs))
        # Walk the accesses id by id, each id's in time order.
        order = stable_order(keys)
        walked = keys[order]
        new_id = np.ones(order.size, dtype=bool)
        new_id[1:] = walked[1:] != walked[:-1]
        n_ids = int(new_id.sum())
        # ``found[w]``: the walk's access w finds its id's stream, which
        # the previous access of the walk touched last.
        found = ~new_id
        if n_ids > cap:
            found = lru_hits(keys, cap)[order]
        walk_lines = np.concatenate((
            np.fromiter((st.last_line for st in carried), np.int64, held),
            lines,
        ))[order]
        step = np.zeros(order.size, dtype=np.int64)
        step[1:] = walk_lines[1:] - walk_lines[:-1]
        step[~found] = 0
        # Every access that misses starts a life, the table's entries
        # starting theirs with the stride and confidence they carry.
        life = np.cumsum(~found) - 1
        starts = np.flatnonzero(~found)
        life_stride = np.zeros(starts.size, dtype=np.int64)
        life_conf = np.zeros(starts.size, dtype=np.int64)
        entry = order[starts]
        resumed = entry < held
        life_stride[resumed] = [carried[k].stride for k in entry[resumed]]
        life_conf[resumed] = [carried[k].confidence for k in entry[resumed]]
        # Confidence along the non-zero steps: the run of equal strides
        # within one life, continuing the carried run when it matches.
        moving = np.flatnonzero(step)
        codes = np.zeros(order.size, dtype=np.int64)
        strides = np.zeros(0, dtype=np.int64)
        if moving.size:
            s = step[moving]
            lv = life[moving]
            first_of_life = np.ones(s.size, dtype=bool)
            first_of_life[1:] = lv[1:] != lv[:-1]
            breaks = first_of_life.copy()
            breaks[1:] |= s[1:] != s[:-1]
            index = np.arange(s.size)
            run_start = np.maximum.accumulate(np.where(breaks, index, 0))
            carry = np.where(
                first_of_life & (s == life_stride[lv]), life_conf[lv], 0
            )
            conf = index - run_start + 1 + carry[run_start]
            trained = conf >= self.train_threshold
            self.stats.trained += int((conf == self.train_threshold).sum())
            strides, which, counts = np.unique(
                s[trained], return_inverse=True, return_counts=True
            )
            codes[moving[trained]] = which + 1
            self.stats.prefetches_issued += sum(
                len(self.offsets(stride)) * count
                for stride, count in zip(strides.tolist(), counts.tolist())
            )
            # Each life ends on its last non-zero step's stride/confidence.
            ends = np.flatnonzero(np.append(lv[1:] != lv[:-1], True))
            life_stride[lv[ends]] = s[ends]
            life_conf[lv[ends]] = conf[ends]

        # A block access that misses allocates; it evicts the LRU entry
        # when the table is full, which takes more than ``cap`` ids.
        allocated = np.flatnonzero(entry >= held)
        if allocated.size:
            self.stats.allocations += int(allocated.size)
            if n_ids > cap:
                # Before block access i the table holds ``held`` entries
                # plus every id first used in the block before i.
                first = np.sort(order[new_id])
                first = first[first >= held]
                full = held + np.searchsorted(first, entry[allocated]) >= cap
                self.stats.evictions += int(full.sum())

        # The table after the block: the ``cap`` most recently used ids in
        # LRU order, each block id in the state of its last life.
        ends = np.flatnonzero(np.append(new_id[1:], True))
        table: "OrderedDict[int, _Stream]" = OrderedDict()
        for w in ends[np.argsort(order[ends])][-cap:].tolist():
            ref = int(walked[w])
            if order[w] < held:
                table[ref] = streams[ref]
                continue
            st = table[ref] = _Stream()
            st.last_line = int(walk_lines[w])
            st.stride = int(life_stride[life[w]])
            st.confidence = int(life_conf[life[w]])
        self._streams = table
        if allocated.size:
            occupancy = self.stats.occupancy = len(table)
            if occupancy > self.stats.peak_occupancy:
                self.stats.peak_occupancy = occupancy
        out = np.empty(n, dtype=np.int64)
        in_block = order >= held
        out[order[in_block] - held] = codes[in_block]
        return strides, out

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

    :meth:`observe` returns ``(targets, arrival)`` where ``arrival`` is the
    access-count timestamp at which the issued lines stop being in flight;
    the reference hierarchy of the tests uses it to classify later demand
    hits as late/on-time.  The engines never read the clock, so
    :meth:`advance` (one access) and :meth:`train` (a block, in numpy)
    leave it alone: :class:`~repro.cachesim.hierarchy.CacheHierarchy`'s
    demand loop ticks it once per demand access.
    """

    __slots__ = ("params", "_engines", "stats", "_clock", "_plans")

    def __init__(self, params: Optional[StreamModelParams] = None) -> None:
        self.params = params or StreamModelParams()
        # page -> _Engine, LRU order (first = coldest).
        self._engines: "OrderedDict[int, _Engine]" = OrderedDict()
        self.stats = StreamTableStats(capacity=self.params.n_engines)
        self._clock = 0
        # :meth:`train`'s packed (step, first offset, count) -> its plan.
        self._plans: Dict[int, Tuple[int, ...]] = {}

    @property
    def occupancy(self) -> int:
        return len(self._engines)

    def observe(self, ref_id: int, line: int) -> Tuple[List[int], int]:
        """Record a demand access at the next clock tick.

        Returns ``(targets, arrival_clock)``: the lines to prefetch (maybe
        empty) and the clock at which they arrive.
        """
        self._clock += 1
        offsets = self.advance(line)
        if offsets is None:
            return [], self._clock
        return (
            [line + offset for offset in offsets],
            self._clock + self.params.latency_accesses,
        )

    def advance(self, line: int) -> Optional[Tuple[int, ...]]:
        """Record a demand access without ticking the clock.

        Returns ``None`` when the access triggers no issue, else the offsets
        (from ``line``) of the lines it issues, maybe none.
        """
        p = self.params
        page = line // p.page_lines
        engine = self._engines.get(page)
        if engine is None:
            engine = _Engine(page, line)
            if len(self._engines) >= p.n_engines:
                self._engines.popitem(last=False)
                self.stats.evictions += 1
            self._engines[page] = engine
            self.stats.allocations += 1
            self.stats.occupancy = len(self._engines)
            if self.stats.occupancy > self.stats.peak_occupancy:
                self.stats.peak_occupancy = self.stats.occupancy
            return None
        self._engines.move_to_end(page)
        stride = line - engine.last_line
        if stride == 0:
            return None
        engine.last_line = line
        if stride == engine.stride:
            engine.confidence += 1
        else:
            engine.stride = stride
            engine.confidence = 1
            engine.issued_until = line
        if engine.confidence < p.train_threshold:
            return None
        if engine.confidence == p.train_threshold:
            self.stats.trained += 1
            engine.issued_until = line
        # Rate-limited issue along the stride: at most ``degree`` new lines,
        # within the run-ahead window, never past the page boundary.
        offsets: List[int] = []
        page_lo = page * p.page_lines
        page_hi = page_lo + p.page_lines - 1
        frontier = engine.issued_until
        for _ in range(p.degree):
            nxt = frontier + stride
            if nxt < page_lo or nxt > page_hi:
                break
            if abs(nxt - line) > p.max_distance:
                break
            offsets.append(nxt - line)
            frontier = nxt
        engine.issued_until = frontier
        self.stats.prefetches_issued += len(offsets)
        return tuple(offsets)

    def train(
        self, lines: np.ndarray
    ) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
        """:meth:`advance` over every line in order, in numpy.

        Returns ``(plans, codes)``: the distinct non-empty issues of the
        block, each as line offsets from its demand line in issue order,
        and per access 0 where it issues nothing, else ``k + 1`` for
        ``plans[k]``.  The pool, its LRU order, every engine field and
        every statistic end exactly as that sequence of :meth:`advance`
        calls leaves them; the clock is not touched.

        The engines read the line stream alone, never cache state.  The
        pool is LRU over pages, so an access finds its engine iff
        :func:`~repro.cachesim.lru.lru_hits` says so, and an engine's life
        runs from its allocation to its eviction.  Within a life the
        confidence is the length of the current run of equal non-zero
        steps ``s``.  From the access that trains a run (or, for a run the
        pool carries in trained, from the carried last line), an access
        ``u`` strides along has the run-ahead frontier ``F = min(F0 +
        degree * (t + 1), max_distance // |s| + u, page edge)`` in stride
        units, where ``t`` counts the run's triggers before it and ``F0``
        is the frontier the run starts from; it issues the lines between
        the previous frontier and ``F``.
        """
        n = int(lines.size)
        codes = np.zeros(n, dtype=np.int64)
        if n == 0:
            return [], codes
        p = self.params
        cap = p.n_engines
        engines = self._engines
        # The pool's engines act as accesses just before the block, in LRU
        # order, that resume their life: combined position ``k < held`` is
        # engine ``k``, block access ``i`` is ``held + i``.
        held = len(engines)
        carried = list(engines.values())
        every = np.concatenate((
            np.fromiter((e.last_line for e in carried), np.int64, held),
            lines,
        ))
        pages = every // p.page_lines
        # Walk the accesses page by page, each page's in time order.
        order = stable_order(pages)
        walked = pages[order]
        walk_lines = every[order]
        found = lru_hits(pages, cap)[order]
        step = np.zeros(order.size, dtype=np.int64)
        step[1:] = walk_lines[1:] - walk_lines[:-1]
        step[~found] = 0
        # Every access that misses starts a life: an engine allocated at
        # its line, or a carried engine with the fields it holds.
        life = np.cumsum(~found) - 1
        starts = np.flatnonzero(~found)
        entry = order[starts]
        life_stride = np.zeros(starts.size, dtype=np.int64)
        life_conf = np.zeros(starts.size, dtype=np.int64)
        life_until = walk_lines[starts]
        for k in np.flatnonzero(entry < held).tolist():
            engine = carried[entry[k]]
            life_stride[k] = engine.stride
            life_conf[k] = engine.confidence
            life_until[k] = engine.issued_until

        moving = np.flatnonzero(step)
        plans: List[Tuple[int, ...]] = []
        if moving.size:
            s = step[moving]
            lv = life[moving]
            at = walk_lines[moving]
            # Confidence: the run of equal steps within one life,
            # continuing the carried run when it matches.
            first_of_life = np.ones(s.size, dtype=bool)
            first_of_life[1:] = lv[1:] != lv[:-1]
            breaks = first_of_life.copy()
            breaks[1:] |= s[1:] != s[:-1]
            index = np.arange(s.size)
            run_start = np.maximum.accumulate(np.where(breaks, index, 0))
            carry = np.where(
                first_of_life & (s == life_stride[lv]), life_conf[lv], 0
            )[run_start]
            conf = index - run_start + 1 + carry
            threshold = p.train_threshold
            self.stats.trained += int((conf == threshold).sum())
            # Where the run's frontier is counted from: the training access
            # (frontier 0, ``t == u``), or for a run carried in trained the
            # carried last line (carried frontier, ``t == u - 1``).
            trig = np.flatnonzero(conf >= threshold)
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
            frontier = np.minimum(
                np.minimum(f0 + p.degree * (t + 1), reach), edge
            )
            previous = np.where(
                t == 0,
                f0,
                np.minimum(np.minimum(f0 + p.degree * t, reach - 1), edge),
            )
            count = frontier - previous
            self.stats.prefetches_issued += int(count.sum())
            # Each life ends on its last step's stride and confidence; its
            # frontier is the trained run's, else the line where the run
            # began (or the carried one, for a run carried in untrained).
            until = np.where(carry > 0, life_until[lv], at[run_start])
            until[trig] = origin + ts * frontier
            ends = np.flatnonzero(np.append(lv[1:] != lv[:-1], True))
            life_stride[lv[ends]] = s[ends]
            life_conf[lv[ends]] = conf[ends]
            life_until[lv[ends]] = until[ends]
            # One plan per distinct (step, first offset, count), packed
            # into one key; consecutive issues mostly repeat their plan.
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
                    plan = self._plans.get(packed)
                    if plan is None:
                        rest, n_lines = divmod(packed, p.degree + 1)
                        stride, lo = divmod(rest, width)
                        plan = self._plans[packed] = tuple(
                            stride * j for j in range(lo, lo + n_lines)
                        )
                    plans.append(plan)
                # Walk position -> block access: combined position - held.
                codes[order[moving[trig[issuing]]] - held] = (
                    which[np.cumsum(change) - 1] + 1
                )

        # A block access that misses allocates; it evicts the LRU engine
        # when the pool is full, which takes more than ``cap`` pages.
        new_page = np.ones(order.size, dtype=bool)
        new_page[1:] = walked[1:] != walked[:-1]
        allocated = np.flatnonzero(entry >= held)
        if allocated.size:
            self.stats.allocations += int(allocated.size)
            # Before block access i the pool holds ``held`` engines plus
            # every page first used in the block before i.
            first_use = np.sort(order[new_page])
            first_use = first_use[first_use >= held]
            full = held + np.searchsorted(first_use, entry[allocated]) >= cap
            self.stats.evictions += int(full.sum())

        # The pool after the block: the ``cap`` most recently used pages in
        # LRU order, each in the state of its last life.
        last = np.flatnonzero(np.append(new_page[1:], True))
        pool: "OrderedDict[int, _Engine]" = OrderedDict()
        for w in last[np.argsort(order[last])][-cap:].tolist():
            page = int(walked[w])
            if order[w] < held:
                pool[page] = engines[page]
                continue
            engine = pool[page] = _Engine(page, int(walk_lines[w]))
            k = life[w]
            engine.stride = int(life_stride[k])
            engine.confidence = int(life_conf[k])
            engine.issued_until = int(life_until[k])
        self._engines = pool
        if allocated.size:
            occupancy = self.stats.occupancy = len(pool)
            if occupancy > self.stats.peak_occupancy:
                self.stats.peak_occupancy = occupancy
        return plans, codes

    def reset(self) -> None:
        """Forget all engines and the clock (statistics are kept)."""
        self._engines.clear()
        self.stats.occupancy = 0
        self._clock = 0
