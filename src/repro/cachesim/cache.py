"""A set-associative, LRU, line-granular cache model.

Lines are identified by their *line address* (byte address divided by the
line size — the trace generator already performs the division).  A level
keeps two views of what it holds:

* the **residency map**, one ``dict`` from every resident line to its
  "brought in by prefetch" flag.  It answers every membership probe, and
  a probe, its prefetch credit and clearing the flag are one ``get``
  (``None`` on a miss) plus, on a credited hit, one store;
* per set, a plain list of its lines in LRU order, oldest first, used
  only for replacement order: a hit moves the line to the end
  (``remove`` + ``append``, skipped when it is already most recent), a
  fill appends and an overflowing set drops its head (``pop(0)``), which
  is then ``del``-ed from the map.

Sets are short (at most a few dozen ways), so a fill's ``append`` plus
``pop(0)`` costs about 50 ns in CPython 3.11, where the ``OrderedDict``
insert plus ``popitem(last=False)`` it replaced cost about 180 ns; fills,
not hits, dominate the simulator's cost.  Probing the map instead of
scanning the set's list saves a linear search per probe, which the
simulator makes several times per access (demand levels, next-line and
stride targets).  The simulator's demand loops
(:meth:`~repro.cachesim.hierarchy.CacheHierarchy.run`) inline this
representation for the levels that prefetches fill (see that module for
their measured cost per access).

A level that takes no prefetch fill — L1 under the stream model, every
level with prefetching off — has every flag down, so its sets are plain
LRU tables of the demand stream: :meth:`SetAssocCache.run` resolves a
whole block of accesses in numpy from per-set stack distances and writes
the lists and the map back once, about 180 ns per access for the L1 of
the seed-0 ``multistride`` streams (CPU time on a 2-vCPU VM).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cachesim.lru import lru_table, stable_order
from repro.cachesim.stats import LevelStats


class SetAssocCache:
    """One cache level.

    Parameters
    ----------
    name:
        Label used in statistics ("L1", "L2", ...).
    num_sets:
        Number of sets; the set index of a line is ``line_addr % num_sets``
        (or a hash of it, see ``hashed_index``).
    ways:
        Associativity; the replacement policy is true LRU.
    hashed_index:
        XOR-fold the upper line-address bits into the set index, modelling
        the "complex addressing" of Intel last-level caches.  Without it a
        power-of-two stride maps every line to a handful of sets and the
        LLC thrashes — which hashed real hardware does not do.
    """

    __slots__ = (
        "name", "num_sets", "ways", "hashed_index", "_sets", "_resident",
        "stats",
    )

    def __init__(
        self, name: str, num_sets: int, ways: int, *, hashed_index: bool = False
    ) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.hashed_index = hashed_index
        # Per set, the resident lines in LRU order (oldest first).
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        # Every resident line -> whether a prefetch brought it in and no
        # demand access has touched it since.
        self._resident: Dict[int, bool] = {}
        self.stats = LevelStats(name)

    def set_index(self, line: int) -> int:
        """Set an address maps to (modulo, or XOR-folded when hashed)."""
        if self.hashed_index:
            n = self.num_sets
            folded = line ^ (line // n) ^ (line // (n * n))
            return folded % n
        return line % self.num_sets

    def set_indices(self, lines: np.ndarray) -> np.ndarray:
        """:meth:`set_index` of every line of an int64 array."""
        n = self.num_sets
        if self.hashed_index:
            lines = lines ^ lines // n ^ lines // (n * n)
        return lines % n

    def lookup(self, line: int) -> bool:
        """Demand lookup.  Returns True on hit (and updates LRU order and
        the prefetch-usefulness counter); records a miss otherwise, without
        allocating — call :meth:`fill` to bring the line in."""
        flag = self._resident.get(line)
        if flag is None:
            self.stats.misses += 1
            return False
        if flag:
            self.stats.prefetch_hits += 1
            self._resident[line] = False
        s = self._sets[self.set_index(line)]
        if s[-1] != line:
            s.remove(line)
            s.append(line)
        self.stats.hits += 1
        return True

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU order or statistics."""
        return line in self._resident

    def fill(self, line: int, *, prefetched: bool = False) -> Optional[int]:
        """Insert a line; returns the evicted line address, if any.

        ``prefetched`` marks the line as brought in by a prefetch engine so
        that a later demand hit is credited to the prefetcher.
        """
        resident = self._resident
        s = self._sets[self.set_index(line)]
        if line in resident:
            # Refill of a resident line: a demand fill clears the prefetch
            # flag; a prefetch fill never downgrades a demand-fetched line.
            if not prefetched:
                resident[line] = False
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            return None
        s.append(line)
        resident[line] = prefetched
        if prefetched:
            self.stats.prefetches_issued += 1
        if len(s) > self.ways:
            victim = s.pop(0)
            del resident[victim]
            self.stats.evictions += 1
            if prefetched:
                self.stats.prefetch_evictions += 1
            return victim
        return None

    def run(self, lines: np.ndarray) -> np.ndarray:
        """Demand-access ``lines`` in order, in numpy; returns which hit.

        Each access is :meth:`lookup` followed, on a miss, by a demand
        :meth:`fill`, with the same state and counters at the end, for a
        level that takes no prefetch fill (every prefetch flag is down).
        Each set is an LRU table of ``ways`` entries, so one
        :func:`~repro.cachesim.lru.lru_table` call on the accesses stably
        sorted by set index answers every set: the residents of the sets
        the block touches go first, in LRU order, and the last ``ways``
        distinct lines of each set are the set after the block.
        """
        n = int(lines.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        sets = self._sets
        index = self.set_indices(lines)
        marked = np.zeros(self.num_sets, dtype=bool)
        marked[index] = True
        touched = np.flatnonzero(marked).tolist()
        held = list(chain.from_iterable(map(sets.__getitem__, touched)))
        resident = np.array(held, dtype=np.int64)
        keys = np.concatenate((resident, lines))
        by_set = np.concatenate((self.set_indices(resident), index))
        order = stable_order(by_set)
        walked = keys[order]
        hit_walk, final = lru_table(walked, self.ways)
        hit = np.empty(keys.size, dtype=bool)
        hit[order] = hit_walk
        hit = hit[len(held):]
        # Each touched set keeps its ``ways`` most recently used lines.
        final_set = by_set[order[final]]
        last = np.append(final_set[1:] != final_set[:-1], True)
        ends = np.flatnonzero(last)
        rank = np.arange(final.size)
        kept = ends[np.searchsorted(ends, rank)] - rank < self.ways
        flat = walked[final[kept]].tolist()
        group_end = np.flatnonzero(last[kept])
        filled = final_set[kept][group_end].tolist()
        flags = self._resident
        for line in held:
            del flags[line]
        flags.update(dict.fromkeys(flat, False))
        start = 0
        for t, stop in zip(filled, (group_end + 1).tolist()):
            sets[t] = flat[start:stop]
            start = stop
        hits = int(np.count_nonzero(hit))
        self.stats.hits += hits
        self.stats.misses += n - hits
        self.stats.evictions += len(held) + n - hits - len(flat)
        return hit

    def invalidate(self, line: int) -> bool:
        """Drop a line if present (used by non-temporal stores)."""
        if self._resident.pop(line, None) is None:
            return False
        self._sets[self.set_index(line)].remove(line)
        return True

    def occupancy(self) -> int:
        """Total resident lines (for tests and diagnostics)."""
        return len(self._resident)

    def contents(self) -> List[List[Tuple[int, bool]]]:
        """Per set, its ``(line, prefetched)`` pairs in LRU order, oldest
        first (tests and diagnostics)."""
        resident = self._resident
        return [[(line, resident[line]) for line in s] for s in self._sets]

    def flush(self) -> None:
        """Empty the cache, keeping statistics."""
        for s in self._sets:
            s.clear()
        self._resident.clear()

    def __repr__(self) -> str:
        return (
            f"SetAssocCache({self.name}, sets={self.num_sets}, "
            f"ways={self.ways}, resident={self.occupancy()})"
        )
