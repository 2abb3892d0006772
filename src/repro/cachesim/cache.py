"""A set-associative, LRU, line-granular cache model.

Lines are identified by their *line address* (byte address divided by the
line size — the trace generator already performs the division).  Each set
is a plain list of line addresses in LRU order, oldest first: a hit moves
the line to the end (``remove`` + ``append``, skipped when it is already
most recent), a fill appends and an overflowing set drops its head
(``pop(0)``).  The "brought in by prefetch" flags live beside the sets, in
one per-level ``set`` holding the resident lines whose flag is still up;
every eviction and invalidation discards the victim from it.

Sets are short (at most a few dozen ways), so a fill's ``append`` plus
``pop(0)`` costs about 50 ns in CPython 3.11, where the ``OrderedDict``
insert plus ``popitem(last=False)`` it replaced cost about 180 ns; fills,
not hits, dominate the simulator's cost.  The simulator's demand loop,
:meth:`~repro.cachesim.hierarchy.CacheHierarchy.run`, inlines this
representation; it takes about 1-3 µs per line access, prefetch engines
included, on the perfbench ``price`` kernels (CPU time on a 2-vCPU Xeon,
scaled to perfbench's nominal host speed).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

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
        "name", "num_sets", "ways", "hashed_index", "_sets", "_prefetched",
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
        # Resident lines brought in by a prefetch and not yet demanded.
        self._prefetched: Set[int] = set()
        self.stats = LevelStats(name)

    def set_index(self, line: int) -> int:
        """Set an address maps to (modulo, or XOR-folded when hashed)."""
        if self.hashed_index:
            n = self.num_sets
            folded = line ^ (line // n) ^ (line // (n * n))
            return folded % n
        return line % self.num_sets

    def lookup(self, line: int) -> bool:
        """Demand lookup.  Returns True on hit (and updates LRU order and
        the prefetch-usefulness counter); records a miss otherwise, without
        allocating — call :meth:`fill` to bring the line in."""
        s = self._sets[self.set_index(line)]
        if line in s:
            if line in self._prefetched:
                self.stats.prefetch_hits += 1
                self._prefetched.discard(line)
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU order or statistics."""
        return line in self._sets[self.set_index(line)]

    def fill(self, line: int, *, prefetched: bool = False) -> Optional[int]:
        """Insert a line; returns the evicted line address, if any.

        ``prefetched`` marks the line as brought in by a prefetch engine so
        that a later demand hit is credited to the prefetcher.
        """
        s = self._sets[self.set_index(line)]
        if line in s:
            # Refill of a resident line: a demand fill clears the prefetch
            # flag; a prefetch fill never downgrades a demand-fetched line.
            if not prefetched:
                self._prefetched.discard(line)
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            return None
        s.append(line)
        if prefetched:
            self._prefetched.add(line)
            self.stats.prefetches_issued += 1
        if len(s) > self.ways:
            victim = s.pop(0)
            self._prefetched.discard(victim)
            self.stats.evictions += 1
            if prefetched:
                self.stats.prefetch_evictions += 1
            return victim
        return None

    def invalidate(self, line: int) -> bool:
        """Drop a line if present (used by non-temporal stores)."""
        s = self._sets[self.set_index(line)]
        if line in s:
            s.remove(line)
            self._prefetched.discard(line)
            return True
        return False

    def occupancy(self) -> int:
        """Total resident lines (for tests and diagnostics)."""
        return sum(len(s) for s in self._sets)

    def contents(self) -> List[List[Tuple[int, bool]]]:
        """Per set, its ``(line, prefetched)`` pairs in LRU order, oldest
        first (tests and diagnostics)."""
        flagged = self._prefetched
        return [[(line, line in flagged) for line in s] for s in self._sets]

    def flush(self) -> None:
        """Empty the cache, keeping statistics."""
        for s in self._sets:
            s.clear()
        self._prefetched.clear()

    def __repr__(self) -> str:
        return (
            f"SetAssocCache({self.name}, sets={self.num_sets}, "
            f"ways={self.ways}, resident={self.occupancy()})"
        )
