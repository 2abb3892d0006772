"""LRU tables answered in numpy, by stack distance.

An LRU table of capacity ``W`` that every access touches holds, after any
access, the ``W`` most recently used keys.  So an access finds its key iff
the key occurred before and fewer than ``W`` distinct keys occurred since:
which accesses hit, and what the table holds at the end, follow from the
key sequence alone.  The prefetch engines' shared table walk
(:mod:`repro.cachesim.prefetch`) uses this for both bounded tables, the
stride table keyed by load and the stream-engine pool keyed by page, and
hands :func:`lru_table` the stable order it already sorted the keys into.
So do the cache levels that take no prefetch fill for their sets
(:meth:`SetAssocCache.run <repro.cachesim.cache.SetAssocCache.run>`): the
sets of a cache are independent tables, and on the accesses stably sorted
by set index a line's previous use, and every access between the two, lie
in its own set's run, so one call answers every set.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of integer ``keys``.  numpy radix-sorts 16-bit
    keys, several times faster than it sorts int64, so keys that span
    fewer than ``2**16`` values sort as 16-bit offsets from the least, and
    keys that span fewer than ``2**32`` as two such sorts, low half
    first."""
    low = keys.min()
    span = keys.max() - low
    if span >= 1 << 32:
        return np.argsort(keys, kind="stable")
    keys = keys - low
    if span < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def lru_table(
    keys: np.ndarray, capacity: int, order: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Which accesses of a key sequence find their key in an LRU table,
    and the positions of each key's last run.

    Every access touches its key, allocating an entry when the key is
    absent and evicting the least recently used one when ``capacity``
    entries are live.  Returns ``(hit, final)``: ``hit[i]`` is true iff
    ``keys[i]`` occurred before and fewer than ``capacity`` distinct keys
    occurred since; ``final`` holds, ascending, one position per
    distinct key, inside the key's last run of repeats, so ``keys[final]``
    lists every key once, least recently used first, and
    ``keys[final][-capacity:]`` is the table after the sequence.  A caller
    that already holds ``order = stable_order(keys)`` passes it, and the
    keys are not sorted again.

    A repeat of the key just used always hits, so runs of one key
    collapse to one position first.  A sequence of at most ``capacity``
    distinct keys misses only on first uses, and none of the rest runs.
    In the collapsed sequence a gap of fewer than ``capacity`` positions
    cannot hold ``capacity`` keys.  A longer gap is certified a miss by a
    window that ends just before the access when that window holds
    ``capacity`` distinct keys.  The window of ``capacity`` positions
    settles most gaps: it does iff none of its keys recurs in it, which a
    sliding minimum of the next uses tells.  The gaps left are counted
    exactly, a few times the sequence's length of positions at a time.
    When they total more than that, each first tries the longest window
    of ``capacity * 2**k`` positions that fits in it, whose counts for
    every position come from one ``bincount`` and one ``cumsum``.
    """
    size = keys.size
    head = np.ones(size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    runs = keys[head]
    m = runs.size
    if order is None:
        order = stable_order(runs)
    else:
        # The runs in the order of their heads among the sorted keys.
        order = (np.cumsum(head) - 1)[order[head[order]]]
    again = runs[order[1:]] == runs[order[:-1]]
    # The previous and next positions of each position's key (-1 and m
    # when there is none).
    later, earlier = order[1:][again], order[:-1][again]
    prev = np.full(m, -1, dtype=np.int64)
    prev[later] = earlier
    after = np.full(m, m, dtype=np.int64)
    after[earlier] = later
    hit = prev >= 0
    if m - int(again.sum()) > capacity:
        index = np.arange(m)
        unsure = np.flatnonzero(hit & (index - prev > capacity))
        # The window of ``capacity`` positions just before the access
        # decides most gaps: it fits in every gap left unsure, and it holds
        # ``capacity`` distinct keys iff none of them recurs in it.
        evicted = _window_min(after, capacity)[unsure - capacity] >= unsure
        hit[unsure[evicted]] = False
        unsure = unsure[~evicted]
        gaps = unsure - prev[unsure] - 1
        if gaps.sum() > 4 * m:
            # Too long to count every position: first try each gap's
            # longest window of ``capacity << level`` positions.
            level = np.frexp(gaps // capacity)[1] - 1
            evicted = np.zeros(unsure.size, dtype=bool)
            for k in np.flatnonzero(np.bincount(level)[1:]).tolist():
                at = np.flatnonzero(level == k + 1)
                distinct = _distinct(after, index, capacity << k + 1)
                evicted[at] = distinct[unsure[at] - 1] >= capacity
            hit[unsure[evicted]] = False
            unsure, gaps = unsure[~evicted], gaps[~evicted]
        # Count the distinct keys of the gaps left, about 4 * m positions
        # at a time.
        bounds = np.searchsorted(
            np.cumsum(gaps), np.arange(4 * m, int(gaps.sum()), 4 * m)
        ).tolist()
        for lo, hi in zip([0] + bounds, bounds + [unsure.size]):
            part = unsure[lo:hi]
            counts = _gap_distinct(after, part, gaps[lo:hi])
            hit[part[counts >= capacity]] = False
    out = np.ones(size, dtype=bool)
    out[head] = hit
    return out, np.flatnonzero(head)[after == m]


def _distinct(after: np.ndarray, index: np.ndarray, width: int) -> np.ndarray:
    """Per position ``e``, the distinct keys of the ``width`` positions
    ending at ``e``: each counted at its last position there, the one
    whose next use is past ``e``."""
    m = index.size
    gone = np.bincount(np.minimum(after, index + width), minlength=m)
    return index + 1 - np.cumsum(gone[:m])


def _gap_distinct(
    after: np.ndarray, ends: np.ndarray, gaps: np.ndarray
) -> np.ndarray:
    """Per access ``ends[k]``, the distinct keys of the ``gaps[k] > 0``
    positions just before it: those whose next use is at the access or
    later."""
    total = int(gaps.sum())
    first = np.cumsum(gaps) - gaps
    inside = np.arange(total) + np.repeat(ends - gaps - first, gaps)
    live = after[inside] >= np.repeat(ends, gaps)
    return np.add.reduceat(live, first)


def _window_min(values: np.ndarray, width: int) -> np.ndarray:
    """``out[a] = values[a:a + width].min()`` for every full window, from
    windows of doubling width."""
    span = 1
    while span * 2 <= width:
        values = np.minimum(values[:-span], values[span:])
        span *= 2
    if span < width:
        values = np.minimum(values[:span - width], values[width - span:])
    return values
