"""Algorithm 1: the cache-emulation routine bounding tile dimensions.

``emu`` answers: *how many tile rows of a given width can live in the cache
simultaneously — prefetched lines included — before some set overflows its
(effective) associativity?*  The returned row count is the upper bound
``maxTi`` that Algorithms 2 and 3 impose on the next tile dimension.

**The emulated cache** follows the paper's pseudocode as printed, with one
repair (the set-index modulo the pseudocode omits; see DESIGN.md):

* the emulated cache is an occupancy counter per set, with
  ``Nsets = LiCS / (Liway * DTS)`` — note the *element*-granular set
  count, exactly the paper's initialization — indexed by **cache-line
  index modulo Nsets**.  This set space is ``lc`` times larger than the
  physical set count, so the emulation behaves as a capacity-per-way
  bound that still detects aliasing at way-sized strides; it is what
  reproduces the paper's reported tile magnitudes (e.g. ``Ti = 32`` for
  2048x2048 matmul), where a physically-exact set model would collapse
  every power-of-two stride to the associativity;
* effective associativity ``ways`` is ``Liway`` divided by the hardware
  threads per core (SMT co-residency), or by the core count for a shared
  L2 (the ARM change described in Sec. 5.1) — both via
  :meth:`~repro.arch.ArchSpec.effective_ways`;
* **L1 variant**: each row is padded by one extra line — the streaming
  prefetcher's next-line fetch (the paper's
  ``Ti-1 = ceil(max(Ti-1 + lc, 2*lc) / lc)``);
* **L2 variant**: the set count is halved (headroom for the constant-stride
  prefetcher's fills), and after each placed line the next
  ``min(L2pref, L2maxpref)`` lines are probed — a full probed set counts
  as interference, modelling prefetches evicting useful data.

**Placement order.**  The pseudocode places rows one after another at a
constant row stride of ``S`` lines, and each row's ``row_lines`` lines in
address order.  Number the placements globally: position
``n = r * row_lines + o`` holds line ``base + r * S + o``.  The walk stops
at the first position that interferes, in one of two ways:

* *placement*: the line's set already holds ``ways`` lines — its rank
  among the earlier positions of the same set is at least ``ways``;
* *probe* (L2 only): some probed set ``(line + p) % Nsets``,
  ``1 <= p <= min(L2pref, L2maxpref)``, received its ``ways``-th line at
  a position ``<= n``.

The bound is that position's row, ``max(1, n // row_lines)``, or
``max_rows`` when no position interferes.  Both conditions depend on the
placement order alone, so this module evaluates them for whole blocks of
positions with numpy instead of walking line by line:

* row starts repeat every ``Q = Nsets / gcd(S, Nsets)`` rows, and one such
  period puts at most ``ceil(row_lines / gcd(S, Nsets))`` lines into any
  set.  That closed form settles most inputs that never interfere; exact
  per-set counts (one cumulative sum over the sets) settle the rest;
* the whole periods before any set can hold ``ways`` lines cannot
  interfere and are skipped, and by row ``ways * Q`` the first set has
  received ``ways + 1`` lines, so interference is certain by then;
* the remaining positions are scanned in blocks of at most
  :data:`BLOCK_ELEMENTS`.  A stable sort by set ranks each position
  within its set; the per-set occupancy and the position at which each
  set filled carry from block to block.

The line-by-line walk of the pseudocode is kept as the test oracle
(``reference_emu`` in ``tests/helpers.py``), and the two agree on every
input.

**Memoization.**  The Algorithm 2/3 searches re-invoke ``emu`` with
identical ``(level, row_width, stride)`` inputs across the tile lattice
— and again for every technique/benchmark pair a sweep evaluates — so
the routine is memoized behind a content-keyed cache: the key is the
:meth:`~repro.arch.ArchSpec.fingerprint` plus the frozen
:class:`EmuParams`.  The cache is observationally transparent: a hit
returns the identical row count and still emits the same ``emu`` trace
event and per-level call counter, so traced event streams are
bit-identical with the cache hot, cold, or disabled.  Hit/miss totals
are published as the ``stats.emu_cache_hit`` / ``stats.emu_cache_miss``
counters on the ambient tracer and via :func:`emu_cache_stats`.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.arch import ArchSpec
from repro.obs.events import EVENT_EMU
from repro.obs.tracer import current_tracer
from repro.util import ceil_div


@dataclass(frozen=True)
class EmuParams:
    """Inputs of one ``emu`` invocation (mirrors the paper's Table 2)."""

    level: int            # 1 or 2: which cache to emulate
    row_width_elems: int  # the previously chosen tile dimension (Ti-1)
    row_stride_elems: int  # leading-dimension extent (Bi): row-to-row stride
    max_rows: int         # problem bound on this dimension
    dts: int              # data type size in bytes
    addr: int = 0         # base element address of the array


@dataclass
class EmuCacheStats:
    """Cumulative memoization counters (process-wide, see
    :func:`emu_cache_stats`)."""

    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0


#: Bound on memoized entries; far above one sweep's distinct invocations,
#: small enough that a pathological caller cannot grow memory unboundedly.
_EMU_CACHE_CAP = 65536

_emu_cache: "OrderedDict[Tuple[str, EmuParams], int]" = OrderedDict()
_emu_cache_lock = threading.Lock()
_emu_cache_stats = EmuCacheStats()
_emu_cache_enabled = os.environ.get("REPRO_EMU_CACHE", "1") != "0"


def emu_cache_stats() -> EmuCacheStats:
    """A snapshot of the memoization counters (hits, misses, entries)."""
    with _emu_cache_lock:
        return EmuCacheStats(
            hits=_emu_cache_stats.hits,
            misses=_emu_cache_stats.misses,
            size=len(_emu_cache),
        )


def clear_emu_cache() -> None:
    """Drop every memoized entry and zero the hit/miss counters."""
    with _emu_cache_lock:
        _emu_cache.clear()
        _emu_cache_stats.hits = 0
        _emu_cache_stats.misses = 0


def configure_emu_cache(enabled: bool) -> bool:
    """Enable/disable the memo (e.g. for A/B benchmarking); returns the
    previous setting.  Disabling does not clear existing entries."""
    global _emu_cache_enabled
    previous = _emu_cache_enabled
    _emu_cache_enabled = bool(enabled)
    return previous


def emu(arch: ArchSpec, params: EmuParams) -> int:
    """Run Algorithm 1; return ``maxTi`` (rows that fit without conflict).

    Parameters
    ----------
    arch:
        Platform description; supplies cache geometry, effective ways and
        the prefetcher degree/distance.
    params:
        The invocation inputs (see :class:`EmuParams`).
    """
    if params.level not in (1, 2):
        raise ValueError(f"emu supports levels 1 and 2, got {params.level}")
    if params.row_width_elems <= 0:
        raise ValueError("row width must be positive")
    if params.row_stride_elems <= 0:
        # A zero (or negative) stride would alias every row onto one set
        # and silently report a single-row bound; reject it like the
        # other degenerate inputs.
        raise ValueError("row stride must be positive")
    if params.max_rows <= 0:
        raise ValueError("max_rows must be positive")

    tracer = current_tracer()
    if _emu_cache_enabled:
        key = (arch.fingerprint(), params)
        with _emu_cache_lock:
            cached = _emu_cache.get(key)
            if cached is not None:
                _emu_cache.move_to_end(key)
                _emu_cache_stats.hits += 1
            else:
                _emu_cache_stats.misses += 1
        if cached is not None:
            if tracer.enabled:
                tracer.count("stats.emu_cache_hit")
            _trace_emu(tracer, params, cached)
            return cached
        if tracer.enabled:
            tracer.count("stats.emu_cache_miss")
        max_ti = _emu_uncached(arch, params)
        with _emu_cache_lock:
            _emu_cache[key] = max_ti
            while len(_emu_cache) > _EMU_CACHE_CAP:
                _emu_cache.popitem(last=False)
        _trace_emu(tracer, params, max_ti)
        return max_ti
    max_ti = _emu_uncached(arch, params)
    _trace_emu(tracer, params, max_ti)
    return max_ti


#: Most positions one scan block covers, like ``sim/trace.py``'s
#: ``BLOCK_ELEMENTS``: large enough to amortise numpy's per-call cost,
#: small enough to keep memory flat.  Only the per-set arrays (``Nsets``
#: long, like the pseudocode's occupancy array) are not blocked.
BLOCK_ELEMENTS = 16_384

#: ``filled`` entry of a set that has not yet received ``ways`` lines.
_UNFILLED = np.iinfo(np.int64).max


def _emu_uncached(arch: ArchSpec, params: EmuParams) -> int:
    """The Algorithm 1 occupancy emulation itself (no cache, no trace)."""
    spec = arch.cache_level(params.level)
    lc = arch.lc(params.dts)
    ways = arch.effective_ways(params.level)
    # The paper's initialization: Nsets = LiCS / (Liway * DTS).
    nsets = spec.size // (spec.ways * params.dts)

    if params.level == 2:
        # Headroom for constant-stride prefetch fills: halve the sets.
        nsets = max(1, nsets // 2)
        row_lines = ceil_div(max(params.row_width_elems, lc), lc)
        # The stride engine runs up to ``L2pref`` lines ahead of the
        # demand stream, never farther than the maximum prefetch distance.
        probes = max(
            0,
            min(arch.l2_prefetches_per_access, arch.l2_max_prefetch_distance),
        )
    else:
        # The L1 streaming prefetcher drags one extra line per row.
        row_lines = ceil_div(max(params.row_width_elems + lc, 2 * lc), lc)
        probes = 0

    row_stride_lines = max(1, ceil_div(params.row_stride_elems, lc))
    base_line = params.addr // lc if lc else params.addr
    first = _first_interference(
        nsets, ways, probes, base_line % nsets, row_stride_lines % nsets,
        row_lines, params.max_rows,
    )
    if first is None:
        return params.max_rows
    return max(1, first // row_lines)


def _first_interference(
    nsets: int,
    ways: int,
    probes: int,
    base: int,
    stride: int,
    row_lines: int,
    max_rows: int,
) -> Optional[int]:
    """The first interfering placement position, or ``None`` if none of
    the ``max_rows * row_lines`` positions interferes.

    ``base`` and ``stride`` are the first line and the row stride in
    lines, both reduced modulo ``nsets``.
    """
    # Row starts visit one residue class mod ``step``, each once per
    # ``period`` rows, so one period puts at most ``per_period`` lines
    # into any set; by row ``ways * period`` the first row's start set
    # takes its ``ways + 1``-th line.
    step = math.gcd(stride, nsets)
    period = nsets // step
    per_period = ceil_div(row_lines, step)
    rows = min(max_rows, ways * period + 1)
    if rows == max_rows:
        most = ceil_div(rows, period) * per_period
        if most >= ways:
            most = int(_set_counts(
                nsets, base, stride, step, period, row_lines, rows).max())
        if most < ways or (most == ways and not probes):
            return None
    # No set can hold ``ways`` lines before period ``ceil(ways/per_period)``.
    skip = (ceil_div(ways, per_period) - 1) * period
    occupancy = _set_counts(nsets, base, stride, step, period, row_lines, skip)
    filled = np.full(nsets, _UNFILLED, dtype=np.int64)
    end = rows * row_lines
    for start in range(skip * row_lines, end, BLOCK_ELEMENTS):
        positions = np.arange(
            start, min(end, start + BLOCK_ELEMENTS), dtype=np.int64)
        row, offset = np.divmod(positions, row_lines)
        sets = (base + row * stride % nsets + offset) % nsets
        # ``order`` lists the block's positions set by set, each set's in
        # placement order; ``runs`` is where each set's run begins.
        order = np.argsort(sets, kind="stable")
        counts = np.bincount(sets, minlength=nsets)
        runs = np.cumsum(counts) - counts
        room = ways - occupancy
        hit = _UNFILLED
        over = counts > room
        if over.any():
            hit = start + int(order[runs[over] + room[over]].min())
        fills = (room > 0) & (counts >= room)
        filled[fills] = start + order[runs[fills] + room[fills] - 1]
        occupancy += counts
        if probes:
            soonest = filled[(sets + 1) % nsets]
            for p in range(2, probes + 1):
                np.minimum(soonest, filled[(sets + p) % nsets], out=soonest)
            late = np.flatnonzero(soonest <= positions)
            if late.size:
                hit = min(hit, start + int(late[0]))
        if hit != _UNFILLED:
            return hit
    return None


def _set_counts(
    nsets: int,
    base: int,
    stride: int,
    step: int,
    period: int,
    row_lines: int,
    rows: int,
) -> np.ndarray:
    """Lines each set receives from rows ``0 .. rows-1``."""
    laps, rest = divmod(row_lines, nsets)
    cycles, partial = divmod(rows, period)
    starts = np.zeros(nsets, dtype=np.int64)  # rows starting at each set
    starts[base % step::step] = cycles
    if partial:
        starts += np.bincount(
            (base + np.arange(partial, dtype=np.int64) * stride) % nsets,
            minlength=nsets,
        )
    # Beyond its full laps, a row starting at set ``a`` covers sets
    # ``a .. a+rest-1`` (mod nsets): set ``s`` counts the starts in the
    # window ``s-rest+1 .. s``, a running sum of starts entering minus
    # starts leaving the window.
    if rest:
        leaving = np.concatenate((starts[-rest:], starts[:-rest]))
        window = np.cumsum(starts - leaving) + starts[-rest:].sum()
    else:
        window = np.zeros(nsets, dtype=np.int64)
    return window + laps * rows


def _trace_emu(tracer, params: EmuParams, max_ti: int) -> None:
    """Emit the per-call ``emu`` telemetry.

    Called on hits and misses alike: the event stream of a traced search
    is identical whether the memo served the answer or Algorithm 1 ran.
    """
    if tracer.enabled:
        tracer.count(f"emu.l{params.level}.calls")
        tracer.event(
            EVENT_EMU,
            level=params.level,
            row_width_elems=params.row_width_elems,
            row_stride_elems=params.row_stride_elems,
            max_rows=params.max_rows,
            max_ti=max_ti,
            saturated=max_ti >= params.max_rows,
        )


def emu_l1(
    arch: ArchSpec,
    *,
    row_width_elems: int,
    row_stride_elems: int,
    max_rows: int,
    dts: int,
    addr: int = 0,
) -> int:
    """Convenience wrapper: Algorithm 1 against the L1 cache."""
    return emu(
        arch,
        EmuParams(
            level=1,
            row_width_elems=row_width_elems,
            row_stride_elems=row_stride_elems,
            max_rows=max_rows,
            dts=dts,
            addr=addr,
        ),
    )


def emu_l2(
    arch: ArchSpec,
    *,
    row_width_elems: int,
    row_stride_elems: int,
    max_rows: int,
    dts: int,
    addr: int = 0,
) -> int:
    """Convenience wrapper: Algorithm 1 against the L2 cache."""
    return emu(
        arch,
        EmuParams(
            level=2,
            row_width_elems=row_width_elems,
            row_stride_elems=row_stride_elems,
            max_rows=max_rows,
            dts=dts,
            addr=addr,
        ),
    )
