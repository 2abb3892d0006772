"""Factories for fresh test Funcs (Funcs are mutable; never share), and
the reference implementations the fast paths are checked against."""

from __future__ import annotations

from repro.ir import Buffer, Func, RVar, Var, float32, int32
from repro.util import ceil_div


def make_matmul(n: int = 64):
    """Fresh matmul Func with its input buffers; returns (func, a, b)."""
    i, j = Var("i"), Var("j")
    k = RVar("k", n)
    a = Buffer("A", (n, n), float32)
    b = Buffer("B", (n, n), float32)
    c = Func("C")
    c[i, j] = 0.0
    c[i, j] = c[i, j] + a[i, k] * b[k, j]
    c.set_bounds({i: n, j: n})
    return c, a, b


def make_transpose_mask(n: int = 64):
    """Fresh transpose-and-mask Func; returns (func, a, b)."""
    x, y = Var("x"), Var("y")
    a = Buffer("A", (n, n), int32)
    b = Buffer("B", (n, n), int32)
    out = Func("Tpm", int32)
    out[y, x] = a[x, y] & b[y, x]
    out.set_bounds({x: n, y: n})
    return out, a, b


def make_copy(n: int = 64):
    """Fresh 2-D copy Func; returns (func, a)."""
    x, y = Var("x"), Var("y")
    a = Buffer("A", (n, n), int32)
    out = Func("Copy", int32)
    out[y, x] = a[y, x]
    out.set_bounds({x: n, y: n})
    return out, a


def make_stencil(n: int = 64):
    """Fresh 5-point stencil Func; returns (func, a)."""
    x, y = Var("x"), Var("y")
    a = Buffer("A", (n + 2, n + 2), float32)
    out = Func("Stencil")
    out[y, x] = (
        a[y, x] + a[y + 1, x] + a[y + 2, x] + a[y + 1, x + 1] + a[y + 1, x + 2]
    )
    out.set_bounds({x: n, y: n})
    return out, a


# ---------------------------------------------------------------------------
# Reference Algorithm 1 (test oracle for repro.core.emu)
# ---------------------------------------------------------------------------


def reference_emu(arch, params) -> int:
    """Algorithm 1 walked line by line, as the paper prints it: the rows'
    lines go into an occupancy array one at a time (L2: each followed by
    its stride-prefetch probes) until a set or a probed set is full.
    Same geometry as :func:`repro.core.emu.emu`; no memo, no trace."""
    spec = arch.cache_level(params.level)
    lc = arch.lc(params.dts)
    ways = arch.effective_ways(params.level)
    nsets = spec.size // (spec.ways * params.dts)

    if params.level == 2:
        nsets = max(1, nsets // 2)
        row_lines = ceil_div(max(params.row_width_elems, lc), lc)
        probe_degree = arch.l2_prefetches_per_access
        max_pref_distance = arch.l2_max_prefetch_distance
    else:
        row_lines = ceil_div(max(params.row_width_elems + lc, 2 * lc), lc)
        probe_degree = 0
        max_pref_distance = 0

    occupancy = [0] * nsets
    row_stride_lines = max(1, ceil_div(params.row_stride_elems, lc))
    base_line = params.addr // lc if lc else params.addr

    max_ti = 0
    while max_ti < params.max_rows:
        start = base_line + max_ti * row_stride_lines
        interference = False
        for offset in range(row_lines):
            line = start + offset
            set_index = line % nsets
            if occupancy[set_index] >= ways:
                interference = True
                break
            occupancy[set_index] += 1
            if probe_degree:
                for p in range(1, min(probe_degree, max_pref_distance) + 1):
                    if occupancy[(line + p) % nsets] >= ways:
                        interference = True
                        break
                if interference:
                    break
        if interference:
            break
        max_ti += 1
    return max(1, max_ti)


# ---------------------------------------------------------------------------
# Reference trace walker (test oracle for repro.sim.trace.TraceGenerator)
# ---------------------------------------------------------------------------


def _reference_leaf(gen, env, inner_values, inner_name):
    """One visit of the innermost loop, vectorized over its extent only."""
    import numpy as np

    from repro.sim.trace import TraceChunk, _eval_index_tree

    local = dict(env)
    if inner_name is not None:
        local[inner_name] = inner_values
    var_values = {
        orig: _eval_index_tree(tree, local)
        for orig, tree in gen.nest.stmt.index_trees.items()
    }
    mask = None
    for orig, bound in gen.nest.stmt.guards.items():
        cond = var_values[orig] < bound
        mask = cond if mask is None else (mask & cond)
    if mask is not None and not np.any(mask):
        return
    n_inner = len(inner_values)
    if mask is None:
        live = n_inner
    elif isinstance(mask, np.ndarray):
        live = int(np.count_nonzero(mask))
    else:  # scalar guard over outer vars only
        live = n_inner if mask else 0
        if live == 0:
            return
        mask = None
    gen.record.simulated_stmts += live

    for plan in gen.plans:
        elem = plan.const_elements
        for var, coeff in plan.var_coeffs:
            elem = elem + var_values[var] * coeff
        if not isinstance(elem, np.ndarray):
            elem = np.full(1, elem, dtype=np.int64)
            ref_mask = None
        else:
            ref_mask = mask if isinstance(mask, np.ndarray) else None
        if ref_mask is not None:
            elem = elem[ref_mask]
            if elem.size == 0:
                continue
        lines = (plan.base_bytes + elem * plan.dtype_size) // gen.line_size
        if lines.size > 1:
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            lines = lines[keep]
        gen.record.emitted_lines += int(lines.size)
        yield TraceChunk(
            lines=lines,
            ref_id=plan.ref_id,
            is_store=plan.is_store,
            nontemporal=plan.nontemporal,
        )


def reference_chunks(gen):
    """Reference walker: recursive, one innermost-loop visit at a time.

    Walks ``gen``'s nest one innermost-loop visit at a time, honouring its
    ``line_budget`` and ``phase`` exactly as :class:`TraceGenerator` must,
    and updates ``gen.record`` as it goes.  Use a fresh generator: the
    record accumulates.
    """
    import numpy as np

    loops = gen.nest.loops
    record = gen.record
    if not loops:
        yield from _reference_leaf(gen, {}, np.zeros(1, dtype=np.int64), None)
        return
    outer = loops[:-1]
    inner = loops[-1]
    inner_values = np.arange(inner.extent, dtype=np.int64)
    env = {}
    phase = gen.phase

    def walk(depth, on_start_path):
        if record.emitted_lines >= gen.line_budget:
            record.truncated = True
            return
        if depth == len(outer):
            yield from _reference_leaf(gen, env, inner_values, inner.name)
            return
        loop = outer[depth]
        start = int(loop.extent * phase) if on_start_path else 0
        for value in range(start, loop.extent):
            if record.emitted_lines >= gen.line_budget:
                record.truncated = True
                return
            env[loop.name] = value
            yield from walk(depth + 1, on_start_path and value == start)

    yield from walk(0, True)
    if phase > 0.0 and not record.truncated:
        record.truncated = True


# ---------------------------------------------------------------------------
# Reference demand path (test oracle for repro.cachesim.CacheHierarchy)
# ---------------------------------------------------------------------------


class ReferenceHierarchy:
    """The hierarchy's demand path as a plain composition of the reference
    parts: :class:`SetAssocCache` levels (same geometry as ``like``), a
    :class:`NextLinePrefetcher`, a :class:`StridePrefetcher` and, under
    the stream model, a :class:`MultiStreamPrefetcher`, each driven
    through its public methods one access at a time."""

    def __init__(self, like):
        from repro.cachesim import (
            MultiStreamPrefetcher,
            NextLinePrefetcher,
            SetAssocCache,
            StridePrefetcher,
        )
        from repro.cachesim.stats import HierarchyStats

        arch = like.arch
        self.levels = [
            SetAssocCache(c.name, c.num_sets, c.ways, hashed_index=c.hashed_index)
            for c in like.levels
        ]
        self.enable_prefetch = like.enable_prefetch
        self.next_line = NextLinePrefetcher(degree=1)
        self.stride = StridePrefetcher(
            degree=arch.l2_prefetches_per_access,
            max_distance=arch.l2_max_prefetch_distance,
        )
        self.multi = (
            MultiStreamPrefetcher(like.stream_model)
            if like.stream_model is not None
            else None
        )
        self.stats = HierarchyStats(levels=[c.stats for c in self.levels])
        self.stats.stream_tables["l2_stride"] = self.stride.stats
        if self.multi is not None:
            self.stats.stream_tables["multi_stream"] = self.multi.stats
        self.inflight = {}
        self.dirty = set()
        self.last_nt_line = None

    def access(self, line, *, is_write=False, ref_id=0):
        """One demand access; returns (hit_level, prefetch_credit, late)."""
        stats = self.stats
        stats.total_accesses += 1
        n = len(self.levels)
        hit_level, credit, late = n + 1, False, False
        for idx, cache in enumerate(self.levels):
            before = cache.stats.prefetch_hits
            if cache.lookup(line):
                hit_level = idx + 1
                credit = cache.stats.prefetch_hits != before
                break
        if hit_level == n + 1:
            stats.memory_lines += 1
        if self.multi is not None and line in self.inflight:
            arrival = self.inflight.pop(line)
            if credit:
                if arrival > self.multi._clock:
                    late = True
                    stats.late_prefetch_hits += 1
                    self.multi.stats.late_hits += 1
                else:
                    self.multi.stats.on_time_hits += 1
        if is_write and line not in self.dirty:
            self.dirty.add(line)
            stats.writeback_lines += 1
        for idx in range(hit_level - 2, -1, -1):
            self.levels[idx].fill(line)
        if self.enable_prefetch:
            l1, l2 = self.levels[0], self.levels[1]
            if self.multi is not None:
                targets, arrival = self.multi.observe(ref_id, line)
                for target in targets:
                    if target >= 0 and not l2.contains(target):
                        self._prefetch_fill(target, into_level=2)
                        self.inflight[target] = arrival
            else:
                for nxt in self.next_line.requests(line):
                    if not l1.contains(nxt):
                        self._prefetch_fill(nxt, into_level=1)
                    elif not l2.contains(nxt):
                        self._prefetch_fill(nxt, into_level=2)
                for target in self.stride.observe(ref_id, line):
                    if target >= 0 and not l2.contains(target):
                        self._prefetch_fill(target, into_level=2)
        return hit_level, credit, late

    def _prefetch_fill(self, line, *, into_level):
        n = len(self.levels)
        source = n + 1
        for idx in range(into_level, n):
            if self.levels[idx].contains(line):
                source = idx + 1
                break
        if source > n:
            self.stats.prefetch_memory_lines += 1
        for level_no in range(min(source - 1, n), into_level - 1, -1):
            self.levels[level_no - 1].fill(line, prefetched=True)

    def nt_store(self, line):
        self.stats.total_accesses += 1
        if line == self.last_nt_line:
            return
        self.last_nt_line = line
        self.stats.nt_store_lines += 1
        for cache in self.levels:
            cache.invalidate(line)

    def flush(self):
        for cache in self.levels:
            cache.flush()
        self.stride.reset()
        if self.multi is not None:
            self.multi.reset()
        self.inflight.clear()
        self.last_nt_line = None


class ReferenceLRU:
    """A set-associative LRU level as one ``OrderedDict`` per set (least
    recently used first): the reference for the numpy levels
    (:meth:`SetAssocCache.run`)."""

    def __init__(self, num_sets, ways, *, hashed_index=False):
        from collections import OrderedDict

        from repro.cachesim import SetAssocCache

        self.index = SetAssocCache("ref", num_sets, ways,
                                   hashed_index=hashed_index).set_index
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.hits = self.misses = self.evictions = 0

    def access(self, line):
        """A demand access: True on a hit; a miss fills, evicting the LRU
        line of a full set."""
        s = self.sets[self.index(line)]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        s[line] = None
        if len(s) > self.ways:
            s.popitem(last=False)
            self.evictions += 1
        return False

    def invalidate(self, line):
        self.sets[self.index(line)].pop(line, None)

    def contents(self):
        """Per set, ``(line, False)`` pairs in LRU order, as
        :meth:`SetAssocCache.contents` lists a level without prefetch
        fills."""
        return [[(line, False) for line in s] for s in self.sets]


def hierarchy_state(h):
    """Every counter and the full cache contents (with prefetch flags, in
    LRU order) of a hierarchy, for exact comparison."""
    stats = h.stats
    return {
        "levels": [s.snapshot() for s in stats.levels],
        "memory_lines": stats.memory_lines,
        "prefetch_memory_lines": stats.prefetch_memory_lines,
        "nt_store_lines": stats.nt_store_lines,
        "writeback_lines": stats.writeback_lines,
        "total_accesses": stats.total_accesses,
        "late_prefetch_hits": stats.late_prefetch_hits,
        "stream_tables": {
            name: table.snapshot() for name, table in stats.stream_tables.items()
        },
        "contents": [cache.contents() for cache in h.levels],
    }


def assert_residency_invariant(cache):
    """A level's residency map and its LRU set lists describe one set of
    lines: the map's keys are exactly the lines of the lists, each list
    holds distinct lines of its own set and no more than ``ways`` of them,
    and every line whose prefetch flag is up is one of those lines."""
    listed = [line for s in cache._sets for line in s]
    assert len(listed) == len(set(listed)), cache.name
    assert set(cache._resident) == set(listed), cache.name
    flagged = {line for line, flag in cache._resident.items() if flag}
    assert flagged <= set(listed), cache.name
    for index, s in enumerate(cache._sets):
        assert len(s) <= cache.ways, cache.name
        assert all(cache.set_index(line) == index for line in s), cache.name
