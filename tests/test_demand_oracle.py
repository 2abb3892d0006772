"""Differential oracle for the hierarchy's demand loop.

:meth:`CacheHierarchy.run` trains the stride engine over a whole block in
numpy and inlines the set index, the fills and the other prefetch work
into one loop.  These tests drive it side by side with
:class:`tests.helpers.ReferenceHierarchy` — the reference
``SetAssocCache`` levels composed with the ``NextLinePrefetcher``,
``StridePrefetcher`` and ``MultiStreamPrefetcher`` engines through their
public methods — and require the same level for every access and the
same counters, stream-table statistics and cache contents throughout.
Both prefetcher models are covered, on random traces (some over more
reference ids than the stride table holds) and on corpus kernels' real
traces.  Since both sides share ``SetAssocCache``'s residency map and
set lists, the end state of every corpus replay is also pinned to a
digest recorded from the ``OrderedDict`` sets the simulator used before
(``tests/data/demand_state_digests.json``), so a drift in LRU order or
prefetch flags common to both sides still fails.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import arm_cortex_a15, intel_i7_5930k
from repro.cachesim import (
    LOAD,
    NT_STORE,
    STORE,
    CacheHierarchy,
    StreamModelParams,
)
from repro.frontend.corpus import corpus_kernel
from repro.ir import Schedule, lower
from repro.sim.trace import MemoryLayout, TraceGenerator

from tests.helpers import (
    ReferenceHierarchy,
    assert_residency_invariant,
    hierarchy_state,
)

#: Hierarchy configurations: both platforms, both prefetcher models,
#: prefetching off, and shrunken caches so that short traces evict.
CONFIGS = {
    "i7": (intel_i7_5930k, {}),
    "i7-multi": (intel_i7_5930k, {"stream_model": StreamModelParams()}),
    "i7-noprefetch": (intel_i7_5930k, {"enable_prefetch": False}),
    "i7-tiny": (intel_i7_5930k, {
        "l1_ways_divisor": 8, "l2_ways_divisor": 8,
        "l3_capacity_divisor": 4096,
    }),
    "i7-tiny-multi": (intel_i7_5930k, {
        "l1_ways_divisor": 8, "l2_ways_divisor": 8,
        "l3_capacity_divisor": 4096,
        "stream_model": StreamModelParams(n_engines=2, latency_accesses=7),
    }),
    "a15": (arm_cortex_a15, {}),
    "a15-tiny-multi": (arm_cortex_a15, {
        "l1_ways_divisor": 2, "l2_ways_divisor": 16,
        "stream_model": StreamModelParams(n_engines=3, latency_accesses=5),
    }),
}


def make_pair(config):
    arch, kwargs = CONFIGS[config]
    fast = CacheHierarchy(arch(), **kwargs)
    return fast, ReferenceHierarchy(fast)


def replay_reference(ref, lines, refs, kinds, level_hits):
    for line, ref_id in zip(lines, refs):
        kind = kinds[ref_id]
        if kind == NT_STORE:
            ref.nt_store(line)
        else:
            hit, _credit, _late = ref.access(
                line, is_write=kind == STORE, ref_id=ref_id
            )
            level_hits[hit] += 1


#: One trace segment: (ref id, kind, first line, line stride, length).
segments = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from([LOAD, LOAD, STORE, NT_STORE]),
        st.integers(0, 1 << 14),
        st.sampled_from([0, 1, 1, 2, -1, 3, 8, 17, 64, -40, 512, 4096]),
        st.integers(1, 24),
    ),
    min_size=1,
    max_size=30,
)


def expand(segs, interleave):
    """Accesses of the segments, back to back or round-robin."""
    runs = [
        [(ref, kind, max(0, start + stride * n)) for n in range(length)]
        for ref, kind, start, stride, length in segs
    ]
    if not interleave:
        return [access for run in runs for access in run]
    out = []
    for n in range(max(len(run) for run in runs)):
        out.extend(run[n] for run in runs if n < len(run))
    return out


class TestRandomTraces:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @given(segs=segments, interleave=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_every_access_hits_the_same_level(self, config, segs, interleave):
        fast, ref = make_pair(config)
        for ref_id, kind, line in expand(segs, interleave):
            if kind == NT_STORE:
                fast.nt_store(line)
                ref.nt_store(line)
                continue
            got = fast.access(line, is_write=kind == STORE, ref_id=ref_id)
            want = ref.access(line, is_write=kind == STORE, ref_id=ref_id)
            assert (got.hit_level, got.prefetch_credit, got.late) == want
        assert hierarchy_state(fast) == hierarchy_state(ref)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @given(
        segs=segments,
        interleave=st.booleans(),
        cut=st.integers(1, 50),
        flush_at=st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_stream_matches(self, config, segs, interleave, cut,
                                    flush_at):
        """Whole blocks through ``run`` (counters written back per call),
        with a mid-trace flush."""
        fast, ref = make_pair(config)
        trace = expand(segs, interleave)
        # A ref id's kind is fixed within a block; remap ids so that each
        # (id, kind) pair of the trace gets its own id.
        ids = {}
        lines, refs = [], []
        for ref_id, kind, line in trace:
            refs.append(ids.setdefault((ref_id, kind), len(ids)))
            lines.append(line)
        kinds = tuple(kind for _ref_id, kind in ids)
        n_levels = fast.num_levels + 2
        got, want = [0] * n_levels, [0] * n_levels
        for block, start in enumerate(range(0, len(lines), cut)):
            if block == flush_at:
                fast.flush()
                ref.flush()
            chunk = slice(start, start + cut)
            fast.run(lines[chunk], refs[chunk], kinds, got)
            replay_reference(ref, lines[chunk], refs[chunk], kinds, want)
            assert got == want
        assert hierarchy_state(fast) == hierarchy_state(ref)


#: Configurations that train the stride engine (legacy prefetch model).
LEGACY_CONFIGS = sorted(
    name for name, (_arch, kwargs) in CONFIGS.items()
    if "stream_model" not in kwargs and kwargs.get("enable_prefetch", True)
)

#: Reference ids beyond the stride table's 64 entries.
MANY_REFS = 100


def many_ref_kind(ref_id):
    """A fixed kind per reference id: mostly loads, some stores and
    non-temporal stores."""
    return (LOAD, LOAD, STORE, LOAD, LOAD, NT_STORE)[ref_id % 6]


#: Segments over ``MANY_REFS`` ids: (ref id, first line, stride, length).
many_ref_segments = st.lists(
    st.tuples(
        st.integers(0, MANY_REFS - 1),
        st.integers(0, 1 << 12),
        st.sampled_from([0, 1, 1, 2, -1, 3, 17, 64]),
        st.integers(1, 6),
    ),
    min_size=1,
    max_size=60,
)


def many_ref_trace(first_touch, segs, interleave):
    """``(ref id, line)`` accesses: one access per id in ``first_touch``
    order, which overflows the stride table, then the segments, back to
    back or round-robin."""
    trace = [(ref_id, 1 << 20 | ref_id << 8) for ref_id in first_touch]
    expanded = expand(
        [(ref_id, LOAD, start, stride, length)
         for ref_id, start, stride, length in segs],
        interleave,
    )
    return trace + [(ref_id, line) for ref_id, _kind, line in expanded]


class TestStrideTableEviction:
    """More reference ids than the stride table holds, so its LRU
    evictions decide which streams stay trained."""

    @pytest.mark.parametrize("config", LEGACY_CONFIGS)
    @given(
        first_touch=st.permutations(range(MANY_REFS)),
        segs=many_ref_segments,
        interleave=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_access_hits_the_same_level(self, config, first_touch,
                                              segs, interleave):
        fast, ref = make_pair(config)
        for ref_id, line in many_ref_trace(first_touch, segs, interleave):
            kind = many_ref_kind(ref_id)
            if kind == NT_STORE:
                fast.nt_store(line)
                ref.nt_store(line)
                continue
            got = fast.access(line, is_write=kind == STORE, ref_id=ref_id)
            want = ref.access(line, is_write=kind == STORE, ref_id=ref_id)
            assert (got.hit_level, got.prefetch_credit, got.late) == want
        assert fast.stats.stream_tables["l2_stride"].evictions > 0
        assert hierarchy_state(fast) == hierarchy_state(ref)
        for cache in fast.levels:
            assert_residency_invariant(cache)

    @pytest.mark.parametrize("config", LEGACY_CONFIGS)
    @given(
        first_touch=st.permutations(range(MANY_REFS)),
        segs=many_ref_segments,
        interleave=st.booleans(),
        cuts=st.lists(st.integers(1, 150), min_size=1, max_size=6),
        mixed=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_stream_matches(self, config, first_touch, segs,
                                    interleave, cuts, mixed):
        """Blocks of drawn lengths through ``run``; when ``mixed``, every
        other block goes through ``access``/``nt_store`` one line at a
        time, so the stride table passes between both training paths."""
        fast, ref = make_pair(config)
        trace = many_ref_trace(first_touch, segs, interleave)
        lines = [line for _ref_id, line in trace]
        refs = [ref_id for ref_id, _line in trace]
        kinds = tuple(many_ref_kind(ref_id) for ref_id in range(MANY_REFS))
        n_levels = fast.num_levels + 2
        got, want = [0] * n_levels, [0] * n_levels
        start = block = 0
        while start < len(lines):
            chunk = slice(start, start + cuts[block % len(cuts)])
            if mixed and block % 2:
                for line, ref_id in zip(lines[chunk], refs[chunk]):
                    if kinds[ref_id] == NT_STORE:
                        fast.nt_store(line)
                        continue
                    got[fast.access(
                        line, is_write=kinds[ref_id] == STORE, ref_id=ref_id
                    ).hit_level] += 1
            else:
                fast.run(lines[chunk], refs[chunk], kinds, got)
            replay_reference(ref, lines[chunk], refs[chunk], kinds, want)
            assert got == want
            assert hierarchy_state(fast) == hierarchy_state(ref)
            start, block = chunk.stop, block + 1
        assert fast.stats.stream_tables["l2_stride"].evictions > 0
        for cache in fast.levels:
            assert_residency_invariant(cache)


#: Corpus kernels (smoke sizes) whose nests cover streaming, transposed,
#: reduction, stencil, convolution and multi-stage access patterns.
CORPUS_SAMPLE = (
    "mxv", "matmul", "atax", "gemver", "transpose-add", "copy2d", "axpy",
    "jacobi2d", "seidel9", "conv3x3", "attn-chain", "mef-mxvt", "mef-bicg",
)


def corpus_nests(kernel, line_size):
    """Every nest of a kernel, in order, with plain and with non-temporal
    stores, each with its trace generator on one shared layout."""
    layout = MemoryLayout()
    for func in corpus_kernel(kernel).lower(fast=True).funcs:
        nontemporal = Schedule(func)
        nontemporal.store_nontemporal()
        for nest in lower(func) + lower(func, nontemporal):
            yield nest, TraceGenerator(nest, layout, line_size, line_budget=3000)


@pytest.mark.parametrize("config", ["i7", "i7-multi", "a15-tiny-multi"])
@pytest.mark.parametrize("kernel", CORPUS_SAMPLE)
def test_corpus_traces_match(kernel, config):
    """Every nest of a kernel, in order, on one shared hierarchy."""
    fast, ref = make_pair(config)
    n_levels = fast.num_levels + 2
    for nest, gen in corpus_nests(kernel, fast.line_size):
        got, want = [0] * n_levels, [0] * n_levels
        for block in gen.blocks():
            lines, refs = block.lines.tolist(), block.refs.tolist()
            fast.run(lines, refs, gen.ref_kinds, got)
            replay_reference(ref, lines, refs, gen.ref_kinds, want)
        assert got == want, nest.name
        assert hierarchy_state(fast) == hierarchy_state(ref), nest.name
        for cache in fast.levels:
            assert_residency_invariant(cache)


#: Digests of the state after each (config, kernel) replay below.
STATE_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "demand_state_digests.json")
    .read_text()
)["digests"]


def state_digest(h):
    """sha256 of every counter and the full LRU-ordered, flagged contents."""
    blob = json.dumps(hierarchy_state(h), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_state_digests_cover_every_config_and_kernel():
    assert sorted(STATE_DIGESTS) == sorted(
        f"{config}/{kernel}" for config in CONFIGS for kernel in CORPUS_SAMPLE
    )


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", CORPUS_SAMPLE)
def test_corpus_end_state_matches_golden(kernel, config):
    """Both sides end each kernel's replay in the recorded state."""
    fast, ref = make_pair(config)
    n_levels = fast.num_levels + 2
    got, want = [0] * n_levels, [0] * n_levels
    for _nest, gen in corpus_nests(kernel, fast.line_size):
        for block in gen.blocks():
            lines, refs = block.lines.tolist(), block.refs.tolist()
            fast.run(lines, refs, gen.ref_kinds, got)
            replay_reference(ref, lines, refs, gen.ref_kinds, want)
    assert got == want
    for cache in fast.levels:
        assert_residency_invariant(cache)
    golden = STATE_DIGESTS[f"{config}/{kernel}"]
    assert state_digest(fast) == golden
    assert state_digest(ref) == golden
