"""Differential tests for the cache levels resolved in numpy.

A level that takes no prefetch fill — L1 under the stream model, every
level with prefetching off — runs each block through
:meth:`SetAssocCache.run`: one per-set LRU stack-distance pass instead of
the demand loop.  These tests check it against
:class:`tests.helpers.ReferenceLRU`, one ``OrderedDict`` per set, and the
whole hierarchy, under both prefetch models and with prefetching off,
against :class:`tests.helpers.ReferenceHierarchy`, with
non-temporal stores that find their line resident (perfbench's streams
have none), random block splits, and blocks of ``access``/``nt_store``
between the ``run`` blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cachesim import LOAD, NT_STORE, STORE, SetAssocCache

from tests.helpers import (
    ReferenceLRU,
    assert_residency_invariant,
    hierarchy_state,
)
from tests.test_demand_oracle import (
    expand,
    make_pair,
    replay_reference,
    segments,
)

#: One step on a level: a block through ``run``, or one invalidation.
level_steps = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.lists(st.integers(0, 99), max_size=80)),
        st.tuples(st.just("invalidate"), st.integers(0, 99)),
    ),
    min_size=1,
    max_size=12,
)


class TestLevelRun:
    @given(
        ways=st.sampled_from([1, 2, 4, 8]),
        num_sets=st.sampled_from([1, 2, 3, 8]),
        hashed=st.booleans(),
        steps=level_steps,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_an_ordered_dict_per_set(self, ways, num_sets, hashed,
                                             steps):
        fast = SetAssocCache("L", num_sets, ways, hashed_index=hashed)
        ref = ReferenceLRU(num_sets, ways, hashed_index=hashed)
        for kind, arg in steps:
            if kind == "invalidate":
                fast.invalidate(arg)
                ref.invalidate(arg)
            else:
                got = fast.run(np.array(arg, dtype=np.int64)).tolist()
                assert got == [ref.access(line) for line in arg]
            assert fast.contents() == ref.contents()
            assert_residency_invariant(fast)
        stats = fast.stats
        assert (stats.hits, stats.misses, stats.evictions) == (
            ref.hits, ref.misses, ref.evictions
        )

    @given(
        geometry=st.sampled_from(
            [(64, 8, False), (64, 8, True), (48, 12, True), (512, 16, True)]
        ),
        passes=st.lists(
            st.lists(st.integers(0, 3 << 13), min_size=1, max_size=3),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_sparse_passes_match_an_ordered_dict_per_set(self, geometry,
                                                         passes):
        """Passes whose touched sets hold more than twice as many lines as
        the pass has accesses, as an L3 behind two filtering levels sees:
        every set is full, and a pass of at most 3 accesses touches sets
        of at least 8 ways."""
        num_sets, ways, hashed = geometry
        fast = SetAssocCache("L", num_sets, ways, hashed_index=hashed)
        ref = ReferenceLRU(num_sets, ways, hashed_index=hashed)
        warm = np.arange(1 << 13, 1 << 14, dtype=np.int64)
        fast.run(warm)
        for line in warm.tolist():
            ref.access(line)
        for lines in passes:
            touched = set(fast.set_indices(np.array(lines)).tolist())
            assert sum(len(fast._sets[t]) for t in touched) > 2 * len(lines)
            got = fast.run(np.array(lines, dtype=np.int64)).tolist()
            assert got == [ref.access(line) for line in lines]
            assert fast.contents() == ref.contents()
            assert_residency_invariant(fast)
        stats = fast.stats
        assert (stats.hits, stats.misses, stats.evictions) == (
            ref.hits, ref.misses, ref.evictions
        )

    def test_hashed_sets_of_a_power_of_two_stride_spread(self):
        # A stride of num_sets lines maps every line to set 0 under modulo
        # indexing; the hashed index spreads them, so they all stay.
        lines = np.arange(0, 8 * 16, 16, dtype=np.int64)
        plain = SetAssocCache("L", 16, 2)
        hashed = SetAssocCache("L", 16, 2, hashed_index=True)
        for cache in (plain, hashed):
            cache.run(lines)
        assert plain.run(lines).sum() == 0
        assert hashed.run(lines).all()


#: Configurations whose levels run (partly) in numpy, and the legacy
#: ones, whose demand loop holds every level: the two models share it.
NUMPY_CONFIGS = [
    "i7-multi", "i7-noprefetch", "i7-tiny-multi", "a15-tiny-multi",
    "i7", "i7-tiny", "a15",
]


def with_invalidations(trace, picks):
    """The trace with non-temporal stores inserted: ``(at, back)`` stores,
    just before access ``at``, the line accessed ``back`` accesses
    earlier, which is likely still resident."""
    out = list(trace)
    for at, back in sorted(picks, reverse=True):
        at = min(at, len(out))
        if at - back - 1 >= 0:
            out.insert(at, (99, NT_STORE, out[at - back - 1][2]))
    return out


def ids_and_kinds(trace):
    """Reference ids with one kind each, as ``run`` reads them."""
    ids = {}
    refs = [ids.setdefault((ref_id, kind), len(ids))
            for ref_id, kind, _line in trace]
    return refs, tuple(kind for _ref_id, kind in ids)


def drive(fast, ref, lines, refs, kinds, blocks):
    """Replay ``blocks`` (``(stop, scalar)``, increasing stops) on both
    sides, comparing counts and state after each block."""
    n_levels = fast.num_levels + 2
    got, want = [0] * n_levels, [0] * n_levels
    start = 0
    for stop, scalar in blocks:
        chunk = slice(start, stop)
        if scalar:
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
        # One flag, so that a failure does not diff every set of an L3.
        same_state = hierarchy_state(fast) == hierarchy_state(ref)
        assert same_state, f"block ending at {stop}"
        start = stop
    for cache in fast.levels:
        assert_residency_invariant(cache)


class TestHierarchyBlocks:
    @pytest.mark.parametrize("config", NUMPY_CONFIGS)
    @given(
        segs=segments,
        interleave=st.booleans(),
        picks=st.lists(
            st.tuples(st.integers(0, 400), st.integers(0, 12)), max_size=12
        ),
        cuts=st.lists(
            st.tuples(st.integers(1, 60), st.booleans()),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_the_reference(self, config, segs, interleave,
                                        picks, cuts):
        """Random block splits carry state from one pass to the next; a
        block drawn as scalar goes one access at a time."""
        trace = with_invalidations(expand(segs, interleave), picks)
        refs, kinds = ids_and_kinds(trace)
        lines = [line for _ref_id, _kind, line in trace]
        blocks, stop = [], 0
        while stop < len(lines):
            size, scalar = cuts[len(blocks) % len(cuts)]
            stop = min(stop + size, len(lines))
            blocks.append((stop, scalar))
        fast, ref = make_pair(config)
        drive(fast, ref, lines, refs, kinds, blocks)

    @pytest.mark.parametrize("config", NUMPY_CONFIGS)
    def test_stores_that_open_and_close_a_pass_invalidate(self, config):
        """A block that starts and one that ends with a non-temporal store
        to a line every level holds."""
        trace = [(0, LOAD, line) for line in range(40)]
        trace += [(1, NT_STORE, 39), (0, LOAD, 3), (0, LOAD, 39),
                  (1, NT_STORE, 3)]
        trace += [(1, NT_STORE, 38), (0, LOAD, 38), (2, STORE, 38)]
        refs, kinds = ids_and_kinds(trace)
        lines = [line for _ref_id, _kind, line in trace]
        fast, ref = make_pair(config)
        drive(fast, ref, lines, refs, kinds,
              [(40, False), (44, False), (47, False)])
        # The store that closed the second block left 3 nowhere; 38 came
        # back with the load after its store.
        assert all(3 not in level._resident for level in fast.levels)
        assert 38 in fast.levels[0]._resident


def test_stream_model_store_invalidates_a_resident_l1_line():
    """Under the stream model a non-temporal store that finds its line in
    L1 splits the numpy L1 pass and removes the line; perfbench's streams
    never take this branch."""
    fast, ref = make_pair("i7-multi")
    trace = [(0, LOAD, line) for line in range(0, 64, 2)]
    trace += [(1, NT_STORE, 10), (0, LOAD, 10), (0, LOAD, 12)]
    refs, kinds = ids_and_kinds(trace)
    lines = [line for _ref_id, _kind, line in trace]
    level_hits = [0] * (fast.num_levels + 2)
    fast.run(lines[:32], refs[:32], kinds, level_hits)
    assert 10 in fast.levels[0]._resident
    fast.run(lines[32:], refs[32:], kinds, level_hits)
    want = [0] * (fast.num_levels + 2)
    replay_reference(ref, lines, refs, kinds, want)
    assert level_hits == want
    assert hierarchy_state(fast) == hierarchy_state(ref)
    # 12 hits L1; 10, stored around the cache, misses it.
    assert level_hits[1] == 1


@pytest.mark.parametrize("cut", [10, 8], ids=["in-pass", "opens-pass"])
def test_an_l1_hit_settles_its_prefetch_in_flight(cut):
    """A prefetch refills line 1000 into L2 while L1 still holds it; the
    next access hits L1 and settles the prefetch, so when 1000 later
    misses L1 and hits its prefetched copy in L2, that hit is neither late
    nor on time.  L1 and L2 are direct-mapped here.  Cut before the L1
    hit, the prefetch is in flight when the second pass starts; cut
    after it, the plan and the hit share a pass."""
    fast, ref = make_pair("i7-tiny-multi")
    trace = [1000]              # L1 set 40, L2 set 488
    trace += [1509, 1510, 1511]  # trains; prefetches 1512 (L2 set 488)
    trace += [997, 998, 999]    # trains; prefetches 1000 back into L2
    trace += [1005]             # breaks the stride: 1000 issues nothing
    trace += [1000]             # L1 hit on a line in flight
    trace += [1064]             # L1 set 40: evicts 1000 from L1 only
    trace += [1000]             # L1 miss, L2 hit on the prefetched copy
    refs = [0] * len(trace)
    level_hits = [0] * (fast.num_levels + 2)
    fast.run(trace[:cut], refs[:cut], (LOAD,), level_hits)
    fast.run(trace[cut:], refs[cut:], (LOAD,), level_hits)
    want = [0] * (fast.num_levels + 2)
    replay_reference(ref, trace, refs, (LOAD,), want)
    assert level_hits == want
    assert hierarchy_state(fast) == hierarchy_state(ref)
    assert fast.levels[1].stats.prefetch_hits == 1 and level_hits[1] == 1
    multi = fast.stats.stream_tables["multi_stream"]
    assert multi.late_hits + multi.on_time_hits == 0
