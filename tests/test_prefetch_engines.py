"""Property tests for the prefetch engines (:mod:`repro.cachesim.prefetch`).

Covers training and eviction being deterministic,
``NextLinePrefetcher(degree=0)`` being a legal disabled engine, the
bounded stride table evicting in LRU order, the multi-stream detector
saturating (and thrashing) exactly at its engine count, and both numpy
trains (:meth:`StridePrefetcher.train`, :meth:`MultiStreamPrefetcher.train`)
matching their access-at-a-time engines, with the LRU membership and
end-of-sequence table rule both trains share.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cachesim.prefetch import (
    MultiStreamPrefetcher,
    NextLinePrefetcher,
    StreamModelParams,
    StridePrefetcher,
)
from repro.cachesim.lru import lru_table, stable_order


class TestNextLinePrefetcher:
    def test_degree_zero_is_a_legal_disabled_engine(self):
        engine = NextLinePrefetcher(degree=0)
        assert engine.requests(0) == []
        assert engine.requests(12345) == []

    def test_degree_n_requests_the_next_n_lines(self):
        assert NextLinePrefetcher(degree=1).requests(7) == [8]
        assert NextLinePrefetcher(degree=3).requests(7) == [8, 9, 10]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            NextLinePrefetcher(degree=-1)


def _drive(engine, accesses):
    """Feed (ref_id, line) pairs; collect every issued prefetch."""
    out = []
    for ref_id, line in accesses:
        out.append(list(engine.observe(ref_id, line)))
    return out


class TestStridePrefetcher:
    def test_training_is_deterministic(self):
        accesses = [(1, n) for n in range(8)] + [(2, 100 - 3 * n) for n in range(6)]
        a = _drive(StridePrefetcher(), accesses)
        b = _drive(StridePrefetcher(), accesses)
        assert a == b
        sa, sb = StridePrefetcher(), StridePrefetcher()
        _drive(sa, accesses), _drive(sb, accesses)
        assert sa.stats.snapshot() == sb.stats.snapshot()

    def test_trains_after_threshold_and_issues_along_stride(self):
        engine = StridePrefetcher(degree=2)
        assert engine.observe(1, 0) == []          # first touch
        assert engine.observe(1, 1) == []          # stride learned, conf 1
        assert engine.observe(1, 2) == [3, 4]      # conf 2 == threshold
        assert engine.stream_state(1) == (1, 2)

    def test_zero_stride_repeats_neither_train_nor_reset(self):
        engine = StridePrefetcher()
        engine.observe(1, 5)
        engine.observe(1, 6)
        before = engine.stream_state(1)
        assert engine.observe(1, 6) == []          # same line again
        assert engine.stream_state(1) == before

    def test_bounded_table_evicts_lru(self):
        engine = StridePrefetcher(max_streams=2)
        engine.observe(1, 0)
        engine.observe(2, 0)
        assert engine.stats.occupancy == 2
        engine.observe(3, 0)                       # evicts ref 1 (coldest)
        assert engine.stats.evictions == 1
        assert engine.stats.occupancy == 2
        assert engine.stats.peak_occupancy == 2
        # Ref 1 lost its training state and must start over.
        assert engine.stream_state(1) == (0, 0)

    def test_touch_refreshes_lru_order(self):
        engine = StridePrefetcher(max_streams=2)
        engine.observe(1, 0)
        engine.observe(2, 0)
        engine.observe(1, 1)                       # ref 1 now the hottest
        engine.observe(3, 0)                       # must evict ref 2
        engine.observe(1, 2)
        # Ref 1 survived the eviction with its training intact.
        assert engine.stream_state(1) == (1, 2)
        assert engine.stream_state(2) == (0, 0)

    def test_train_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="train_threshold"):
            StridePrefetcher(train_threshold=0)

    def test_reset_keeps_statistics(self):
        engine = StridePrefetcher()
        _drive(engine, [(1, n) for n in range(4)])
        issued = engine.stats.prefetches_issued
        assert issued > 0
        engine.reset()
        assert engine.stats.occupancy == 0
        assert engine.stats.prefetches_issued == issued


def _params(**kw):
    defaults = dict(n_engines=2, train_threshold=2, degree=2,
                    max_distance=20, page_lines=64, latency_accesses=10)
    defaults.update(kw)
    return StreamModelParams(**defaults)


class TestMultiStreamPrefetcher:
    def test_training_is_deterministic(self):
        # Two interleaved stride-1 streams in different pages.
        accesses = [(0, n) if t % 2 == 0 else (1, 256 + n)
                    for t, n in ((t, t // 2) for t in range(40))]
        a = MultiStreamPrefetcher(_params())
        b = MultiStreamPrefetcher(_params())
        ra = [a.observe(r, l) for r, l in accesses]
        rb = [b.observe(r, l) for r, l in accesses]
        assert ra == rb
        assert a.stats.snapshot() == b.stats.snapshot()

    def test_trained_engine_issues_with_arrival_clock(self):
        engine = MultiStreamPrefetcher(_params())
        assert engine.observe(0, 0) == ([], 1)     # allocate
        assert engine.observe(0, 1) == ([], 2)     # stride learned
        targets, arrival = engine.observe(0, 2)    # trained
        assert targets == [3, 4]
        assert arrival == 3 + engine.params.latency_accesses
        assert engine.stats.trained == 1

    def test_engines_never_cross_their_page(self):
        engine = MultiStreamPrefetcher(_params(page_lines=8, max_distance=20))
        issued = []
        for line in range(8):
            targets, _ = engine.observe(0, line)
            issued += targets
        assert issued                               # it did prefetch
        assert all(t < 8 for t in issued)           # but never past the page

    def test_saturation_thrashes_round_robin_streams(self):
        # Three pages through a two-engine pool, round-robin: every access
        # re-allocates an engine, so nothing ever trains — the loss mode
        # multistride's ``fits_engines`` check exists to avoid.
        engine = MultiStreamPrefetcher(_params(n_engines=2))
        accesses = 0
        for step in range(10):
            for page in range(3):
                targets, _ = engine.observe(page, page * 64 + step)
                accesses += 1
                assert targets == []
        assert engine.stats.trained == 0
        assert engine.stats.prefetches_issued == 0
        assert engine.stats.evictions == accesses - 2
        assert engine.stats.occupancy == 2
        assert engine.stats.peak_occupancy == 2

    def test_within_capacity_all_streams_train(self):
        engine = MultiStreamPrefetcher(_params(n_engines=2))
        for step in range(6):
            engine.observe(0, step)
            engine.observe(1, 256 + step)
        assert engine.stats.trained == 2
        assert engine.stats.evictions == 0
        assert engine.stats.prefetches_issued > 0

    def test_reset_clears_engines_and_clock_keeps_stats(self):
        engine = MultiStreamPrefetcher(_params())
        for step in range(4):
            engine.observe(0, step)
        allocs = engine.stats.allocations
        engine.reset()
        assert engine.occupancy == 0
        assert engine.stats.allocations == allocs
        assert engine.observe(0, 99) == ([], 1)    # clock restarted

    def test_param_validation(self):
        with pytest.raises(ValueError, match="n_engines"):
            StreamModelParams(n_engines=0)
        with pytest.raises(ValueError, match="max_distance"):
            StreamModelParams(max_distance=0)
        with pytest.raises(ValueError, match="latency_accesses"):
            StreamModelParams(latency_accesses=-1)
        with pytest.raises(ValueError, match="train_threshold"):
            StreamModelParams(train_threshold=0)
        with pytest.raises(ValueError, match="train_threshold"):
            StreamModelParams(train_threshold=-2)
        StreamModelParams(train_threshold=1)        # the least legal value


def pool_state(engine):
    """The pool in LRU order, every engine field, and the statistics."""
    return (
        [
            (page, e.page, e.last_line, e.stride, e.confidence, e.issued_until)
            for page, e in engine._engines.items()
        ],
        engine.stats.snapshot(),
    )


def lru_reference(keys, capacity):
    """Which accesses find their key in an ``OrderedDict`` LRU table, and
    the table's keys at the end, least recently used first."""
    table, hits = OrderedDict(), []
    for key in keys:
        hits.append(key in table)
        if key in table:
            table.move_to_end(key)
        else:
            table[key] = None
            if len(table) > capacity:
                table.popitem(last=False)
    return hits, list(table)


def assert_lru_table(keys, capacity):
    """``lru_table``'s hits and final table, with and without the keys'
    stable order passed in, against :func:`lru_reference`."""
    array = np.array(keys, dtype=np.int64)
    hits, table = lru_reference(keys, capacity)
    for order in (None, stable_order(array)):
        got, final = lru_table(array, capacity, order)
        assert got.tolist() == hits
        assert array[final][-capacity:].tolist() == table


#: Key sequences: stretches over a few hot keys, each followed by one key
#: from a wider set, so gaps are long while holding few distinct keys.
key_stretches = st.lists(
    st.tuples(
        st.lists(st.integers(0, 5), min_size=1, max_size=60),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=12,
)


class TestLruHits:
    @given(stretches=key_stretches, capacity=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_an_ordered_dict_table(self, stretches, capacity):
        keys = [k for hot, cold in stretches for k in (*hot, cold)]
        got = lru_table(np.array(keys, dtype=np.int64), capacity)[0]
        assert got.tolist() == lru_reference(keys, capacity)[0]
        assert_lru_table(keys, capacity)

    @given(
        keys=st.lists(st.integers(-3, 30), min_size=1, max_size=300),
        capacity=st.integers(1, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_on_uniform_keys(self, keys, capacity):
        got = lru_table(np.array(keys, dtype=np.int64), capacity)[0]
        assert got.tolist() == lru_reference(keys, capacity)[0]
        assert_lru_table(keys, capacity)

    def test_long_gap_over_few_keys_still_hits(self):
        # Key 9 returns after 200 accesses that use only two other keys:
        # no window certifies an eviction, so the exact count decides.
        keys = [9] + [1, 2] * 100 + [9, 3, 4, 5, 9]
        got = lru_table(np.array(keys, dtype=np.int64), 3)[0].tolist()
        assert got == lru_reference(keys, 3)[0]
        assert got[201] and not got[-1]

    def test_many_long_gaps_over_few_keys(self):
        # Several keys return after long stretches of two others: the gaps
        # left unsure outnumber the positions, so each tries its window
        # of capacity * 2**k first, then the exact count.
        keys = [9, 8, 7] + [1, 2] * 100 + [9, 8, 7] + [3, 4, 5] * 40 + [9]
        got = lru_table(np.array(keys, dtype=np.int64), 5)[0].tolist()
        assert got == lru_reference(keys, 5)[0]
        assert got[203:206] == [True, True, True] and not got[-1]

    def test_wide_keys_sort_like_narrow_ones(self):
        keys = [5, 1 << 40, 5, -(1 << 40), 1 << 40, 5, 7, 1 << 40]
        got = lru_table(np.array(keys, dtype=np.int64), 2)[0]
        assert got.tolist() == lru_reference(keys, 2)[0]


#: Parameter sets of the multi-stream engine: pools of 1-3 engines (so it
#: thrashes), every threshold and degree, run-ahead caps both below and
#: above the strides drawn, and small pages so runs cross page edges.
stream_params = st.builds(
    StreamModelParams,
    n_engines=st.integers(1, 3),
    train_threshold=st.integers(1, 3),
    degree=st.integers(0, 3),
    max_distance=st.integers(1, 12),
    page_lines=st.sampled_from([8, 16, 64]),
    latency_accesses=st.just(5),
)

#: Access runs: (first line, line stride, length), strides of both signs.
line_runs = st.lists(
    st.tuples(
        st.integers(0, 400),
        st.sampled_from([0, 1, 1, 2, -1, -2, 3, -3, 5, 7, -9, 13, 40]),
        st.integers(1, 30),
    ),
    min_size=1,
    max_size=10,
)


def interleaved(runs, ways):
    """The runs' lines, ``ways`` runs at a time round-robin."""
    out = []
    for start in range(0, len(runs), ways):
        group = [
            [max(0, first + stride * k) for k in range(length)]
            for first, stride, length in runs[start:start + ways]
        ]
        for k in range(max(len(g) for g in group)):
            out.extend(g[k] for g in group if k < len(g))
    return out


def observed(engine, line):
    """What ``engine.observe`` issues for ``line``, as offsets from it."""
    return tuple(target - line for target in engine.observe(0, line)[0])


class TestMultiStreamTrain:
    """``train`` over blocks against ``observe`` one access at a time."""

    @given(
        params=stream_params,
        runs=line_runs,
        ways=st.integers(1, 4),
        cuts=st.lists(st.integers(1, 70), min_size=1, max_size=8),
        mixed=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_plans_pool_and_stats_match_observe(self, params, runs, ways,
                                                cuts, mixed):
        """Blocks of drawn lengths, so state carries over mid-run and
        mid-page; when ``mixed``, every other block goes through
        ``observe``, so the pool passes between both paths."""
        lines = interleaved(runs, ways)
        want_engine = MultiStreamPrefetcher(params)
        got_engine = MultiStreamPrefetcher(params)
        want = [observed(want_engine, line) for line in lines]
        got = []
        start = block = ticked = 0
        while start < len(lines):
            chunk = lines[start:start + cuts[block % len(cuts)]]
            if mixed and block % 2:
                got += [observed(got_engine, line) for line in chunk]
                ticked += len(chunk)
            else:
                plans, codes = got_engine.train(np.array(chunk, dtype=np.int64))
                got += [plans[c - 1] if c else () for c in codes.tolist()]
                assert all(plans)
            start, block = start + len(chunk), block + 1
            assert pool_state(got_engine) == pool_state(
                _replayed(params, lines[:start])
            )
        assert got == want
        assert pool_state(got_engine) == pool_state(want_engine)
        assert got_engine._clock == ticked

    def test_carried_trained_run_keeps_its_frontier(self):
        # Trained on stride 1 and three lines ahead when the block ends;
        # the next block continues from the carried frontier until the
        # run-ahead cap of 4 lines leaves room for one line per access.
        engine = MultiStreamPrefetcher(_params(n_engines=1, degree=2,
                                               max_distance=4))
        plans, codes = engine.train(np.arange(0, 4, dtype=np.int64))
        assert [plans[c - 1] if c else () for c in codes] == [
            (), (), (1, 2), (2, 3),
        ]
        plans, codes = engine.train(np.arange(4, 7, dtype=np.int64))
        assert [plans[c - 1] if c else () for c in codes] == [
            (3, 4), (4,), (4,),
        ]
        (e,) = engine._engines.values()
        assert (e.stride, e.confidence, e.issued_until) == (1, 6, 10)

    def test_page_edge_stops_issue(self):
        engine = MultiStreamPrefetcher(_params(page_lines=8, degree=3))
        plans, codes = engine.train(np.array([7, 6, 5, 4, 3], dtype=np.int64))
        # Stride -1 towards line 0: never past the page's first line.
        assert [plans[c - 1] if c else () for c in codes] == [
            (), (), (-1, -2, -3), (-3, -4), (),
        ]
        assert engine.stats.prefetches_issued == 5


def _replayed(params, lines):
    engine = MultiStreamPrefetcher(params)
    for line in lines:
        engine.observe(0, line)
    return engine


def table_state(engine):
    """The stride table in LRU order, every stream field, and the
    statistics."""
    return (
        [
            (ref, st.last_line, st.stride, st.confidence)
            for ref, st in engine._streams.items()
        ],
        engine.stats.snapshot(),
    )


#: Parameter sets of the stride engine: tables of 1-4 streams (so they
#: evict), every threshold and degree, small run-ahead caps.
stride_params = st.fixed_dictionaries({
    "max_streams": st.integers(1, 4),
    "train_threshold": st.integers(1, 3),
    "degree": st.integers(0, 3),
    "max_distance": st.integers(1, 12),
})


class TestStrideTrain:
    """``train`` over blocks against ``observe`` one access at a time."""

    @given(
        params=stride_params,
        runs=line_runs,
        refs=st.lists(st.integers(0, 5), min_size=1, max_size=10),
        ways=st.integers(1, 4),
        cuts=st.lists(st.integers(1, 70), min_size=1, max_size=8),
        mixed=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_targets_table_and_stats_match_observe(self, params, runs, refs,
                                                   ways, cuts, mixed):
        """Run ``k`` goes through ref id ``refs[k]``, so ids change
        stride and share the table; blocks of drawn lengths carry state
        mid-run, and when ``mixed`` every other block goes through
        ``observe``, so the table passes between both paths."""
        # Each access's id: its run's, interleaved as the lines are.
        ids = interleaved(
            [(refs[k % len(refs)], 0, length)
             for k, (_, _, length) in enumerate(runs)],
            ways,
        )
        accesses = list(zip(ids, interleaved(runs, ways)))
        want_engine = StridePrefetcher(**params)
        got_engine = StridePrefetcher(**params)
        want = [want_engine.observe(ref, line) for ref, line in accesses]
        got = []
        start = block = 0
        while start < len(accesses):
            chunk = accesses[start:start + cuts[block % len(cuts)]]
            if mixed and block % 2:
                got += [got_engine.observe(ref, line) for ref, line in chunk]
            else:
                chunk_refs, chunk_lines = (
                    np.array(column, dtype=np.int64) for column in zip(*chunk)
                )
                strides, codes = got_engine.train(chunk_refs, chunk_lines)
                got += [
                    [
                        line + offset
                        for offset in got_engine.offsets(strides[c - 1])
                    ] if c else []
                    for line, c in zip(chunk_lines.tolist(), codes.tolist())
                ]
            start, block = start + len(chunk), block + 1
            replayed = StridePrefetcher(**params)
            for ref, line in accesses[:start]:
                replayed.observe(ref, line)
            assert table_state(got_engine) == table_state(replayed)
            assert got == want[:start]
        assert table_state(got_engine) == table_state(want_engine)

