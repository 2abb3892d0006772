"""Tests for the cache simulator: caches, prefetchers, hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import arm_cortex_a15, intel_i7_5930k
from repro.cachesim import (
    CacheHierarchy,
    NextLinePrefetcher,
    SetAssocCache,
    StridePrefetcher,
)

from tests.helpers import assert_residency_invariant


class TestSetAssocCache:
    def test_miss_then_hit(self):
        c = SetAssocCache("L", 4, 2)
        assert not c.lookup(0)
        c.fill(0)
        assert c.lookup(0)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_set_mapping(self):
        c = SetAssocCache("L", 4, 1)
        c.fill(0)
        c.fill(4)  # same set (4 % 4 == 0), 1 way -> evicts 0
        assert not c.contains(0)
        assert c.contains(4)

    def test_lru_eviction_order(self):
        c = SetAssocCache("L", 1, 2)
        c.fill(0)
        c.fill(1)
        c.lookup(0)     # 0 becomes MRU
        c.fill(2)       # evicts 1 (LRU)
        assert c.contains(0) and c.contains(2) and not c.contains(1)

    def test_eviction_returns_victim(self):
        c = SetAssocCache("L", 1, 1)
        c.fill(0)
        assert c.fill(1) == 0

    def test_prefetched_flag_credited_once(self):
        c = SetAssocCache("L", 4, 2)
        c.fill(0, prefetched=True)
        c.lookup(0)
        c.lookup(0)
        assert c.stats.prefetch_hits == 1

    def test_prefetch_fill_never_downgrades_demand_line(self):
        c = SetAssocCache("L", 4, 2)
        c.fill(0, prefetched=False)
        c.fill(0, prefetched=True)
        c.lookup(0)
        assert c.stats.prefetch_hits == 0

    def test_demand_refill_clears_prefetch_flag(self):
        c = SetAssocCache("L", 4, 2)
        c.fill(0, prefetched=True)
        c.fill(0, prefetched=False)
        c.lookup(0)
        assert c.stats.prefetch_hits == 0

    def test_evicted_prefetch_refilled_on_demand_gets_no_credit(self):
        c = SetAssocCache("L", 1, 1)
        c.fill(0, prefetched=True)
        assert c.fill(1) == 0          # evicts the flagged line
        assert c.fill(0) == 1          # demand refill
        assert c.lookup(0)
        assert c.stats.prefetch_hits == 0

    def test_invalidated_prefetch_refilled_on_demand_gets_no_credit(self):
        c = SetAssocCache("L", 4, 2)
        c.fill(0, prefetched=True)
        assert c.invalidate(0)
        c.fill(0)
        assert c.lookup(0)
        assert c.stats.prefetch_hits == 0

    def test_flush_clears_prefetch_flags(self):
        c = SetAssocCache("L", 4, 2)
        c.fill(0, prefetched=True)
        c.fill(5, prefetched=True)
        c.flush()
        c.fill(0)
        c.fill(5)
        assert c.lookup(0) and c.lookup(5)
        assert c.stats.prefetch_hits == 0

    def test_contents_in_lru_order_with_flags(self):
        c = SetAssocCache("L", 2, 4)
        c.fill(0)
        c.fill(2, prefetched=True)
        c.fill(4)
        c.fill(1, prefetched=True)
        c.lookup(0)
        assert c.contents() == [[(2, True), (4, False), (0, False)], [(1, True)]]

    def test_invalidate(self):
        c = SetAssocCache("L", 4, 2)
        c.fill(0)
        assert c.invalidate(0)
        assert not c.contains(0)
        assert not c.invalidate(0)

    def test_occupancy_and_flush(self):
        c = SetAssocCache("L", 4, 2)
        for line in range(6):
            c.fill(line)
        assert c.occupancy() == 6
        c.flush()
        assert c.occupancy() == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache("L", 0, 2)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["demand", "prefetch", "invalidate"]),
                      st.integers(0, 63)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, ops):
        c = SetAssocCache("L", 4, 2)
        for op, line in ops:
            if op == "invalidate":
                c.invalidate(line)
            elif op == "prefetch":
                c.fill(line, prefetched=True)
            elif not c.lookup(line):
                c.fill(line)
            assert_residency_invariant(c)
        assert c.occupancy() <= 4 * 2


class TestNextLinePrefetcher:
    def test_requests_next(self):
        assert NextLinePrefetcher(1).requests(10) == [11]

    def test_degree(self):
        assert NextLinePrefetcher(3).requests(10) == [11, 12, 13]

    def test_zero_degree(self):
        assert NextLinePrefetcher(0).requests(10) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(-1)


class TestStridePrefetcher:
    def test_needs_training(self):
        p = StridePrefetcher(degree=2, max_distance=20)
        assert p.observe(0, 100) == []
        assert p.observe(0, 101) == []  # first stride observation
        assert p.observe(0, 102) == [103, 104]  # trained

    def test_tracks_nonunit_stride(self):
        p = StridePrefetcher(degree=2, max_distance=20)
        p.observe(0, 0)
        p.observe(0, 8)
        out = p.observe(0, 16)
        assert out == [24, 32]

    def test_stride_change_resets(self):
        p = StridePrefetcher(degree=1, max_distance=20)
        p.observe(0, 0)
        p.observe(0, 1)
        p.observe(0, 2)  # trained at stride 1
        assert p.observe(0, 10) == []  # stride broke
        assert p.observe(0, 18) == [26]  # retrained at 8

    def test_streams_are_independent(self):
        p = StridePrefetcher(degree=1, max_distance=20)
        p.observe(0, 0)
        p.observe(0, 1)
        assert p.observe(1, 500) == []  # fresh stream
        assert p.observe(0, 2) == [3]

    def test_zero_stride_ignored(self):
        p = StridePrefetcher(degree=1, max_distance=20)
        p.observe(0, 0)
        p.observe(0, 1)
        p.observe(0, 2)
        assert p.observe(0, 2) == []   # same line: filtered
        assert p.observe(0, 3) == [4]  # training survived

    def test_distance_limit(self):
        p = StridePrefetcher(degree=4, max_distance=10)
        p.observe(0, 0)
        p.observe(0, 8)
        out = p.observe(0, 16)
        # stride 8: only the first prefetch is within ~distance.
        assert out and all(abs(t - 16) <= 40 for t in out)

    def test_reset(self):
        p = StridePrefetcher(degree=1, max_distance=20)
        p.observe(0, 0)
        p.observe(0, 1)
        p.reset()
        assert p.stream_state(0) == (0, 0)


class TestCacheHierarchy:
    def make(self, prefetch=True):
        return CacheHierarchy(intel_i7_5930k(), enable_prefetch=prefetch)

    def test_cold_miss_goes_to_memory(self):
        h = self.make(prefetch=False)
        result = h.access(100)
        assert result.hit_level == 4
        assert h.stats.memory_lines == 1

    def test_inclusive_fill_then_l1_hit(self):
        h = self.make(prefetch=False)
        h.access(100)
        assert h.access(100).hit_level == 1

    def test_l2_hit_after_l1_eviction(self):
        h = CacheHierarchy(intel_i7_5930k(), enable_prefetch=False)
        h.access(0)
        l1 = h.levels[0]
        # Blow line 0 out of L1 (same set, > ways distinct lines).
        for n in range(1, l1.ways + 2):
            h.access(n * l1.num_sets)
        result = h.access(0)
        assert result.hit_level == 2

    def test_next_line_prefetch_hits(self):
        h = self.make(prefetch=True)
        h.access(100)
        result = h.access(101)
        assert result.hit_level == 1
        assert result.prefetch_credit

    def test_prefetch_disabled_no_lookahead(self):
        h = self.make(prefetch=False)
        h.access(100)
        assert h.access(101).hit_level == 4

    def test_streaming_gets_one_miss_per_stream(self):
        h = self.make(prefetch=True)
        for line in range(100, 164):
            h.access(line)
        # Only the first access should have gone to memory as a demand miss.
        assert h.stats.memory_lines == 1
        assert h.stats.prefetch_memory_lines >= 63

    def test_stride_prefetch_fills_l2(self):
        h = self.make(prefetch=True)
        for n in range(3):
            h.access(n * 8, ref_id=7)
        result = h.access(3 * 8, ref_id=7)
        assert result.hit_level <= 2

    def test_nt_store_bypasses_and_invalidates(self):
        h = self.make(prefetch=False)
        h.access(100)
        h.nt_store(100)
        assert h.stats.nt_store_lines == 1
        assert h.access(100).hit_level == 4

    def test_nt_store_write_combining(self):
        h = self.make(prefetch=False)
        h.nt_store(5)
        h.nt_store(5)
        h.nt_store(6)
        assert h.stats.nt_store_lines == 2

    def test_writeback_counted_once_per_line(self):
        h = self.make(prefetch=False)
        h.access(100, is_write=True)
        h.access(100, is_write=True)
        h.access(101, is_write=True)
        assert h.stats.writeback_lines == 2

    def test_write_hit_on_prefetched_line_still_writes_back(self):
        h = self.make(prefetch=True)
        h.access(100)          # prefetches 101
        h.access(101, is_write=True)
        assert h.stats.writeback_lines == 1

    def test_ways_divisor_shrinks_associativity(self):
        h = CacheHierarchy(intel_i7_5930k(), l1_ways_divisor=2)
        assert h.levels[0].ways == 4

    def test_l3_capacity_divisor(self):
        full = CacheHierarchy(intel_i7_5930k())
        shared = CacheHierarchy(intel_i7_5930k(), l3_capacity_divisor=6)
        assert shared.levels[2].num_sets < full.levels[2].num_sets

    def test_arm_has_two_levels(self):
        h = CacheHierarchy(arm_cortex_a15())
        assert h.num_levels == 2
        assert h.access(0).hit_level == 3  # memory is level 3 there

    def test_flush_keeps_stats(self):
        h = self.make(prefetch=False)
        h.access(0)
        h.flush()
        assert h.stats.memory_lines == 1
        assert h.access(0).hit_level == 4

    def test_flush_forgets_write_combining(self):
        # After a flush the write-combining buffer is empty: an NT store
        # to the last NT-stored line is a new transaction and invalidates
        # the copy a demand access brought back in.
        h = self.make(prefetch=False)
        h.nt_store(100)
        h.flush()
        h.access(100)
        h.nt_store(100)
        assert h.stats.nt_store_lines == 2
        assert h.access(100).hit_level == 4

    def test_rejects_bad_divisors(self):
        with pytest.raises(ValueError):
            CacheHierarchy(intel_i7_5930k(), l1_ways_divisor=0)

    def test_summary_smoke(self):
        h = self.make()
        h.access(0)
        assert "L1" in h.summary()


class TestStats:
    def test_miss_rate(self):
        c = SetAssocCache("L", 4, 2)
        c.lookup(0)
        c.fill(0)
        c.lookup(0)
        assert c.stats.miss_rate == pytest.approx(0.5)

    def test_snapshot_keys(self):
        c = SetAssocCache("L", 4, 2)
        snap = c.stats.snapshot()
        assert set(snap) == {
            "hits", "misses", "prefetch_hits", "prefetches_issued",
            "prefetch_evictions", "evictions",
        }

    def test_hierarchy_dram_total(self):
        h = CacheHierarchy(intel_i7_5930k(), enable_prefetch=False)
        h.access(0)
        h.nt_store(64)
        h.access(1, is_write=True)
        total = h.stats.dram_lines_total
        assert total == h.stats.memory_lines + h.stats.nt_store_lines + h.stats.writeback_lines
