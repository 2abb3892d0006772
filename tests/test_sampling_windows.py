"""Tests for the two-window (phase-offset) sampling machinery."""

import numpy as np
import pytest

from repro.arch import intel_i7_5930k
from repro.cachesim import CacheHierarchy
from repro.ir import lower
from repro.sim import run_nests
from repro.sim.executor import _adaptive_budget
from repro.sim.trace import MemoryLayout, TraceGenerator

from tests.helpers import make_copy, make_matmul


class TestPhaseOffset:
    def test_phase_zero_is_prefix(self):
        f, _ = make_copy(16)
        nest = lower(f)[0]
        gen = TraceGenerator(nest, MemoryLayout(), 64, phase=0.0)
        list(gen.chunks())
        assert gen.record.simulated_stmts == 16 * 16
        assert not gen.record.truncated

    def test_phase_half_covers_tail(self):
        f, _ = make_copy(16)
        nest = lower(f)[0]
        gen = TraceGenerator(nest, MemoryLayout(), 64, phase=0.5)
        list(gen.chunks())
        # Starts at y=8; the innermost (vectorized) loop always runs in
        # full, so exactly the tail half of the rows is covered.
        assert gen.record.simulated_stmts == 8 * 16
        assert gen.record.truncated  # partial coverage is flagged

    def test_phase_rejects_out_of_range(self):
        f, _ = make_copy(8)
        nest = lower(f)[0]
        with pytest.raises(ValueError):
            TraceGenerator(nest, MemoryLayout(), 64, phase=1.0)

    def test_phase_window_touches_tail_lines(self):
        f, a = make_copy(32)
        nest = lower(f)[0]
        layout = MemoryLayout()
        gen = TraceGenerator(nest, layout, 64, phase=0.5)
        lines = set()
        for ch in gen.chunks():
            lines.update(ch.lines.tolist())
        base = layout.base_of(a) // 64
        lines_per_array = 32 * 32 * 4 // 64
        # Every touched input line belongs to the second half of A.
        a_lines = {l for l in lines if base <= l < base + lines_per_array}
        assert a_lines and min(a_lines) >= base + lines_per_array // 2 - 1


class TestTwoWindowExecutor:
    def test_untruncated_nest_uses_one_window(self, arch):
        c, _, _ = make_matmul(8)
        hierarchy = CacheHierarchy(arch)
        sim = run_nests(lower(c), hierarchy, line_budget=10**8)
        update = sim.nest_named("C.update0")
        assert not update.truncated
        assert update.simulated_stmts == 8**3

    def test_truncated_nest_gets_second_window(self, arch):
        c, _, _ = make_matmul(64)
        hierarchy = CacheHierarchy(arch)
        sim = run_nests(lower(c), hierarchy, line_budget=2000)
        update = sim.nest_named("C.update0")
        assert update.truncated
        # Both windows contribute statements; scale stays consistent.
        assert 0 < update.simulated_stmts < update.total_stmts
        assert update.scale == pytest.approx(
            update.total_stmts / update.simulated_stmts
        )


class TestAdaptiveBudget:
    def test_tiled_nest_grows(self, arch):
        from repro.ir import Schedule

        c, _, _ = make_matmul(512)
        s = Schedule(c)
        s.split("i", "io", "ii", 32).split("k", "ko", "ki", 32)
        s.reorder("j", "ki", "ii", "ko", "io")
        nest = lower(c, s)[1]
        base = 10_000
        grown = _adaptive_budget(nest, base)
        assert grown > base
        assert grown <= 8 * base

    def test_untiled_giant_nest_stays_at_base(self, arch):
        c, _, _ = make_matmul(2048)
        nest = lower(c)[1]
        assert _adaptive_budget(nest, 10_000) == 10_000

    def test_small_nest_stays_at_base(self, arch):
        c, _, _ = make_matmul(8)
        nest = lower(c)[1]
        # needed = 2 * 512 = 1024 < base.
        assert _adaptive_budget(nest, 10_000) == 10_000
