"""Differential oracle for the block-batched trace generator.

:class:`TraceGenerator` evaluates a block of consecutive outer iterations
per numpy pass and cuts the window with a cumulative sum.  These tests
check it against :func:`tests.helpers.reference_chunks`, the walker that
visits the innermost loop one outer iteration at a time: the
(line, ref_id, is_store, nontemporal) sequence and every
:class:`NestTrace` field must be identical, for every corpus kernel at
smoke size under default, tiled and multistride schedules, at phase 0
and 0.5, with budgets that cut mid-block and with imperfect-split guards.
"""

from __future__ import annotations

import pytest

from repro.frontend.corpus import corpus_kernel, corpus_names
from repro.ir import Buffer, Func, Schedule, Var, float32, lower
from repro.ir.schedule import LoopKind
from repro.sim import trace as trace_module
from repro.sim.trace import MemoryLayout, TraceGenerator

from tests.helpers import reference_chunks

LINE = 64


def flatten(chunks):
    """(line, ref_id, is_store, nontemporal) of every access, in order."""
    return [
        (line, c.ref_id, c.is_store, c.nontemporal)
        for c in chunks
        for line in c.lines.tolist()
    ]


def record_fields(record):
    return (
        record.simulated_stmts,
        record.total_stmts,
        record.emitted_lines,
        record.truncated,
    )


def assert_same_window(nest, budget, phase):
    layout = MemoryLayout()
    want_gen = TraceGenerator(nest, layout, LINE, line_budget=budget, phase=phase)
    want = flatten(reference_chunks(want_gen))

    got_gen = TraceGenerator(nest, layout, LINE, line_budget=budget, phase=phase)
    got = flatten(got_gen.chunks())
    where = f"{nest!r} budget={budget} phase={phase}"
    assert got == want, where
    assert record_fields(got_gen.record) == record_fields(want_gen.record), where

    # The blocks carry the same stream the chunk view splits.
    gen = TraceGenerator(nest, layout, LINE, line_budget=budget, phase=phase)
    blocks = list(gen.blocks())
    lines = [line for b in blocks for line in b.lines.tolist()]
    refs = [ref for b in blocks for ref in b.refs.tolist()]
    assert lines == [access[0] for access in want], where
    assert refs == [access[1] for access in want], where
    assert record_fields(gen.record) == record_fields(want_gen.record), where


def schedules(func):
    """Default, tiled (imperfect splits) and multistride schedules."""
    yield None
    tiled = Schedule(func)
    names = tiled.loop_names()
    tiled.split(names[-1], "vo", "vi", 3)
    if len(names) >= 2:
        tiled.split(names[0], "to", "ti", 5)
        tiled.reorder("vi", "ti", "vo", "to")
    yield tiled
    serial = [
        loop.name for loop in Schedule(func).loops()
        if loop.kind is LoopKind.SERIAL and loop.extent >= 2
    ]
    if serial:
        streamed = Schedule(func)
        streamed.multistride(serial[-1], 4)
        yield streamed
    if len(serial) >= 2:
        streamed = Schedule(func)
        streamed.multistride(serial[-2], 3)
        yield streamed


def windows(nest, whole):
    """Budgets that cut early and mid-block, and (``whole``, for nests of
    few innermost-loop visits) ones around the nest's full line count:
    a window that ends exactly on the budget is not truncated."""
    budgets = [0, 1, 37, 700]
    visits = nest.total_iterations() // nest.loops[-1].extent
    if whole and visits <= 1000:
        gen = TraceGenerator(nest, MemoryLayout(), LINE, line_budget=10**9)
        list(gen.blocks())
        full = gen.record.emitted_lines
        budgets += [full - 1, full, 10**9]
    for budget in budgets:
        for phase in (0.0, 0.5):
            yield budget, phase


@pytest.mark.parametrize("block_elements", [48, trace_module.BLOCK_ELEMENTS])
@pytest.mark.parametrize("kernel", corpus_names())
def test_corpus_kernel_windows(kernel, block_elements, monkeypatch):
    monkeypatch.setattr(trace_module, "BLOCK_ELEMENTS", block_elements)
    for func in corpus_kernel(kernel).lower(fast=True).funcs:
        for schedule in schedules(func):
            for nest in lower(func, schedule):
                whole = block_elements != 48
                for budget, phase in windows(nest, whole):
                    assert_same_window(nest, budget, phase)


def _copy(n):
    x, y = Var("x"), Var("y")
    a = Buffer("A", (n, n), float32)
    out = Func("Copy")
    out[y, x] = a[y, x] + a[x, y]
    out.set_bounds({x: n, y: n})
    return out


class TestGuards:
    @pytest.mark.parametrize("block_elements", [5, 48, 4096])
    def test_guard_with_holes_inside_the_innermost_loop(
        self, block_elements, monkeypatch
    ):
        # x = xo * 3 + xi, innermost fused loop f = xi * 4 + xo: the guard
        # x < 10 masks f = 7 and f = 11, holes inside every row.
        monkeypatch.setattr(trace_module, "BLOCK_ELEMENTS", block_elements)
        func = _copy(10)
        s = Schedule(func)
        s.split("x", "xo", "xi", 3).reorder("xo", "xi").fuse("xi", "xo", "f")
        nest = lower(func, s)[0]
        assert nest.stmt.guards
        for budget in (1, 9, 40, 10**9):
            for phase in (0.0, 0.5):
                assert_same_window(nest, budget, phase)

    @pytest.mark.parametrize("n", [7, 10, 13])
    def test_guards_on_outer_and_inner_splits(self, n, monkeypatch):
        monkeypatch.setattr(trace_module, "BLOCK_ELEMENTS", 16)
        func = _copy(n)
        s = Schedule(func)
        s.tile("y", "x", "yo", "xo", "yi", "xi", 4, 3)
        nest = lower(func, s)[0]
        for budget in (2, 25, 10**9):
            for phase in (0.0, 0.5):
                assert_same_window(nest, budget, phase)


def test_block_cap_holds_at_least_one_row(monkeypatch):
    monkeypatch.setattr(trace_module, "BLOCK_ELEMENTS", 4)
    func = _copy(16)
    nest = lower(func)[0]
    gen = TraceGenerator(nest, MemoryLayout(), LINE, line_budget=10**9)
    blocks = list(gen.blocks())
    assert len(blocks) == 16
    assert all(b.counts.shape == (1, 3) for b in blocks)
    assert sum(b.lines.size for b in blocks) == gen.record.emitted_lines
