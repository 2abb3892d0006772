"""Line-granular memory-trace generation from lowered loop nests.

The generator treats a nest as ``rows x inner``: every combination of the
outer loops' values is one *row* (numbered in loop order, outermost
slowest), and the innermost loop is the vector within a row.  A *block*
of consecutive rows is evaluated in one numpy pass: the flat row numbers
are decomposed into per-loop values in mixed radix, the index trees are
broadcast over ``(rows, inner)``, guards become a mask, and for every
array reference the affine index expressions collapse to

    element = sum_v coeff_v * value(v) + const

with per-variable coefficients precomputed in *elements*.  Byte addresses
are divided by the line size and consecutive duplicate lines are dropped
within each (row, reference) segment — a row of contiguous elements
becomes one access per line, which is also the granularity the hardware
prefetchers see.  The references' segments are then interleaved row by
row into one flat ``(line, ref)`` stream in program order
(:class:`TraceBlock`); blocks hold about :data:`BLOCK_ELEMENTS` elements.

Sampling: a row runs only if fewer than ``line_budget`` lines were
emitted before it (the cut is found with a cumulative sum over the
block's rows); the fraction of statement executions covered is reported
so the executor can extrapolate.  The window is a prefix of the
iteration space — the same steady state a real measurement warms into,
minus the (negligible at these trip counts) tail effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.cachesim.hierarchy import access_kind
from repro.ir.analysis import AffineIndex
from repro.ir.expr import Access
from repro.ir.loopnest import LoopNest
from repro.ir.schedule import (
    FusedInner,
    FusedOuter,
    IndexNode,
    LeafIndex,
    SplitIndex,
)
from repro.util import SimulationError

#: Alignment of buffer base addresses (a page), so that conflict behaviour
#: resembles malloc'd arrays rather than adversarial placements.
_BASE_ALIGN = 4096
#: Extra pad between buffers, in bytes, to decorrelate set mappings a bit.
_BASE_PAD = 64 * 7
#: Rough size of one block, in (row, inner) elements: large enough to
#: amortise numpy's per-call cost, small enough to keep memory flat.  A
#: block always holds at least one row.
BLOCK_ELEMENTS = 16_384


class MemoryLayout:
    """Assigns base byte addresses to buffers and Func outputs.

    Buffers are laid out in first-touch order, page-aligned, with a small
    odd pad between them.  The layout is deterministic for a given
    registration order, which keeps simulations reproducible.
    """

    def __init__(self) -> None:
        self._bases: Dict[int, int] = {}
        self._names: Dict[int, str] = {}
        self._next = _BASE_ALIGN

    def register(self, buffer) -> int:
        """Assign (or return) the base byte address of a buffer/Func."""
        key = id(buffer)
        if key in self._bases:
            return self._bases[key]
        base = self._next
        self._bases[key] = base
        self._names[key] = buffer.name
        size = buffer.size_bytes
        self._next = (
            (base + size + _BASE_PAD + _BASE_ALIGN - 1) // _BASE_ALIGN
        ) * _BASE_ALIGN
        return base

    def base_of(self, buffer) -> int:
        key = id(buffer)
        if key not in self._bases:
            raise KeyError(f"buffer {buffer.name!r} was never registered")
        return self._bases[key]

    def total_bytes(self) -> int:
        return self._next

    def describe(self) -> str:
        rows = [
            f"  {self._names[k]} @ {base:#x}"
            for k, base in sorted(self._bases.items(), key=lambda kv: kv[1])
        ]
        return "layout:\n" + "\n".join(rows)


def _eval_index_tree(tree: IndexNode, env: Dict[str, object]):
    """Evaluate an index-reconstruction tree over scalars/ndarrays."""
    if isinstance(tree, LeafIndex):
        return env[tree.loop]
    if isinstance(tree, SplitIndex):
        return (
            _eval_index_tree(tree.outer, env) * tree.factor
            + _eval_index_tree(tree.inner, env)
        )
    if isinstance(tree, FusedOuter):
        return _eval_index_tree(tree.fused, env) // tree.inner_extent
    if isinstance(tree, FusedInner):
        return _eval_index_tree(tree.fused, env) % tree.inner_extent
    raise SimulationError(f"unknown index node {tree!r}")


@dataclass
class _RefPlan:
    """Precomputed address recipe for one array reference."""

    ref_id: int
    is_store: bool
    nontemporal: bool
    #: original variable name -> combined element coefficient
    var_coeffs: Tuple[Tuple[str, int], ...]
    const_elements: int
    base_bytes: int
    dtype_size: int

    def element_index(self, var_values: Dict[str, object]):
        total = self.const_elements
        for var, coeff in self.var_coeffs:
            total = total + var_values[var] * coeff
        return total


@dataclass
class TraceBlock:
    """The line accesses of a run of consecutive rows, in program order."""

    #: Line addresses.
    lines: np.ndarray
    #: Reference id of each access (index into ``TraceGenerator.plans``).
    refs: np.ndarray
    #: Lines each (row, reference) segment emitted, shape ``(rows, refs)``.
    counts: np.ndarray
    #: Guard-live statement executions of each row.
    live: np.ndarray


@dataclass
class TraceChunk:
    """One (row, reference) segment of a block: the line accesses one
    innermost-loop visit made through one reference."""

    lines: np.ndarray
    ref_id: int
    is_store: bool
    nontemporal: bool


@dataclass
class NestTrace:
    """Per-nest bookkeeping of what the generator actually emitted."""

    nest: LoopNest
    simulated_stmts: int = 0
    total_stmts: int = 0
    emitted_lines: int = 0
    truncated: bool = False

    @property
    def scale(self) -> float:
        """Extrapolation factor from the simulated window to the full nest."""
        if self.simulated_stmts <= 0:
            return 1.0
        return max(1.0, self.total_stmts / self.simulated_stmts)


class TraceGenerator:
    """Generates the line-granular access stream of one loop nest."""

    def __init__(
        self,
        nest: LoopNest,
        layout: MemoryLayout,
        line_size: int,
        *,
        line_budget: int = 200_000,
        phase: float = 0.0,
    ) -> None:
        if not 0.0 <= phase < 1.0:
            raise ValueError(f"phase must be in [0, 1), got {phase}")
        self.nest = nest
        self.layout = layout
        self.line_size = line_size
        self.line_budget = line_budget
        #: Fraction of the iteration space to skip before emitting: a
        #: second window at phase 0.5 exposes behaviour (cold capacity
        #: misses at long reuse distances) a start-anchored window never
        #: reaches.
        self.phase = phase
        self.record = NestTrace(nest=nest, total_stmts=self._guarded_total())
        self.plans = self._build_plans()
        #: Demand-path access kind of each reference, by ref id.
        self.ref_kinds = tuple(
            access_kind(p.is_store, p.nontemporal) for p in self.plans
        )
        self._guards = nest.stmt.guards
        self._trees = nest.stmt.index_trees
        loops = nest.loops
        # (name, extent, row stride) of every outer loop, outermost first.
        outer = []
        row_stride = 1
        for loop in reversed(loops[:-1]):
            outer.append((loop.name, loop.extent, row_stride))
            row_stride *= loop.extent
        self._outer = tuple(reversed(outer))
        self._inner_name = loops[-1].name if loops else None
        n_inner = loops[-1].extent if loops else 1
        self._inner_values = np.arange(n_inner, dtype=np.int64)[None, :]
        self._max_rows = max(1, BLOCK_ELEMENTS // n_inner)

    # ------------------------------------------------------------------

    def _guarded_total(self) -> int:
        total = 1
        for var in self.nest.definition.all_vars():
            total *= self.nest.func.bound_of(var.name)
        return total

    def _build_plans(self) -> List[_RefPlan]:
        plans: List[_RefPlan] = []
        stmt = self.nest.stmt
        refs: List[Tuple[Access, bool]] = [(acc, False) for acc in stmt.reads]
        refs.append((stmt.store, True))
        for ref_id, (acc, is_store) in enumerate(refs):
            buffer = acc.buffer
            base = self.layout.register(buffer)
            strides = buffer.strides_elements()
            var_coeffs: Dict[str, int] = {}
            const = 0
            for dim, ix_expr in enumerate(acc.indices):
                affine = AffineIndex.from_expr(ix_expr)
                const += affine.offset * strides[dim]
                for var, coeff in affine.coeffs:
                    var_coeffs[var] = var_coeffs.get(var, 0) + coeff * strides[dim]
            plans.append(
                _RefPlan(
                    ref_id=ref_id,
                    is_store=is_store,
                    nontemporal=is_store and stmt.nontemporal,
                    var_coeffs=tuple(sorted(var_coeffs.items())),
                    const_elements=const,
                    base_bytes=base,
                    dtype_size=buffer.dtype.size,
                )
            )
        return plans

    # ------------------------------------------------------------------

    def blocks(self) -> Iterator[TraceBlock]:
        """Yield the window's line accesses, a block of consecutive outer
        iterations at a time, until the nest ends or the budget is hit.

        The window is exactly what a walk of one innermost-loop visit at
        a time would emit: it starts at the ``phase`` point of every outer
        loop, and stops before the first visit that begins with at least
        ``line_budget`` lines already emitted.
        """
        record = self.record
        if not self.nest.loops:
            # A loop-free nest is one statement: no budget, no phase.
            block = self._block(0, 1)
            record.simulated_stmts += int(block.live.sum())
            record.emitted_lines += int(block.lines.size)
            yield block
            return
        budget = self.line_budget
        total_rows = 1
        start = 0
        for _name, extent, row_stride in self._outer:
            total_rows *= extent
            start += int(extent * self.phase) * row_stride
        if budget <= 0:
            record.truncated = True
        row = start
        while row < total_rows and not record.truncated:
            remaining = budget - record.emitted_lines
            # Every live visit emits at least one line per reference, so
            # this many rows reach the budget unless guards kill some.
            wanted = -(-remaining // len(self.plans))
            rows = min(self._max_rows, total_rows - row, max(wanted, 1))
            block = self._block(row, rows)
            emitted = block.counts.sum(axis=1)
            ends = record.emitted_lines + np.cumsum(emitted)
            # A visit runs iff fewer than ``budget`` lines precede it.
            ran = int(np.searchsorted(ends - emitted, budget, side="left"))
            if ran < rows:
                n_lines = int(ends[ran - 1] - record.emitted_lines) if ran else 0
                block = TraceBlock(
                    lines=block.lines[:n_lines],
                    refs=block.refs[:n_lines],
                    counts=block.counts[:ran],
                    live=block.live[:ran],
                )
            record.simulated_stmts += int(block.live.sum())
            record.emitted_lines += int(block.lines.size)
            row += ran
            if row < total_rows and record.emitted_lines >= budget:
                record.truncated = True
            if block.lines.size:
                yield block
        if self.phase > 0.0 and not record.truncated:
            # A phased window that ran off the end of the space covered
            # only the tail; flag it so callers know coverage is partial.
            record.truncated = True

    def chunks(self) -> Iterator[TraceChunk]:
        """The same accesses as :meth:`blocks`, split into one chunk per
        (iteration, reference) with at least one line."""
        plans = self.plans
        n_refs = len(plans)
        for block in self.blocks():
            begin = 0
            for segment, end in enumerate(np.cumsum(block.counts).tolist()):
                if end > begin:
                    plan = plans[segment % n_refs]
                    yield TraceChunk(
                        lines=block.lines[begin:end],
                        ref_id=plan.ref_id,
                        is_store=plan.is_store,
                        nontemporal=plan.nontemporal,
                    )
                    begin = end

    def _block(self, first: int, rows: int) -> TraceBlock:
        """All accesses of outer iterations ``first .. first + rows - 1``,
        in program order, before any budget cut."""
        env: Dict[str, object] = {}
        if self._outer:
            flat = np.arange(first, first + rows, dtype=np.int64)[:, None]
            for name, extent, row_stride in self._outer:
                env[name] = flat // row_stride % extent
        if self._inner_name is not None:
            env[self._inner_name] = self._inner_values
        values = {
            orig: _eval_index_tree(tree, env) for orig, tree in self._trees.items()
        }
        n_inner = self._inner_values.shape[1]
        shape = (rows, n_inner)
        mask = None
        for orig, bound in self._guards.items():
            cond = values[orig] < bound
            mask = cond if mask is None else (mask & cond)
        # Row of every live (row, inner) element, in row-major order.
        if mask is None:
            live = np.full(rows, n_inner, dtype=np.int64)
            live_rows = np.repeat(np.arange(rows), n_inner)
        else:
            mask = np.broadcast_to(mask, shape)
            live = np.count_nonzero(mask, axis=1)
            live_rows = np.nonzero(mask)[0]

        n_refs = len(self.plans)
        counts = np.zeros((rows, n_refs), dtype=np.int64)
        per_ref = []
        for k, plan in enumerate(self.plans):
            elem = np.asarray(plan.element_index(values), dtype=np.int64)
            lines = (plan.base_bytes + elem * plan.dtype_size) // self.line_size
            if lines.ndim < 2 or lines.shape[1] == 1:
                # Constant over the innermost loop: one line per live visit.
                column = np.broadcast_to(lines.reshape(-1, 1), (rows, 1))[:, 0]
                kept_rows = np.nonzero(live)[0]
                kept = column[kept_rows]
            else:
                lines = np.broadcast_to(lines, shape)
                flat = lines.reshape(-1) if mask is None else lines[mask]
                # Keep a line unless it repeats its predecessor in the row.
                new = np.empty(flat.size, dtype=bool)
                new[:1] = True
                np.not_equal(flat[1:], flat[:-1], out=new[1:])
                new[1:] |= live_rows[1:] != live_rows[:-1]
                kept = flat[new]
                kept_rows = live_rows[new]
            counts[:, k] = np.bincount(kept_rows, minlength=rows)
            per_ref.append((kept, kept_rows))

        # Interleave the references: visit by visit, refs in plan order.
        ends = np.cumsum(counts.reshape(-1)).reshape(rows, n_refs)
        starts = ends - counts
        out_lines = np.empty(int(ends[-1, -1]), dtype=np.int64)
        out_refs = np.empty(out_lines.size, dtype=np.int64)
        for k, (kept, kept_rows) in enumerate(per_ref):
            shift = starts[:, k] - (np.cumsum(counts[:, k]) - counts[:, k])
            pos = np.arange(kept.size, dtype=np.int64) + shift[kept_rows]
            out_lines[pos] = kept
            out_refs[pos] = k
        return TraceBlock(lines=out_lines, refs=out_refs, counts=counts, live=live)
