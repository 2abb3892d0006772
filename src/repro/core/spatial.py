"""Algorithm 3: the spatial-locality optimizer.

Used when the classifier finds *transposed* accesses but no temporal reuse
(Sec. 3.3).  The only reuse available is cache-line (self-spatial) reuse of
the transposed array's strided walk, so the tile is shaped to cooperate
with the streaming prefetchers:

* ``T_width`` tiles the output's column (leading) variable, ``T_height``
  the row variable;
* the height is upper-bounded by the **L2 cache emulation** (Algorithm 1)
  applied to the transposed array's column walk, so the strided rows plus
  their prefetched lines never conflict out of the cache;
* per-array partial costs follow Eqs. 15/17 — transposed arrays prefer
  ``T_width = lc`` (prefetching efficiency 1) and the maximum surviving
  height; contiguous arrays are indifferent;
* working sets (Eqs. 18/19) and the parallelism constraint (Eq. 13) filter
  candidates, and the minimum total cost wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch import ArchSpec
from repro.core.costs import (
    extract_patterns,
    spatial_partial_cost,
    spatial_working_sets,
)
from repro.core.emu import emu_l2
from repro.ir.analysis import StatementInfo, analyze_func
from repro.ir.func import Func
from repro.obs.events import (
    EVENT_CANDIDATE_PRUNED,
    EVENT_SEARCH_BOUND,
    REASON_CAPACITY,
    REASON_DEADLINE,
    REASON_EMU_BOUND,
    REASON_PARALLELISM,
)
from repro.obs.stats import CandidateCounter, CandidateStats
from repro.obs.tracer import current_tracer
from repro.util import DeadlineExceeded, ceil_div, checkpoint, tile_candidates


@dataclass
class SpatialResult:
    """Outcome of the spatial optimizer."""

    tiles: Dict[str, int]         # row var -> T_height, col var -> T_width
    row_var: str
    col_var: str
    parallel_var: Optional[str]
    cost: float
    stats: CandidateStats
    ws_l1: float
    ws_l2: float

    @property
    def tile_width(self) -> int:
        return self.tiles[self.col_var]

    @property
    def tile_height(self) -> int:
        return self.tiles[self.row_var]

    def describe(self) -> str:
        return (
            f"tile {self.tile_height}x{self.tile_width} "
            f"({self.row_var} x {self.col_var}); parallel: "
            f"{self.parallel_var}; cost={self.cost:.3g}"
        )


def optimize_spatial(
    func: Func,
    arch: ArchSpec,
    info: Optional[StatementInfo] = None,
    *,
    exhaustive: bool = False,
    use_emu: bool = True,
    order_step: bool = True,
    tracer=None,
) -> SpatialResult:
    """Run Algorithm 3 on the main definition of ``func``.

    The two innermost output dimensions are tiled (the paper's benchmarks
    are 2-D); outer dimensions, if any, are left untouched.

    ``use_emu`` mirrors Algorithm 2's ablation switch: when disabled the
    Algorithm-1 interference bound on the tile height is replaced by a
    plain halved-L2 capacity bound.  ``order_step`` is accepted for a
    keyword surface uniform with :func:`repro.core.optimize_temporal`
    but is a documented no-op — Algorithm 3 has no Step-2 ordering
    search (the tile shape fixes the order).  ``tracer`` (default: the
    ambient :func:`repro.obs.current_tracer`) receives
    ``candidate.pruned`` / ``search.bound`` events and a
    ``spatial.search`` span; the returned ``stats`` are identical with
    or without a recording tracer.
    """
    del order_step  # uniform keyword surface; no ordering step here
    info = info or analyze_func(func)
    patterns = extract_patterns(info)
    dts = info.dtype_size
    lc = arch.lc(dts)

    out_vars = [v for v in info.output.dim_vars if v is not None]
    if len(out_vars) < 2:
        raise ValueError(
            f"{func.name}: spatial optimization needs a 2-D (or deeper) "
            "output"
        )
    col = out_vars[-1]
    row = out_vars[-2]
    bounds = {v.name: func.bound_of(v.name) for v in info.definition.all_vars()}

    # The strided walk whose conflicts bound the tile height: the
    # transposed array is traversed along its row stride, which equals the
    # extent of the dimension the *output* iterates contiguously.
    transposed = info.transposed_inputs()
    row_stride = bounds[col]
    if transposed:
        lead = transposed[0].leading_var
        if lead is not None and lead in bounds:
            row_stride = bounds[lead]

    l1_capacity = arch.cache_level(1).capacity_elements(dts)
    l2_capacity = arch.cache_level(2).capacity_elements(dts) // 2
    threads = arch.total_threads
    n_arrays = len(patterns)

    width_cands = tile_candidates(
        bounds[col], bounds[col], quantum=lc, exhaustive=exhaustive
    )
    width_cands = [w for w in width_cands if w >= min(lc, bounds[col])]

    tracer = tracer if tracer is not None else current_tracer()
    traced = tracer.enabled
    counter = CandidateCounter("spatial", tracer)

    best: Optional[Tuple[float, int, int, float, float]] = None
    emu_excluded = set()
    with tracer.span("spatial.search", func=func.name):
        for t_w in width_cands:
            if use_emu:
                max_h = emu_l2(
                    arch,
                    row_width_elems=t_w,
                    row_stride_elems=row_stride,
                    max_rows=bounds[row],
                    dts=dts,
                )
            else:
                # Ablation: capacity-only bound, no interference emulation.
                max_h = max(1, l2_capacity // max(1, t_w))
            if traced:
                tracer.event(
                    EVENT_SEARCH_BOUND,
                    phase="spatial",
                    var=row,
                    t_w=t_w,
                    bound=max_h,
                    source="emu_l2" if use_emu else "capacity",
                )
                # Trace-only: heights the bound keeps out of the lattice
                # (never evaluated, hence never in ``stats``).
                if max_h < bounds[row]:
                    for t in tile_candidates(
                        bounds[row], bounds[row], exhaustive=exhaustive
                    ):
                        if t <= max_h or (row, t) in emu_excluded:
                            continue
                        emu_excluded.add((row, t))
                        tracer.event(
                            EVENT_CANDIDATE_PRUNED,
                            phase="spatial",
                            reason=(
                                REASON_EMU_BOUND if use_emu else REASON_CAPACITY
                            ),
                            var=row,
                            tile=t,
                            bound=max_h,
                        )
            height_cands = tile_candidates(
                bounds[row], max_h, exhaustive=exhaustive
            )
            for t_h in height_cands:
                # Cooperative deadline probe: Algorithm 3's search must stay
                # interruptible per candidate.
                try:
                    checkpoint("spatial tile search")
                except DeadlineExceeded:
                    if traced:
                        tracer.event(
                            EVENT_CANDIDATE_PRUNED,
                            phase="spatial",
                            reason=REASON_DEADLINE,
                        )
                    raise
                counter.considered()
                ws1, ws2 = spatial_working_sets(n_arrays, t_w, t_h, lc)
                if ws1 > l1_capacity or ws2 > l2_capacity:
                    counter.pruned(REASON_CAPACITY, t_w=t_w, t_h=t_h)
                    continue
                if ceil_div(bounds[row], t_h) < threads:
                    # Eq. 13 on the parallelized row loop
                    counter.pruned(REASON_PARALLELISM, t_w=t_w, t_h=t_h)
                    continue
                # Sum of per-array partial costs; the (contiguous) output
                # only adds a tile-independent constant, so including it is
                # harmless.
                cost = sum(
                    spatial_partial_cost(p, col, t_w, t_h, bounds, lc)
                    for p in patterns
                )
                if best is None or cost < best[0]:
                    best = (cost, t_w, t_h, ws1, ws2)

    if best is None:
        # Constraints rejected everything: degenerate single-line tiles.
        t_w = min(lc, bounds[col])
        best = (float("inf"), t_w, 1, 0.0, 0.0)

    cost, t_w, t_h, ws1, ws2 = best
    tiles = {row: t_h, col: t_w}
    return SpatialResult(
        tiles=tiles,
        row_var=row,
        col_var=col,
        parallel_var=row,
        cost=cost,
        stats=counter.stats,
        ws_l1=ws1,
        ws_l2=ws2,
    )
