"""Algorithm 2: the temporal-reuse optimizer.

Step 1 (tiling) searches tile sizes and reuse-loop placements:

* the **column variable** ``c`` — the output's leading index — is fixed as
  the innermost intra-tile loop (it is what gets vectorized, and the paper
  excludes permutations with column indices outermost);
* the tile of ``c`` is bounded by the problem size ``Bc``; the tile of the
  second-innermost intra variable is bounded by the **L1 cache emulation**
  (Algorithm 1); the third-innermost by the **L2 emulation**; any further
  dimensions only by their problem size (exactly the bound ladder of the
  paper's pseudocode);
* every candidate is checked for working-set fit (Eqs. 1/6) and for the
  parallelism constraint (Eq. 13: the parallelized inter-tile loop must
  offer at least one iteration per hardware thread);
* the cost is Eq. 11 (``a2*C_L1 + a3*C_L2``) and the minimum wins.

Step 2 (ordering) enumerates the valid inter-tile and intra-tile
permutations for the winning tiles and picks the one minimizing the loop
distance ``C_order`` (Eq. 12), keeping the column constraint, the chosen
reuse loops, and the parallel loop outermost.

The search enumerates *placements* ``(L, d2, d3, M)`` — outermost intra,
second/third innermost intra, innermost inter — rather than raw
permutations, because the Step-1 cost depends only on those positions.
Each placement's tile grid (``d2 x d3 x rest`` tiles for one column tile)
is priced in one array pass: the :mod:`repro.core.costs` helpers accept
int64 tile arrays and compute every element exactly as a scalar call
would, the constraint masks are checked in the scalar order, and the
first strictly cheapest candidate in visit order wins.  Traced runs
replay one ``candidate.pruned`` event per rejected candidate from the
masks.  This keeps the optimizer in paper-reported runtime territory
(milliseconds for 3-D nests and for the 5-D convolution layer).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arch import ArchSpec
from repro.core.costs import (
    RefPattern,
    Tile,
    _ceil_div,
    extract_patterns,
    order_cost,
    total_cost,
    working_set_l1,
    working_set_l2,
)
from repro.core.emu import emu_l1, emu_l2
from repro.ir.analysis import StatementInfo, analyze_func
from repro.ir.func import Func
from repro.obs.events import (
    EVENT_CANDIDATE_PRUNED,
    EVENT_SEARCH_BOUND,
    REASON_CAPACITY,
    REASON_DEADLINE,
    REASON_EMU_BOUND,
    REASON_PARALLELISM,
    REASON_VECTOR_TILE,
)
from repro.obs.stats import CandidateCounter, CandidateStats
from repro.obs.tracer import current_tracer
from repro.util import DeadlineExceeded, ceil_div, checkpoint, tile_candidates


@dataclass
class TemporalResult:
    """Outcome of the temporal optimizer."""

    tiles: Dict[str, int]
    inter_order: List[str]   # outermost first
    intra_order: List[str]   # outermost first
    parallel_var: Optional[str]
    cost: float
    order_cost_value: float
    stats: CandidateStats
    ws_l1: float
    ws_l2: float

    def describe(self) -> str:
        tiles = ", ".join(f"T_{v}={t}" for v, t in sorted(self.tiles.items()))
        return (
            f"tiles: {tiles}; inter: {' > '.join(self.inter_order)}; "
            f"intra: {' > '.join(self.intra_order)}; parallel: "
            f"{self.parallel_var}; cost={self.cost:.3g}"
        )


def _column_vars(patterns: Sequence[RefPattern]) -> Set[str]:
    """Variables indexing the contiguous dimension of *any* array."""
    return {p.leading_var for p in patterns if p.leading_var is not None}


def _middle_candidates(bound: int) -> List[int]:
    """Coarse tile choices for dimensions beyond the emu-bounded three:
    fully inter-tile (1), fully intra-tile (bound), and a halfway point."""
    out = {1, bound}
    if bound >= 4:
        out.add(bound // 2)
    return sorted(out)


def _divisor_biased(candidates: List[int], bound: int) -> List[int]:
    """Prefer tile sizes dividing the bound (no remainder guards)."""
    exact = [t for t in candidates if bound % t == 0]
    return exact if len(exact) >= 3 else candidates


def optimize_temporal(
    func: Func,
    arch: ArchSpec,
    info: Optional[StatementInfo] = None,
    *,
    exhaustive: bool = False,
    use_emu: bool = True,
    order_step: bool = True,
    tracer=None,
) -> TemporalResult:
    """Run Algorithm 2 on the main definition of ``func``.

    ``use_emu`` and ``order_step`` are ablation switches: disabling the
    former replaces the Algorithm-1 interference bounds with plain
    capacity bounds (no prefetch/conflict awareness), disabling the latter
    skips Step 2 and keeps the structural loop order.  Both default to the
    paper's full method.

    ``tracer`` (default: the ambient :func:`repro.obs.current_tracer`)
    receives structured search telemetry — ``candidate.pruned`` events
    with machine-readable reasons, ``search.bound`` events for the
    Algorithm-1 lattice caps, and a ``temporal.search`` /
    ``temporal.order`` span pair.  The returned ``stats`` are identical
    with or without a recording tracer.
    """
    info = info or analyze_func(func)
    patterns = extract_patterns(info)
    dts = info.dtype_size
    lc = arch.lc(dts)

    all_vars = [v.name for v in info.definition.all_vars()]
    bounds = {v: func.bound_of(v) for v in all_vars}
    column = _column_vars(patterns)
    c = info.output.leading_var
    if c is None:
        raise ValueError(
            f"{func.name}: output has no leading variable; temporal "
            "optimization needs a contiguous output dimension"
        )

    others = [v for v in all_vars if v != c]
    non_column = [v for v in others if v not in column]
    if not non_column:
        # Degenerate: every variable indexes some contiguous dimension.
        non_column = others

    l1_spec = arch.cache_level(1)
    l2_spec = arch.cache_level(2)
    l1_capacity = l1_spec.capacity_elements(dts)
    l2_capacity = l2_spec.capacity_elements(dts) // 2  # paper's halved L2
    threads = arch.total_threads

    tracer = tracer if tracer is not None else current_tracer()
    traced = tracer.enabled
    counter = CandidateCounter("temporal", tracer)

    best: Optional[Tuple[float, Dict[str, int], str, str, float, float]] = None

    c_cands = _divisor_biased(
        tile_candidates(bounds[c], bounds[c], quantum=lc, exhaustive=exhaustive),
        bounds[c],
    )
    # The column tile becomes the vector loop: a tile of one is useless.
    c_cands = [t for t in c_cands if t >= 2] or [bounds[c]]

    # References that the column variable walks with a non-unit stride
    # (e.g. syrk's A[j][k]) conflict in the L1 like a transposed array's
    # rows do; bound the column tile with the cache emulation the same way
    # Algorithm 3 bounds the tile height.
    strided_cap = bounds[c]
    for p in patterns if use_emu else ():
        stride = p.stride_of(c)
        if c in p.vars and p.leading_var != c and stride > lc:
            cap = emu_l1(
                arch,
                row_width_elems=lc,
                row_stride_elems=stride,
                max_rows=bounds[c],
                dts=dts,
            )
            strided_cap = min(strided_cap, max(lc, cap))
    if strided_cap < bounds[c]:
        if traced:
            # Trace-only: tiles the emulation keeps out of the lattice.
            # These never reach constraint checking, so they are *not*
            # part of ``stats`` — the counts stay identical untraced.
            tracer.event(
                EVENT_SEARCH_BOUND,
                phase="temporal",
                var=c,
                bound=strided_cap,
                source="emu_l1",
            )
            for t in c_cands:
                if t > strided_cap:
                    tracer.event(
                        EVENT_CANDIDATE_PRUNED,
                        phase="temporal",
                        reason=REASON_EMU_BOUND,
                        var=c,
                        tile=t,
                        bound=strided_cap,
                    )
        c_cands = [t for t in c_cands if t <= strided_cap] or [
            min(strided_cap, bounds[c])
        ]

    # Placement choices: d2/d3 = 2nd/3rd innermost intra positions,
    # L = outermost intra (reuse loop), M = innermost inter (reuse loop).
    emu_excluded: Set[Tuple[str, int]] = set()
    with tracer.span("temporal.search", func=func.name):
        for t_c in c_cands:
            if use_emu:
                max_d2 = emu_l1(
                    arch,
                    row_width_elems=t_c,
                    row_stride_elems=bounds[c],
                    max_rows=max(bounds[v] for v in others) if others else 1,
                    dts=dts,
                )
                max_d3 = emu_l2(
                    arch,
                    row_width_elems=t_c,
                    row_stride_elems=bounds[c],
                    max_rows=max(bounds[v] for v in others) if others else 1,
                    dts=dts,
                )
            else:
                # Ablation: capacity-only bounds, no interference emulation.
                max_d2 = max(1, l1_capacity // max(1, t_c))
                max_d3 = max(1, l2_capacity // max(1, t_c))
            if traced:
                tracer.event(
                    EVENT_SEARCH_BOUND,
                    phase="temporal",
                    position="d2",
                    t_c=t_c,
                    bound=max_d2,
                    source="emu_l1" if use_emu else "capacity",
                )
                tracer.event(
                    EVENT_SEARCH_BOUND,
                    phase="temporal",
                    position="d3",
                    t_c=t_c,
                    bound=max_d3,
                    source="emu_l2" if use_emu else "capacity",
                )
            for d2, d3 in _placement_pairs(others):
                rest = [v for v in others if v not in (d2, d3)]
                if traced:
                    # Trace-only visibility into the lattice caps: tiles
                    # the Algorithm-1 bound keeps out of the candidate set
                    # (never evaluated, hence never in ``stats``).
                    for var, cap in ((d2, max_d2), (d3, max_d3)):
                        if not var or cap >= bounds[var]:
                            continue
                        full = _divisor_biased(
                            tile_candidates(
                                bounds[var], bounds[var], exhaustive=exhaustive
                            ),
                            bounds[var],
                        )
                        for t in full:
                            if t <= cap or (var, t) in emu_excluded:
                                continue
                            emu_excluded.add((var, t))
                            tracer.event(
                                EVENT_CANDIDATE_PRUNED,
                                phase="temporal",
                                reason=(
                                    REASON_EMU_BOUND
                                    if use_emu
                                    else REASON_CAPACITY
                                ),
                                var=var,
                                tile=t,
                                bound=cap,
                            )
                grid = {
                    v: _divisor_biased(
                        tile_candidates(bounds[v], cap, exhaustive=exhaustive),
                        bounds[v],
                    )
                    for v, cap in ((d2, max_d2), (d3, max_d3))
                    if v
                }
                grid.update((v, _middle_candidates(bounds[v])) for v in rest)
                # Cooperative deadline probe: Algorithm 2's search stays
                # interruptible once per placement block.
                try:
                    checkpoint("temporal tile search")
                except DeadlineExceeded:
                    if traced:
                        tracer.event(
                            EVENT_CANDIDATE_PRUNED,
                            phase="temporal",
                            reason=REASON_DEADLINE,
                        )
                    raise
                best = _search_block(
                    arch,
                    patterns,
                    bounds,
                    c,
                    t_c,
                    d2,
                    d3,
                    grid,
                    non_column,
                    l1_capacity,
                    l2_capacity,
                    threads,
                    dts,
                    counter,
                    traced,
                    best,
                )

    if best is None:
        # No candidate satisfied the fit/parallel constraints; fall back to
        # untransformed loops (tiles equal to bounds).
        tiles = dict(bounds)
        inter, intra = [], list(all_vars)
        return TemporalResult(
            tiles=tiles,
            inter_order=inter,
            intra_order=intra,
            parallel_var=None,
            cost=float("inf"),
            order_cost_value=0.0,
            stats=counter.stats,
            ws_l1=0.0,
            ws_l2=0.0,
        )

    cost, tiles, reuse_l, reuse_m, ws1, ws2 = best

    with tracer.span("temporal.order", func=func.name):
        inter_order, intra_order, corder = _order_step(
            tiles,
            bounds,
            all_vars,
            column,
            c,
            reuse_l,
            reuse_m,
            search=order_step,
        )
    parallel_var = inter_order[0] if inter_order else None
    return TemporalResult(
        tiles=tiles,
        inter_order=inter_order,
        intra_order=intra_order,
        parallel_var=parallel_var,
        cost=cost,
        order_cost_value=corder,
        stats=counter.stats,
        ws_l1=ws1,
        ws_l2=ws2,
    )


def _placement_pairs(others: Sequence[str]) -> List[Tuple[Optional[str], Optional[str]]]:
    """(d2, d3) choices: ordered pairs of distinct non-column... distinct
    variables for the emu-bounded second and third intra positions."""
    if not others:
        return [(None, None)]
    if len(others) == 1:
        return [(others[0], None)]
    return [
        (a, b) for a, b in itertools.permutations(others, 2)
    ]


#: Rejection reasons by grid code, in checking order (0: valid).
_REASONS = (None, REASON_PARALLELISM, REASON_VECTOR_TILE, REASON_CAPACITY)


def _search_block(
    arch: ArchSpec,
    patterns: Sequence[RefPattern],
    bounds: Dict[str, int],
    c: str,
    t_c: int,
    d2: Optional[str],
    d3: Optional[str],
    grid: Dict[str, List[int]],
    non_column: Sequence[str],
    l1_capacity: int,
    l2_capacity: int,
    threads: int,
    dts: int,
    counter: CandidateCounter,
    traced: bool,
    best: Optional[Tuple[float, Dict[str, int], str, str, float, float]],
) -> Optional[Tuple[float, Dict[str, int], str, str, float, float]]:
    """Check constraints and price one placement's whole tile grid.

    ``grid`` maps ``d2``, ``d3`` and the ``rest`` variables, in that
    order, to their tile candidates; their product in C order is the
    candidate-at-a-time visit order.  Each candidate is checked in the
    order parallelism (Eq. 13), vector tile, capacity (Eqs. 1/6) and
    priced with Eq. 11; the running ``best`` — ``(cost, tiles, L, M,
    wsL1, wsL2)`` — is replaced only by a strictly cheaper candidate, the
    first one in visit order.
    """
    # The cost is evaluated against the *structural* tiled nest of the
    # paper's derivation, independent of degenerate tile values (a tile of
    # one simply has a trivial intra loop there): intra-tile order
    # ``L=d3 > middles > d2 > c`` and inter-tile order ``... > cc`` — L1
    # reuse anchored at the outermost intra loop, L2 reuse at the column
    # variable's (innermost) inter-tile loop, exactly as in Listing 1.
    chain = [v for v in (d3, d2) if v]
    rest = [v for v in grid if v not in chain]
    reuse_l = chain[0] if chain else c
    intra_order = chain[:1] + rest + chain[1:] + [c]
    reuse_m = c
    inter_order = [v for v in intra_order if v != c] + [c]

    # One int64 array per grid variable, flattened in C order.
    shape = [len(cands) for cands in grid.values()]
    size = math.prod(shape)
    tiles: Dict[str, Tile] = {c: t_c}
    if grid:
        index = np.unravel_index(np.arange(size), shape)
        for (v, cands), ix in zip(grid.items(), index):
            tiles[v] = np.array(cands, dtype=np.int64)[ix]

    # The parallel loop: a non-column inter-tile loop subject to Eq. 13
    # (more than one tile iteration, and at least one per hardware thread).
    parallel = np.zeros(size, dtype=bool)
    for v in non_column:
        parallel |= _ceil_div(bounds[v], tiles[v]) >= max(2, threads)
    # A schedule also needs at least one non-trivial intra loop besides the
    # vector loop to anchor L1 reuse, unless the nest is two-deep.
    vector = t_c >= 2
    lc = arch.lc(dts)
    ws1 = working_set_l1(patterns, tiles, intra_order, lc)
    ws2 = working_set_l2(patterns, tiles, intra_order, lc)
    fits = (ws1 <= l1_capacity) & (ws2 <= l2_capacity)
    codes = np.where(~parallel, 1, np.where(not vector, 2, np.where(fits, 0, 3)))

    counter.considered(size)
    codes_list = codes.tolist()
    if traced:
        # Replay one event per rejected candidate, in visit order.
        for code, combo in zip(codes_list, itertools.product(*grid.values())):
            if code:
                counter.pruned(
                    _REASONS[code], tiles={c: t_c, **dict(zip(grid, combo))}
                )
    else:
        # Counter keeps first-seen order, so reasons are recorded in the
        # order the candidate-at-a-time search first met them.
        for code, n in Counter(codes_list).items():
            if code:
                counter.pruned(_REASONS[code], n)

    valid = np.flatnonzero(codes == 0)
    if not valid.size:
        return best
    # ``total_cost`` is the fault seam: a poisoned scalar broadcasts, and
    # ``argmin`` picks the first NaN if there is one.
    cost = np.broadcast_to(
        total_cost(arch, patterns, tiles, bounds, intra_order, inter_order, dts),
        size,
    )[valid]
    k = int(np.argmin(cost))
    if best is not None and not cost[k] < best[0]:
        return best
    i = int(valid[k])
    return (
        float(cost[k]),
        {c: t_c, **{v: int(tiles[v][i]) for v in grid}},
        reuse_l,
        reuse_m,
        float(np.broadcast_to(ws1, size)[i]),
        float(np.broadcast_to(ws2, size)[i]),
    )


def _order_step(
    tiles: Dict[str, int],
    bounds: Dict[str, int],
    all_vars: Sequence[str],
    column: Set[str],
    c: str,
    reuse_l: str,
    reuse_m: str,
    search: bool = True,
) -> Tuple[List[str], List[str], float]:
    """Step 2: choose the loop order minimizing C_order (Eq. 12).

    Inter-tile loops exist for variables with more than one tile trip;
    intra-tile loops for tiles larger than one.  Fixed positions: the
    column variable stays innermost intra, the chosen reuse loops stay at
    their reuse positions, and a parallelizable (non-column) variable with
    the most trips is kept outermost inter.
    """
    trips = {v: ceil_div(bounds[v], tiles[v]) for v in all_vars}
    inter_vars = [v for v in all_vars if trips[v] > 1]
    intra_vars = [v for v in all_vars if tiles[v] > 1]

    # Outermost inter loop: prefer non-column variables, largest trips —
    # this is the loop that gets parallelized.
    par_pool = [v for v in inter_vars if v not in column] or inter_vars
    par_var = max(par_pool, key=lambda v: trips[v]) if par_pool else None

    free_inter = [v for v in inter_vars if v not in (par_var, reuse_m)]
    free_intra = [
        v for v in intra_vars if v not in (reuse_l, c)
    ]

    best_cost = float("inf")
    best_inter: List[str] = []
    best_intra: List[str] = []
    m_tail = [reuse_m] if reuse_m in inter_vars and reuse_m != par_var else []
    l_head = [reuse_l] if reuse_l in intra_vars and reuse_l != c else []

    if not search:
        # Ablation: skip Step 2, keep the structural order.
        inter = ([par_var] if par_var else []) + free_inter + m_tail
        intra = l_head + free_intra + ([c] if c in intra_vars else [c])
        full = [(v, "inter") for v in inter] + [(v, "intra") for v in intra]
        return inter, intra, order_cost(full, tiles, bounds)

    for inter_mid in itertools.permutations(free_inter):
        inter = ([par_var] if par_var else []) + list(inter_mid) + m_tail
        checkpoint("temporal order search")
        for intra_mid in itertools.permutations(free_intra):
            intra = l_head + list(intra_mid) + [c]
            full = [(v, "inter") for v in inter] + [(v, "intra") for v in intra]
            cost = order_cost(full, tiles, bounds)
            if cost < best_cost:
                best_cost = cost
                best_inter = inter
                best_intra = intra
    if not best_intra:
        best_intra = [c]
    return best_inter, best_intra, best_cost
