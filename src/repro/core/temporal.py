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
The Algorithm-1 caps of every column tile are computed first; then the
search makes one pass per placement, covering every column tile: the
``d2 x d3 x rest`` tile grids of all column tiles are concatenated into
int64 arrays and priced in one call.  The :mod:`repro.core.costs`
helpers compute every element exactly as a scalar call would, the
constraint masks are checked in the scalar order, and the passes are
merged in the candidate-at-a-time visit order (column tile outer,
placement inner), so the first strictly cheapest candidate in that order
wins.  Traced runs replay the same order's telemetry — each column
tile's ``emu`` events, its ``search.bound`` caps and one
``candidate.pruned`` event per rejected candidate — from the masks.
This keeps the optimizer in paper-reported runtime territory
(milliseconds for 3-D nests and for the 5-D convolution layer).
"""

from __future__ import annotations

import contextlib
import itertools
import math
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
from repro.obs.tracer import CollectingTracer, activate_tracer, current_tracer
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

    The tile search makes one pass per placement, covering every column
    tile, and probes the cooperative deadline before each pass and once
    after the last; one pass is one call of the ``cost`` fault seam
    (``total_cost``), made only when some candidate of the pass is valid.
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
    lattice: Dict[Tuple[str, int], List[int]] = {}

    def tile_lattice(var: str, cap: int) -> List[int]:
        """``var``'s tile candidates under ``cap``, built once per search."""
        key = (var, cap)
        if key not in lattice:
            lattice[key] = _divisor_biased(
                tile_candidates(bounds[var], cap, exhaustive=exhaustive),
                bounds[var],
            )
        return lattice[key]

    def probe() -> None:
        # Cooperative deadline probe: Algorithm 2's search stays
        # interruptible once per placement pass.
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

    with tracer.span("temporal.search", func=func.name):
        # The Algorithm-1 caps of every column tile come first.  Traced,
        # each tile's emu telemetry goes to a side log that the replay
        # below forwards at the tile's candidate-at-a-time position.
        max_rows = max((bounds[v] for v in others), default=1)
        collect = traced and current_tracer().enabled
        caps: List[Tuple[int, int]] = []
        emu_logs: List[Optional[CollectingTracer]] = []
        for t_c in c_cands:
            log = CollectingTracer() if collect else None
            with activate_tracer(log) if log is not None else contextlib.nullcontext():
                if use_emu:
                    max_d2 = emu_l1(
                        arch,
                        row_width_elems=t_c,
                        row_stride_elems=bounds[c],
                        max_rows=max_rows,
                        dts=dts,
                    )
                    max_d3 = emu_l2(
                        arch,
                        row_width_elems=t_c,
                        row_stride_elems=bounds[c],
                        max_rows=max_rows,
                        dts=dts,
                    )
                else:
                    # Ablation: capacity-only bounds, no interference
                    # emulation.
                    max_d2 = max(1, l1_capacity // max(1, t_c))
                    max_d3 = max(1, l2_capacity // max(1, t_c))
            caps.append((max_d2, max_d3))
            emu_logs.append(log)

        passes: List[_PlacementPass] = []
        for d2, d3 in _placement_pairs(others):
            probe()
            passes.append(
                _price_placement(
                    arch,
                    patterns,
                    bounds,
                    c,
                    c_cands,
                    d2,
                    d3,
                    [
                        [
                            tile_lattice(v, cap)
                            for v, cap in ((d2, max_d2), (d3, max_d3))
                            if v
                        ]
                        for max_d2, max_d3 in caps
                    ],
                    [v for v in others if v not in (d2, d3)],
                    non_column,
                    l1_capacity,
                    l2_capacity,
                    threads,
                    dts,
                )
            )
        probe()

        # Merge in the candidate-at-a-time visit order — column tile
        # outer, placement inner — keeping the first strict minimum.
        # Traced, the same walk replays that order's telemetry.
        best: Optional[Tuple[float, _PlacementPass, int]] = None
        emu_excluded: Set[Tuple[str, int]] = set()
        for b, t_c in enumerate(c_cands):
            max_d2, max_d3 = caps[b]
            if traced:
                _forward(emu_logs[b], current_tracer())
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
            for placement in passes:
                if traced:
                    # Trace-only visibility into the lattice caps: tiles
                    # the Algorithm-1 bound keeps out of the candidate set
                    # (never evaluated, hence never in ``stats``).
                    for var, cap in (
                        (placement.d2, max_d2),
                        (placement.d3, max_d3),
                    ):
                        if not var or cap >= bounds[var]:
                            continue
                        for t in tile_lattice(var, bounds[var]):
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
                    placement.replay(counter, c, t_c, b)
                won = placement.winners.get(b)
                if won is not None and (best is None or won[0] < best[0]):
                    best = (won[0], placement, won[1])
        if not traced:
            counter.considered(sum(p.size for p in passes))
            for reason, n in _pruned_in_visit_order(passes):
                counter.pruned(reason, n)

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

    cost, placement, i = best
    tiles = placement.tiles_at(i)

    with tracer.span("temporal.order", func=func.name):
        inter_order, intra_order, corder = _order_step(
            tiles,
            bounds,
            all_vars,
            column,
            c,
            placement.reuse_l,
            c,
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
        ws_l1=float(placement.ws1[i]),
        ws_l2=float(placement.ws2[i]),
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


@dataclass
class _PlacementPass:
    """One ``(d2, d3)`` placement priced for every column tile at once.

    The flat candidate arrays hold one block per column tile, in
    ``c_cands`` order; block ``b`` spans ``offsets[b]:offsets[b + 1]``
    and lists the product of the ``grid`` variables' candidates for that
    column tile in C order, the candidate-at-a-time visit order.
    """

    d2: Optional[str]
    d3: Optional[str]
    reuse_l: str
    grid: List[str]
    offsets: np.ndarray
    tiles: Dict[str, np.ndarray]
    #: Per candidate: 0 valid, else an index into ``_REASONS``.
    codes: np.ndarray
    ws1: np.ndarray
    ws2: np.ndarray
    #: Block -> (cost, flat index) of its first cheapest valid candidate.
    winners: Dict[int, Tuple[float, int]]

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def tiles_at(self, i: int) -> Dict[str, int]:
        return {v: int(tiles[i]) for v, tiles in self.tiles.items()}

    def replay(self, counter: CandidateCounter, c: str, t_c: int, b: int) -> None:
        """Record block ``b`` candidate by candidate: one traced
        ``candidate.pruned`` event per rejection, in visit order."""
        lo, hi = int(self.offsets[b]), int(self.offsets[b + 1])
        counter.considered(hi - lo)
        codes = self.codes[lo:hi]
        rejected = np.flatnonzero(codes)
        columns = [self.tiles[v][lo:hi][rejected].tolist() for v in self.grid]
        for code, *tiles in zip(codes[rejected].tolist(), *columns):
            counter.pruned(
                _REASONS[code], tiles={c: t_c, **dict(zip(self.grid, tiles))}
            )


def _flat_grid(
    grids: List[List[List[int]]],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Concatenate the C-order products of several tile grids.

    ``grids[b][j]`` lists variable ``j``'s candidates in block ``b``.
    Returns the block offsets (``len(grids) + 1`` of them) and one int64
    array per variable over the concatenation.
    """
    shapes = [tuple(len(cands) for cands in grid) for grid in grids]
    offsets = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    columns = np.empty((len(shapes[0]), offsets[-1]), dtype=np.int64)
    for grid, shape, lo, hi in zip(
        grids, shapes, offsets.tolist(), offsets[1:].tolist()
    ):
        for j, cands in enumerate(grid):
            axis = [1] * len(shape)
            axis[j] = -1
            columns[j, lo:hi].reshape(shape)[...] = np.reshape(cands, axis)
    return offsets, list(columns)


def _price_placement(
    arch: ArchSpec,
    patterns: Sequence[RefPattern],
    bounds: Dict[str, int],
    c: str,
    c_cands: Sequence[int],
    d2: Optional[str],
    d3: Optional[str],
    capped: List[List[List[int]]],
    rest: Sequence[str],
    non_column: Sequence[str],
    l1_capacity: int,
    l2_capacity: int,
    threads: int,
    dts: int,
) -> _PlacementPass:
    """Check constraints and price one placement's tile grids, one per
    column tile, in a single array pass.

    ``capped[b]`` holds the emu-capped ``d2``/``d3`` candidates of column
    tile ``c_cands[b]``; the ``rest`` variables take their coarse
    choices.  Each candidate is checked in the order parallelism
    (Eq. 13), vector tile, capacity (Eqs. 1/6) and priced with Eq. 11.
    """
    # The cost is evaluated against the *structural* tiled nest of the
    # paper's derivation, independent of degenerate tile values (a tile of
    # one simply has a trivial intra loop there): intra-tile order
    # ``L=d3 > middles > d2 > c`` and inter-tile order ``... > cc`` — L1
    # reuse anchored at the outermost intra loop, L2 reuse at the column
    # variable's (innermost) inter-tile loop, exactly as in Listing 1.
    chain = [v for v in (d3, d2) if v]
    grid = [v for v in (d2, d3) if v] + list(rest)
    intra_order = chain[:1] + list(rest) + chain[1:] + [c]
    inter_order = [v for v in intra_order if v != c] + [c]

    middles = [_middle_candidates(bounds[v]) for v in rest]
    offsets, columns = _flat_grid([lists + middles for lists in capped])
    size = int(offsets[-1])
    tiles: Dict[str, Tile] = {
        c: np.repeat(np.array(c_cands, dtype=np.int64), np.diff(offsets)),
        **dict(zip(grid, columns)),
    }

    # The parallel loop: a non-column inter-tile loop subject to Eq. 13
    # (more than one tile iteration, and at least one per hardware thread).
    parallel = np.zeros(size, dtype=bool)
    for v in non_column:
        parallel |= _ceil_div(bounds[v], tiles[v]) >= max(2, threads)
    # A schedule also needs at least one non-trivial intra loop besides the
    # vector loop to anchor L1 reuse, unless the nest is two-deep.
    vector = tiles[c] >= 2
    lc = arch.lc(dts)
    ws1 = working_set_l1(patterns, tiles, intra_order, lc)
    ws2 = working_set_l2(patterns, tiles, intra_order, lc)
    fits = (ws1 <= l1_capacity) & (ws2 <= l2_capacity)
    codes = np.where(~parallel, 1, np.where(~vector, 2, np.where(fits, 0, 3)))

    winners: Dict[int, Tuple[float, int]] = {}
    valid = np.flatnonzero(codes == 0)
    if valid.size:
        # ``total_cost`` is the fault seam: a poisoned scalar broadcasts.
        cost = np.broadcast_to(
            total_cost(arch, patterns, tiles, bounds, intra_order, inter_order, dts),
            size,
        )[valid]
        # Each block's winner is what ``argmin`` over it would pick: the
        # first NaN if there is one, else the first minimum.
        block = np.searchsorted(offsets, valid, side="right") - 1
        order = np.lexsort((cost, ~np.isnan(cost), block))
        first = order[np.flatnonzero(np.diff(block[order], prepend=-1))]
        winners = {
            int(block[k]): (float(cost[k]), int(valid[k])) for k in first.tolist()
        }
    return _PlacementPass(
        d2=d2,
        d3=d3,
        reuse_l=chain[0] if chain else c,
        grid=grid,
        offsets=offsets,
        tiles=tiles,
        codes=codes,
        ws1=np.broadcast_to(ws1, size),
        ws2=np.broadcast_to(ws2, size),
        winners=winners,
    )


def _pruned_in_visit_order(
    passes: Sequence[_PlacementPass],
) -> List[Tuple[str, int]]:
    """Each rejection reason's total, ordered by where the
    candidate-at-a-time search (column tile outer, placement inner) first
    met it — the key order of ``CandidateStats.pruned``."""
    first: Dict[int, Tuple[int, int, int]] = {}
    totals: Dict[int, int] = {}
    for p, placement in enumerate(passes):
        codes = placement.codes
        counts = np.bincount(codes, minlength=len(_REASONS)).tolist()
        for code in range(1, len(_REASONS)):
            if not counts[code]:
                continue
            i = int(np.argmax(codes == code))
            b = int(np.searchsorted(placement.offsets, i, side="right")) - 1
            seen = (b, p, i - int(placement.offsets[b]))
            if code not in first or seen < first[code]:
                first[code] = seen
            totals[code] = totals.get(code, 0) + counts[code]
    return [(_REASONS[code], totals[code]) for code in sorted(first, key=first.get)]


def _forward(log: Optional[CollectingTracer], tracer) -> None:
    """Re-emit a side log's events and counter totals on ``tracer``."""
    if log is None:
        return
    for name, n in log.counters().items():
        tracer.count(name, n)
    for payload in log.events:
        tracer.event(payload["name"], **payload["attrs"])


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
