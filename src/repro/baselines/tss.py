"""TSS — "Tile Size Selection Revisited" (Mehta, Beeraka, Yew [14]).

The paper's Sec. 5.2 characterizes TSS as: reuse in the L1 **and** L2
caches, associativity taken into account, **no prefetching** — neither in
the miss model (cold misses stay at ``T / lc`` per row) nor in the
interference analysis (no prefetched-line padding, no halved L2).  This
module implements that model over the same structural search as the
proposed optimizer so the two differ *only* in prefetch awareness — which
is precisely the comparison Table 6 makes.

Because TSS (like TTS) "relies on the compiler in the back-end to find the
optimal loop order", :func:`tss_schedule` takes the loop order as an input;
the Table 6 experiment tries every permutation and keeps the best, exactly
as the paper did for these baselines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch import ArchSpec
from repro.core.costs import (
    extract_patterns,
    level1_misses,
    level2_misses,
    working_set_l1,
    working_set_l2,
)
from repro.core.standard import build_schedule
from repro.ir.analysis import analyze_func
from repro.ir.func import Func
from repro.ir.schedule import Schedule
from repro.obs.events import REASON_CAPACITY
from repro.obs.stats import CandidateCounter, CandidateStats
from repro.util import ceil_div, tile_candidates


@dataclass
class TileModelResult:
    """Tiles chosen by an analytical baseline model."""

    tiles: Dict[str, int]
    cost: float
    stats: CandidateStats


def _capacity_bound(arch: ArchSpec, level: int, dts: int) -> int:
    """Conflict-free row bound from capacity/associativity alone (TSS's
    interference reasoning, sans prefetch padding): one way's worth of
    rows of the array column, i.e. ``capacity / ways`` elements."""
    spec = arch.cache_level(level)
    return max(1, spec.size // (spec.ways * dts))


def tss_tiles(
    func: Func,
    arch: ArchSpec,
    *,
    exhaustive: bool = False,
) -> TileModelResult:
    """Select tile sizes with the TSS model (L1+L2 reuse, prefetch-blind)."""
    info = analyze_func(func)
    patterns = extract_patterns(info)
    dts = info.dtype_size
    lc = arch.lc(dts)

    all_vars = [v.name for v in info.definition.all_vars()]
    bounds = {v: func.bound_of(v) for v in all_vars}
    c = info.output.leading_var or all_vars[-1]
    others = [v for v in all_vars if v != c]

    l1_capacity = arch.cache_level(1).capacity_elements(dts)
    l2_capacity = arch.cache_level(2).capacity_elements(dts)
    a2 = arch.access_cost(2)
    a3 = arch.access_cost(3)

    best: Optional[Tuple[float, Dict[str, int]]] = None
    counter = CandidateCounter("tss")
    c_cands = tile_candidates(bounds[c], bounds[c], quantum=lc, exhaustive=exhaustive)
    c_cands = [t for t in c_cands if t >= 2]
    for t_c in c_cands:
        for d2, d3 in _pairs(others):
            d2_cands = (
                tile_candidates(bounds[d2], l1_capacity // max(1, t_c), exhaustive=exhaustive)
                if d2
                else [None]
            )
            d3_cands = (
                tile_candidates(bounds[d3], l2_capacity // max(1, t_c), exhaustive=exhaustive)
                if d3
                else [None]
            )
            rest = [v for v in others if v not in (d2, d3)]
            for t2 in d2_cands:
                for t3 in d3_cands:
                    tiles = {c: t_c}
                    if d2:
                        tiles[d2] = t2
                    if d3:
                        tiles[d3] = t3
                    for v in rest:
                        tiles[v] = 1
                    counter.considered()
                    chain = [v for v in (d3, d2) if v]
                    intra = (
                        ([chain[0]] if chain else []) + rest + chain[1:] + [c]
                    )
                    inter = [v for v in intra if v != c] + [c]
                    ws1 = working_set_l1(patterns, tiles, intra)
                    ws2 = working_set_l2(patterns, tiles, intra)
                    if ws1 > l1_capacity or ws2 > l2_capacity:
                        counter.pruned(REASON_CAPACITY)
                        continue
                    cost = a2 * level1_misses(
                        patterns, tiles, bounds, intra, lc, prefetch_aware=False
                    ) + a3 * level2_misses(
                        patterns,
                        tiles,
                        bounds,
                        intra,
                        inter,
                        lc,
                        prefetch_aware=False,
                    )
                    if best is None or cost < best[0]:
                        best = (cost, dict(tiles))
    if best is None:
        best = (float("inf"), {v: bounds[v] for v in all_vars})
    return TileModelResult(tiles=best[1], cost=best[0], stats=counter.stats)


def _pairs(others: Sequence[str]) -> List[Tuple[Optional[str], Optional[str]]]:
    if not others:
        return [(None, None)]
    if len(others) == 1:
        return [(others[0], None)]
    return list(itertools.permutations(others, 2))


def tss_schedule(
    func: Func,
    arch: ArchSpec,
    *,
    loop_order: Optional[Sequence[str]] = None,
    tiles: Optional[Dict[str, int]] = None,
) -> Schedule:
    """Build a schedule from TSS tiles and a given loop order.

    ``loop_order`` lists the original variables outermost-first for *both*
    tile levels; when omitted, the definition order is used (TSS leaves
    ordering to the compiler).
    """
    result_tiles = tiles or tss_tiles(func, arch).tiles
    info = analyze_func(func)
    all_vars = [v.name for v in info.definition.all_vars()]
    bounds = {v: func.bound_of(v) for v in all_vars}
    order = list(loop_order) if loop_order else all_vars
    inter = [v for v in order if ceil_div(bounds[v], result_tiles[v]) > 1]
    intra = [v for v in order if result_tiles[v] > 1]
    if not intra:
        intra = [order[-1]]
        result_tiles[order[-1]] = bounds[order[-1]]
    return build_schedule(
        func,
        arch,
        result_tiles,
        inter,
        intra,
        parallelize=True,
        vectorize=True,
        nontemporal=False,
    )
