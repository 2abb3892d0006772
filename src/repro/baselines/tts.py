"""TTS — TurboTiling (Mehta, Garg, Trivedi, Yew [15]).

Per the paper's Sec. 5.2 characterization: TTS "optimizes for L2 and L3
cache while taking advantage of hardware prefetching.  However, prefetching
is not considered in the analytical model and prefetched references are not
taken into account while estimating the number of cold misses".

Concretely, relative to TSS the reuse targets shift one level out:

* the intra-tile reuse loop keeps its working set within the **L2** cache
  (instead of L1) — prefetchers are trusted to cover the L1;
* the inter-tile reuse loop keeps the tile footprint within the (per-core
  share of the) **L3** cache — so the tiles come out *larger* than both
  TSS's and the proposed optimizer's;
* the cold-miss estimates remain prefetch-blind (``T / lc`` per row), and
  no interference emulation bounds the tiles — capacity only.

Like TSS, the loop order is an input (Table 6 tries all of them).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch import ArchSpec
from repro.baselines.tss import TileModelResult, _pairs
from repro.obs.events import REASON_CAPACITY
from repro.obs.stats import CandidateCounter
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
from repro.util import ceil_div, tile_candidates


def _l3_share_elements(arch: ArchSpec, dts: int) -> int:
    """Effective per-core last-level capacity TTS tiles against."""
    if arch.l3 is not None:
        return arch.l3.capacity_elements(dts) // max(1, arch.n_cores)
    # No L3 (ARM): the shared L2 is the last level.
    return arch.cache_level(2).capacity_elements(dts) // max(1, arch.n_cores)


def tts_tiles(
    func: Func,
    arch: ArchSpec,
    *,
    exhaustive: bool = False,
) -> TileModelResult:
    """Select tile sizes with the TurboTiling model (L2+L3 reuse)."""
    info = analyze_func(func)
    patterns = extract_patterns(info)
    dts = info.dtype_size
    lc = arch.lc(dts)

    all_vars = [v.name for v in info.definition.all_vars()]
    bounds = {v: func.bound_of(v) for v in all_vars}
    c = info.output.leading_var or all_vars[-1]
    others = [v for v in all_vars if v != c]

    l2_capacity = arch.cache_level(2).capacity_elements(dts)
    l3_capacity = _l3_share_elements(arch, dts)
    a3 = arch.access_cost(3)
    amem = arch.access_cost(4)

    best: Optional[Tuple[float, Dict[str, int]]] = None
    c_cands = tile_candidates(bounds[c], bounds[c], quantum=lc, exhaustive=exhaustive)
    c_cands = [t for t in c_cands if t >= 2]
    with CandidateCounter("tts") as counter:
        for t_c in c_cands:
            for d2, d3 in _pairs(others):
                d2_cands = (
                    tile_candidates(
                        bounds[d2], l2_capacity // max(1, t_c), exhaustive=exhaustive
                    )
                    if d2
                    else [None]
                )
                d3_cands = (
                    tile_candidates(
                        bounds[d3], l3_capacity // max(1, t_c), exhaustive=exhaustive
                    )
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
                        # Reuse one level out: the "L1" working set must fit
                        # L2, the tile footprint must fit the L3 share.
                        ws_inner = working_set_l1(patterns, tiles, intra)
                        ws_tile = working_set_l2(patterns, tiles, intra)
                        if ws_inner > l2_capacity or ws_tile > l3_capacity:
                            counter.pruned(REASON_CAPACITY)
                            continue
                        cost = a3 * level1_misses(
                            patterns, tiles, bounds, intra, lc, prefetch_aware=False
                        ) + amem * level2_misses(
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


def tts_schedule(
    func: Func,
    arch: ArchSpec,
    *,
    loop_order: Optional[Sequence[str]] = None,
    tiles: Optional[Dict[str, int]] = None,
) -> Schedule:
    """Build a schedule from TTS tiles and a given loop order."""
    result_tiles = tiles or tts_tiles(func, arch).tiles
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
