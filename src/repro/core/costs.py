"""The analytical cost equations of Sections 3.2 and 3.3, generalized.

The paper derives its equations on tiled matmul (Listing 1); this module
implements the same reasoning for an arbitrary perfect nest.  The key
modelling device is the **prefetch-aware cold-miss count** of a reference
footprint: with a streaming prefetcher, a row of ``T`` contiguous elements
costs *one* miss (Eq. 2 -> Eq. 3), so a footprint's misses equal its number
of *rows* when its leading dimension varies in the inner loops, and its
number of *elements* when it does not (strided walk).

Reuse structure (Sec. 3.2): L1 reuse is achieved at the **outermost
intra-tile loop** — references independent of that loop are loaded once per
tile instead of once per iteration (Eq. 4); L2 reuse is achieved at the
**innermost inter-tile loop** likewise (Eqs. 8–10).  The weighted total is
``C_total = a2 * C_L1 + a3 * C_L2`` (Eq. 11): an L1 miss is served by L2,
and an L2 miss by L3 — because the stride prefetchers keep those levels
populated — hence the weights are the L2 and L3 access times.

``order_cost`` is Eq. 12: for every original loop, the iteration distance
between its inter-tile and intra-tile levels (the product of the trip
counts of everything in between); minimizing it shortens reuse distances
and the strides the inter-tile prefetch streams see.

``spatial_partial_cost`` implements Eqs. 14–17: a transposed array's cost
shrinks with tile height and grows with tile width (its *prefetching
efficiency* is ``T_width / lc``), while contiguous arrays cost a constant
``B_total / lc`` — which is why the spatial optimizer picks cache-line-wide,
maximally tall tiles.

The Eq. 1–11 helpers (``working_set_l1/l2``, ``level1/2_misses``,
``total_cost`` and the ``_footprint_*`` terms beneath them) take a
``tiles`` mapping whose values are either Python ints or int64 arrays of
one shape: Algorithm 2 prices a whole tile grid in one call, and the
scalar callers (the TSS/TTS baselines, the tests) get Python numbers
back as before.  Each grid element is computed with the scalar
expression's own float64 operations in the same order — left-folded
products and sums, ``max(1.0, x)`` as ``np.maximum`` — so an array call
is bit-identical to one scalar call per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.arch import ArchSpec
from repro.ir.analysis import RefInfo, StatementInfo
from repro.util import ceil_div


@dataclass(frozen=True)
class RefPattern:
    """One *distinct* array access pattern of the statement.

    Multiple textual references with the same per-dimension variables (the
    read and the write of ``C[i][j]``, or a stencil's taps) occupy the same
    rows/lines, so the model counts them once — exactly as the paper counts
    arrays, not references, in Eqs. 1–10.

    ``var_strides`` records each variable's element stride through the
    array (row-major), which the optimizers feed to the cache-emulation
    bound for strided walks.
    """

    name: str
    dim_vars: Tuple[Optional[str], ...]
    var_strides: Tuple[Tuple[str, int], ...] = ()

    @property
    def vars(self) -> Set[str]:
        return {v for v in self.dim_vars if v is not None}

    @property
    def leading_var(self) -> Optional[str]:
        return self.dim_vars[-1]

    def stride_of(self, var: str) -> int:
        for name, stride in self.var_strides:
            if name == var:
                return stride
        return 0

    def __repr__(self) -> str:
        return f"RefPattern({self.name}[{','.join(v or '_' for v in self.dim_vars)}])"


def extract_patterns(info: StatementInfo) -> List[RefPattern]:
    """Distinct access patterns of a statement (output + inputs)."""
    seen: Dict[Tuple[str, Tuple[Optional[str], ...]], RefPattern] = {}
    refs: List[RefInfo] = [info.output] + info.inputs
    for ref in refs:
        key = (ref.name, ref.dim_vars)
        if key not in seen:
            strides = tuple(
                (v, abs(ref.stride_of(v))) for v in sorted(ref.index_vars)
            )
            seen[key] = RefPattern(
                name=ref.name, dim_vars=ref.dim_vars, var_strides=strides
            )
    return list(seen.values())


#: A tile size, or an int64 array of them (one per grid candidate).
Tile = Union[int, np.ndarray]


def _prod(values: Iterable[float]) -> float:
    out = 1.0
    for v in values:
        out *= v
    return out


def _at_least_one(x):
    """``max(1.0, x)``, elementwise over a tile array."""
    return np.maximum(1.0, x) if isinstance(x, np.ndarray) else max(1.0, x)


def _ceil_div(a: Tile, b: Tile) -> Tile:
    """``ceil(a / b)``, elementwise when either side is a tile array
    (``ceil_div`` checks scalar operands)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return -(-a // b)
    return ceil_div(a, b)


def _footprint_misses(
    pattern: RefPattern,
    varying: Set[str],
    tiles: Dict[str, Tile],
    lc: int,
    *,
    prefetch_aware: bool = True,
) -> float:
    """Cold misses of one footprint.

    ``varying`` is the set of loop variables that iterate *inside* the
    reuse loop.  With ``prefetch_aware`` (the paper's model, Eq. 3), the
    streaming prefetcher covers each contiguous row for one miss; without
    it (Eq. 2 — and the TSS/TTS baselines of Sec. 5.2), a row of ``T``
    elements costs ``ceil(T / lc)`` misses.  Strided walks (leading
    dimension not varying) pay one line per element either way.
    """
    active = [v for v in pattern.vars if v in varying]
    if not active:
        return 1.0
    leading = pattern.leading_var
    if leading in varying and leading in pattern.vars:
        rows = _at_least_one(_prod(tiles[v] for v in active if v != leading))
        if prefetch_aware:
            return rows
        return rows * _at_least_one(_ceil_div(tiles[leading], lc))
    return _prod(tiles[v] for v in active)


def _footprint_elements(
    pattern: RefPattern, varying: Set[str], tiles: Dict[str, Tile], lc: int
) -> float:
    """Cache footprint of one reference, in element-equivalents.

    A strided walk (leading dimension not varying) occupies a full cache
    line per element — the same charge the paper's Eq. 18 applies to the
    transposed array (``lc * Tx``)."""
    active = [v for v in pattern.vars if v in varying]
    if not active:
        return 1.0
    elements = _prod(tiles[v] for v in active)
    if pattern.leading_var in varying:
        return elements
    return elements * lc


# ---------------------------------------------------------------------------
# Working sets (Eqs. 1 and 6)
# ---------------------------------------------------------------------------


def working_set_l1(
    patterns: Sequence[RefPattern],
    tiles: Dict[str, Tile],
    intra_order: Sequence[str],
    lc: int = 1,
) -> float:
    """Element-equivalents live across one iteration of the outermost
    intra-tile loop (Eq. 1: ``Tj + Tk + Tj*Tk`` for matmul; strided
    footprints charged a line per element as in Eq. 18)."""
    inner = set(intra_order[1:])
    return sum(_footprint_elements(p, inner, tiles, lc) for p in patterns)


def working_set_l2(
    patterns: Sequence[RefPattern],
    tiles: Dict[str, Tile],
    intra_order: Sequence[str],
    lc: int = 1,
) -> float:
    """Element-equivalents live across one iteration of the innermost
    inter-tile loop — the whole tile footprint (Eq. 6)."""
    inner = set(intra_order)
    return sum(_footprint_elements(p, inner, tiles, lc) for p in patterns)


# ---------------------------------------------------------------------------
# Miss counts (Eqs. 5 and 10)
# ---------------------------------------------------------------------------


def level1_misses(
    patterns: Sequence[RefPattern],
    tiles: Dict[str, Tile],
    bounds: Dict[str, int],
    intra_order: Sequence[str],
    lc: int,
    *,
    prefetch_aware: bool = True,
) -> float:
    """Estimated L1 misses for the whole nest (Eq. 5 generalized).

    Reuse loop: the outermost intra-tile loop.  References independent of
    it are loaded once per tile; the rest re-stream every iteration.
    """
    reuse_var = intra_order[0]
    inner = set(intra_order[1:])
    per_tile = 0.0
    for p in patterns:
        per_iter = _footprint_misses(
            p, inner, tiles, lc, prefetch_aware=prefetch_aware
        )
        if reuse_var in p.vars:
            if reuse_var == p.leading_var:
                mult = _at_least_one(tiles[reuse_var] / lc)
            else:
                mult = tiles[reuse_var]
        else:
            mult = 1.0
        per_tile += per_iter * mult
    inter_iters = _prod(_ceil_div(bounds[v], tiles[v]) for v in intra_order)
    return per_tile * inter_iters


def level2_misses(
    patterns: Sequence[RefPattern],
    tiles: Dict[str, Tile],
    bounds: Dict[str, int],
    intra_order: Sequence[str],
    inter_order: Sequence[str],
    lc: int,
    *,
    prefetch_aware: bool = True,
) -> float:
    """Estimated L2 misses for the whole nest (Eq. 10 generalized).

    Reuse loop: the innermost inter-tile loop.  References independent of
    its variable keep their tile resident in L2 across its iterations.
    """
    reuse_var = inter_order[-1]
    all_intra = set(intra_order)
    per_block = 0.0
    reuse_trips = _ceil_div(bounds[reuse_var], tiles[reuse_var])
    for p in patterns:
        per_iter = _footprint_misses(
            p, all_intra, tiles, lc, prefetch_aware=prefetch_aware
        )
        mult = reuse_trips if reuse_var in p.vars else 1.0
        per_block += per_iter * mult
    outer_iters = _prod(_ceil_div(bounds[v], tiles[v]) for v in inter_order[:-1])
    return per_block * outer_iters


def total_cost(
    arch: ArchSpec,
    patterns: Sequence[RefPattern],
    tiles: Dict[str, Tile],
    bounds: Dict[str, int],
    intra_order: Sequence[str],
    inter_order: Sequence[str],
    dts: int,
) -> float:
    """Eq. 11: ``a2 * C_L1 + a3 * C_L2``.

    ``a2``/``a3`` are the L2/L3 access latencies (main memory standing in
    for a missing L3, as on the ARM A15) — the levels that actually serve
    those misses thanks to the stride prefetchers.
    """
    lc = arch.lc(dts)
    c_l1 = level1_misses(patterns, tiles, bounds, intra_order, lc)
    c_l2 = level2_misses(patterns, tiles, bounds, intra_order, inter_order, lc)
    return arch.access_cost(2) * c_l1 + arch.access_cost(3) * c_l2


# ---------------------------------------------------------------------------
# Loop-order cost (Eq. 12)
# ---------------------------------------------------------------------------


def order_cost(
    full_order: Sequence[Tuple[str, str]],
    tiles: Dict[str, int],
    bounds: Dict[str, int],
) -> float:
    """Eq. 12: total inter/intra-tile loop distance.

    ``full_order`` lists the final nest outermost-first as
    ``(original_var, "inter" | "intra")`` pairs.  A loop level's trip count
    is ``ceil(B/T)`` for inter-tile and ``T`` for intra-tile levels.  For
    each variable present at both levels, the cost contribution is the
    product of the trip counts of every loop strictly between them.
    """
    trips: List[float] = []
    position: Dict[Tuple[str, str], int] = {}
    for idx, (var, kind) in enumerate(full_order):
        if kind == "inter":
            trips.append(ceil_div(bounds[var], tiles[var]))
        elif kind == "intra":
            trips.append(tiles[var])
        else:
            raise ValueError(f"loop kind must be inter/intra, got {kind!r}")
        position[(var, kind)] = idx
    total = 0.0
    variables = {var for var, _ in full_order}
    for var in variables:
        if (var, "inter") in position and (var, "intra") in position:
            lo = position[(var, "inter")]
            hi = position[(var, "intra")]
            if hi < lo:
                lo, hi = hi, lo
            total += _prod(trips[lo + 1 : hi])
    return total


# ---------------------------------------------------------------------------
# Spatial model (Eqs. 14–19)
# ---------------------------------------------------------------------------


def spatial_partial_cost(
    pattern: RefPattern,
    output_leading: str,
    tile_width: int,
    tile_height: int,
    bounds: Dict[str, int],
    lc: int,
) -> float:
    """Per-array cost of the spatial optimizer (Eqs. 15/17).

    ``tile_width`` tiles the output's leading (column) variable;
    ``tile_height`` tiles the other one.  A *transposed* array — one whose
    own leading variable differs from the output's — pays the prefetching
    efficiency ``tile_width / lc`` on ``B_total / tile_height`` rows; a
    contiguous array degenerates to the constant ``B_total / lc``.
    """
    total_space = _prod(bounds[v] for v in pattern.vars) if pattern.vars else 1.0
    transposed = (
        pattern.leading_var is not None
        and pattern.leading_var != output_leading
        and output_leading in pattern.vars
    )
    if transposed:
        return (total_space / tile_height) * (tile_width / lc)
    return total_space / lc


def spatial_working_sets(
    n_arrays: int, tile_width: int, tile_height: int, lc: int
) -> Tuple[float, float]:
    """Eqs. 18/19: ``wsL1 = lc*Tx + Tx`` and ``wsL2 = n * Tx * Ty``.

    The L1 term charges the transposed array a full line per element of a
    tile-width stripe (its accesses are strided) plus the contiguous
    stripe.  The paper's two-array form uses ``2 * Tx * Ty``; we scale by
    the actual array count.
    """
    ws_l1 = float(lc * tile_width + tile_width)
    ws_l2 = float(max(2, n_arrays) * tile_width * tile_height)
    return ws_l1, ws_l2
