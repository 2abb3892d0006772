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
permutations, because the Step-1 cost depends only on those positions,
and only through the L1 reuse loop ``L``: the L2 terms (Eqs. 6, 10) and
the parallelism check (Eq. 13) are the same for every placement.

The Algorithm-1 caps of every column tile are computed first.  Then the
whole search is one visit-ordered pass, in chunks: the candidates form
one flat array in the candidate-at-a-time visit order — column tile
outer, ``(d2, d3)`` placement inner, the C-order ``d2 x d3 x rest`` tile
grid innermost — and are priced ``CHUNK_CANDIDATES`` at a time, each
chunk in one :mod:`repro.core.costs` call with its candidates' reuse
loops.  The helpers compute every element exactly as a scalar call
would, the constraint masks are checked in the scalar order, and the
first strictly cheapest candidate in visit order wins.  Each variable's
tile choices and trip counts are stored once per lattice value and
gathered per chunk.  Traced and untraced runs share that one path: each
column tile's ``emu`` events and ``search.bound`` caps are recorded as
the caps are computed, and the rejections are counted per reason from
the masks (one ``candidate.pruned`` event per reason, with its count,
when the search ends).  This keeps the optimizer in paper-reported
runtime territory (milliseconds for 3-D nests and for the 5-D
convolution layer), traced or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arch import ArchSpec
from repro.core.costs import (
    RefPattern,
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
    EVENT_SEARCH_BOUND,
    REASON_CAPACITY,
    REASON_PARALLELISM,
    REASON_VECTOR_TILE,
)
from repro.obs.stats import CandidateCounter, CandidateStats
from repro.obs.tracer import current_tracer
from repro.util import ceil_div, checkpoint, tile_candidates


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
    receives structured search telemetry — one ``candidate.pruned``
    event per machine-readable reason, with its count, ``search.bound``
    events for the
    Algorithm-1 lattice caps, and a ``temporal.search`` /
    ``temporal.order`` span pair.  The returned ``stats`` are identical
    with or without a recording tracer.

    The tile search makes one visit-ordered pass over every column tile
    and placement, in chunks of at most ``CHUNK_CANDIDATES`` candidates,
    and probes the cooperative deadline before each chunk and once after
    the last; one chunk is one call of the ``cost`` fault seam
    (``total_cost``), made only when some candidate of the chunk is
    valid.
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
            # Tiles above the cap never enter the lattice, so they are
            # not part of ``stats``; the trace records the cap itself.
            tracer.event(
                EVENT_SEARCH_BOUND,
                phase="temporal",
                var=c,
                bound=strided_cap,
                source="emu_l1",
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

    with tracer.span("temporal.search", func=func.name), counter:
        # The Algorithm-1 caps of every column tile come first.
        max_rows = max((bounds[v] for v in others), default=1)
        caps: List[Tuple[int, int]] = []
        for t_c in c_cands:
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
                # Ablation: capacity-only bounds, no interference emulation.
                max_d2 = max(1, l1_capacity // max(1, t_c))
                max_d3 = max(1, l2_capacity // max(1, t_c))
            caps.append((max_d2, max_d3))
            if traced:
                for position, bound, source in (
                    ("d2", max_d2, "emu_l1"),
                    ("d3", max_d3, "emu_l2"),
                ):
                    tracer.event(
                        EVENT_SEARCH_BOUND,
                        phase="temporal",
                        position=position,
                        t_c=t_c,
                        bound=bound,
                        source=source if use_emu else "capacity",
                    )

        # One candidate array per search, in the candidate-at-a-time visit
        # order: column tile outer, placement inner, the tile grid inner.
        middles = {v: _middle_candidates(bounds[v]) for v in others}
        candidates = _Candidates.build(
            c,
            c_cands,
            [
                {
                    v: (tile_lattice(v, max_d2), tile_lattice(v, max_d3), middles[v])
                    for v in others
                }
                for max_d2, max_d3 in caps
            ],
            _placement_pairs(others),
            bounds,
        )
        model = _Model(
            arch=arch,
            patterns=patterns,
            bounds=bounds,
            c=c,
            loops=others + [c],
            non_column=non_column,
            l1_capacity=l1_capacity,
            l2_capacity=l2_capacity,
            threads=threads,
            dts=dts,
        )
        best = _search(candidates, model, counter)

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

    tiles, reuse_l = candidates.at(best.index)

    with tracer.span("temporal.order", func=func.name):
        inter_order, intra_order, corder = _order_step(
            tiles,
            bounds,
            all_vars,
            column,
            c,
            reuse_l,
            c,
            search=order_step,
        )
    parallel_var = inter_order[0] if inter_order else None
    return TemporalResult(
        tiles=tiles,
        inter_order=inter_order,
        intra_order=intra_order,
        parallel_var=parallel_var,
        cost=best.cost,
        order_cost_value=corder,
        stats=counter.stats,
        ws_l1=best.ws_l1,
        ws_l2=best.ws_l2,
    )


def _placement_pairs(
    others: Sequence[str],
) -> List[Tuple[Optional[str], Optional[str]]]:
    """``(d2, d3)`` choices: ordered pairs of distinct variables for the
    emu-bounded second- and third-innermost intra positions (``None``
    where the nest has too few variables besides the column)."""
    if not others:
        return [(None, None)]
    if len(others) == 1:
        return [(others[0], None)]
    return list(itertools.permutations(others, 2))


#: Most candidates priced in one array pass; the tile search probes the
#: deadline before each pass and once after the last.  Like
#: ``repro.core.emu.BLOCK_ELEMENTS``, it bounds the pass's temporaries.
CHUNK_CANDIDATES = 16_384

#: Rejection reasons by code, in checking order (0: valid).
_REASONS = (None, REASON_PARALLELISM, REASON_VECTOR_TILE, REASON_CAPACITY)


def _expand(
    base: np.ndarray, n: np.ndarray, inner: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """Indices into the stored tiles, one row per variable, of whole
    blocks: in block ``k``, variable ``j`` steps through the ``n[j, k]``
    tiles stored from ``base[j, k]``, keeping each for ``inner[j, k]``
    consecutive candidates, over the block's ``size[k]`` candidates."""
    base, n, inner = base.ravel(), n.ravel(), inner.ravel()
    outer = np.tile(size, len(n) // len(size)) // (n * inner)
    # One sweep of a variable through its tiles is a copy.
    copies = np.repeat(np.arange(len(n)), outer)
    lengths = n[copies]
    starts = np.cumsum(lengths) - lengths
    sweep = np.arange(starts[-1] + lengths[-1]) + np.repeat(
        base[copies] - starts, lengths
    )
    index = np.repeat(sweep, np.repeat(inner[copies], lengths))
    return index.reshape(-1, int(size.sum()))


@dataclass
class _Candidates:
    """A search's tile candidates, in the candidate-at-a-time visit
    order: column tile outer, placement inner, tile grid innermost.

    Block ``k`` — column tile ``k // P`` under placement ``k % P``, of
    ``P = len(grids)`` — spans ``offsets[k]:offsets[k + 1]``: the C-order
    product of the column tile and of the tile choices of its grid
    variables, ``grids[k % P]``.  Every tile lattice is stored once, in
    ``tiles``, with its trip counts ``ceil(B/T)``.  Nothing is stored per
    candidate: in block ``k``, variable ``variables[j]`` steps through
    the ``n[j, k]`` tiles stored from ``base[j, k]``, keeping each for
    ``inner[j, k]`` consecutive candidates.
    """

    grids: List[List[str]]
    offsets: np.ndarray
    variables: List[str]
    tiles: np.ndarray
    trips: np.ndarray
    base: np.ndarray
    n: np.ndarray
    inner: np.ndarray
    #: The L1 reuse loops, and each block's, as an index into them.
    loops: List[str]
    reuse: np.ndarray

    @classmethod
    def build(
        cls,
        c: str,
        c_cands: Sequence[int],
        lattices: Sequence[Dict[str, Tuple[List[int], ...]]],
        placements: Sequence[Tuple[Optional[str], Optional[str]]],
        bounds: Dict[str, int],
    ) -> "_Candidates":
        """The candidates of every column tile ``c_cands[b]`` and
        placement ``(d2, d3)``.

        ``lattices[b][v]`` holds the tile choices of every variable ``v``
        besides ``c`` under column tile ``b``'s caps: as ``d2``, as
        ``d3``, and elsewhere in the grid.
        """
        others = list(lattices[0])
        tiles: List[int] = []
        trips: List[int] = []
        stored: Dict[Tuple[str, Tuple[int, ...]], int] = {}

        def store(v: str, choices: Sequence[int]) -> Tuple[int, int]:
            key = (v, tuple(choices))
            if key not in stored:
                stored[key] = len(tiles)
                tiles.extend(choices)
                trips.extend(ceil_div(bounds[v], t) for t in choices)
            return stored[key], len(choices)

        shape = (len(placements), len(others))
        grids = [
            [v for v in (d2, d3) if v] + [v for v in others if v not in (d2, d3)]
            for d2, d3 in placements
        ]
        # Per placement and variable: which of its lattices the grid uses
        # (0: d2, 1: d3, 2: middle) and its grid position.
        kind = np.array(
            [
                [0 if v == d2 else 1 if v == d3 else 2 for v in others]
                for d2, d3 in placements
            ],
            dtype=np.int64,
        ).reshape(shape)
        position = np.array(
            [[grid.index(v) for v in others] for grid in grids], dtype=np.int64
        ).reshape(shape)
        # (base, n) per column tile, lattice kind and variable.
        stores = np.array(
            [
                [[store(v, lattice[v][k]) for v in others] for k in range(3)]
                for lattice in lattices
            ],
            dtype=np.int64,
        ).reshape(len(c_cands), 3, len(others), 2)
        base, n = np.moveaxis(stores[:, kind, np.arange(len(others))], -1, 0)
        # A variable's run is the product of the grid positions inside it.
        inside = position[:, None, :] > position[:, :, None]
        inner = np.where(inside, n[:, :, None, :], 1).prod(axis=-1)
        size = n.prod(axis=-1).ravel()
        first, _ = store(c, c_cands)
        column = np.repeat(np.arange(first, first + len(c_cands)), len(grids))
        # The structural tiled nest of the paper's derivation puts d3
        # outermost intra: the L1 reuse loop (Listing 1).
        reuse = [d3 or d2 or c for d2, d3 in placements]
        loops = list(dict.fromkeys(reuse))
        return cls(
            grids=grids,
            offsets=np.cumsum(np.append(0, size)),
            variables=[c] + others,
            tiles=np.array(tiles, dtype=float),
            trips=np.array(trips, dtype=float),
            base=np.vstack([column, base.reshape(size.size, -1).T]),
            n=np.vstack([np.ones_like(size), n.reshape(size.size, -1).T]),
            inner=np.vstack([size, inner.reshape(size.size, -1).T]),
            loops=loops,
            reuse=np.tile([loops.index(r) for r in reuse], len(c_cands)),
        )

    @property
    def size(self) -> int:
        return int(self.offsets[-1])

    def _index(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Candidates ``lo:hi``, rebuilt from the whole blocks they
        overlap: each variable's indices into ``tiles`` (one row per
        variable) and each candidate's reuse loop (into ``loops``)."""
        k0 = int(np.searchsorted(self.offsets, lo, side="right")) - 1
        k1 = int(np.searchsorted(self.offsets, hi, side="left"))
        size = np.diff(self.offsets[k0 : k1 + 1])
        keep = slice(lo - self.offsets[k0], hi - self.offsets[k0])
        index = _expand(
            self.base[:, k0:k1], self.n[:, k0:k1], self.inner[:, k0:k1], size
        )
        return index[:, keep], np.repeat(self.reuse[k0:k1], size)[keep]

    def chunk(self, lo: int, hi: int):
        """Candidates ``lo:hi``: tiles and tile trip counts per variable
        (float64, gathered) and their reuse loops as bool masks."""
        index, reuse = self._index(lo, hi)
        return (
            {v: self.tiles[row] for v, row in zip(self.variables, index)},
            {v: self.trips[row] for v, row in zip(self.variables, index)},
            {loop: reuse == k for k, loop in enumerate(self.loops)},
        )

    def at(self, i: int) -> Tuple[Dict[str, int], str]:
        """Candidate ``i``'s tiles, in its block's variable order (the
        column first), and its reuse loop."""
        index, (reuse,) = self._index(i, i + 1)
        tiles = dict(zip(self.variables, self.tiles[index[:, 0]]))
        k = int(np.searchsorted(self.offsets, i, side="right")) - 1
        order = self.variables[:1] + self.grids[k % len(self.grids)]
        return {v: int(tiles[v]) for v in order}, self.loops[reuse]


@dataclass(frozen=True)
class _Model:
    """What Step 1 checks and prices a candidate against."""

    arch: ArchSpec
    patterns: Sequence[RefPattern]
    bounds: Dict[str, int]
    c: str
    #: Every loop, the column last: the structural nest's tile loops
    #: (intra) and, with the column as L2 reuse loop, its inter loops.
    loops: List[str]
    non_column: Sequence[str]
    l1_capacity: int
    l2_capacity: int
    threads: int
    dts: int

    def price(self, tiles, trips, reuse):
        """Check and price one chunk of candidates.

        Returns per candidate the code (0 valid, else an index into
        ``_REASONS``; checked in the order parallelism (Eq. 13), vector
        tile, capacity (Eqs. 1/6)), the working sets, and the Eq. 11 cost
        — ``None`` when no candidate is valid.
        """
        # The cost is evaluated against the *structural* tiled nest of the
        # paper's derivation, independent of degenerate tile values (a tile
        # of one simply has a trivial intra loop there): L1 reuse anchored
        # at the placement's reuse loop, L2 reuse at the column variable's
        # (innermost) inter-tile loop, exactly as in Listing 1.  Only the
        # L1 terms (Eqs. 1, 4-5) depend on the placement.
        size = len(tiles[self.c])
        # The parallel loop: a non-column inter-tile loop subject to Eq. 13
        # (more than one tile iteration, and at least one per hardware
        # thread).
        parallel = np.zeros(size, dtype=bool)
        for v in self.non_column:
            parallel |= trips[v] >= max(2, self.threads)
        # A schedule also needs at least one non-trivial intra loop besides
        # the vector loop to anchor L1 reuse, unless the nest is two-deep.
        vector = tiles[self.c] >= 2
        lc = self.arch.lc(self.dts)
        ws1 = working_set_l1(self.patterns, tiles, self.loops, lc, reuse=reuse)
        ws2 = working_set_l2(self.patterns, tiles, self.loops, lc)
        fits = (ws1 <= self.l1_capacity) & (ws2 <= self.l2_capacity)
        codes = np.where(~parallel, 1, np.where(~vector, 2, np.where(fits, 0, 3)))
        cost = None
        if not codes.all():
            # ``total_cost`` is the fault seam: a poisoned scalar broadcasts.
            cost = np.broadcast_to(
                total_cost(
                    self.arch,
                    self.patterns,
                    tiles,
                    self.bounds,
                    self.loops,
                    self.loops,
                    self.dts,
                    reuse=reuse,
                    trips=trips,
                ),
                size,
            )
        return codes, np.broadcast_to(ws1, size), np.broadcast_to(ws2, size), cost


class _Best(NamedTuple):
    """The winning candidate: its visit index, cost and working sets."""

    index: int
    cost: float
    ws_l1: float
    ws_l2: float


def _search(
    candidates: _Candidates, model: _Model, counter: CandidateCounter
) -> Optional[_Best]:
    """Price the candidates in chunks of at most ``CHUNK_CANDIDATES``,
    probing the deadline before each chunk and once after the last.

    Returns the first strictly cheapest valid candidate in visit order
    (``argmin`` per chunk: the first NaN if there is one, else the first
    minimum), and counts each rejection reason in the order the visit
    first met it — the key order of ``CandidateStats.pruned``.
    """
    best: Optional[_Best] = None
    totals = np.zeros(len(_REASONS), dtype=np.int64)
    first: Dict[int, int] = {}
    for lo in range(0, candidates.size, CHUNK_CANDIDATES):
        counter.checkpoint("temporal tile search")
        hi = min(lo + CHUNK_CANDIDATES, candidates.size)
        codes, ws1, ws2, cost = model.price(*candidates.chunk(lo, hi))
        counts = np.bincount(codes, minlength=len(_REASONS))
        totals += counts
        for code in range(1, len(_REASONS)):
            if counts[code] and code not in first:
                first[code] = lo + int(np.argmax(codes == code))
        if cost is not None:
            valid = np.flatnonzero(codes == 0)
            k = int(valid[np.argmin(cost[valid])])
            if best is None or cost[k] < best.cost:
                best = _Best(lo + k, float(cost[k]), float(ws1[k]), float(ws2[k]))
    counter.checkpoint("temporal tile search")
    counter.considered(candidates.size)
    for code in sorted(first, key=first.get):
        counter.pruned(_REASONS[code], int(totals[code]))
    return best


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
