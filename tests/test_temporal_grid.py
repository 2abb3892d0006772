"""Algorithm 2's array-priced tile grid, pinned against recorded goldens.

An array call of the cost helpers must equal one scalar call per grid
element bit for bit; that is checked on random patterns below.  The
goldens were recorded from the candidate-at-a-time search; the grid
pass must reproduce them exactly:

* ``data/temporal_fast.json`` — every fast-size ``BENCHMARKS`` and
  ``CORPUS`` stage's :func:`optimize_temporal` result on two platforms,
  plus a few edge searches the corpus does not reach:
  tiles (with their key order), loop orders, parallel loop, costs and
  working sets (as ``float.hex``), and the candidate stats;
* ``data/temporal_paper.json`` — the same record for every paper-size
  ``BENCHMARKS`` stage on the same two platforms: the largest searches
  (paper-size convlayer prices 322,848 candidates over 30 placements,
  many chunks) and the largest trip-count products;
* ``data/trace_doitgen16_a15.jsonl`` — the traced event stream of a
  kernel whose placements have a non-empty ``rest`` product: its
  ``emu`` and ``search.bound`` order and one ``candidate.pruned`` count
  per reason and search.

Regenerate deliberately, from a tree whose search you trust::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_temporal_grid.py -q
"""

import json
import os
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import arm_cortex_a15, intel_i7_5930k
from repro.bench import BENCHMARKS, make_benchmark
from repro.core import optimize
from repro.core.costs import (
    RefPattern,
    level1_misses,
    level2_misses,
    total_cost,
    working_set_l1,
    working_set_l2,
)
from repro.core import temporal
from repro.core.temporal import optimize_temporal
from repro.frontend.corpus import CORPUS
from repro.ir import Buffer, Func, RVar, Var, float32
from repro.obs import NULL_TRACER, CandidateCounter, CollectingTracer
from repro.robust import exhaust_deadline, inject
from repro.util import Deadline, DeadlineExceeded, active_deadline

from tests.helpers import make_matmul

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE = DATA / "temporal_fast.json"
PAPER_FIXTURE = DATA / "temporal_paper.json"
TRACE = DATA / "trace_doitgen16_a15.jsonl"

_REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))
_PLATFORMS = {"i7-5930k": intel_i7_5930k, "arm-a15": arm_cortex_a15}


def _hex(value: float) -> str:
    return float(value).hex()


def _record(result) -> dict:
    return {
        "tiles": [[var, tile] for var, tile in result.tiles.items()],
        "inter_order": result.inter_order,
        "intra_order": result.intra_order,
        "parallel_var": result.parallel_var,
        "cost": _hex(result.cost),
        "order_cost_value": _hex(result.order_cost_value),
        "ws_l1": _hex(result.ws_l1),
        "ws_l2": _hex(result.ws_l2),
        "stats": result.stats.to_dict(),
    }


def _matmul(ni: int, nj: int, nk: int) -> Func:
    i, j = Var("i"), Var("j")
    k = RVar("k", nk)
    a = Buffer("A", (ni, nk), float32)
    b = Buffer("B", (nk, nj), float32)
    out = Func("C")
    out[i, j] = 0.0
    out[i, j] = out[i, j] + a[i, k] * b[k, j]
    out.set_bounds({i: ni, j: nj})
    return out


#: Searches the corpus does not reach: a column extent of one (every
#: parallel candidate fails the vector-tile check before capacity), the
#: capacity-only ablation (capacity rejections seen before parallelism
#: ones) and the exhaustive tile lattice.
_EDGE_SEARCHES = {
    "matmul-64x1x4096": (lambda: _matmul(64, 1, 4096), {}),
    "matmul-4096x1x4096": (lambda: _matmul(4096, 1, 4096), {}),
    "matmul-512-no-emu": (lambda: _matmul(512, 512, 512), {"use_emu": False}),
    "matmul-2048x64-no-emu": (
        lambda: _matmul(2048, 64, 2048),
        {"use_emu": False},
    ),
    "matmul-48-exhaustive": (lambda: _matmul(48, 48, 48), {"exhaustive": True}),
}


def _fast_searches():
    """``(key, search)`` for every recorded search; ``search(tracer)``
    runs it with that tracer (``None`` for the ambient one)."""
    for platform, make_arch in _PLATFORMS.items():
        arch = make_arch()
        for name, (make_func, options) in _EDGE_SEARCHES.items():
            yield f"{platform}/edge/{name}", (
                lambda tracer, make_func=make_func, options=options, arch=arch:
                optimize_temporal(make_func(), arch, tracer=tracer, **options)
            )
        for kernel in BENCHMARKS + CORPUS:
            case = kernel.case(fast=True)
            for index, func in enumerate(case.funcs):
                key = f"{platform}/{kernel.family}/{kernel.name}/{index}"
                yield f"{key}:{func.name}", (
                    lambda tracer, func=func, arch=arch:
                    optimize_temporal(func, arch, tracer=tracer)
                )


def _fast_results() -> dict:
    return {key: _record(search(None)) for key, search in _fast_searches()}


def _paper_results() -> dict:
    """Every paper-size ``BENCHMARKS`` stage's record on both platforms."""
    out = {}
    for platform, make_arch in _PLATFORMS.items():
        arch = make_arch()
        for kernel in BENCHMARKS:
            for index, func in enumerate(kernel.case().funcs):
                key = f"{platform}/{kernel.family}/{kernel.name}/{index}"
                out[f"{key}:{func.name}"] = _record(optimize_temporal(func, arch))
    return out


def _check_records(got: dict, path: pathlib.Path) -> None:
    if _REGEN:
        path.write_text(json.dumps(got, indent=1) + "\n")
    expected = json.loads(path.read_text())
    assert got.keys() == expected.keys()
    for key in expected:
        # Serialized, so the key order of ``tiles`` and of the ``stats``
        # pruned breakdown is compared too.
        assert json.dumps(got[key]) == json.dumps(expected[key]), key


def _traced_doitgen_lines():
    """The event stream as JSON lines, keys in emission order."""
    func = make_benchmark("doitgen", n=16).funcs[0]
    with CollectingTracer() as tracer:
        optimize(func, arm_cortex_a15(), tracer=tracer)
    return [
        json.dumps(
            {k: v for k, v in payload.items() if k not in ("ts_ms", "elapsed_ms")},
            separators=(",", ":"),
        )
        for payload in tracer.events
    ]


class TestRecordedSearch:
    def test_fast_stages_match_fixture(self):
        _check_records(_fast_results(), FIXTURE)

    def test_paper_stages_match_fixture(self):
        _check_records(_paper_results(), PAPER_FIXTURE)

    def test_nonempty_rest_trace_matches_golden(self):
        lines = _traced_doitgen_lines()
        if _REGEN:
            TRACE.write_text("".join(line + "\n" for line in lines))
        golden = TRACE.read_text().splitlines()
        # The placements of doitgen's Sum stage leave one loop in ``rest``;
        # each search reports its rejections once per reason.
        searches = {}
        for payload in map(json.loads, golden):
            if payload["kind"] == "span_begin" and payload["name"].endswith(
                ".search"
            ):
                reasons = searches.setdefault(payload["seq"], [])
            elif payload["name"] == "candidate.pruned":
                reasons.append(payload["attrs"]["reason"])
        assert searches and any(searches.values())
        for reasons in searches.values():
            assert len(reasons) == len(set(reasons))
        assert lines == golden


class TestOnePathOneAnswer:
    """A traced search runs the untraced search's accounting path."""

    def test_traced_sweep_matches_untraced_and_counts_per_reason(self):
        for key, search in _fast_searches():
            untraced = search(None)
            with CollectingTracer() as tracer:
                traced = search(tracer)
            assert json.dumps(_record(traced)) == json.dumps(
                _record(untraced)
            ), key
            stats = traced.stats
            pruned = [
                e["attrs"] for e in tracer.events
                if e["name"] == "candidate.pruned"
            ]
            # One event per reason, in ``stats.pruned`` key order.
            assert [(a["reason"], a["count"]) for a in pruned] == list(
                stats.pruned.items()
            ), key
            counters = tracer.counters()
            assert counters["temporal.candidates"] == stats.considered, key
            for reason, n in stats.pruned.items():
                assert counters[f"temporal.pruned.{reason}"] == n, key


_VARS = ("i", "j", "k", "l")


@st.composite
def _pricing_cases(draw):
    """Random patterns, a placement and a tile grid over ``_VARS``."""
    patterns = [
        RefPattern(
            name=f"A{n}",
            dim_vars=tuple(
                draw(st.lists(st.sampled_from(_VARS + (None,)), min_size=1, max_size=3))
            ),
        )
        for n in range(draw(st.integers(1, 4)))
    ]
    intra = draw(st.permutations(_VARS))
    inter = draw(st.permutations(_VARS))
    bounds = {v: draw(st.integers(1, 512)) for v in _VARS}
    size = draw(st.integers(1, 12))
    # Some loop variables vary over the grid, the rest keep one Python int.
    tiles = {
        v: (
            np.array(
                draw(st.lists(st.integers(1, bounds[v]), min_size=size, max_size=size)),
                dtype=np.int64,
            )
            if draw(st.booleans())
            else draw(st.integers(1, bounds[v]))
        )
        for v in _VARS
    }
    return patterns, intra, inter, bounds, tiles, size


def _element(tiles, index):
    return {
        v: int(t[index]) if isinstance(t, np.ndarray) else t
        for v, t in tiles.items()
    }


class TestArrayPricing:
    """One array call == one scalar call per element, bit for bit."""

    @given(
        case=_pricing_cases(),
        lc=st.sampled_from([1, 4, 16]),
        arch=st.sampled_from([intel_i7_5930k(), arm_cortex_a15()]),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_call_matches_scalar_calls(self, case, lc, arch):
        patterns, intra, inter, bounds, tiles, size = case
        helpers = {
            "ws_l1": lambda t: working_set_l1(patterns, t, intra, lc),
            "ws_l2": lambda t: working_set_l2(patterns, t, intra, lc),
            "l1_blind": lambda t: level1_misses(
                patterns, t, bounds, intra, lc, prefetch_aware=False
            ),
            "l2_blind": lambda t: level2_misses(
                patterns, t, bounds, intra, inter, lc, prefetch_aware=False
            ),
            "cost": lambda t: total_cost(
                arch, patterns, t, bounds, intra, inter, 4
            ),
        }
        for name, helper in helpers.items():
            grid = np.broadcast_to(helper(tiles), size)
            for index in range(size):
                scalar = helper(_element(tiles, index))
                assert type(scalar) in (int, float), name
                assert float(grid[index]).hex() == float(scalar).hex(), name

    @given(
        case=_pricing_cases(),
        heads=st.data(),
        lc=st.sampled_from([1, 4, 16]),
        arch=st.sampled_from([intel_i7_5930k(), arm_cortex_a15()]),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_candidate_reuse_loops_match_scalar_calls(
        self, case, heads, lc, arch
    ):
        # Each candidate has its own L1 reuse loop; its scalar call puts
        # that loop outermost.  As in Algorithm 2, the array call gets
        # float64 tiles and their trip counts.
        patterns, intra, inter, bounds, tiles, size = case
        head = heads.draw(
            st.lists(st.sampled_from(intra), min_size=size, max_size=size)
        )
        reuse = {v: np.array([h == v for h in head]) for v in set(head)}
        floats = {v: np.broadcast_to(t, size).astype(float) for v, t in tiles.items()}
        trips = {v: np.ceil(bounds[v] / t) for v, t in floats.items()}
        grid = {
            "ws_l1": working_set_l1(patterns, floats, intra, lc, reuse=reuse),
            "l1": level1_misses(
                patterns, floats, bounds, intra, lc, reuse=reuse, trips=trips
            ),
            "cost": total_cost(
                arch, patterns, floats, bounds, intra, inter, 4,
                reuse=reuse, trips=trips,
            ),
        }
        for index in range(size):
            t = _element(tiles, index)
            order = [head[index]] + [v for v in intra if v != head[index]]
            scalar = {
                "ws_l1": working_set_l1(patterns, t, order, lc),
                "l1": level1_misses(patterns, t, bounds, order, lc),
                "cost": total_cost(arch, patterns, t, bounds, order, inter, 4),
            }
            for name, value in scalar.items():
                got = np.broadcast_to(grid[name], size)[index]
                assert float(got).hex() == float(value).hex(), name


class TestDeadlinePerBlock:
    """The search probes the deadline once per chunk of candidates."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        # matmul64's 588 candidates span three chunks.
        monkeypatch.setattr(temporal, "CHUNK_CANDIDATES", 200)

    def _search(self, tracer=None):
        func, _, _ = make_matmul(64)
        with active_deadline(Deadline(60.0)):
            with inject(exhaust_deadline("cost", n=2)):
                optimize_temporal(func, intel_i7_5930k(), tracer=tracer)

    def test_exhausted_deadline_raises_at_next_block(self):
        # The second priced chunk expires the budget; the probe before
        # the next chunk raises, well before the order step.
        with pytest.raises(DeadlineExceeded, match="temporal tile search"):
            self._search()

    def test_traced_run_records_deadline_event(self):
        with CollectingTracer() as tracer:
            with pytest.raises(DeadlineExceeded):
                self._search(tracer)
        pruned = [e for e in tracer.events if e["name"] == "candidate.pruned"]
        assert pruned[-1]["attrs"] == {
            "phase": "temporal",
            "reason": "deadline",
            "count": 1,
        }


class TestBulkCounting:
    def test_bulk_counts_match_one_call_per_candidate(self):
        bulk = CandidateCounter("temporal", NULL_TRACER)
        bulk.considered(5)
        bulk.pruned("capacity", 3)
        single = CandidateCounter("temporal", NULL_TRACER)
        for _ in range(5):
            single.considered()
        for _ in range(3):
            single.pruned("capacity")
        assert bulk.stats == single.stats

    def test_traced_bulk_counts_reach_tracer_counters(self):
        with CollectingTracer() as tracer:
            with CandidateCounter("temporal", tracer) as counter:
                counter.considered(4)
                counter.pruned("parallelism", 2)
                counter.pruned("parallelism", 1)
                # Nothing reaches the tracer before the search ends.
                assert tracer.counters() == {}
        assert tracer.counters() == {
            "temporal.candidates": 4,
            "temporal.pruned.parallelism": 3,
        }
        pruned = [e for e in tracer.events if e["name"] == "candidate.pruned"]
        assert [e["attrs"] for e in pruned] == [
            {"phase": "temporal", "reason": "parallelism", "count": 3}
        ]


def _conv3x3():
    # Six loops, five of them besides the column: 20 placements; at the
    # corpus measurement size, 34,830 candidates.
    (kernel,) = [k for k in CORPUS if k.name == "conv3x3"]
    return kernel.case().funcs[0]


def _recording_price(log):
    """``_Model.price``, appending each chunk's ``(codes, ws1, ws2,
    cost)`` to ``log``."""
    price = temporal._Model.price

    def recorded(model, tiles, trips, reuse):
        log.append(price(model, tiles, trips, reuse))
        return log[-1]

    return mock.patch.object(temporal._Model, "price", recorded)


class TestOneCostCallPerChunk:
    """Every column tile and placement is priced in one visit-ordered
    pass, one cost call per chunk."""

    @pytest.mark.parametrize(
        "make_func, candidates, chunks",
        [(lambda: make_matmul(64)[0], 588, 1), (_conv3x3, 34830, 3)],
        ids=["matmul64", "conv3x3"],
    )
    def test_one_cost_call_per_chunk_with_a_valid_candidate(
        self, make_func, candidates, chunks
    ):
        # Pricing one placement per call made 2 calls for matmul64 and
        # 20 for conv3x3.
        calls, priced = [], []

        def cost(*args, **kwargs):
            calls.append(args)
            return total_cost(*args, **kwargs)

        with mock.patch.object(temporal, "total_cost", cost), _recording_price(
            priced
        ):
            optimize_temporal(make_func(), intel_i7_5930k())
        assert len(priced) == chunks
        assert sum(len(codes) for codes, *_ in priced) == candidates
        assert len(calls) == sum(1 for *_, cost in priced if cost is not None)
        assert len(calls) == chunks


class TestDeadlineProbes:
    def test_at_most_one_chunk_is_priced_between_probes(self):
        # Deadline probes (None) and priced chunks (their sizes), in order.
        events = []
        probe, price = CandidateCounter.checkpoint, temporal._Model.price

        def checkpoint(counter, stage):
            events.append(None)
            probe(counter, stage)

        def priced(model, tiles, trips, reuse):
            events.append(len(tiles[model.c]))
            return price(model, tiles, trips, reuse)

        with mock.patch.object(
            CandidateCounter, "checkpoint", checkpoint
        ), mock.patch.object(temporal._Model, "price", priced):
            result = optimize_temporal(_conv3x3(), intel_i7_5930k())
        assert events[0] is None and events[-1] is None
        between, run = [], 0
        for event in events[1:]:
            if event is None:
                between.append(run)
                run = 0
            else:
                run += event
        assert sum(between) == result.stats.considered == 34830
        assert max(between) <= temporal.CHUNK_CANDIDATES


_BLOCK_VARS = ("j", "k", "l")


@st.composite
def _search_cases(draw):
    """Random patterns over ``_VARS`` (column ``i``) and a search's tile
    choices: column tiles, drawn ``d2``/``d3`` lattices per column tile,
    every placement of ``j, k, l`` and their middle choices."""
    patterns = [
        RefPattern(
            name=f"A{n}",
            dim_vars=tuple(
                draw(st.lists(st.sampled_from(_VARS + (None,)), min_size=1, max_size=3))
            ),
        )
        for n in range(draw(st.integers(1, 4)))
    ]
    bounds = {v: draw(st.integers(1, 512)) for v in _VARS}
    # A column tile of one fails the vector-tile check.
    c_cands = draw(
        st.lists(
            st.sampled_from([1, 2, 3, 8, 16, 48, 128]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    lattice = st.lists(st.integers(1, 512), min_size=1, max_size=3, unique=True)
    lattices = [
        {
            v: (
                sorted(draw(lattice)),
                sorted(draw(lattice)),
                temporal._middle_candidates(bounds[v]),
            )
            for v in _BLOCK_VARS
        }
        for _ in c_cands
    ]
    model = temporal._Model(
        arch=draw(st.sampled_from([intel_i7_5930k(), arm_cortex_a15()])),
        patterns=patterns,
        bounds=bounds,
        c="i",
        loops=list(_BLOCK_VARS) + ["i"],
        non_column=draw(
            st.lists(st.sampled_from(_BLOCK_VARS), min_size=1, unique=True)
        ),
        l1_capacity=draw(st.integers(16, 8192)),
        l2_capacity=draw(st.integers(64, 65536)),
        threads=draw(st.sampled_from([1, 4, 12])),
        dts=4,
    )
    return c_cands, lattices, model


def _pass(c_cands, lattices, placements, model, counter=None):
    """One visit-ordered pass; returns the winner and every chunk's
    ``(codes, ws1, ws2, cost)``."""
    candidates = temporal._Candidates.build(
        "i", c_cands, lattices, placements, model.bounds
    )
    priced = []
    with _recording_price(priced):
        best = temporal._search(
            candidates, model, counter or CandidateCounter("temporal", NULL_TRACER)
        )
    return best, priced


class TestChunkedVisitOrderPass:
    """One chunked pass over a search equals pricing each (column tile,
    placement) block alone."""

    @given(
        case=_search_cases(),
        # Chunks of one candidate, chunks that split blocks, one chunk.
        chunk=st.one_of(
            st.just(1), st.integers(2, 100), st.just(temporal.CHUNK_CANDIDATES)
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunked_pass_matches_pricing_each_block_alone(self, case, chunk):
        c_cands, lattices, model = case
        placements = temporal._placement_pairs(list(_BLOCK_VARS))
        counter = CandidateCounter("temporal", NULL_TRACER)
        with mock.patch.object(temporal, "CHUNK_CANDIDATES", chunk):
            best, priced = _pass(c_cands, lattices, placements, model, counter)
        assert all(len(codes) <= chunk for codes, *_ in priced)
        whole = [
            np.concatenate([np.asarray(out[n]) for out in priced])
            for n in range(3)
        ]
        # A chunk without a valid candidate makes no cost call.
        whole.append(
            np.concatenate(
                [
                    np.full(len(codes), np.nan) if cost is None else cost
                    for codes, _, _, cost in priced
                ]
            )
        )
        expected, lo, totals, first = None, 0, {}, {}
        for t_c, lattice in zip(c_cands, lattices):
            for placement in placements:
                one, ((codes, ws1, ws2, cost),) = _pass(
                    [t_c], [lattice], [placement], model
                )
                hi = lo + len(codes)
                assert whole[0][lo:hi].tolist() == codes.tolist()
                assert whole[1][lo:hi].tobytes() == ws1.tobytes()
                assert whole[2][lo:hi].tobytes() == ws2.tobytes()
                if cost is not None:
                    valid = codes == 0
                    assert whole[3][lo:hi][valid].tobytes() == cost[valid].tobytes()
                if one is not None and (
                    expected is None or one.cost < expected.cost
                ):
                    expected = one._replace(index=one.index + lo)
                for code in np.unique(codes[codes > 0]).tolist():
                    first.setdefault(code, lo + int(np.argmax(codes == code)))
                    totals[code] = totals.get(code, 0) + int((codes == code).sum())
                lo = hi
        assert lo == len(whole[0]) == counter.stats.considered
        assert best == expected
        assert list(counter.stats.pruned.items()) == [
            (temporal._REASONS[code], totals[code])
            for code in sorted(first, key=first.get)
        ]
