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
from repro.core.temporal import _price_placement, optimize_temporal
from repro.frontend.corpus import CORPUS
from repro.ir import Buffer, Func, RVar, Var, float32
from repro.obs import NULL_TRACER, CandidateCounter, CollectingTracer
from repro.robust import exhaust_deadline, inject
from repro.util import Deadline, DeadlineExceeded, active_deadline

from tests.helpers import make_matmul

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE = DATA / "temporal_fast.json"
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
        got = _fast_results()
        if _REGEN:
            FIXTURE.write_text(json.dumps(got, indent=1) + "\n")
        expected = json.loads(FIXTURE.read_text())
        assert got.keys() == expected.keys()
        for key in expected:
            # Serialized, so the key order of ``tiles`` and of the
            # ``stats`` pruned breakdown is compared too.
            assert json.dumps(got[key]) == json.dumps(expected[key]), key

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


class TestDeadlinePerBlock:
    """The search probes the deadline once per placement block."""

    def _search(self, tracer=None):
        func, _, _ = make_matmul(64)
        with active_deadline(Deadline(60.0)):
            with inject(exhaust_deadline("cost", n=2)):
                optimize_temporal(func, intel_i7_5930k(), tracer=tracer)

    def test_exhausted_deadline_raises_at_next_block(self):
        # The second priced block expires the budget; the probe before
        # the next block raises, well before the order step.
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
    # Six loops, five of them besides the column: 20 placements.
    (kernel,) = [k for k in CORPUS if k.name == "conv3x3"]
    return kernel.case(fast=True).funcs[0]


class TestOnePassPerPlacement:
    """Every column tile of a placement is priced in the same pass."""

    def _count(self, func):
        calls, passes = [], []

        def cost(*args):
            calls.append(args)
            return total_cost(*args)

        def price(*args):
            passes.append(_price_placement(*args))
            return passes[-1]

        with mock.patch.object(temporal, "total_cost", cost), mock.patch.object(
            temporal, "_price_placement", price
        ):
            optimize_temporal(func, intel_i7_5930k())
        return len(calls), passes

    @pytest.mark.parametrize(
        "make_func, placements, blocks",
        [(lambda: make_matmul(64)[0], 2, 12), (_conv3x3, 20, 60)],
        ids=["matmul64", "conv3x3"],
    )
    def test_one_cost_call_per_placement_with_a_valid_candidate(
        self, make_func, placements, blocks
    ):
        # ``blocks`` (column tile, placement) pairs: a search that priced
        # one block per call made 12 calls for matmul64 and 60 for
        # conv3x3, one per block.
        calls, passes = self._count(make_func())
        assert len(passes) == placements
        assert sum(len(p.offsets) - 1 for p in passes) == blocks
        assert calls == sum(1 for p in passes if p.winners)
        assert calls == placements


@st.composite
def _placement_cases(draw):
    """A random placement over ``_VARS`` (column ``i``) and capped
    ``d2``/``d3`` lattices for several column tiles."""
    patterns = [
        RefPattern(
            name=f"A{n}",
            dim_vars=tuple(
                draw(st.lists(st.sampled_from(_VARS + (None,)), min_size=1, max_size=3))
            ),
        )
        for n in range(draw(st.integers(1, 4)))
    ]
    c, others = _VARS[0], list(_VARS[1:])
    d2, d3 = draw(st.permutations(others))[:2]
    bounds = {v: draw(st.integers(1, 512)) for v in _VARS}
    # A column tile of one fails the vector-tile check.
    c_cands = draw(
        st.lists(
            st.sampled_from([1, 2, 3, 8, 16, 48, 128]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    capped = [
        [
            sorted(
                draw(
                    st.lists(
                        st.integers(1, bounds[v]), min_size=1, max_size=4, unique=True
                    )
                )
            )
            for v in (d2, d3)
        ]
        for _ in c_cands
    ]
    non_column = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    sizing = (
        draw(st.integers(16, 8192)),
        draw(st.integers(64, 65536)),
        draw(st.sampled_from([1, 4, 12])),
    )
    rest = [v for v in others if v not in (d2, d3)]
    return patterns, bounds, c, c_cands, d2, d3, capped, rest, non_column, sizing


class TestColumnTilesInOnePass:
    """Pricing several column tiles in one pass equals one pass each."""

    def _priced(self, arch, case, c_cands, capped):
        patterns, bounds, c, _, d2, d3, _, rest, non_column, sizing = case
        costs = []

        def cost(*args):
            costs.append(total_cost(*args))
            return costs[-1]

        with mock.patch.object(temporal, "total_cost", cost):
            placement = _price_placement(
                arch, patterns, bounds, c, c_cands, d2, d3, capped, rest,
                non_column, *sizing, 4,
            )
        return placement, [np.broadcast_to(out, placement.size) for out in costs]

    @given(
        case=_placement_cases(),
        arch=st.sampled_from([intel_i7_5930k(), arm_cortex_a15()]),
    )
    @settings(max_examples=100, deadline=None)
    def test_joint_pass_matches_pass_per_column_tile(self, case, arch):
        c_cands, capped = case[3], case[6]
        whole, whole_cost = self._priced(arch, case, c_cands, capped)
        for b, t_c in enumerate(c_cands):
            one, one_cost = self._priced(arch, case, [t_c], capped[b : b + 1])
            lo, hi = int(whole.offsets[b]), int(whole.offsets[b + 1])
            assert whole.codes[lo:hi].tolist() == one.codes.tolist()
            assert whole.ws1[lo:hi].tobytes() == one.ws1.tobytes()
            assert whole.ws2[lo:hi].tobytes() == one.ws2.tobytes()
            for v, tiles in one.tiles.items():
                assert whole.tiles[v][lo:hi].tolist() == tiles.tolist()
            if one_cost:
                assert whole_cost[0][lo:hi].tobytes() == one_cost[0].tobytes()
                cost, i = one.winners[0]
                assert whole.winners[b] == (cost, i + lo)
            else:
                assert b not in whole.winners
