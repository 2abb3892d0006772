"""Tests for :mod:`repro.multistride` — model, planner, and classifier.

The expensive empirical facts (which strategy wins on which mef kernel)
live in the committed three-strategy table; here we pin the mechanics:
the feasibility arithmetic, the planner's innermost-serial-only rule,
schedule immutability, and the classifier's decision/trace contract.
One measurement-size decision (mef-mxv) is exercised end to end because
it is the family's canonical multistride win.
"""

from __future__ import annotations

import pytest

from repro.arch import intel_i7_5930k
from repro.cachesim.prefetch import StreamModelParams
from repro.core import optimize
from repro.core.standard import untransformed_schedule
from repro.frontend.corpus import corpus_kernel
from repro.ir.serialize import schedule_to_dict
from repro.multistride import (
    STRATEGY_MULTISTRIDE,
    STRATEGY_TILE,
    STREAM_CANDIDATES,
    TIE_MARGIN,
    choose_streams,
    covers_latency,
    decide_strategy,
    optimize_multistride,
    plan_multistride,
)
from repro.multistride.model import estimate
from repro.obs.events import EVENT_MULTISTRIDE

from tests.helpers import make_matmul


def _mef_func(name):
    return corpus_kernel(name).lower().funcs[-1]


class TestModel:
    def test_covers_latency_is_the_run_ahead_inequality(self):
        params = StreamModelParams()  # max_distance 20, latency 160
        assert not covers_latency(4.0, params)   # 20 * 4 = 80 < 160
        assert covers_latency(8.0, params)       # 20 * 8 = 160

    def test_estimate_arithmetic(self):
        est = estimate(
            4,
            extent=16384,
            strided_groups=1,
            constant_groups=1,
            min_stride_elems=1,
            dtype_size=4,
            line_size=64,
            params=StreamModelParams(),
        )
        assert est.chunk_iters == 4096
        assert est.active_engines == 1 * 4 + 1
        assert est.separation_lines == 4096 * 4 // 64
        assert est.fits_engines and est.fits_pages and est.feasible

    def test_choose_streams_takes_the_widest_feasible(self):
        # One strided group: K=8 fits the 8-engine pool only without a
        # constant group; with one, K=4 is the widest.
        best = choose_streams(
            extent=16384, strided_groups=1, constant_groups=1,
            min_stride_elems=1, dtype_size=4, line_size=64,
        )
        assert best.streams == 4
        # Two strided groups + a constant one: only K=2 fits (2*4+1 > 8).
        best = choose_streams(
            extent=8192, strided_groups=2, constant_groups=1,
            min_stride_elems=1, dtype_size=4, line_size=64,
        )
        assert best.streams == 2

    def test_choose_streams_infeasible_returns_none(self):
        # Chunks shorter than a page: sub-streams share prefetch pages.
        assert choose_streams(
            extent=96, strided_groups=1, constant_groups=0,
            min_stride_elems=1, dtype_size=4, line_size=64,
        ) is None
        # Engine pool overflow at every candidate width.
        assert choose_streams(
            extent=65536, strided_groups=9, constant_groups=0,
            min_stride_elems=1, dtype_size=4, line_size=64,
        ) is None

    def test_candidates_are_powers_of_two(self):
        assert STREAM_CANDIDATES == (2, 4, 8)


class TestPlanner:
    def test_plans_the_innermost_serial_loop(self, arch):
        func = _mef_func("mef-mxv")
        schedule = untransformed_schedule(func, arch)
        plan = plan_multistride(schedule, arch)
        assert plan is not None
        assert plan.streams == 2          # A-row + x strided, y constant
        assert plan.loop.startswith("k")  # the reduction stream
        assert plan.estimate.feasible
        assert "multistride" in plan.describe()

    def test_short_extents_are_infeasible(self, arch):
        func = corpus_kernel("mef-mxv").lower(fast=True).funcs[-1]
        schedule = untransformed_schedule(func, arch)
        assert plan_multistride(schedule, arch) is None

    def test_fixed_stream_count_still_checks_feasibility(self, arch):
        func = _mef_func("mef-mxv")
        schedule = untransformed_schedule(func, arch)
        assert plan_multistride(schedule, arch, streams=2) is not None
        # K=8 overflows the engine pool for this nest; forcing it must
        # not produce a thrashing rewrite.
        assert plan_multistride(schedule, arch, streams=8) is None

    def test_apply_never_mutates_the_input_schedule(self, arch):
        func = _mef_func("mef-mxv")
        schedule = untransformed_schedule(func, arch)
        before = schedule_to_dict(schedule)
        result = optimize_multistride(func, arch, schedule)
        assert result is not None
        rewritten, plan = result
        assert schedule_to_dict(schedule) == before
        assert rewritten is not schedule
        assert rewritten.stream_loops()   # the clone carries the rewrite

    def test_rowsum_gets_the_wide_count(self, arch):
        func = _mef_func("mef-rowsum")
        plan = plan_multistride(
            untransformed_schedule(func, arch), arch
        )
        assert plan is not None and plan.streams == 4


class _CapturingTracer:
    enabled = True

    def __init__(self):
        self.events = []

    def event(self, name, **attrs):
        self.events.append((name, attrs))


class TestClassifier:
    def test_tile_wins_by_identity_when_no_plan_exists(self, arch):
        func, _, _ = make_matmul(48)
        tile = optimize(func, arch).schedule
        decision = decide_strategy(func, arch, tile)
        assert decision.strategy == STRATEGY_TILE
        assert decision.schedule is tile          # the caller's object
        assert decision.streams is None
        assert dict(decision.costs) == {}         # unopposed: not priced

    def test_costs_mapping_is_read_only(self, arch):
        func, _, _ = make_matmul(48)
        tile = optimize(func, arch).schedule
        decision = decide_strategy(func, arch, tile)
        with pytest.raises(TypeError):
            decision.costs["tile"] = 0.0

    def test_mxv_is_the_canonical_multistride_win(self, arch):
        func = _mef_func("mef-mxv")
        tile = optimize(func, arch).schedule
        tracer = _CapturingTracer()
        decision = decide_strategy(func, arch, tile, tracer=tracer)
        assert decision.strategy == STRATEGY_MULTISTRIDE
        assert decision.streams == 2
        assert decision.costs[STRATEGY_MULTISTRIDE] < (
            decision.costs[STRATEGY_TILE] * (1.0 - TIE_MARGIN)
        )
        assert decision.schedule is not tile
        assert decision.schedule.stream_loops()
        assert decision.describe() == (
            "multistride (k_vo x2) [tile 5.7682 ms, multistride 1.9568 ms]"
        )
        names = [name for name, _ in tracer.events]
        assert EVENT_MULTISTRIDE in names
        attrs = dict(tracer.events[names.index(EVENT_MULTISTRIDE)][1])
        assert attrs["strategy"] == STRATEGY_MULTISTRIDE
        assert attrs["func"] == func.name
        assert "cost_tile" in attrs

    def test_unopposed_decision_reads_as_such(self, arch):
        func, _, _ = make_matmul(48)
        tile = optimize(func, arch).schedule
        tracer = _CapturingTracer()
        decision = decide_strategy(func, arch, tile, tracer=tracer)
        assert decision.describe() == "tile (unopposed)"
        (attrs,) = [a for n, a in tracer.events if n == EVENT_MULTISTRIDE]
        assert attrs["strategy"] == STRATEGY_TILE
        assert not [key for key in attrs if key.startswith("cost_")]

    def test_optimize_hook_routes_through_the_classifier(self, arch):
        func = _mef_func("mef-mxv")
        off = optimize(func, arch)
        assert off.multistride is None            # default stays legacy
        on = optimize(func, arch, multistride="auto")
        assert on.multistride is not None
        assert on.schedule is on.multistride.schedule
        assert on.multistride.strategy == STRATEGY_MULTISTRIDE


class TestSimulationCount:
    """The classifier simulates only contested decisions, one run per
    candidate; an unopposed incumbent wins without a simulation."""

    @pytest.fixture
    def runs(self, monkeypatch):
        import repro.sim.machine as machine_mod

        calls = []
        real = machine_mod.run_nests

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(machine_mod, "run_nests", counting)
        return calls

    def test_unopposed_incumbent_is_not_simulated(self, arch, runs):
        func, _, _ = make_matmul(48)
        tile = optimize(func, arch).schedule
        decision = decide_strategy(func, arch, tile)
        assert decision.strategy == STRATEGY_TILE
        assert len(runs) == 0

    def test_optimize_auto_on_an_unopposed_kernel_runs_no_simulation(
        self, arch, runs
    ):
        func, _, _ = make_matmul(48)
        result = optimize(func, arch, multistride="auto")
        assert result.multistride.strategy == STRATEGY_TILE
        assert len(runs) == 0

    def test_contested_decision_prices_each_candidate_once(self, arch, runs):
        func = _mef_func("mef-mxv")
        tile = optimize(func, arch).schedule
        decision = decide_strategy(func, arch, tile)
        assert len(runs) == len(decision.costs) == 2
        # Bit-equal to the costs recorded before unopposed decisions
        # stopped being priced: contested pricing is unchanged.
        assert dict(decision.costs) == {
            STRATEGY_TILE: 5.768189460777814,
            STRATEGY_MULTISTRIDE: 1.9567779164549022,
        }
