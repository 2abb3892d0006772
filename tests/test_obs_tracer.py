"""Tests for the tracer implementations (repro.obs.tracer)."""

import json
import time
import warnings

import pytest

from repro.arch import intel_i7_5930k
from repro.baselines.tss import tss_tiles
from repro.baselines.tts import tts_tiles
from repro.core import optimize
from repro.core.spatial import optimize_spatial
from repro.core.temporal import optimize_temporal
from repro.obs import (
    NULL_TRACER,
    CollectingTracer,
    JsonlTracer,
    NullTracer,
    activate_tracer,
    current_tracer,
)

from tests.helpers import make_copy, make_matmul


class TestCollectingTracer:
    def test_event_record_shape(self):
        tracer = CollectingTracer()
        tracer.event("thing.happened", value=3, label="x")
        (record,) = tracer.events
        assert record["format"] == "repro-trace-v1"
        assert record["kind"] == "event"
        assert record["name"] == "thing.happened"
        assert record["attrs"] == {"value": 3, "label": "x"}
        assert record["seq"] == 0
        assert record["ts_ms"] >= 0

    def test_seq_strictly_increases(self):
        tracer = CollectingTracer()
        for index in range(5):
            tracer.event("e", i=index)
        assert [r["seq"] for r in tracer.events] == [0, 1, 2, 3, 4]

    def test_span_brackets_and_counter_delta(self):
        tracer = CollectingTracer()
        tracer.count("outside")
        with tracer.span("work", shard=1):
            tracer.count("inside")
            tracer.count("inside")
        begin, end = tracer.events
        assert begin["kind"] == "span_begin" and begin["name"] == "work"
        assert begin["attrs"] == {"shard": 1}
        assert end["kind"] == "span_end" and end["name"] == "work"
        assert end["elapsed_ms"] >= 0
        # only counters that moved inside the span appear in the delta
        assert end["counters"] == {"inside": 2}

    def test_close_emits_totals(self):
        with CollectingTracer() as tracer:
            tracer.count("a", 2)
            tracer.count("b")
        totals = tracer.events[-1]
        assert totals["kind"] == "counters" and totals["name"] == "totals"
        assert totals["attrs"] == {"a": 2, "b": 1}

    def test_counters_snapshot_is_a_copy(self):
        tracer = CollectingTracer()
        tracer.count("n")
        snap = tracer.counters()
        snap["n"] = 99
        assert tracer.counters() == {"n": 1}


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.event("anything", x=1)
        tracer.count("anything")
        assert tracer.counters() == {}
        with tracer.span("scope", y=2) as inner:
            assert inner is None
        tracer.close()

    def test_span_object_is_shared(self):
        # the no-op span is one reusable object: no allocation per call
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")

    def test_context_manager(self):
        with NullTracer() as tracer:
            assert tracer.enabled is False

    def test_overhead_guard(self):
        """The guarded call-site pattern must stay cheap: ~a million
        ``enabled`` checks plus no-op dispatches in well under a second
        (generous bound; the real cost is tens of milliseconds)."""
        tracer = NULL_TRACER
        started = time.perf_counter()
        for _ in range(200_000):
            if tracer.enabled:
                tracer.event("never", detail="expensive")
            tracer.count("noop")
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0

    def test_optimize_identical_with_explicit_null_tracer(self, arch):
        base = optimize(make_matmul(32)[0], arch)
        nulled = optimize(make_matmul(32)[0], arch, tracer=NullTracer())
        # describe() embeds wall-clock; compare the deterministic parts
        assert base.schedule.describe() == nulled.schedule.describe()
        assert base.temporal.tiles == nulled.temporal.tiles
        assert base.temporal.cost == nulled.temporal.cost
        assert (
            base.temporal.stats.to_dict() == nulled.temporal.stats.to_dict()
        )


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_activate_and_restore(self):
        tracer = CollectingTracer()
        with activate_tracer(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_nested_none_mutes_outer(self):
        outer = CollectingTracer()
        with activate_tracer(outer):
            with activate_tracer(None):
                assert current_tracer() is NULL_TRACER
            assert current_tracer() is outer

    def test_ambient_tracer_reaches_optimize(self, arch):
        tracer = CollectingTracer()
        with activate_tracer(tracer):
            optimize(make_matmul(32)[0], arch)
        names = {r["name"] for r in tracer.events}
        assert "optimize" in names and "classify" in names


class TestJsonlTracer:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(str(path)) as tracer:
            tracer.event("e", n=1)
            with tracer.span("s"):
                tracer.count("c")
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == [
            "event", "span_begin", "span_end", "counters",
        ]
        assert records[-1]["attrs"] == {"c": 1}

    def test_records_dropped_after_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(str(path))
        tracer.event("before")
        tracer.close()
        tracer.event("after")  # silently dropped, no error
        tracer.close()  # idempotent
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["before", "totals"]

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            JsonlTracer(str(tmp_path / "no" / "such" / "dir" / "t.jsonl"))


class TestUnifiedSwitches:
    def test_use_nti_does_not_warn(self, arch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            optimize(make_matmul(32)[0], arch, use_nti=True)

    def test_optimize_accepts_and_forwards_use_emu(self, arch):
        func, _, _ = make_matmul(32)
        with CollectingTracer() as tracer:
            optimize(func, arch, use_emu=False, tracer=tracer)
        names = {r["name"] for r in tracer.events}
        assert "emu" not in names  # the ablation never invokes Algorithm 1

    def test_optimize_accepts_order_step(self, arch):
        func, _, _ = make_matmul(32)
        with_order = optimize(func, arch, order_step=True)
        without = optimize(make_matmul(32)[0], arch, order_step=False)
        assert with_order.schedule is not None
        assert without.schedule is not None

    def test_spatial_accepts_new_switches(self, arch):
        func, _ = make_copy(64)
        emu_on = optimize_spatial(func, arch, use_emu=True)
        emu_off = optimize_spatial(
            func, arch, use_emu=False, order_step=False
        )
        assert emu_on.tiles and emu_off.tiles

    def test_temporal_accepts_tracer_kwarg(self, arch):
        func, _, _ = make_matmul(32)
        tracer = CollectingTracer()
        result = optimize_temporal(func, arch, tracer=tracer)
        assert result.stats.considered > 0
        assert any(
            r["name"] == "candidate.pruned" for r in tracer.events
        )


class TestAmbientBaselineTracing:
    def test_tile_models_pick_up_ambient_tracer(self, arch):
        func, _, _ = make_matmul(32)
        tracer = CollectingTracer()
        with activate_tracer(tracer):
            tss_tiles(func, arch)
            tts_tiles(make_matmul(32)[0], arch)
        counters = tracer.counters()
        assert counters.get("tss.candidates", 0) > 0
        assert counters.get("tts.candidates", 0) > 0
