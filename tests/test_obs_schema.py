"""Golden-file and validator tests for the ``repro-trace-v2`` schema.

The golden file pins the *machine-readable contract*: the exact event
stream (minus wall-clock fields) a traced ``optimize(matmul-32)`` run
emits.  Any change to event names, pruning reasons, attribute keys or
emission order shows up as a diff here — bump :data:`TRACE_FORMAT` and
regenerate deliberately::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_obs_schema.py -q
"""

import json
import os
import pathlib

from repro.arch import intel_i7_5930k
from repro.core import optimize
from repro.obs import (
    PRUNE_REASONS,
    TRACE_FORMAT,
    CollectingTracer,
    read_trace,
    validate_event,
    validate_trace,
)

from tests.helpers import make_matmul

GOLDEN = pathlib.Path(__file__).parent / "data" / "trace_matmul32.jsonl"

#: Wall-clock fields differ run to run; everything else is deterministic.
_VOLATILE = ("ts_ms", "elapsed_ms")


def _normalize(events):
    out = []
    for payload in events:
        payload = dict(payload)
        for key in _VOLATILE:
            payload.pop(key, None)
        out.append(payload)
    return out


def _traced_matmul_events():
    func, _, _ = make_matmul(32)
    with CollectingTracer() as tracer:
        optimize(func, intel_i7_5930k(), tracer=tracer)
    return _normalize(tracer.events)


class TestGoldenTrace:
    def test_matches_golden_file(self):
        events = _traced_matmul_events()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(
                "".join(
                    json.dumps(e, sort_keys=True, separators=(",", ":"))
                    + "\n"
                    for e in events
                )
            )
        golden = [
            json.loads(line)
            for line in GOLDEN.read_text().splitlines()
            if line.strip()
        ]
        assert events == golden, (
            "traced optimize(matmul-32) no longer matches the golden "
            "event stream; if the change is intentional, regenerate with "
            "REPRO_REGEN_GOLDEN=1 (and bump TRACE_FORMAT if the layout "
            "changed incompatibly)"
        )

    def test_golden_file_is_schema_valid(self):
        golden, problems = read_trace(str(GOLDEN))
        assert problems == []
        # golden records drop ts_ms/elapsed_ms, so validate them
        # per-record rather than via the span_end elapsed check
        for payload in golden:
            if payload["kind"] == "span_end":
                payload = dict(payload, elapsed_ms=0.0)
            assert validate_event(payload) is None

    def test_live_trace_is_schema_valid(self):
        func, _, _ = make_matmul(32)
        with CollectingTracer() as tracer:
            optimize(func, intel_i7_5930k(), tracer=tracer)
        assert validate_trace(tracer.events) == []

    def test_pruned_events_carry_machine_readable_reasons(self):
        # n=256: large enough for Algorithm 1 to cap the tile lattice
        func, _, _ = make_matmul(256)
        with CollectingTracer() as tracer:
            optimize(func, intel_i7_5930k(), tracer=tracer)
        pruned = [
            e for e in tracer.events
            if e["kind"] == "event" and e["name"] == "candidate.pruned"
        ]
        assert pruned, "a matmul search must prune candidates"
        for payload in pruned:
            assert payload["attrs"]["reason"] in PRUNE_REASONS
            assert isinstance(payload["attrs"]["phase"], str)
            assert payload["attrs"]["count"] >= 1
        # the emu-driven lattice caps appear as search.bound events
        bounds = [
            e["attrs"] for e in tracer.events
            if e["kind"] == "event" and e["name"] == "search.bound"
        ]
        assert bounds
        for attrs in bounds:
            assert isinstance(attrs["bound"], int) and attrs["bound"] >= 1
            assert attrs["source"] in ("emu_l1", "emu_l2")
        assert any(a["bound"] < 256 for a in bounds)


class TestValidateEvent:
    def _ok(self, **over):
        payload = {
            "format": TRACE_FORMAT,
            "seq": 0,
            "ts_ms": 1.0,
            "kind": "event",
            "name": "e",
            "attrs": {},
        }
        payload.update(over)
        return payload

    def test_accepts_minimal_record(self):
        assert validate_event(self._ok()) is None

    def test_rejects_non_object(self):
        assert "not an object" in validate_event([1, 2])

    def test_rejects_missing_key(self):
        payload = self._ok()
        del payload["attrs"]
        assert "missing required key" in validate_event(payload)

    def test_rejects_wrong_format(self):
        assert "format" in validate_event(self._ok(format="repro-trace-v0"))
        assert "format" in validate_event(self._ok(format="repro-trace-v1"))

    def test_rejects_bad_seq(self):
        assert validate_event(self._ok(seq=-1)) is not None
        assert validate_event(self._ok(seq="3")) is not None
        assert validate_event(self._ok(seq=True)) is not None

    def test_rejects_non_increasing_seq(self):
        assert "does not increase" in validate_event(
            self._ok(seq=3), prev_seq=3
        )
        assert validate_event(self._ok(seq=4), prev_seq=3) is None

    def test_rejects_unknown_kind(self):
        assert "unknown kind" in validate_event(self._ok(kind="metric"))

    def test_rejects_empty_name(self):
        assert validate_event(self._ok(name="")) is not None

    def test_rejects_bad_attrs(self):
        assert validate_event(self._ok(attrs=[])) is not None
        assert validate_event(self._ok(attrs={1: "x"})) is not None

    def test_rejects_negative_ts(self):
        assert validate_event(self._ok(ts_ms=-0.5)) is not None

    def test_span_end_needs_elapsed_and_counters(self):
        assert "elapsed_ms" in validate_event(self._ok(kind="span_end"))
        assert validate_event(
            self._ok(kind="span_end", elapsed_ms=1.0, counters={"c": 1})
        ) is None
        assert "counters" in validate_event(
            self._ok(kind="span_end", elapsed_ms=1.0, counters={"c": "x"})
        )

    def test_pruned_event_needs_known_reason_and_phase(self):
        bad = self._ok(
            name="candidate.pruned",
            attrs={"reason": "vibes", "phase": "temporal"},
        )
        assert "not machine-readable" in validate_event(bad)
        missing_phase = self._ok(
            name="candidate.pruned", attrs={"reason": "capacity"}
        )
        assert "phase" in validate_event(missing_phase)
        good = self._ok(
            name="candidate.pruned",
            attrs={"reason": "capacity", "phase": "temporal", "count": 3},
        )
        assert validate_event(good) is None

    def test_pruned_event_needs_positive_integer_count(self):
        for count in (None, 0, -2, 1.5, "3", True):
            attrs = {"reason": "capacity", "phase": "temporal"}
            if count is not None:
                attrs["count"] = count
            payload = self._ok(name="candidate.pruned", attrs=attrs)
            assert "'count'" in validate_event(payload), count

    def test_emu_bound_is_no_longer_a_prune_reason(self):
        assert "emu_bound" not in PRUNE_REASONS
        payload = self._ok(
            name="candidate.pruned",
            attrs={"reason": "emu_bound", "phase": "temporal", "count": 1},
        )
        assert "not machine-readable" in validate_event(payload)


class TestReadTrace:
    def test_tolerates_corrupt_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "repro-trace-v1"}\nnot json\n\n')
        events, problems = read_trace(str(path))
        assert len(events) == 1
        assert len(problems) == 1 and "unparsable" in problems[0]

    def test_missing_file_is_a_problem_not_an_exception(self, tmp_path):
        events, problems = read_trace(str(tmp_path / "absent.jsonl"))
        assert events == []
        assert len(problems) == 1 and "cannot read" in problems[0]
