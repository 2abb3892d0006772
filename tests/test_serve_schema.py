"""Unit tests for the ``repro-serve-v1`` wire schema and metrics contract."""

import pytest

from repro.fleet.metrics import (
    FLEET_METRIC_COUNTERS,
    FleetMetrics,
    validate_fleet_metrics,
)
from repro.options import OptimizeOptions
from repro.serve import (
    METRICS_FORMAT,
    METRIC_COUNTERS,
    OPTION_KEYS,
    SERVE_FORMAT,
    ServeMetrics,
    build_request,
    coalesce_key,
    parse_request,
    validate_metrics,
)
from repro.serve.metrics import LATENCY_BOUNDS_MS, LatencyHistogram
from repro.util import ServeError


class TestRequestRoundTrip:
    def test_build_then_parse(self):
        wire = build_request("matmul", "i7-5930k", fast=True, use_nti=False)
        parsed = parse_request(wire)
        assert parsed.benchmark == "matmul"
        assert parsed.platform == "i7-5930k"
        assert parsed.fast is True
        assert parsed.options["use_nti"] is False
        assert parsed.options["parallelize"] is True  # default filled in

    def test_options_always_canonical(self):
        # A request with no options parses to the full defaults dict, so
        # fingerprints computed from it match the persistent cache's.
        parsed = parse_request(build_request("gemm", "i7-6700"))
        assert parsed.options == OptimizeOptions().cache_dict()

    def test_build_rejects_unknown_option(self):
        # jobs left the client surface in 2.0 (the wire keeps a no-op).
        for unknown in ("use_warp_drive", "jobs"):
            with pytest.raises(ServeError, match="unknown option"):
                build_request("matmul", "i7-5930k", **{unknown: True})

    def test_option_keys_are_the_cache_key_switches(self):
        # The wire surface is the six boolean cache-key switches plus the
        # optional multistride strategy (whose "off" default normalizes
        # out of the canonical dict, keeping old bodies byte-identical).
        defaults = OptimizeOptions().cache_dict()
        assert set(OPTION_KEYS) == set(defaults) | {"multistride"}


class TestParseRejections:
    def base(self, **overrides):
        wire = build_request("matmul", "i7-5930k")
        wire.update(overrides)
        return wire

    def test_wrong_format(self):
        with pytest.raises(ServeError, match="unsupported request format"):
            parse_request(self.base(format="repro-serve-v0"))

    def test_non_object(self):
        with pytest.raises(ServeError, match="JSON object"):
            parse_request([1, 2, 3])

    def test_unknown_field(self):
        with pytest.raises(ServeError, match="unknown request field"):
            parse_request(self.base(priority="high"))

    def test_non_bool_option(self):
        with pytest.raises(ServeError, match="must be a boolean"):
            parse_request(self.base(options={"use_nti": "yes"}))

    def test_bad_jobs(self):
        # jobs is a no-op on the wire, but malformed values still get
        # the 1.x rejection text (a 400 from the server).
        for jobs, message in (
            (-2, "jobs must be >= 0 (0 = auto), got -2"),
            (-1, "jobs must be >= 0 (0 = auto), got -1"),
            ("many", "jobs must be an integer >= 0 or 'auto', got 'many'"),
            (1.5, "jobs must be an integer >= 0 or 'auto', got 1.5"),
            (True, "jobs must be an integer >= 0 or 'auto', got True"),
        ):
            with pytest.raises(ServeError) as excinfo:
                parse_request(self.base(jobs=jobs))
            assert str(excinfo.value) == message

    def test_jobs_auto_accepted(self):
        # Accepted and ignored: the parsed request does not depend on it.
        plain = parse_request(self.base())
        for jobs in ("auto", 0, 4):
            assert parse_request(self.base(jobs=jobs)) == plain

    def test_bad_deadline(self):
        with pytest.raises(ServeError, match="deadline_ms"):
            parse_request(self.base(deadline_ms=-5))
        with pytest.raises(ServeError, match="deadline_ms"):
            parse_request(self.base(deadline_ms=True))


class TestCoalesceKey:
    def test_jobs_and_deadline_do_not_split_the_key(self):
        # The key covers only what determines the schedules.
        options = OptimizeOptions().cache_dict()
        key = coalesce_key(["fp1", "fp2"], "arch", options)
        assert key == coalesce_key(["fp1", "fp2"], "arch", dict(options))

    def test_each_component_matters(self):
        options = OptimizeOptions().cache_dict()
        base = coalesce_key(["fp1"], "arch", options)
        assert base != coalesce_key(["fp2"], "arch", options)
        assert base != coalesce_key(["fp1"], "other-arch", options)
        assert base != coalesce_key(
            ["fp1"], "arch", OptimizeOptions(use_nti=False).cache_dict()
        )
        assert base != coalesce_key(["fp1", "fp1"], "arch", options)


class TestLatencyHistogram:
    def test_bucketing(self):
        hist = LatencyHistogram(bounds_ms=(1.0, 10.0))
        for ms in (0.5, 5.0, 5.0, 100.0):
            hist.observe(ms)
        snap = hist.snapshot()
        assert snap["counts"] == [1, 2, 1]
        assert snap["count"] == 4
        assert snap["max_ms"] == 100.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=(5.0, 5.0))
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=(10.0, 1.0))

    def test_default_bounds_are_strictly_increasing(self):
        assert list(LATENCY_BOUNDS_MS) == sorted(set(LATENCY_BOUNDS_MS))


class TestServeMetrics:
    def test_unknown_counter_is_loud(self):
        metrics = ServeMetrics()
        with pytest.raises(KeyError, match="unknown serve counter"):
            metrics.bump("requets_total")  # typo must not silently count

    def test_snapshot_passes_own_validator(self):
        metrics = ServeMetrics()
        metrics.bump("requests_total")
        metrics.observe_latency(3.0)
        snap = metrics.snapshot(
            queue_depth=0, queue_limit=8, in_flight=1, draining=False
        )
        assert snap["format"] == METRICS_FORMAT
        assert validate_metrics(snap) == []

    def test_validator_catches_drift(self):
        metrics = ServeMetrics()
        snap = metrics.snapshot(
            queue_depth=0, queue_limit=8, in_flight=0, draining=False
        )
        del snap["counters"][METRIC_COUNTERS[0]]
        snap["latency_ms"]["counts"] = snap["latency_ms"]["counts"][:-1]
        snap["draining"] = "no"
        problems = validate_metrics(snap)
        assert len(problems) == 3

    def test_validator_rejects_non_object(self):
        assert validate_metrics(None)
        assert validate_metrics([{"format": METRICS_FORMAT}])

    def test_serve_and_fleet_registries_keep_their_texts_and_layouts(self):
        for metrics, kind, names in (
            (ServeMetrics(), "serve", METRIC_COUNTERS),
            (FleetMetrics(), "fleet", FLEET_METRIC_COUNTERS),
        ):
            with pytest.raises(KeyError) as info:
                metrics.bump("nope")
            assert info.value.args[0] == (
                f"unknown {kind} counter 'nope'; known: {sorted(names)}"
            )
            metrics.bump(names[0], 2)
            assert metrics.get(names[0]) == 2
            assert list(metrics.counters()) == list(names)
        serve = ServeMetrics().snapshot(
            queue_depth=0, queue_limit=8, in_flight=0, draining=False
        )
        fleet = FleetMetrics().snapshot(workers=[])
        assert list(serve) == [
            "format", "uptime_ms", "queue", "in_flight", "draining",
            "counters", "latency_ms",
        ]
        assert list(fleet) == [
            "format", "uptime_ms", "counters", "latency_ms", "workers",
        ]
        # One non-negative-counter check words both validators' problems.
        serve["counters"]["shed"] = -1
        fleet["counters"]["rolls"] = True
        assert validate_metrics(serve) == [
            "counters.shed must be a non-negative integer, got -1"
        ]
        assert validate_fleet_metrics(fleet) == [
            "counters.rolls must be a non-negative integer, got True"
        ]
        serve["counters"] = fleet["counters"] = []
        assert validate_metrics(serve) == validate_fleet_metrics(fleet) == [
            "counters must be an object, got []"
        ]

    def test_wire_format_tags(self):
        assert SERVE_FORMAT == "repro-serve-v1"
        assert METRICS_FORMAT == "repro-serve-metrics-v1"
