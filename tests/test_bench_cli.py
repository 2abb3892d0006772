"""Tests for the search-performance harness (``python -m repro.bench``)."""

import copy
import json
import os

import pytest

import repro.bench.__main__ as bench_cli
from repro.bench.perf import (
    BENCH_FORMAT,
    GATED_RATIOS,
    WARM_COUNTS,
    check_regression,
    run_bench,
)
from repro.util import write_json


def _payload(**overrides):
    base = {
        "format": BENCH_FORMAT,
        "mode": "fast",
        "arch": "i7-5930k",
        "benchmarks": ["matmul"],
        "phases": {"classify_ms": 1.0},
        "end_to_end": {
            "stages": 1,
            "serial_uncached_ms": 100.0,
            "cold_ms": 60.0,
            "warm_ms": 2.0,
            "speedup_cold": 1.667,
            "speedup_warm": 50.0,
            "schedules_identical": True,
            "warm_passes": 2,
            "warm_hits": 2,
            "warm_misses": 0,
            "warm_searches": 0,
        },
        "emu_cache": {"hits": 10, "misses": 2, "hit_rate": 0.833},
        "schedule_cache": {"hits": 1, "misses": 1, "stores": 1,
                           "replay_failures": 0},
    }
    base.update(overrides)
    return base


class TestCheckRegression:
    def test_identical_payload_passes(self):
        assert check_regression(_payload(), _payload()) == []

    def test_improvement_passes(self):
        current = _payload()
        current["end_to_end"]["speedup_cold"] = 5.0
        assert check_regression(current, _payload()) == []

    def test_regression_beyond_tolerance_fails(self):
        current = _payload()
        current["end_to_end"]["speedup_cold"] = 1.0  # 40% below 1.667x
        failures = check_regression(current, _payload(), tolerance=0.2)
        assert len(failures) == 1
        assert "speedup_cold" in failures[0]

    def test_regression_within_tolerance_passes(self):
        current = _payload()
        current["end_to_end"]["speedup_cold"] = 1.5  # 10% below 1.667x
        assert check_regression(current, _payload(), tolerance=0.2) == []

    def test_faster_search_is_not_a_warm_regression(self):
        # speedup_warm = serial_uncached_ms / warm_ms falls when the
        # search gets faster; it is informational.
        current = _payload()
        current["end_to_end"]["speedup_warm"] = 5.0  # 90% below 50x
        assert check_regression(current, _payload(), tolerance=0.2) == []

    @pytest.mark.parametrize("counts", [
        {"warm_hits": 1, "warm_misses": 1},
        {"warm_searches": 1},
        {"warm_hits": 1},
        {"warm_passes": 0, "warm_hits": 0},
    ])
    def test_warm_pass_off_the_cache_fails(self, counts):
        current = _payload()
        current["end_to_end"].update(counts)
        failures = check_regression(current, _payload())
        assert len(failures) == 1
        assert "schedule-cache regression" in failures[0]

    def test_missing_warm_counts_fail(self):
        for key in WARM_COUNTS:
            current = _payload()
            del current["end_to_end"][key]
            failures = check_regression(current, _payload())
            assert failures == ["missing warm-pass counts in current"]

    def test_schedule_divergence_fails(self):
        current = _payload()
        current["end_to_end"]["schedules_identical"] = False
        failures = check_regression(current, _payload())
        assert any("determinism" in f for f in failures)

    def test_format_mismatch_fails_early(self):
        failures = check_regression(_payload(format="other-v9"), _payload())
        assert len(failures) == 1
        assert "format mismatch" in failures[0]

    def test_mode_mismatch_fails(self):
        failures = check_regression(_payload(mode="full"), _payload())
        assert any("mode mismatch" in f for f in failures)

    def test_missing_ratio_fails(self):
        current = _payload()
        del current["end_to_end"]["speedup_cold"]
        failures = check_regression(current, _payload())
        assert any("speedup_cold" in f for f in failures)

    def test_every_gated_ratio_is_present_in_payloads(self):
        for key in GATED_RATIOS:
            assert key in _payload()["end_to_end"]

    def test_committed_baseline_has_the_current_layout(self):
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_search.json",
        )
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert baseline["format"] == BENCH_FORMAT
        for key in GATED_RATIOS + WARM_COUNTS:
            assert key in baseline["end_to_end"]


class TestCli:
    @pytest.fixture
    def fake_bench(self, monkeypatch):
        payload = _payload()
        monkeypatch.setattr(
            bench_cli, "run_bench", lambda **kwargs: copy.deepcopy(payload)
        )
        return payload

    def test_out_writes_payload(self, fake_bench, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert bench_cli.main(["--fast", "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written == fake_bench
        assert "bench[fast]" in capsys.readouterr().out

    def test_check_against_matching_baseline_passes(
        self, fake_bench, tmp_path
    ):
        baseline = tmp_path / "baseline.json"
        write_json(fake_bench, str(baseline))
        assert (
            bench_cli.main(["--fast", "--check", "--baseline", str(baseline)])
            == 0
        )

    def test_check_detects_regression(self, fake_bench, tmp_path, capsys):
        better = copy.deepcopy(fake_bench)
        better["end_to_end"]["speedup_cold"] = 5.0
        baseline = tmp_path / "baseline.json"
        write_json(better, str(baseline))
        assert (
            bench_cli.main(["--fast", "--check", "--baseline", str(baseline)])
            == 1
        )
        assert "speedup_cold" in capsys.readouterr().err

    def test_check_missing_baseline_errors(self, fake_bench, tmp_path, capsys):
        assert (
            bench_cli.main(
                ["--fast", "--check", "--baseline", str(tmp_path / "nope")]
            )
            == 1
        )
        assert "cannot read baseline" in capsys.readouterr().err


class TestRealRun:
    def test_fast_bench_end_to_end(self):
        """One real --fast measurement: structure, determinism, caching."""
        payload = run_bench(fast=True)
        assert payload["format"] == BENCH_FORMAT
        assert payload["mode"] == "fast"
        e2e = payload["end_to_end"]
        assert e2e["schedules_identical"] is True
        assert e2e["stages"] >= 4
        # Warm runs are served from the schedule cache + emu memo; even
        # on a single-core machine this must be a large win.
        assert e2e["speedup_warm"] > 3.0
        assert payload["emu_cache"]["hits"] > 0
        assert payload["schedule_cache"]["hits"] == e2e["stages"]
        assert e2e["warm_hits"] == e2e["warm_passes"] * e2e["stages"]
        assert e2e["warm_misses"] == e2e["warm_searches"] == 0
        # A payload must always gate cleanly against itself.
        assert check_regression(payload, payload) == []
