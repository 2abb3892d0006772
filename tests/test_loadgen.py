"""The load-generation harness: plan determinism, percentiles, the gate.

The pure pieces (arrival plan, histogram percentiles, the regression
check) are unit-tested exhaustively; one integration test drives a real
in-thread server with a small open-loop run and asserts the gated
quantities come out clean.
"""

import copy

import pytest

from repro.__main__ import main
from repro.loadgen import (
    BENCH_SERVE_FORMAT,
    _build_plan,
    check_serve_regression,
    percentiles_from_histogram,
    run_loadgen,
)
from repro.serve import ServerThread


class TestPlan:
    def test_same_seed_same_plan(self):
        assert _build_plan(50, 4.0, 0.5, 7) == _build_plan(50, 4.0, 0.5, 7)

    def test_distinct_seeds_differ(self):
        assert _build_plan(50, 4.0, 0.5, 1) != _build_plan(50, 4.0, 0.5, 2)

    def test_arrivals_increase(self):
        plan = _build_plan(100, 10.0, 0.5, 0)
        times = [at for at, _, _ in plan]
        assert times == sorted(times)
        assert times[0] > 0

    def test_hot_fraction_extremes(self):
        all_hot = _build_plan(30, 10.0, 1.0, 0)
        assert {bench for _, bench, _ in all_hot} == {"matmul"}
        all_cold = _build_plan(30, 10.0, 0.0, 0)
        # The cold pool rotates: several distinct identities appear.
        assert len({(b, tuple(sorted(o.items()))) for _, b, o in all_cold}) > 3


class TestPercentiles:
    def test_simple_distribution(self):
        snapshot = {
            "bounds_ms": [1.0, 10.0, 100.0],
            "counts": [50, 40, 9, 1],  # 100 observations, 1 overflow
            "max_ms": 250.0,
        }
        p = percentiles_from_histogram(snapshot, (0.5, 0.9, 0.99, 1.0))
        assert p["p50_ms"] == 1.0
        assert p["p90_ms"] == 10.0
        assert p["p99_ms"] == 100.0
        assert p["p100_ms"] == 250.0  # overflow bucket reports the max

    def test_empty_histogram(self):
        snapshot = {"bounds_ms": [1.0], "counts": [0, 0], "max_ms": 0.0}
        assert percentiles_from_histogram(snapshot)["p50_ms"] == 0.0


def _payload(**overrides):
    payload = {
        "format": BENCH_SERVE_FORMAT,
        "seed": 0,
        "requests": 20,
        "hot_fraction": 0.5,
        "errors": 0,
        "error_samples": [],
        "responses_identical": True,
        "duplicates": {"total": 10, "warm": 10, "warm_duplicate_fraction": 1.0},
    }
    payload.update(overrides)
    return payload


class TestGate:
    def test_identical_payloads_pass(self):
        assert check_serve_regression(_payload(), _payload()) == []

    def test_errors_fail(self):
        failures = check_serve_regression(
            _payload(errors=2, error_samples=["request 3: boom"]), _payload()
        )
        assert any("2 request(s) failed" in f for f in failures)

    def test_nonidentical_responses_fail(self):
        failures = check_serve_regression(
            _payload(responses_identical=False), _payload()
        )
        assert any("determinism" in f for f in failures)

    def test_warm_fraction_regression_fails_one_sided(self):
        cold = copy.deepcopy(_payload())
        cold["duplicates"]["warm_duplicate_fraction"] = 0.5
        failures = check_serve_regression(cold, _payload())
        assert any("warm_duplicate_fraction regressed" in f for f in failures)
        # The other direction (better than baseline) passes.
        better = copy.deepcopy(_payload())
        baseline = copy.deepcopy(_payload())
        baseline["duplicates"]["warm_duplicate_fraction"] = 0.5
        assert check_serve_regression(better, baseline) == []

    def test_workload_mismatch_fails(self):
        failures = check_serve_regression(_payload(seed=1), _payload())
        assert any("workload mismatch" in f for f in failures)

    def test_format_mismatch_fails(self):
        failures = check_serve_regression(
            _payload(format="other"), _payload()
        )
        assert any("format mismatch" in f for f in failures)


class TestRunLoadgen:
    def test_validation(self):
        with pytest.raises(ValueError, match="requests"):
            run_loadgen(port=1, requests=0)
        with pytest.raises(ValueError, match="rate_rps"):
            run_loadgen(port=1, rate_rps=0)
        with pytest.raises(ValueError, match="hot_fraction"):
            run_loadgen(port=1, hot_fraction=1.5)

    @pytest.mark.slow
    def test_small_open_loop_run_is_clean(self, tmp_path):
        with ServerThread(
            cache_path=str(tmp_path / "cache.jsonl"), queue_limit=16
        ) as srv:
            payload = run_loadgen(
                port=srv.port,
                requests=6,
                rate_rps=8.0,
                hot_fraction=0.5,
                seed=1,
            )
        assert payload["format"] == BENCH_SERVE_FORMAT
        assert payload["errors"] == 0
        assert payload["responses_identical"] is True
        assert payload["latency_ms"]["count"] == 6
        assert payload["duplicates"]["warm_duplicate_fraction"] == 1.0
        assert sum(payload["served_by"].values()) == 6
        # A clean run gates against itself.
        assert check_serve_regression(payload, payload) == []

    @pytest.mark.slow
    def test_cli_check_exits_1_on_a_failed_gate(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        with ServerThread(
            cache_path=str(tmp_path / "cache.jsonl"), queue_limit=16
        ) as srv:
            argv = [
                "loadgen", "--port", str(srv.port), "--requests", "3",
                "--rate-rps", "20", "--hot-fraction", "1.0",
            ]
            assert main([*argv, "--seed", "1", "--out", baseline]) == 0
            checked = [*argv, "--check", "--baseline", baseline]
            assert main([*checked, "--seed", "1"]) == 0
            assert main([*checked, "--seed", "2"]) == 1
            missing = str(tmp_path / "missing.json")
            assert main([*argv, "--check", "--baseline", missing]) == 1
        err = capsys.readouterr().err
        assert "loadgen --check FAIL: workload mismatch on 'seed'" in err
        assert "loadgen --check: cannot read baseline" in err
