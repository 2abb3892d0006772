"""Behavioral tests for the optimization service (``repro.serve``).

Each test runs a real server (own event loop on a daemon thread, real
sockets) through :class:`repro.serve.ServerThread` and drives it with the
blocking :class:`repro.serve.ServeClient` — the same path production
traffic takes, minus only the process boundary (covered by
``tests/test_serve_cli.py``).
"""

import json
import threading
import time

import pytest

from repro.obs import CollectingTracer
from repro.robust import FaultPlan, FaultSpec, crash_job, slow_job
from repro.serve import (
    ServeClient,
    ServerThread,
    validate_healthz,
    validate_metrics,
)
from repro.util import ServeError, ServeOverloaded

def serialized(result):
    """The byte-identity of a response: its schedules, canonically."""
    return json.dumps(result["schedules"], sort_keys=True)


def make_server(tmp_path, **kwargs):
    kwargs.setdefault("cache_path", str(tmp_path / "cache.jsonl"))
    kwargs.setdefault("queue_limit", 8)
    return ServerThread(**kwargs)


class TestBasicServing:
    def test_search_then_cache(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            assert client.wait_ready(10.0)
            first = client.optimize("matmul", "i7-5930k", fast=True)
            second = client.optimize("matmul", "i7-5930k", fast=True)
        assert first["served_by"] == "search"
        assert second["served_by"] == "cache"
        assert serialized(first) == serialized(second)
        assert first["key"] == second["key"]

    def test_distinct_options_do_not_share(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            with_nti = client.optimize("matmul", "i7-5930k", fast=True)
            without = client.optimize(
                "matmul", "i7-5930k", fast=True, use_nti=False
            )
        assert with_nti["key"] != without["key"]
        assert without["served_by"] == "search"

    def test_healthz_and_unknown_route(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            assert client.healthz()["status"] == "ok"
            status, _headers, body = client._roundtrip("GET", "/nope")
            assert status == 404
            assert body["kind"] == "error"
            status, _headers, _body = client._roundtrip(
                "POST", "/healthz", {"x": 1}
            )
            assert status == 405

    def test_healthz_is_enriched_and_schema_valid(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            body = client.healthz()
            assert validate_healthz(body) == []
            assert body["draining"] is False
            assert body["queue"] == {"depth": 0, "limit": 8}
            assert body["in_flight"] == 0
            assert body["admitted"] == 0
            client.optimize("copy", "i7-5930k", fast=True)
            status, after = client.probe()
            assert status == 200
            assert validate_healthz(after) == []
            assert after["admitted"] == 1
        # With the server gone, probe degrades to the socket error a
        # supervisor counts as a failed probe.
        with pytest.raises(ConnectionError):
            client.probe()

    def test_bad_request_is_400_with_friendly_error(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            with pytest.raises(ServeError, match="unknown benchmark"):
                client.optimize("warp-drive", "i7-5930k")
            with pytest.raises(ServeError, match="unknown platform"):
                client.optimize("matmul", "z80")
        # Neither failure poisoned the server: counters say two errors.

    def test_metrics_contract(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            client.optimize("copy", "i7-5930k", fast=True)
            snapshot = client.metrics()
        assert validate_metrics(snapshot) == []
        assert snapshot["counters"]["requests_total"] == 1
        assert snapshot["counters"]["searches"] >= 1
        assert snapshot["latency_ms"]["count"] == 1
        assert "cache" in snapshot  # cache-backed server exposes stats


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_search(self, tmp_path):
        # Slow the first executed job so the second request provably
        # arrives while the first is in flight; identical fingerprints
        # must then share one computation (coalesced counter == 1) and
        # the serialized schedules must be byte-identical.
        with make_server(
            tmp_path, fault_plan=slow_job(1, seconds=0.8)
        ) as srv:
            client = ServeClient(port=srv.port)
            assert client.wait_ready(10.0)
            results = {}

            def submit(tag, delay):
                time.sleep(delay)
                results[tag] = ServeClient(port=srv.port).optimize(
                    "matmul", "i7-5930k", fast=True
                )

            threads = [
                threading.Thread(target=submit, args=("a", 0.0)),
                threading.Thread(target=submit, args=("b", 0.25)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            counters = client.metrics()["counters"]
        assert counters["searches"] == 1
        assert counters["coalesced"] == 1
        assert counters["responses_ok"] == 2
        served = sorted(r["served_by"] for r in results.values())
        assert served == ["coalesced", "search"]
        assert serialized(results["a"]) == serialized(results["b"])

    def test_coalesced_window_closes_after_completion(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            client.optimize("mask", "i7-5930k", fast=True)
            again = client.optimize("mask", "i7-5930k", fast=True)
            counters = client.metrics()["counters"]
        # Sequential requests never coalesce; the second hits the cache.
        assert counters["coalesced"] == 0
        assert again["served_by"] == "cache"


class TestWarmRestart:
    def test_cache_survives_restart(self, tmp_path):
        cache_path = str(tmp_path / "cache.jsonl")
        with make_server(tmp_path, cache_path=cache_path) as srv:
            cold = ServeClient(port=srv.port).optimize(
                "gemm", "i7-5930k", fast=True
            )
        assert cold["served_by"] == "search"

        tracer = CollectingTracer()
        with make_server(
            tmp_path, cache_path=cache_path, tracer=tracer
        ) as srv:
            warm = ServeClient(port=srv.port).optimize(
                "gemm", "i7-5930k", fast=True
            )
            counters = ServeClient(port=srv.port).metrics()["counters"]
        assert warm["served_by"] == "cache"
        assert counters["searches"] == 0
        assert counters["cache_hits"] >= 1
        assert serialized(cold) == serialized(warm)
        # The trace records how the request was served, restart-proof.
        requests = [
            e
            for e in tracer.events
            if e.get("kind") == "event" and e.get("name") == "serve.request"
        ]
        assert requests and requests[0]["attrs"]["served_by"] == "cache"


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after(self, tmp_path):
        # One worker blocked for 2s + queue_limit=1: submitting four
        # distinct requests must shed at least one with 429+Retry-After.
        with make_server(
            tmp_path,
            workers=1,
            queue_limit=1,
            fault_plan=slow_job(1, seconds=2.0),
            retry_after_s=0.5,
        ) as srv:
            def submit(name):
                ServeClient(port=srv.port, retries=0).optimize(
                    name, "i7-5930k", fast=True
                )

            # Occupy the only worker (slow fault), then saturate the
            # dispatcher hand-off and the one queue slot with waiters.
            waiters = [
                threading.Thread(target=submit, args=(name,))
                for name in ("copy", "mask", "tp")
            ]
            for thread in waiters:
                thread.start()
                time.sleep(0.3)
            with pytest.raises(ServeOverloaded) as excinfo:
                submit("gemm")
            assert excinfo.value.retry_after_s == pytest.approx(0.5)
            for thread in waiters:
                thread.join()
            counters = ServeClient(port=srv.port).metrics()["counters"]
        assert counters["shed"] == 1
        assert counters["responses_ok"] == 3  # the waiters all finished

    def test_shed_then_retry_succeeds(self, tmp_path):
        with make_server(
            tmp_path,
            workers=1,
            queue_limit=1,
            fault_plan=slow_job(1, seconds=1.0),
            retry_after_s=0.2,
        ) as srv:
            def submit(name):
                try:
                    ServeClient(port=srv.port, retries=0).optimize(
                        name, "i7-5930k", fast=True
                    )
                except ServeOverloaded:
                    pass  # fillers may themselves be shed; that's fine

            blocker = threading.Thread(target=submit, args=("copy",))
            blocker.start()
            time.sleep(0.3)
            fillers = [
                threading.Thread(target=submit, args=(n,))
                for n in ("mask", "tp")
            ]
            for t in fillers:
                t.start()
            time.sleep(0.1)
            # Retries (honouring Retry-After) ride out the congestion.
            result = ServeClient(port=srv.port, retries=30).optimize(
                "gemm", "i7-5930k", fast=True
            )
            blocker.join()
            for t in fillers:
                t.join()
        assert result["served_by"] == "search"


class TestFaultsAndDeadlines:
    def test_injected_crash_is_a_clean_500(self, tmp_path):
        with make_server(tmp_path, fault_plan=crash_job(1)) as srv:
            client = ServeClient(port=srv.port)
            with pytest.raises(ServeError, match="injected fault"):
                client.optimize("matmul", "i7-5930k", fast=True)
            # The crash consumed the fault; the retry searches normally.
            result = client.optimize("matmul", "i7-5930k", fast=True)
            counters = client.metrics()["counters"]
        assert result["served_by"] == "search"
        assert counters["faults_injected"] == 1
        assert counters["responses_error"] == 1
        assert counters["responses_ok"] == 1

    def test_env_string_arms_the_same_plan(self, tmp_path):
        plan = FaultPlan(FaultSpec.parse("slow:0.01:2"))
        with make_server(tmp_path, fault_plan=plan) as srv:
            client = ServeClient(port=srv.port)
            client.optimize("copy", "i7-5930k", fast=True)
            client.optimize("mask", "i7-5930k", fast=True)
            counters = client.metrics()["counters"]
        assert counters["faults_injected"] == 1  # fired on job 2 only

    def test_deadline_expired_maps_to_504(self, tmp_path):
        # An impossibly small budget dies at a cooperative checkpoint and
        # must come back as a deadline error, not a generic failure.
        with make_server(
            tmp_path, fault_plan=slow_job(1, seconds=0.3)
        ) as srv:
            client = ServeClient(port=srv.port)
            with pytest.raises(ServeError, match="HTTP 504"):
                client.optimize(
                    "matmul", "i7-5930k", fast=True, deadline_ms=50.0
                )
            counters = client.metrics()["counters"]
        assert counters["deadline_expired"] == 1


class TestDrain:
    def test_drain_finishes_inflight_work(self, tmp_path):
        srv = make_server(tmp_path, fault_plan=slow_job(1, seconds=0.6))
        srv.start()
        outcome = {}

        def submit():
            outcome["result"] = ServeClient(port=srv.port).optimize(
                "matmul", "i7-5930k", fast=True
            )

        worker = threading.Thread(target=submit)
        worker.start()
        time.sleep(0.25)  # request is now in flight behind the slow fault
        srv.drain()  # must block until the response went out
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert outcome["result"]["served_by"] == "search"

    def test_draining_server_rejects_new_requests(self, tmp_path):
        srv = make_server(tmp_path)
        srv.start()
        client = ServeClient(port=srv.port)
        client.optimize("copy", "i7-5930k", fast=True)
        srv.drain()
        with pytest.raises((ConnectionError, ServeOverloaded)):
            ServeClient(port=srv.port, retries=0).optimize(
                "mask", "i7-5930k", fast=True
            )
