"""The client's deterministic retry backoff (cap, jitter, Retry-After).

The schedule contract: retry *k* sleeps ``min(cap, base * 2**(k-1))``
scaled by a jitter factor in ``[1, 1.5]`` derived only from
``backoff_seed`` and ``k`` — bit-reproducible per client, uncorrelated
across seeds — and a server-provided ``Retry-After`` acts as a floor,
never ignored.  The integration half runs a one-socket fake server that
sheds once with ``Retry-After: 2`` and then answers, asserting the
client actually slept at least the floor.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve import ServeClient
from repro.serve.schema import REASON_DEADLINE_EXHAUSTED
from repro.util import ServeError, ServeOverloaded


class TestBackoffSchedule:
    def test_deterministic_per_seed(self):
        a = ServeClient(port=1, backoff_seed=7)
        b = ServeClient(port=2, backoff_seed=7)
        assert [a.backoff_s(k) for k in range(1, 6)] == [
            b.backoff_s(k) for k in range(1, 6)
        ]

    def test_distinct_seeds_decorrelate(self):
        a = ServeClient(port=1, backoff_seed=1)
        b = ServeClient(port=1, backoff_seed=2)
        schedule_a = [a.backoff_s(k) for k in range(1, 6)]
        schedule_b = [b.backoff_s(k) for k in range(1, 6)]
        assert schedule_a != schedule_b

    def test_exponential_growth_capped(self):
        client = ServeClient(
            port=1, backoff_base_s=0.1, backoff_cap_s=1.0, backoff_seed=0
        )
        for attempt in range(1, 20):
            delay = client.backoff_s(attempt)
            base = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert base <= delay <= base * 1.5
        # Far down the schedule the cap (times max jitter) bounds it.
        assert client.backoff_s(50) <= 1.5

    def test_retry_after_is_a_floor_not_a_suggestion(self):
        client = ServeClient(port=1, backoff_base_s=0.01, backoff_cap_s=0.1)
        assert client.backoff_s(1, floor=10.0) == 10.0
        # ...but a small floor never *shortens* the computed delay.
        assert client.backoff_s(4, floor=0.0) == client.backoff_s(4)

    def test_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            ServeClient(port=1).backoff_s(0)
        with pytest.raises(ValueError, match="backoff"):
            ServeClient(port=1, backoff_base_s=-1.0)


def _fake_server(responses, *, hold_first=False):
    """A one-thread server answering each connection with the next canned
    response; returns (port, thread, served_list).

    With ``hold_first`` the first connection is answered only after a
    second one has been accepted (or after 5 s without one): a primary
    that stays slow until its hedge has launched."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    port = listener.getsockname()[1]
    served = []

    def answer(conn, raw):
        try:
            chunk = conn.recv(65536)  # one small request: one read
            served.append(chunk)
            conn.sendall(raw)
        finally:
            conn.close()

    def run():
        held = []
        for raw in responses:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                break
            conn.settimeout(5.0)
            if hold_first and not served and not held:
                held.append((conn, raw))
                listener.settimeout(5.0)
                continue
            for waiting in held:
                answer(*waiting)
            held = []
            answer(conn, raw)
        for waiting in held:
            answer(*waiting)
        listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return port, thread, served


def _http(status, reason, body, extra_headers=""):
    payload = json.dumps(body).encode()
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"{extra_headers}"
        f"Connection: close\r\n\r\n"
    ).encode() + payload


class TestRetryAfterIntegration:
    def test_shed_then_success_sleeps_at_least_the_floor(self, monkeypatch):
        shed = _http(
            503,
            "Service Unavailable",
            {
                "format": "repro-serve-v1",
                "kind": "error",
                "status": 503,
                "error": "draining",
                "retry_after_s": 2.0,
            },
            extra_headers="Retry-After: 2\r\n",
        )
        ok = _http(200, "OK", {"format": "repro-serve-v1", "served_by": "cache"})
        port, thread, served = _fake_server([shed, ok])

        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        client = ServeClient(
            port=port, retries=2, backoff_base_s=0.01, backoff_seed=3
        )
        result = client.optimize("matmul", "i7-5930k", fast=True)
        thread.join(timeout=5.0)

        assert result["served_by"] == "cache"
        assert len(served) == 2  # one shed, one retry
        assert slept == [client.backoff_s(1, floor=2.0)]
        assert slept[0] >= 2.0


def _request_body(raw):
    """The JSON payload of one captured HTTP request."""
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])


class TestDeadlineAwareRetries:
    """The client stops retrying the moment its own budget forbids it."""

    def test_stops_instead_of_sleeping_past_the_budget(self, monkeypatch):
        # One shed with Retry-After: 2 against a 500 ms budget: the
        # 2-second floor cannot fit, so the client must raise NOW with
        # the deadline_exhausted hint — not sleep into a sure timeout.
        shed = _http(
            429,
            "Too Many Requests",
            {
                "format": "repro-serve-v1",
                "kind": "error",
                "status": 429,
                "error": "admission queue is full",
                "retry_after_s": 2.0,
            },
            extra_headers="Retry-After: 2\r\n",
        )
        port, thread, served = _fake_server([shed])
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        client = ServeClient(port=port, retries=5, backoff_base_s=0.01)
        with pytest.raises(ServeOverloaded) as excinfo:
            client.optimize(
                "matmul", "i7-5930k", fast=True, deadline_ms=500.0
            )
        thread.join(timeout=5.0)
        assert excinfo.value.reason == REASON_DEADLINE_EXHAUSTED
        assert excinfo.value.last_status == 429
        assert "deadline_exhausted" in str(excinfo.value)
        assert "admission queue is full" in str(excinfo.value)
        assert len(served) == 1  # no second submission
        assert slept == []  # and no sleep it could not afford

    def test_resubmission_carries_the_shrunken_budget(self):
        shed = _http(
            429,
            "Too Many Requests",
            {
                "format": "repro-serve-v1",
                "kind": "error",
                "status": 429,
                "error": "busy",
                "retry_after_s": 0.05,
            },
        )
        ok = _http(200, "OK", {"format": "repro-serve-v1",
                               "served_by": "cache"})
        port, thread, served = _fake_server([shed, ok])
        client = ServeClient(port=port, retries=2, backoff_base_s=0.01)
        client.optimize(
            "matmul", "i7-5930k", fast=True, deadline_ms=10000.0
        )
        thread.join(timeout=5.0)
        first = _request_body(served[0])["deadline_ms"]
        second = _request_body(served[1])["deadline_ms"]
        # Both legs spend from ONE budget charged at the original call:
        # each submission carries strictly less than the caller granted.
        assert 0 < first <= 10000.0
        assert 0 < second < first

    def test_already_exhausted_budget_never_touches_the_network(self):
        client = ServeClient(port=1, retries=3)  # nothing listens on :1
        with pytest.raises(ServeOverloaded) as excinfo:
            client.optimize(
                "matmul", "i7-5930k", fast=True, deadline_ms=0.0001
            )
        assert excinfo.value.reason == REASON_DEADLINE_EXHAUSTED


class TestHedging:
    """Bounded hedging: at most one backup, first answer wins."""

    OK = _http(200, "OK", {"format": "repro-serve-v1", "served_by": "cache"})
    ERR = _http(
        500,
        "Internal Server Error",
        {"format": "repro-serve-v1", "kind": "error", "status": 500,
         "error": "boom"},
    )

    def test_fast_primary_never_hedges(self):
        port, thread, served = _fake_server([self.OK])
        client = ServeClient(port=port, retries=0)
        result = client.optimize(
            "matmul", "i7-5930k", fast=True, hedge_after_s=5.0
        )
        thread.join(timeout=5.0)
        assert result["served_by"] == "cache"
        assert len(served) == 1  # no backup was launched

    def test_slow_primary_launches_exactly_one_backup(self):
        port, thread, served = _fake_server([self.OK, self.OK], hold_first=True)
        client = ServeClient(port=port, retries=0)
        result = client.optimize(
            "matmul", "i7-5930k", fast=True, hedge_after_s=0.0
        )
        thread.join(timeout=5.0)
        assert result["served_by"] == "cache"
        assert len(served) == 2  # primary + one backup, never more

    def test_backup_absorbs_a_failing_leg(self):
        # One of the two legs gets a 500; whichever it is, the other's
        # answer wins and the caller never sees the failure.
        port, thread, served = _fake_server(
            [self.ERR, self.OK], hold_first=True
        )
        client = ServeClient(port=port, retries=0)
        result = client.optimize(
            "matmul", "i7-5930k", fast=True, hedge_after_s=0.0
        )
        thread.join(timeout=5.0)
        assert result["served_by"] == "cache"
        assert len(served) == 2

    def test_both_legs_failing_surfaces_the_error(self):
        port, thread, served = _fake_server([self.ERR, self.ERR])
        client = ServeClient(port=port, retries=0)
        with pytest.raises(ServeError, match="boom"):
            client.optimize(
                "matmul", "i7-5930k", fast=True, hedge_after_s=0.0
            )
        thread.join(timeout=5.0)

    def test_negative_hedge_delay_is_rejected(self):
        with pytest.raises(ValueError, match="hedge_after_s"):
            ServeClient(port=1).optimize(
                "matmul", "i7-5930k", fast=True, hedge_after_s=-1.0
            )
