"""The route tables of the serve worker and the fleet router, on the wire.

Both services answer wrong methods, unknown paths and malformed
requests before any of their own logic runs.  These tests pin those
answers byte for byte (status line, headers and JSON body) on each
service, talking raw sockets so nothing between the test and the
listener can normalise a response.  Neither service needs workers or a
cache for these paths, so the router runs over a supervisor that is
never started.
"""

import json
import socket

import pytest

from repro.fleet import FleetRouter, FleetSupervisor
from repro.serve import OptimizeServer
from repro.serve.http import MAX_BODY_BYTES, REASONS
from repro.serve.testing import LoopThread


@pytest.fixture(scope="module")
def ports():
    worker = LoopThread(OptimizeServer())
    router = LoopThread(FleetRouter(FleetSupervisor(workers=1)))
    with worker, router:
        yield {"worker": worker.port, "router": router.port}


def exchange(port: int, raw: bytes) -> bytes:
    """Send raw request bytes; return every byte of the answer."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def error_response(status: int, message: str) -> bytes:
    """The exact bytes of one JSON error answer."""
    body = json.dumps(
        {
            "error": message,
            "format": "repro-serve-v1",
            "kind": "error",
            "status": status,
        },
        sort_keys=True,
    ).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {REASONS[status]}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


ROUTES = {
    "worker": [
        ("/healthz", "GET", "healthz"),
        ("/metrics", "GET", "metrics"),
        ("/v1/optimize", "POST", "optimize"),
    ],
    "router": [
        ("/healthz", "GET", "healthz"),
        ("/metrics", "GET", "metrics"),
        ("/fleet/status", "GET", "status"),
        ("/fleet/restart", "POST", "restart"),
        ("/v1/optimize", "POST", "optimize"),
        ("/v1/tune", "POST", "tune"),
    ],
}

WRONG_METHOD = [
    (service, path, allowed, name)
    for service, routes in ROUTES.items()
    for path, allowed, name in routes
]


@pytest.mark.parametrize(
    "service, path, allowed, name",
    WRONG_METHOD,
    ids=[f"{s}-{p}" for s, p, _a, _n in WRONG_METHOD],
)
def test_wrong_method_is_405(ports, service, path, allowed, name):
    wrong = "GET" if allowed == "POST" else "POST"
    raw = exchange(ports[service], request(wrong, path, b"{}"))
    assert raw == error_response(405, f"{name} is {allowed}-only")


@pytest.mark.parametrize("service", sorted(ROUTES))
@pytest.mark.parametrize("method", ["GET", "POST"])
def test_unknown_path_is_404(ports, service, method):
    raw = exchange(ports[service], request(method, "/nope"))
    assert raw == error_response(404, "unknown path '/nope'")


@pytest.mark.parametrize("service", sorted(ROUTES))
def test_malformed_request_line_is_400(ports, service):
    raw = exchange(ports[service], b"GARBAGE\r\n\r\n")
    assert raw == error_response(400, "malformed request line")


@pytest.mark.parametrize("service", sorted(ROUTES))
def test_oversized_body_is_413(ports, service):
    head = (
        "POST /v1/optimize HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
    )
    raw = exchange(ports[service], head.encode("latin-1"))
    assert raw == error_response(
        413, f"request body over {MAX_BODY_BYTES} bytes"
    )
