"""Minimal HTTP/1.1 plumbing shared by the serve and fleet layers.

One wire discipline, three consumers: the
:class:`repro.serve.service.HttpService` core that both
:class:`repro.serve.OptimizeServer` (a worker) and
:class:`repro.fleet.FleetRouter` (the front router proxying to workers)
serve on, the router's proxy leg (:func:`forward`), and
:class:`repro.serve.ServeClient` (the blocking client).
Every exchange is one request per connection (``Connection: close``),
JSON bodies only, tight size ceilings — the protocol is an
implementation detail of this repo, not a general web server.

The async half (:func:`read_request` / :func:`write_response`) runs on
an event loop against ``asyncio`` stream pairs; the sync half
(:func:`format_request` / :func:`parse_response`) is shared with the
blocking client, so a response parsed by the router is parsed by exactly
the code the client uses — one grammar, no drift.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.util import ServeError

__all__ = [
    "ChunkDecoder",
    "DEADLINE_HEADER",
    "HttpViolation",
    "IO_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "REASONS",
    "forward",
    "format_request",
    "parse_response",
    "parse_response_head",
    "read_request",
    "write_chunk",
    "write_chunked_end",
    "write_chunked_head",
    "write_response",
]

#: End-to-end deadline budget header.  The fleet router charges a
#: request's ``deadline_ms`` once at its own admission and forwards the
#: *remaining* budget under this header on every proxy leg (including
#: failover successors), so a failed-over request can never double-spend
#: its deadline; a worker seeing the header uses it instead of the
#: body's ``deadline_ms`` and refuses already-exhausted work with 504.
DEADLINE_HEADER = "x-repro-deadline-ms"

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Socket-level ceilings; requests are small JSON documents, so anything
#: beyond these is a protocol error, not a legitimate payload.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
IO_TIMEOUT_S = 30.0


class HttpViolation(Exception):
    """A malformed request we can still answer politely."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def read_request(reader) -> Tuple[str, str, Dict[str, str], bytes]:
    """Read one request head + body from an asyncio stream reader.

    Returns ``(method, path, headers, body)``; raises
    :class:`HttpViolation` for protocol errors the caller can answer,
    :class:`ConnectionError` for torn/silent connections.
    """
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionError("empty request")
    try:
        method, path, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
    except ValueError:
        raise HttpViolation(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpViolation(400, "request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpViolation(400, "malformed Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise HttpViolation(
                413, f"request body over {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length)
    return method.upper(), path, headers, body


async def write_response(
    writer,
    status: int,
    payload: Dict,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write one JSON response to an asyncio stream writer."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


async def write_chunked_head(
    writer,
    status: int = 200,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Start a chunked NDJSON response (the tune stream).

    Unlike :func:`write_response` there is no Content-Length — records
    are written as they settle via :func:`write_chunk` and the stream is
    terminated by :func:`write_chunked_end`.  Still one response per
    connection (``Connection: close``).
    """
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/x-ndjson",
        "Transfer-Encoding: chunked",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()


async def write_chunk(writer, payload: Dict) -> None:
    """Write one NDJSON record as one HTTP chunk (flushes immediately)."""
    line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    writer.write(f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n")
    await writer.drain()


async def write_chunked_end(writer) -> None:
    """Terminate a chunked response (the zero-length chunk)."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()


def parse_response_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    """Parse a response's status line + headers (no body)."""
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ", 2)[1])
    except (IndexError, ValueError):
        raise ServeError(f"malformed status line {lines[0]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


class ChunkDecoder:
    """Incremental ``Transfer-Encoding: chunked`` body decoder.

    Feed raw socket bytes in as they arrive; complete chunk payloads
    come back out, in order.  The shared grammar for the blocking
    client's tune-stream reader — kept here beside the server-side
    writers so both halves of the protocol live in one module.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self.done = False

    def feed(self, data: bytes) -> list:
        """Consume bytes; return the list of completed chunk payloads."""
        self._buffer += data
        out = []
        while not self.done:
            head, sep, rest = self._buffer.partition(b"\r\n")
            if not sep:
                break
            try:
                size = int(head.split(b";", 1)[0].strip() or b"0", 16)
            except ValueError:
                raise ServeError(
                    f"malformed chunk size {head!r}"
                ) from None
            if size == 0:
                self.done = True
                self._buffer = b""
                break
            if len(rest) < size + 2:
                break  # whole chunk not here yet
            out.append(rest[:size])
            self._buffer = rest[size + 2:]
        return out


def format_request(
    method: str,
    path: str,
    host: str,
    port: int,
    body: bytes,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one request head (the body is appended by the caller)."""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def parse_response(raw: bytes) -> Tuple[int, Dict[str, str], Dict]:
    """Parse one complete response into ``(status, headers, json_body)``.

    Raises :class:`ConnectionError` when the peer closed without
    answering, :class:`~repro.util.ServeError` when the answer is not
    protocol-shaped.
    """
    if not raw:
        raise ConnectionError("server closed the connection without a response")
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ", 2)[1])
    except (IndexError, ValueError):
        raise ServeError(f"malformed status line {lines[0]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    payload = rest if length is None else rest[: int(length)]
    try:
        body = json.loads(payload.decode("utf-8")) if payload else {}
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise ServeError(
            f"server returned non-JSON body (HTTP {status})"
        ) from None
    if not isinstance(body, dict):
        raise ServeError(f"server returned non-object body (HTTP {status})")
    return status, headers, body


async def forward(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes,
    *,
    timeout_s: float = 120.0,
    extra_headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], Dict]:
    """One async round-trip to a peer server (the router's proxy leg).

    Raises :class:`ConnectionError` when the peer is unreachable or the
    connection dies mid-exchange — exactly the signal the router's
    failover logic keys on.
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout_s
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise ConnectionError(
            f"cannot reach worker at {host}:{port}: {exc}"
        ) from exc
    try:
        writer.write(
            format_request(method, path, host, port, body, extra_headers)
            + body
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout_s)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
        raise ConnectionError(
            f"connection to worker at {host}:{port} died mid-request: {exc}"
        ) from exc
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return parse_response(raw)
