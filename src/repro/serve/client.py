"""Blocking client for the optimization service.

A deliberately small, dependency-free HTTP/1.1 client (raw sockets, one
request per connection — mirroring the server's ``Connection: close``
discipline).  It speaks the ``repro-serve-v1`` schema, backs off
deterministically on shed responses, and maps server errors onto the
repo's exception taxonomy:

* 429/503 after retries → :class:`repro.util.ServeOverloaded`
  (carries ``retry_after_s``);
* any other non-200 → :class:`repro.util.ServeError`;
* socket-level failures → :class:`ConnectionError` (the server is not
  there; nothing protocol-shaped happened).

Backoff discipline: retry *k* sleeps ``base * 2**(k-1)`` seconds,
jittered by a factor derived deterministically from ``backoff_seed`` and
capped at ``backoff_cap_s`` — so a thousand clients with distinct seeds
spread out instead of stampeding, while any one client's schedule is
exactly reproducible.  A server-provided ``Retry-After`` (sent with both
429 and 503) acts as a *floor* under the computed delay, never ignored:
the server knows how long its congestion or drain will last better than
the client's exponential curve does.

>>> client = ServeClient(port=8377)
>>> client.wait_ready(timeout_s=5.0)
True
>>> result = client.optimize("matmul", "i7-5930k", fast=True)
>>> result["served_by"]
'search'
"""

from __future__ import annotations

import random
import json
import socket
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Dict, Optional, Tuple

from repro.serve.http import (
    ChunkDecoder,
    format_request,
    parse_response,
    parse_response_head,
)
from repro.serve.schema import REASON_DEADLINE_EXHAUSTED, build_request
from repro.util import Deadline, ServeError, ServeOverloaded

__all__ = ["ServeClient"]


class ServeClient:
    """One server endpoint, any number of sequential requests.

    Parameters
    ----------
    host / port:
        Where the server listens.
    timeout_s:
        Socket timeout for one round-trip.  Optimization requests can
        legitimately take long (a cold exhaustive search), so this is a
        liveness bound, not a latency target.
    retries:
        How many times :meth:`optimize` re-submits after a shed
        (429/503) response before raising
        :class:`~repro.util.ServeOverloaded`.
    backoff_base_s / backoff_cap_s / backoff_seed:
        The deterministic retry schedule (see module docstring): retry
        ``k`` sleeps ``min(cap, base * 2**(k-1)) * jitter(seed, k)``,
        floored by any server-provided ``Retry-After``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8377,
        *,
        timeout_s: float = 120.0,
        retries: int = 3,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 5.0,
        backoff_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError(
                f"backoff_base_s/backoff_cap_s must be >= 0, got "
                f"{backoff_base_s}/{backoff_cap_s}"
            )
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.backoff_seed = int(backoff_seed)

    # -- the endpoints -------------------------------------------------

    def healthz(self) -> Dict:
        """``GET /healthz``; raises :class:`ConnectionError` when down."""
        status, _headers, body = self._roundtrip("GET", "/healthz")
        if status != 200:
            raise ServeError(
                f"healthz returned {status}: {body.get('status', body)}"
            )
        return body

    def probe(self) -> Tuple[int, Dict]:
        """``GET /healthz`` without raising on a non-200 answer.

        Returns ``(http_status, body)`` — what a supervisor's health
        gate needs: a 503-draining worker is *degraded*, not dead, and
        only a socket-level failure (still a :class:`ConnectionError`)
        means nobody is listening.
        """
        status, _headers, body = self._roundtrip("GET", "/healthz")
        return status, body

    def metrics(self) -> Dict:
        """``GET /metrics``: the live ``repro-serve-metrics-v1`` snapshot."""
        status, _headers, body = self._roundtrip("GET", "/metrics")
        if status != 200:
            raise ServeError(f"metrics returned {status}: {body!r}")
        return body

    def get(self, path: str) -> Tuple[int, Dict]:
        """One ``GET`` to any path (the fleet's ``/fleet/status`` etc.)."""
        status, _headers, body = self._roundtrip("GET", path)
        return status, body

    def post(self, path: str, payload: Optional[Dict] = None) -> Tuple[int, Dict]:
        """One ``POST`` to any path (the fleet's ``/fleet/restart``)."""
        status, _headers, body = self._roundtrip("POST", path, payload or {})
        return status, body

    def tune(self, payload: Dict):
        """``POST /v1/tune``: stream a fleet tune job's progress.

        Yields each NDJSON record of the chunked response as a dict —
        one ``repro-tune-v1`` cell record per settled cell, then the
        final ``repro-tune-report-v1`` document as the last item.  The
        connection stays open for the whole job, so ``timeout_s``
        bounds the gap *between* records, not the job.

        Raises :class:`ConnectionError` for socket-level failures or a
        stream torn before its terminating chunk (resume by re-POSTing
        the same request — the server journals per-cell progress), and
        :class:`~repro.util.ServeError` when the server answers with a
        plain JSON error document instead of a stream.
        """
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = format_request(
            "POST", "/v1/tune", self.host, self.port, body
        )
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach server at {self.host}:{self.port}: {exc}"
            ) from exc
        try:
            try:
                sock.sendall(head + body)
                buffer = b""
                while b"\r\n\r\n" not in buffer:
                    data = sock.recv(65536)
                    if not data:
                        raise ConnectionError(
                            "server closed the connection before answering"
                        )
                    buffer += data
            except socket.timeout as exc:
                raise ConnectionError(
                    f"tune request to {self.host}:{self.port} timed out "
                    f"after {self.timeout_s:g}s"
                ) from exc
            except OSError as exc:
                raise ConnectionError(
                    f"connection to {self.host}:{self.port} died "
                    f"mid-request: {exc}"
                ) from exc
            head_bytes, _, rest = buffer.partition(b"\r\n\r\n")
            status, headers = parse_response_head(head_bytes)
            if headers.get("transfer-encoding", "").lower() != "chunked":
                # A plain JSON document: the server refused the job.
                raw = buffer + _read_all(sock)
                status, _headers, doc = parse_response(raw)
                raise ServeError(
                    f"tune failed (HTTP {status}): "
                    f"{doc.get('error', doc)}"
                )
            decoder = ChunkDecoder()
            pending = decoder.feed(rest)
            line_buffer = b""
            while True:
                for piece in pending:
                    line_buffer += piece
                    while b"\n" in line_buffer:
                        line, _, line_buffer = line_buffer.partition(b"\n")
                        if line.strip():
                            try:
                                record = json.loads(line.decode("utf-8"))
                            except (json.JSONDecodeError,
                                    UnicodeDecodeError):
                                raise ServeError(
                                    "tune stream carried a non-JSON line"
                                ) from None
                            yield record
                if decoder.done:
                    break
                try:
                    data = sock.recv(65536)
                except socket.timeout as exc:
                    raise ConnectionError(
                        f"tune stream from {self.host}:{self.port} "
                        f"stalled over {self.timeout_s:g}s"
                    ) from exc
                except OSError as exc:
                    raise ConnectionError(
                        f"tune stream from {self.host}:{self.port} died: "
                        f"{exc}"
                    ) from exc
                if not data:
                    raise ConnectionError(
                        "tune stream ended before its terminating chunk"
                    )
                pending = decoder.feed(data)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def optimize(
        self,
        benchmark: Optional[str] = None,
        platform: str = "",
        *,
        fast: bool = False,
        deadline_ms: Optional[float] = None,
        hedge_after_s: Optional[float] = None,
        spec: Optional[str] = None,
        dims: Optional[Dict[str, int]] = None,
        dtypes: Optional[Dict[str, str]] = None,
        params: Optional[Dict[str, float]] = None,
        **options,
    ) -> Dict:
        """Submit one optimization request; block until its result.

        The target is exactly one of ``benchmark`` (a named suite
        kernel, a ``repro-serve-v1`` body on the wire) or ``spec`` +
        ``dims`` (a kernel spec string, lowered server-side; the body is
        ``repro-serve-v1.1`` and the response echoes ``schema_version``,
        ``spec`` and ``dims``).  Spec submissions coalesce and cache-hit
        with ir submissions of the same kernel.

        Returns the full result payload (``schedules`` carries one
        replayable ``repro-schedule-v1`` document per pipeline stage).
        Shed responses are retried on the deterministic backoff
        schedule; see the class docstring for the failure taxonomy.

        ``deadline_ms`` is the caller's *own* end-to-end budget, charged
        once here: re-submissions carry only the shrunken remainder, and
        the retry loop stops — raising
        :class:`~repro.util.ServeOverloaded` with
        ``reason="deadline_exhausted"`` and the last shed status — the
        moment the budget forbids another attempt, instead of sleeping
        through a backoff it can no longer afford.

        ``hedge_after_s`` arms *bounded hedging*: when the primary
        request has not answered within that many seconds and the
        deadline budget (if any) still has time left, exactly one backup
        request is launched and the first answer wins.  Server-side
        request coalescing makes the backup share the primary's
        computation, so a hedge never duplicates a search — it only
        dodges a slow or dying connection.
        """
        payload = build_request(
            benchmark,
            platform,
            fast=fast,
            deadline_ms=deadline_ms,
            spec=spec,
            dims=dims,
            dtypes=dtypes,
            params=params,
            **options,
        )
        deadline = (
            Deadline(deadline_ms / 1000.0, "client")
            if deadline_ms is not None
            else None
        )
        if hedge_after_s is None:
            return self._optimize_with_retries(payload, deadline)
        return self._optimize_hedged(payload, deadline, hedge_after_s)

    def _optimize_with_retries(
        self, payload: Dict, deadline: Optional[Deadline]
    ) -> Dict:
        """The retry loop: deterministic backoff, deadline-aware stop."""
        attempt = 0
        while True:
            request = payload
            if deadline is not None:
                remaining_ms = deadline.remaining_ms()
                if remaining_ms <= 0:
                    raise ServeOverloaded(
                        f"deadline of {payload['deadline_ms']:g} ms "
                        f"exhausted before the request could be "
                        f"(re)submitted (deadline_exhausted)",
                        retry_after_s=0.05,
                        reason=REASON_DEADLINE_EXHAUSTED,
                    )
                # Re-submissions spend from the same budget: the server
                # must never be granted time the caller no longer has.
                request = dict(payload)
                request["deadline_ms"] = remaining_ms
            status, headers, body = self._roundtrip(
                "POST", "/v1/optimize", request
            )
            if status == 200:
                return body
            if status in (429, 503):
                floor = _retry_after_s(headers, body)
                if attempt < self.retries:
                    attempt += 1
                    delay = self.backoff_s(attempt, floor=floor)
                    if deadline is not None and (
                        deadline.expired()
                        or delay >= (deadline.remaining() or 0.0)
                    ):
                        # The budget cannot absorb this backoff: stop
                        # retrying NOW and surface the last shed answer
                        # with the deadline_exhausted hint, rather than
                        # sleeping into a guaranteed timeout.
                        raise ServeOverloaded(
                            f"{body.get('error', f'HTTP {status}')} — "
                            f"deadline budget cannot absorb another "
                            f"{delay:.3f}s backoff (deadline_exhausted)",
                            retry_after_s=floor,
                            reason=REASON_DEADLINE_EXHAUSTED,
                            last_status=status,
                        )
                    time.sleep(delay)
                    continue
                raise ServeOverloaded(
                    body.get(
                        "error",
                        f"server overloaded (HTTP {status}) after "
                        f"{self.retries} retries",
                    ),
                    retry_after_s=floor,
                    last_status=status,
                )
            raise ServeError(
                f"optimize failed (HTTP {status}): "
                f"{body.get('error', body)}"
            )

    def _optimize_hedged(
        self,
        payload: Dict,
        deadline: Optional[Deadline],
        hedge_after_s: float,
    ) -> Dict:
        """Primary plus at most ONE budget-gated backup; first answer wins."""
        if hedge_after_s < 0:
            raise ValueError(
                f"hedge_after_s must be >= 0, got {hedge_after_s}"
            )
        pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-hedge"
        )
        try:
            primary = pool.submit(
                self._optimize_with_retries, payload, deadline
            )
            done, _pending = wait([primary], timeout=hedge_after_s)
            futures = [primary]
            if not done and (
                deadline is None or (deadline.remaining() or 0.0) > 0
            ):
                futures.append(
                    pool.submit(
                        self._optimize_with_retries, payload, deadline
                    )
                )
            while True:
                done, pending = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    if future.exception() is None:
                        return future.result()
                if not pending:
                    raise primary.exception()
                futures = list(pending)
        finally:
            # Never block the winner on the loser's socket; the loser
            # thread finishes (or times out) on its own.
            pool.shutdown(wait=False)

    def backoff_s(self, attempt: int, *, floor: float = 0.0) -> float:
        """The deterministic delay before retry ``attempt`` (1-based).

        ``min(cap, base * 2**(attempt-1))`` scaled by a jitter factor in
        ``[1, 1.5]`` seeded from ``backoff_seed`` and the attempt index
        (identical across reruns, uncorrelated across seeds), then
        floored by the server's ``Retry-After`` — the server's hint may
        lengthen a wait, never shorten the cap's protection.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * 2.0 ** (attempt - 1),
        )
        rng = random.Random(f"{self.backoff_seed}#{attempt}")
        return max(float(floor), base * (1.0 + 0.5 * rng.random()))

    def wait_ready(
        self, timeout_s: float = 10.0, interval_s: float = 0.05
    ) -> bool:
        """Poll ``/healthz`` until the server answers 200 (or time out)."""
        give_up = time.perf_counter() + timeout_s
        while time.perf_counter() < give_up:
            try:
                self.healthz()
                return True
            except (ConnectionError, OSError, ServeError):
                time.sleep(interval_s)
        return False

    # -- raw HTTP ------------------------------------------------------

    def _roundtrip(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Tuple[int, Dict[str, str], Dict]:
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = format_request(method, path, self.host, self.port, body)
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            ) as sock:
                sock.sendall(head + body)
                raw = _read_all(sock)
        except socket.timeout as exc:
            raise ConnectionError(
                f"request to {self.host}:{self.port} timed out after "
                f"{self.timeout_s:g}s"
            ) from exc
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach server at {self.host}:{self.port}: {exc}"
            ) from exc
        return parse_response(raw)


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _retry_after_s(headers: Dict[str, str], body: Dict) -> float:
    value = body.get("retry_after_s", headers.get("retry-after", 1.0))
    try:
        return max(0.05, float(value))
    except (TypeError, ValueError):
        return 1.0
