"""The HTTP service core shared by the serve worker and the fleet router.

:class:`HttpService` owns the connection level: binding the listener,
reading one request under :data:`IO_TIMEOUT_S`, answering
:class:`~repro.serve.http.HttpViolation` and dropping torn connections,
the ``path -> (method, handler)`` table with its 404 and
``"<name> is <METHOD>-only"`` 405, ``Retry-After``, the idempotent
drain and the SIGTERM/SIGINT-driven :meth:`~HttpService.run`.
:class:`repro.serve.OptimizeServer` and :class:`repro.fleet.FleetRouter`
bring only their routes, their banner and what they set up or wait on
around a drain.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
from typing import Awaitable, Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.exitcodes import EXIT_OK
from repro.serve.http import (
    HttpViolation,
    IO_TIMEOUT_S,
    read_request,
    write_response,
)
from repro.serve.schema import error_payload

__all__ = ["HttpService", "Reply", "Request", "retry_after_header"]

#: One complete JSON answer: ``(status, body, extra headers or None)``.
Reply = Tuple[int, Dict, Optional[Dict[str, str]]]


class Request(NamedTuple):
    """One parsed request and the stream its answer goes out on."""

    headers: Dict[str, str]
    body: bytes
    writer: asyncio.StreamWriter


#: A route handler returns its :data:`Reply`, or ``None`` once it has
#: written its own response to ``request.writer`` (a streamed answer).
Handler = Callable[[Request], Awaitable[Optional[Reply]]]


def retry_after_header(seconds: float) -> Dict[str, str]:
    """The ``Retry-After`` header for a backoff hint: whole seconds, >= 1."""
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


class HttpService:
    """A ``Connection: close`` JSON service on one asyncio listener.

    ``routes`` maps each path to its one allowed method and handler.
    Subclasses set :attr:`PROG` (the stderr prefix) and :meth:`banner`,
    and may extend :meth:`start`, :meth:`_busy`, :meth:`_release` and
    :meth:`_shutdown`.
    """

    PROG = "repro"

    def __init__(
        self,
        routes: Dict[str, Tuple[str, Handler]],
        *,
        host: str,
        port: int,
        retry_after_s: float,
    ) -> None:
        if retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be positive, got {retry_after_s}"
            )
        self.host = host
        self.port = int(port)
        self.retry_after_s = float(retry_after_s)
        self._routes = routes
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self._open_conns = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> int:
        """Bind the listener; returns the bound port."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def drain(self) -> None:
        """Stop accepting, wait until nothing is busy, then release.

        Idempotent; concurrent callers all return once the first drain
        completes.  Every open connection gets to write its answer.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._busy():
            await asyncio.sleep(0.02)
        await self._release()
        self._drained.set()

    def _busy(self) -> bool:
        """Does the drain still have work to wait for?"""
        return self._open_conns > 0

    async def _release(self) -> None:
        """Free what :meth:`start` set up; runs once nothing is busy."""

    def _shutdown(self) -> None:
        """Runs after :meth:`run`'s event loop has ended."""

    def banner(self) -> str:
        """The stderr line :meth:`run` prints once the listener is up."""
        raise NotImplementedError

    def run(self) -> int:
        """Blocking entry point for the CLI: serve until SIGTERM/SIGINT.

        Returns 0 after a clean drain.  Startup errors (e.g. the port is
        taken) propagate as :class:`OSError` for the CLI to render.
        """

        async def _main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(self.drain())
                    )
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix event loops: ctrl-C still KeyboardInterrupts
            print(self.banner(), file=sys.stderr, flush=True)
            await self._drained.wait()

        asyncio.run(_main())
        self._shutdown()
        print(f"{self.PROG}: drained, bye", file=sys.stderr, flush=True)
        return EXIT_OK

    # -- one connection ------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        self._open_conns += 1
        try:
            try:
                method, path, headers, body = await asyncio.wait_for(
                    read_request(reader), timeout=IO_TIMEOUT_S
                )
            except HttpViolation as exc:
                await write_response(
                    writer, exc.status, error_payload(exc.status, str(exc))
                )
                return
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                ConnectionError,
                ValueError,
            ):
                return  # torn or silent connection: nothing to answer
            reply = await self._route(
                method, path, Request(headers, body, writer)
            )
            if reply is not None:
                await write_response(writer, *reply)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._open_conns -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, method: str, path: str, request: Request
    ) -> Optional[Reply]:
        route = self._routes.get(path)
        if route is None:
            return 404, error_payload(404, f"unknown path {path!r}"), None
        allowed, handler = route
        if method != allowed:
            name = path.rsplit("/", 1)[-1]
            return 405, error_payload(405, f"{name} is {allowed}-only"), None
        return await handler(request)

    def _retry_header(self) -> Dict[str, str]:
        return retry_after_header(self.retry_after_s)
