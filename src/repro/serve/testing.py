"""In-process service harness for tests and the CI smoke jobs.

``LoopThread`` runs any :class:`repro.serve.service.HttpService` on a
daemon thread with its own event loop, hands back the bound port once
the listener is up, and drains it from the calling thread on exit.
``ServerThread`` is that harness around one
:class:`repro.serve.OptimizeServer` — exactly what a test (or a
short-lived smoke script) needs to treat the server as a
context-managed fixture::

    with ServerThread(queue_limit=4, cache_path=tmp / "cache.jsonl") as srv:
        client = ServeClient(port=srv.port)
        result = client.optimize("matmul", "i7-5930k", fast=True)

Startup failures (a taken port, a bad argument) propagate to the
caller's thread from :meth:`LoopThread.start` instead of dying silently
on the daemon thread.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.serve.server import OptimizeServer
from repro.serve.service import HttpService

__all__ = ["LoopThread", "ServerThread"]


class LoopThread:
    """One service on one daemon thread; context-managed lifecycle."""

    def __init__(self, service: HttpService) -> None:
        self.service = service
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout_s: float = 10.0) -> int:
        """Start the loop thread; block until the listener is bound."""
        name = self.service.PROG.replace(" ", "-")
        self._thread = threading.Thread(
            target=self._run, name=f"{name}-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError(
                f"{self.service.PROG} failed to start within the timeout"
            )
        if self._startup_error is not None:
            raise self._startup_error
        return self.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.port = loop.run_until_complete(self.service.start())
        except BaseException as exc:  # surfaced from start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def drain(self, timeout_s: float = 60.0) -> None:
        """Graceful drain from the calling thread; stops the loop after."""
        if self._loop is None or self._thread is None:
            return
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(), self._loop
        )
        future.result(timeout=timeout_s)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "LoopThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()


class ServerThread(LoopThread):
    """One :class:`OptimizeServer` on its own loop thread."""

    def __init__(self, **server_kwargs) -> None:
        self.server = OptimizeServer(**server_kwargs)
        super().__init__(self.server)
