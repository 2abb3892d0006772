"""In-process fleet harness for tests and the CI fleet-smoke job.

``FleetThread`` boots a whole fleet — N ``repro serve`` worker
subprocesses under a :class:`repro.fleet.FleetSupervisor`, plus a
:class:`repro.fleet.FleetRouter` on a daemon thread with its own event
loop — and tears it all down on exit::

    with FleetThread(workers=2, cache_path=tmp / "cache.jsonl") as fleet:
        client = ServeClient(port=fleet.port)
        result = client.optimize("matmul", "i7-5930k", fast=True)

The supervisor is exposed (``fleet.supervisor``) so failover tests can
reach its fault hooks (``kill_worker``, per-shard ``worker_env``) while
talking to the router like any client would.

``self_hosted_fleet(N)`` is the throwaway fleet behind ``repro loadgen
--fleet N`` and ``repro tune --fleet N``: its shard caches live in a
temporary directory that goes away with it.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import tempfile
import threading
from typing import Iterator, Optional

from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import FleetSupervisor

__all__ = ["FleetThread", "self_hosted_fleet"]


class FleetThread:
    """One supervisor + one router on one daemon thread."""

    def __init__(self, *, router_kwargs=None, **supervisor_kwargs) -> None:
        self.supervisor = FleetSupervisor(**supervisor_kwargs)
        self.router = FleetRouter(self.supervisor, **(router_kwargs or {}))
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout_s: float = 60.0) -> int:
        """Boot workers, bind the router; block until both are ready."""
        self.supervisor.start()
        try:
            self._thread = threading.Thread(
                target=self._run, name="repro-fleet-loop", daemon=True
            )
            self._thread.start()
            if not self._ready.wait(timeout_s):
                raise RuntimeError(
                    "fleet router failed to start within the timeout"
                )
            if self._startup_error is not None:
                raise self._startup_error
        except BaseException:
            self.supervisor.stop()
            raise
        return self.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.port = loop.run_until_complete(self.router.start())
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

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain the router, stop the loop, drain every worker."""
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive():
                future = asyncio.run_coroutine_threadsafe(
                    self.router.drain(), self._loop
                )
                future.result(timeout=timeout_s)
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=timeout_s)
        self.supervisor.stop()

    def __enter__(self) -> "FleetThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


@contextlib.contextmanager
def self_hosted_fleet(workers: int) -> Iterator[FleetThread]:
    """Boot an N-worker fleet on fresh caches; tear both down on exit.

    The shard caches — and so the server-side tune journal, which lives
    next to them — persist for the fleet's lifetime, so a second tune
    POST to the same fleet resumes from the first.
    """
    with tempfile.TemporaryDirectory() as tmp:
        with FleetThread(
            workers=workers,
            cache_path=os.path.join(tmp, "cache.jsonl"),
            queue_limit=32,
        ) as fleet:
            yield fleet
