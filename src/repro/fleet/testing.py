"""In-process fleet harness for tests and the CI fleet-smoke job.

``FleetThread`` boots a whole fleet — N ``repro serve`` worker
subprocesses under a :class:`repro.fleet.FleetSupervisor`, plus a
:class:`repro.fleet.FleetRouter` on the same loop-thread harness as
:class:`repro.serve.ServerThread` — and tears it all down on exit::

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

import contextlib
import os
import tempfile
from typing import Iterator

from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import FleetSupervisor
from repro.serve.testing import LoopThread

__all__ = ["FleetThread", "self_hosted_fleet"]


class FleetThread(LoopThread):
    """One supervisor + one router on one daemon thread."""

    def __init__(self, *, router_kwargs=None, **supervisor_kwargs) -> None:
        self.supervisor = FleetSupervisor(**supervisor_kwargs)
        self.router = FleetRouter(self.supervisor, **(router_kwargs or {}))
        super().__init__(self.router)

    def start(self, timeout_s: float = 60.0) -> int:
        """Boot workers, bind the router; block until both are ready."""
        self.supervisor.start()
        try:
            return super().start(timeout_s)
        except BaseException:
            self.supervisor.stop()
            raise

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain the router, stop the loop, drain every worker."""
        self.drain(timeout_s)
        self.supervisor.stop()

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
