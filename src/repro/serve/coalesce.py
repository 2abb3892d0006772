"""Request coalescing: identical in-flight requests share one computation.

The unit of work is a :class:`Job` — one distinct ``(func, arch,
options)`` identity (the :func:`repro.serve.schema.coalesce_key`),
whatever number of HTTP requests are waiting on it.  The
:class:`CoalesceTable` maps key → live job from admission until the
result is delivered, so the window in which a duplicate can piggyback
covers the *whole* lifetime of the computation: queued, dispatched
and executing.  This is the request-collapsing discipline of CDN caches
("request coalescing") applied to optimizer searches, and it is what
turns a thundering herd of identical requests into exactly one walk of
the Algorithm 2/3 lattices.

Single-threaded by design: the table is only ever touched from the
server's asyncio event loop (admission and completion both run there),
so it needs no lock — the worker pool only sees already-created jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.serve.schema import ServeRequest
from repro.util import Deadline

__all__ = ["CoalesceTable", "Job"]


@dataclass
class Job:
    """One admitted computation and everyone waiting on it.

    ``future`` resolves to ``("ok", payload_dict)`` or ``("error",
    status, message)``; every waiter of the job receives the same
    outcome.  ``index`` is the 1-based admission order, which is what
    the deterministic fault plan keys on.
    """

    key: str
    request: ServeRequest
    case: object  # repro.bench.BenchmarkCase; opaque here
    future: object  # asyncio.Future, created on the server's loop
    index: int
    deadline: Optional[Deadline] = None
    admitted_at: float = field(default_factory=time.perf_counter)
    waiters: int = 1


class CoalesceTable:
    """Key → in-flight :class:`Job`; event-loop-confined, no locking."""

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, key: str) -> bool:
        return key in self._jobs

    def lookup(self, key: str) -> Optional[Job]:
        """Return the live job for ``key`` and count one more waiter."""
        job = self._jobs.get(key)
        if job is not None:
            job.waiters += 1
        return job

    def admit(self, job: Job) -> None:
        if job.key in self._jobs:
            raise RuntimeError(
                f"job {job.key[:12]}... admitted twice; lookup() first"
            )
        self._jobs[job.key] = job

    def complete(self, key: str) -> Optional[Job]:
        """Drop ``key`` from the table (the job's result is delivered).

        From this moment a new identical request starts a fresh job —
        which will hit the persistent schedule cache instead of
        searching, so nothing is recomputed; only the sharing window
        closes.
        """
        return self._jobs.pop(key, None)
