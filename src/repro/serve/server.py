"""The optimization service: a pure-asyncio HTTP/1.1 JSON server.

Architecture (one event loop, one bounded queue, one worker pool)::

    HTTP conn ──► admission ──► CoalesceTable ──► asyncio.Queue ──► dispatcher
                   (400/429/503)   (share in-flight)  (bounded)       (per free slot)
                                                                        │
    HTTP conn ◄── response  ◄── job future  ◄── worker pool  ◄──────────┘
                                               (threads)

* **Admission control** — requests are validated, fingerprinted and
  either coalesced onto an in-flight job, enqueued, or *shed*: when the
  bounded queue is full (or the server is draining) the response is an
  immediate 429/503 with ``Retry-After``, never an unbounded queue.
* **Dispatch** — the dispatcher hands the pool one queued job as soon
  as a worker slot frees; coalescing needs no wait, since a job shares
  itself from admission to completion.
* **Warm paths** — each pipeline stage consults the persistent
  :class:`repro.cache.ScheduleCache` before any search; a fully-cached
  request never touches Algorithms 2/3.
* **Deadlines** — a request's ``deadline_ms`` starts counting at
  admission; time spent queued is charged against it, and the remainder
  is mapped onto the optimizer's cooperative
  :class:`~repro.util.Deadline` checkpoints.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, let every
  admitted job finish and every open connection respond, then shut the
  pool down; in-flight requests are never dropped.
* **Operability** — ``/healthz``, ``/metrics``
  (``repro-serve-metrics-v1``), per-request ``serve.*`` trace events
  through the standard :class:`repro.obs.Tracer` protocol, and a
  deterministic fault hook (a :class:`repro.robust.FaultPlan` of
  ``slow``/``crash`` specs, or ``REPRO_SERVE_FAULT``) for testing
  slow/crashed workers.

The HTTP surface is deliberately minimal — ``Connection: close``, JSON
bodies, three routes on the shared :class:`repro.serve.service.HttpService`
core — because the protocol is an implementation detail of
:mod:`repro.serve.client`; nothing here depends on ``http.server``.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.arch import platform_by_name
from repro.cache import ScheduleCache
from repro.ir.serialize import schedule_to_dict
from repro.obs import NULL_TRACER
from repro.obs.events import (
    EVENT_SERVE_DRAIN,
    EVENT_SERVE_REQUEST,
    EVENT_SERVE_SHED,
)
from repro.robust.faults import (
    KIND_CRASH,
    KIND_SLOW,
    SERVE_FAULT_ENV,
    SITE_JOB,
    FaultPlan,
    FaultSpec,
)
from repro.serve.coalesce import CoalesceTable, Job
from repro.serve.http import DEADLINE_HEADER
from repro.serve.identify import REQUEST_ERRORS, identify_request, rejection
from repro.serve.metrics import ServeMetrics
from repro.options import OptimizeOptions
from repro.serve.schema import (
    REASON_DEADLINE_EXPIRED,
    REASON_INVALID_SPEC,
    SERVED_BY_CACHE,
    SERVED_BY_COALESCED,
    SERVED_BY_SEARCH,
    error_payload,
    healthz_payload,
    parse_request,
    render_for,
    result_payload,
)
from repro.serve.service import HttpService, Reply, Request
from repro.util import (
    Deadline,
    DeadlineExceeded,
    ReproError,
    ValidationError,
    resolve_workers,
)

__all__ = ["OptimizeServer"]


class OptimizeServer(HttpService):
    """One long-lived optimization service instance.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (``.port`` reports
        the bound one after :meth:`start`).
    workers:
        Worker-pool threads executing jobs (``0``/``"auto"`` resolve via
        :func:`repro.util.resolve_workers`).
    queue_limit:
        Bound on admitted-but-undispatched jobs; beyond it requests are
        shed with 429 + ``Retry-After``.
    cache_path:
        Persistent :class:`repro.cache.ScheduleCache` consulted before
        every search and taught after each one.
    tracer:
        :class:`repro.obs.Tracer` receiving ``serve.*`` events.
    fault_plan:
        :class:`repro.robust.FaultPlan` (or a bare ``slow``/``crash``
        :class:`~repro.robust.FaultSpec`) consulted once per executed
        job; defaults to whatever ``REPRO_SERVE_FAULT`` arms (or
        nothing).
    retry_after_s:
        The backoff hint attached to shed responses.
    """

    PROG = "repro serve"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers=1,
        queue_limit: int = 16,
        cache_path: Optional[str] = None,
        tracer=None,
        fault_plan: Optional[FaultPlan] = None,
        retry_after_s: float = 1.0,
    ) -> None:
        self.workers = resolve_workers(workers)
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        super().__init__(
            {
                "/healthz": ("GET", self._get_healthz),
                "/metrics": ("GET", self._get_metrics),
                "/v1/optimize": ("POST", self._handle_optimize),
            },
            host=host,
            port=port,
            retry_after_s=retry_after_s,
        )
        self.queue_limit = int(queue_limit)
        self.metrics = ServeMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cache = (
            ScheduleCache(cache_path, tracer=self.tracer)
            if cache_path
            else None
        )
        if fault_plan is None:
            fault_plan = FaultSpec.from_env(SERVE_FAULT_ENV)
        if isinstance(fault_plan, FaultSpec):
            # A bare spec (slow_job/crash_job, or the env's) is a plan of one.
            fault_plan = FaultPlan(fault_plan)
        self.fault_plan = fault_plan

        self._table = CoalesceTable()
        self._slots: Optional[asyncio.Semaphore] = None
        self._queue: Optional[asyncio.Queue] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._admitted = 0
        self._in_flight = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> int:
        """Heal the cache, start the pool and dispatcher; returns the port."""
        if self.cache is not None:
            # Self-heal before serving: corrupt lines (torn appends from
            # a SIGKILLed predecessor, disk bit-flips) are counted,
            # quarantined to the sidecar, and compacted away — so this
            # instance starts from a store that is clean by construction.
            await asyncio.get_running_loop().run_in_executor(
                None, self.cache.heal
            )
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._slots = asyncio.Semaphore(self.workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        port = await super().start()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return port

    async def drain(self) -> None:
        """Stop accepting, finish everything admitted, release the pool.

        Every job admitted before the drain started produces a response,
        and every open connection gets to write it.
        """
        if not self._draining:
            self.tracer.event(
                EVENT_SERVE_DRAIN,
                queued=self._queue.qsize() if self._queue else 0,
                in_flight=self._in_flight,
            )
        await super().drain()

    def _busy(self) -> bool:
        return bool(
            (self._queue is not None and not self._queue.empty())
            or len(self._table)
            or self._in_flight
            or super()._busy()
        )

    async def _release(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def banner(self) -> str:
        return (
            f"{self.PROG}: listening on http://{self.host}:{self.port} "
            f"(workers={self.workers}, queue_limit={self.queue_limit})"
        )

    # -- routes --------------------------------------------------------

    def healthz_snapshot(self) -> Dict:
        """The live enriched ``/healthz`` body (``repro-serve-v1``)."""
        return healthz_payload(
            draining=self._draining,
            queue_depth=self._queue.qsize() if self._queue else 0,
            queue_limit=self.queue_limit,
            in_flight=self._in_flight,
            admitted=self._admitted,
        )

    async def _get_healthz(self, _request: Request) -> Reply:
        # The body is the router's health-gating input, so it is always
        # the full snapshot; a draining worker still answers 503 so bare
        # liveness probes keep their old meaning.
        if self._draining:
            return 503, self.healthz_snapshot(), self._retry_header()
        return 200, self.healthz_snapshot(), None

    async def _get_metrics(self, _request: Request) -> Reply:
        return 200, self.metrics_snapshot(), None

    def metrics_snapshot(self) -> Dict:
        """The live ``repro-serve-metrics-v1`` document."""
        tracer_counters = {}
        if getattr(self.tracer, "enabled", False):
            try:
                tracer_counters = self.tracer.counters()
            except Exception:  # pragma: no cover - defensive
                tracer_counters = {}
        return self.metrics.snapshot(
            queue_depth=self._queue.qsize() if self._queue else 0,
            queue_limit=self.queue_limit,
            in_flight=self._in_flight,
            draining=self._draining,
            cache=self.cache.stats.to_dict() if self.cache else None,
            tracer_counters=tracer_counters,
        )

    # -- admission -----------------------------------------------------

    async def _handle_optimize(self, http: Request) -> Reply:
        arrived = time.perf_counter()
        self.metrics.bump("requests_total")
        if self._draining:
            self.metrics.bump("shed")
            self.tracer.event(EVENT_SERVE_SHED, reason="draining")
            return (
                503,
                error_payload(
                    503,
                    "server is draining; retry against a fresh instance",
                    retry_after_s=self.retry_after_s,
                ),
                self._retry_header(),
            )
        request = None
        try:
            request = parse_request(json.loads(http.body.decode("utf-8")))
            case, arch, key = identify_request(request)
        except REQUEST_ERRORS as exc:
            # A spec that does not lower is the caller's bug, not ours:
            # 400 with the machine-readable invalid_spec tag, never 500.
            return rejection(request, exc)

        # The fleet router charges the end-to-end budget once at its own
        # admission and forwards only the *remainder* here; when the
        # header is present it overrides the body's deadline_ms (which
        # the router already spent from).  Exhausted work is refused
        # before it can queue — searching for a caller whose budget is
        # gone wastes a worker and can only produce a late answer.
        budget_ms = request.deadline_ms
        raw_budget = http.headers.get(DEADLINE_HEADER)
        if raw_budget is not None:
            try:
                budget_ms = float(raw_budget)
            except ValueError:
                return (
                    400,
                    error_payload(
                        400,
                        f"malformed {DEADLINE_HEADER} header: {raw_budget!r}",
                    ),
                    None,
                )
        if budget_ms is not None and budget_ms <= 0:
            self.metrics.bump("deadline_expired")
            self.metrics.bump("responses_error")
            payload = error_payload(
                504,
                "end-to-end deadline budget exhausted before admission",
                reason=REASON_DEADLINE_EXPIRED,
            )
            payload["benchmark"] = request.label
            payload["platform"] = request.platform
            self.tracer.event(
                EVENT_SERVE_REQUEST,
                benchmark=request.label,
                platform=request.platform,
                served_by="error",
                status=504,
                elapsed_ms=round(
                    (time.perf_counter() - arrived) * 1000.0, 3
                ),
            )
            return 504, render_for(request, payload), None

        job = self._table.lookup(key)
        coalesced = job is not None
        if coalesced:
            self.metrics.bump("coalesced")
        else:
            self._admitted += 1
            job = Job(
                key=key,
                request=request,
                case=case,
                future=self._loop.create_future(),
                index=self._admitted,
                deadline=(
                    Deadline(budget_ms / 1000.0, label="repro.serve")
                    if budget_ms is not None
                    else None
                ),
            )
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self.metrics.bump("shed")
                self.tracer.event(
                    EVENT_SERVE_SHED,
                    reason="queue_full",
                    queue_limit=self.queue_limit,
                )
                return (
                    429,
                    error_payload(
                        429,
                        f"admission queue is full "
                        f"({self.queue_limit} jobs); retry after "
                        f"{self.retry_after_s:g}s",
                        retry_after_s=self.retry_after_s,
                    ),
                    self._retry_header(),
                )
            self._table.admit(job)

        outcome = await asyncio.shield(job.future)
        elapsed_ms = (time.perf_counter() - arrived) * 1000.0
        self.metrics.observe_latency(elapsed_ms)
        if outcome[0] == "ok":
            payload = render_for(request, dict(outcome[1]))
            if coalesced:
                payload["served_by"] = SERVED_BY_COALESCED
            self.metrics.bump("responses_ok")
            self.tracer.event(
                EVENT_SERVE_REQUEST,
                benchmark=request.label,
                platform=request.platform,
                served_by=payload["served_by"],
                status=200,
                elapsed_ms=round(elapsed_ms, 3),
            )
            return 200, payload, None
        _tag, status, message, reason = outcome
        self.metrics.bump("responses_error")
        self.tracer.event(
            EVENT_SERVE_REQUEST,
            benchmark=request.label,
            platform=request.platform,
            served_by="error",
            status=status,
            elapsed_ms=round(elapsed_ms, 3),
        )
        payload = error_payload(status, message, reason=reason)
        if status == 504:
            # Deadline 504s keep their attribution: a timed-out caller
            # (or the chaos harness) still learns which request died.
            payload["benchmark"] = request.label
            payload["platform"] = request.platform
        return status, render_for(request, payload), None

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            # Gate on a free worker slot so the bounded queue stays the
            # real backpressure boundary: without this the dispatcher
            # would swallow the queue into an unbounded set of waiting
            # futures and shedding would never fire.
            await self._slots.acquire()
            self._in_flight += 1
            asyncio.ensure_future(self._run_job(job))

    async def _run_job(self, job: Job) -> None:
        try:
            payload = await self._loop.run_in_executor(
                self._pool, self._execute, job
            )
            outcome = ("ok", payload)
        except DeadlineExceeded as exc:
            self.metrics.bump("deadline_expired")
            outcome = (
                "error",
                504,
                f"deadline exceeded: {exc}",
                REASON_DEADLINE_EXPIRED,
            )
        except ValidationError as exc:
            # Safety net: malformed specs are normally rejected at
            # admission, but if one slips into the worker it is still
            # the caller's bug — a 400, never a 500.
            outcome = ("error", 400, str(exc), REASON_INVALID_SPEC)
        except ReproError as exc:
            outcome = ("error", 500, str(exc), None)
        except Exception as exc:  # pragma: no cover - last-resort guard
            outcome = ("error", 500, f"internal error: {exc}", None)
        finally:
            self._in_flight -= 1
            self._slots.release()
        self._table.complete(job.key)
        if not job.future.done():
            job.future.set_result(outcome)

    # -- the worker (runs on pool threads) -----------------------------

    def _execute(self, job: Job) -> Dict:
        if self.fault_plan is not None:
            spec = self.fault_plan.next(SITE_JOB)
            if spec is not None:
                self.metrics.bump("faults_injected")
                if spec.kind == KIND_SLOW:
                    time.sleep(spec.seconds)
                elif spec.kind == KIND_CRASH:
                    raise ReproError(
                        "injected fault: serve worker crashed before the "
                        "search"
                    )
        started = time.perf_counter()
        request = job.request
        arch = platform_by_name(request.platform)
        schedules: List[Tuple[str, Dict]] = []
        sources: List[str] = []
        for stage in job.case.pipeline:
            if job.deadline is not None:
                job.deadline.check("serve queue")
            hit = (
                self.cache.get(stage, arch, request.options)
                if self.cache is not None
                else None
            )
            if hit is not None:
                self.metrics.bump("cache_hits")
                schedules.append((stage.name, schedule_to_dict(hit)))
                sources.append(SERVED_BY_CACHE)
                continue
            if self.cache is not None:
                self.metrics.bump("cache_misses")
            self.metrics.bump("searches")
            remaining_ms = None
            if job.deadline is not None:
                remaining_ms = max(job.deadline.remaining(), 0.0) * 1000.0
                if remaining_ms <= 0:
                    job.deadline.check("serve dispatch")
            result = api.optimize(
                api.OptimizeRequest(
                    func=stage,
                    arch=arch,
                    deadline_ms=remaining_ms,
                    options=OptimizeOptions(**request.options),
                )
            )
            if self.cache is not None:
                self.cache.put(
                    stage,
                    arch,
                    request.options,
                    result.schedule,
                    meta={
                        "origin": "serve",
                        "benchmark": request.label,
                        "platform": request.platform,
                    },
                )
            schedules.append((stage.name, schedule_to_dict(result.schedule)))
            sources.append(SERVED_BY_SEARCH)
        served_by = (
            SERVED_BY_CACHE
            if sources and all(s == SERVED_BY_CACHE for s in sources)
            else SERVED_BY_SEARCH
        )
        return result_payload(
            request,
            job.key,
            schedules,
            served_by=served_by,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            stage_sources=sources,
        )
