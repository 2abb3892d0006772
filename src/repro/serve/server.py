"""The optimization service: a pure-asyncio HTTP/1.1 JSON server.

Architecture (one event loop, one bounded queue, one worker pool)::

    HTTP conn ──► admission ──► CoalesceTable ──► asyncio.Queue ──► dispatcher
                   (400/429/503)   (share in-flight)  (bounded)       (micro-batch)
                                                                        │
    HTTP conn ◄── response  ◄── job future  ◄── worker pool  ◄──────────┘
                                               (threads)

* **Admission control** — requests are validated, fingerprinted and
  either coalesced onto an in-flight job, enqueued, or *shed*: when the
  bounded queue is full (or the server is draining) the response is an
  immediate 429/503 with ``Retry-After``, never an unbounded queue.
* **Micro-batching** — the dispatcher drains the queue in bounded
  windows (``batch_window_ms`` / ``batch_max``) before handing jobs to
  the pool, widening the coalescing window under bursts at a bounded
  latency cost.
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
bodies, three routes — because the protocol is an implementation detail
of :mod:`repro.serve.client`; nothing here depends on ``http.server``.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
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
from repro.serve.http import (
    DEADLINE_HEADER,
    HttpViolation,
    IO_TIMEOUT_S,
    read_request,
    write_response,
)
from repro.serve.identify import identify_request
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
from repro.util import (
    Deadline,
    DeadlineExceeded,
    ReproError,
    ServeError,
    ValidationError,
    resolve_workers,
)

__all__ = ["OptimizeServer"]


class OptimizeServer:
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
    batch_window_ms / batch_max:
        Micro-batch dispatch window (0 disables batching).
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

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers=1,
        queue_limit: int = 16,
        batch_window_ms: float = 2.0,
        batch_max: int = 8,
        cache_path: Optional[str] = None,
        tracer=None,
        fault_plan: Optional[FaultPlan] = None,
        retry_after_s: float = 1.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.workers = resolve_workers(workers)
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be positive, got {retry_after_s}"
            )
        self.queue_limit = int(queue_limit)
        self.batch_window_ms = float(batch_window_ms)
        self.batch_max = int(batch_max)
        self.retry_after_s = float(retry_after_s)
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
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self._admitted = 0
        self._in_flight = 0
        self._open_conns = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> int:
        """Bind the listener and start the dispatcher; returns the port."""
        self._loop = asyncio.get_running_loop()
        if self.cache is not None:
            # Self-heal before serving: corrupt lines (torn appends from
            # a SIGKILLed predecessor, disk bit-flips) are counted,
            # quarantined to the sidecar, and compacted away — so this
            # instance starts from a store that is clean by construction.
            await self._loop.run_in_executor(None, self.cache.heal)
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._slots = asyncio.Semaphore(self.workers)
        self._drained = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return self.port

    async def drain(self) -> None:
        """Stop accepting, finish everything admitted, release the pool.

        Idempotent; concurrent callers all return once the first drain
        completes.  The guarantee: every job admitted before the drain
        started produces a response, and every open connection gets to
        write it.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self.tracer.event(
            EVENT_SERVE_DRAIN,
            queued=self._queue.qsize() if self._queue else 0,
            in_flight=self._in_flight,
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while (
            (self._queue is not None and not self._queue.empty())
            or len(self._table)
            or self._in_flight
            or self._open_conns
        ):
            await asyncio.sleep(0.02)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._drained.set()

    def run(self) -> int:
        """Blocking entry point for the CLI: serve until SIGTERM/SIGINT.

        Returns 0 after a clean drain.  Startup errors (e.g. the port is
        taken) propagate as :class:`OSError` for the CLI to render.
        """

        async def _main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()

            def _begin_drain() -> None:
                asyncio.ensure_future(self.drain())

            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, _begin_drain)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix event loops: ctrl-C still KeyboardInterrupts
            print(
                f"repro serve: listening on http://{self.host}:{self.port} "
                f"(workers={self.workers}, queue_limit={self.queue_limit})",
                file=sys.stderr,
                flush=True,
            )
            await self._drained.wait()

        asyncio.run(_main())
        print("repro serve: drained, bye", file=sys.stderr, flush=True)
        from repro.core.exitcodes import EXIT_OK

        return EXIT_OK

    # -- HTTP plumbing -------------------------------------------------

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
            status, payload, extra = await self._route(
                method, path, headers, body
            )
            await write_response(writer, status, payload, extra)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._open_conns -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing -------------------------------------------------------

    def healthz_snapshot(self) -> Dict:
        """The live enriched ``/healthz`` body (``repro-serve-v1``)."""
        return healthz_payload(
            draining=self._draining,
            queue_depth=self._queue.qsize() if self._queue else 0,
            queue_limit=self.queue_limit,
            in_flight=self._in_flight,
            admitted=self._admitted,
        )

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict, Optional[Dict[str, str]]]:
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload(405, "healthz is GET-only"), None
            # The body is the router's health-gating input, so it is
            # always the full snapshot; a draining worker still answers
            # 503 so bare liveness probes keep their old meaning.
            if self._draining:
                return 503, self.healthz_snapshot(), self._retry_header()
            return 200, self.healthz_snapshot(), None
        if path == "/metrics":
            if method != "GET":
                return 405, error_payload(405, "metrics is GET-only"), None
            return 200, self.metrics_snapshot(), None
        if path == "/v1/optimize":
            if method != "POST":
                return 405, error_payload(405, "optimize is POST-only"), None
            return await self._handle_optimize(body, headers)
        return 404, error_payload(404, f"unknown path {path!r}"), None

    def _retry_header(self) -> Dict[str, str]:
        return {"Retry-After": str(max(1, math.ceil(self.retry_after_s)))}

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

    async def _handle_optimize(
        self, body: bytes, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict, Optional[Dict[str, str]]]:
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
            request = parse_request(json.loads(body.decode("utf-8")))
            case, arch, key = identify_request(request)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, error_payload(400, f"request is not JSON: {exc}"), None
        except ServeError as exc:
            return 400, render_for(request, error_payload(400, str(exc))), None
        except ValidationError as exc:
            # A spec that does not lower is the caller's bug, not ours:
            # 400 with the machine-readable invalid_spec tag, never 500.
            return (
                400,
                render_for(
                    request,
                    error_payload(
                        400, str(exc), reason=REASON_INVALID_SPEC
                    ),
                ),
                None,
            )

        # The fleet router charges the end-to-end budget once at its own
        # admission and forwards only the *remainder* here; when the
        # header is present it overrides the body's deadline_ms (which
        # the router already spent from).  Exhausted work is refused
        # before it can queue — searching for a caller whose budget is
        # gone wastes a worker and can only produce a late answer.
        budget_ms = request.deadline_ms
        raw_budget = (headers or {}).get(DEADLINE_HEADER)
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
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            batch = [job]
            if self.batch_window_ms > 0 and self.batch_max > 1:
                window_ends = loop.time() + self.batch_window_ms / 1000.0
                while len(batch) < self.batch_max:
                    timeout = window_ends - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self._queue.get(), timeout)
                        )
                    except asyncio.TimeoutError:
                        break
            for item in batch:
                # Gate on a free worker slot so the bounded queue stays
                # the real backpressure boundary: without this the
                # dispatcher would swallow the queue into an unbounded
                # set of waiting futures and shedding would never fire.
                await self._slots.acquire()
                self._in_flight += 1
                asyncio.ensure_future(self._run_job(item))

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
