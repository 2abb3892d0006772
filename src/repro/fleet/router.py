"""The fleet's front door: a consistent-hash proxy over serve workers.

One asyncio HTTP/1.1 server on the worker's own
:class:`repro.serve.service.HttpService` core (``Connection: close``,
JSON bodies) that owns no optimizer state at all.  Every
``POST /v1/optimize`` is identified *router-side* with the same
:func:`repro.serve.identify.identify_request` the workers use — so the
routing key IS the coalescing/cache key — and forwarded to the key's
home shard on the :class:`repro.fleet.HashRing`.  That one invariant is
the whole point: identical requests always land on the same worker,
whose in-process :class:`repro.serve.CoalesceTable` and persistent
per-shard :class:`repro.cache.ScheduleCache` are therefore warm by
construction.

Failover is health-gated and deterministic: when the home shard is not
routable (the supervisor's probe gate says down/draining/quarantined, or
the forward leg dies with :class:`ConnectionError`), the router walks
the ring's successor order — the same sibling every time, on every
router — and attributes the served answer with
``served_by="failover"`` plus ``failover_from`` so clients and metrics
can see exactly which answers crossed shards.  Worker 429s (admission
backpressure) are relayed, not failed over: spilling a hot shard's
overload onto its sibling would trade transient backpressure for
permanent cache pollution.

Routes::

    POST /v1/optimize   proxy with failover (the repro-serve-v1 schema)
    POST /v1/tune       fleet autotuning job (repro-tune-v1, chunked
                        NDJSON stream; see :mod:`repro.tune`)
    GET  /healthz       router liveness + fleet degradation summary
    GET  /metrics       repro-fleet-metrics-v1 snapshot
    GET  /fleet/status  shards, states, ring topology
    POST /fleet/restart rolling drain/restart of every shard

``/v1/tune`` is the one streaming route: cells are planned router-side,
executed as ordinary ``/v1/optimize`` calls *through this router's own
front door* (coalescing, breakers, deadline budgets and failover apply
to tune traffic unchanged), journaled per cell in a resumable
``repro-sweep-v1`` journal keyed by the request's deterministic
``tune_id``, and streamed back as one NDJSON record per settled cell
with the final ``repro-tune-report-v1`` document as the last line.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Dict, Optional

from repro.cache import check_shard_caches
from repro.fleet.breaker import CircuitBreaker
from repro.fleet.hashring import HashRing
from repro.fleet.metrics import FleetMetrics
from repro.fleet.supervisor import FleetSupervisor
from repro.obs import NULL_TRACER
from repro.obs.events import EVENT_FLEET_FAILOVER
from repro.serve.http import (
    DEADLINE_HEADER,
    forward,
    write_chunk,
    write_chunked_end,
    write_chunked_head,
)
from repro.serve.identify import REQUEST_ERRORS, identify_request, rejection
from repro.serve.service import (
    HttpService,
    Reply,
    Request,
    retry_after_header,
)
from repro.sweep import Journal
from repro.tune import TUNE_FORMAT, TuneRunner, plan_tune_cells, tune_id
from repro.serve.schema import (
    REASON_DEADLINE_EXPIRED,
    SERVED_BY_FAILOVER,
    ServeRequest,
    error_payload,
    parse_request,
    render_for,
)
from repro.util import ServeError
from repro.util.deadline import Deadline

__all__ = ["FLEET_FORMAT", "FleetRouter"]

#: Schema tag for the router's own documents (``/fleet/status``,
#: ``/healthz``); bump on any incompatible layout change.
FLEET_FORMAT = "repro-fleet-v1"


class FleetRouter(HttpService):
    """One router process in front of a :class:`FleetSupervisor`.

    The router and supervisor share one
    :class:`~repro.fleet.metrics.FleetMetrics`, so ``/metrics`` is the
    single pane for both halves: routing counters from here, restart and
    quarantine counters from the probe loop.
    """

    PROG = "repro fleet"

    def __init__(
        self,
        supervisor: FleetSupervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer=None,
        forward_timeout_s: float = 120.0,
        retry_after_s: float = 1.0,
        breaker_failure_threshold: int = 3,
        breaker_open_for_s: float = 5.0,
        breaker_clock=None,
        tune_dir: Optional[str] = None,
        tune_jobs: int = 2,
    ) -> None:
        super().__init__(
            {
                "/healthz": ("GET", self._get_healthz),
                "/metrics": ("GET", self._get_metrics),
                "/fleet/status": ("GET", self._get_status),
                "/fleet/restart": ("POST", self._handle_restart),
                "/v1/optimize": ("POST", self._handle_optimize),
                "/v1/tune": ("POST", self._handle_tune),
            },
            host=host,
            port=port,
            retry_after_s=retry_after_s,
        )
        self.supervisor = supervisor
        self.metrics: FleetMetrics = supervisor.metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.forward_timeout_s = float(forward_timeout_s)
        self.tune_dir = tune_dir
        self.tune_jobs = int(tune_jobs)
        if self.tune_jobs < 1:
            raise ValueError(f"tune_jobs must be >= 1, got {tune_jobs}")
        self.ring = HashRing(supervisor.shards)
        self.breaker = CircuitBreaker(
            supervisor.shards,
            failure_threshold=breaker_failure_threshold,
            open_for_s=breaker_open_for_s,
            clock=breaker_clock,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    # -- lifecycle -----------------------------------------------------

    def _shutdown(self) -> None:
        # run() assumes the workers are already started and stops them
        # only after the router's own drain, so admitted work finishes
        # on both tiers.
        self.supervisor.stop()

    def banner(self) -> str:
        workers = ", ".join(
            f"shard{w['shard']}:{w['port']}" for w in self.supervisor.states()
        )
        return (
            f"{self.PROG}: routing on http://{self.host}:{self.port} "
            f"({workers})"
        )

    # -- operability documents -----------------------------------------

    async def _get_healthz(self, _request: Request) -> Reply:
        states = self.supervisor.states()
        up = sum(1 for w in states if w["state"] == "up")
        if self._draining:
            status, code = "draining", 503
        elif up == len(states):
            status, code = "ok", 200
        elif up > 0:
            status, code = "degraded", 200
        else:
            status, code = "down", 503
        payload = {
            "format": FLEET_FORMAT,
            "status": status,
            "draining": self._draining,
            "workers_up": up,
            "workers_total": len(states),
        }
        extra = self._retry_header() if code == 503 else None
        return code, payload, extra

    def _workers_with_breaker(self) -> list:
        """Supervisor states with each shard's breaker state merged in."""
        breaker_states = self.breaker.states()
        workers = self.supervisor.states()
        for worker in workers:
            worker["breaker"] = breaker_states.get(worker["shard"], "closed")
        return workers

    def metrics_snapshot(self) -> Dict:
        """The live ``repro-fleet-metrics-v1`` document."""
        return self.metrics.snapshot(workers=self._workers_with_breaker())

    async def _get_metrics(self, _request: Request) -> Reply:
        return 200, self.metrics_snapshot(), None

    def status_snapshot(self, *, check_caches: bool = True) -> Dict:
        """The ``/fleet/status`` document: shards, states, topology.

        When the fleet runs with a persistent schedule cache, the
        document also carries the cross-shard consistency report
        (:func:`repro.cache.check_shard_caches`): shard stores sharing a
        key (failover writes) must agree bit-for-bit, and corrupt lines
        on disk are surfaced per shard.  ``check_caches=False`` skips
        the disk reads (the CLI's ``--no-cache-check``).
        """
        payload = {
            "format": FLEET_FORMAT,
            "draining": self._draining,
            "workers": self._workers_with_breaker(),
            "ring": {
                "shards": list(self.ring.shards),
                "replicas": self.ring.replicas,
            },
        }
        if check_caches and self.supervisor.cache_path:
            payload["cache"] = check_shard_caches(
                self.supervisor.cache_path, self.supervisor.shards
            )
        return payload

    async def _get_status(self, _request: Request) -> Reply:
        # The cache consistency check reads shard files — disk work, so
        # keep it off the event loop.
        return (
            200,
            await self._loop.run_in_executor(None, self.status_snapshot),
            None,
        )

    async def _handle_restart(self, _request: Request) -> Reply:
        try:
            rolled = await self._loop.run_in_executor(
                None, self.supervisor.rolling_restart
            )
        except RuntimeError as exc:
            return 500, error_payload(500, str(exc)), None
        return 200, {"format": FLEET_FORMAT, "rolled": rolled}, None

    # -- the proxy leg -------------------------------------------------

    async def _handle_optimize(self, http: Request) -> Reply:
        body = http.body
        arrived = time.perf_counter()
        self.metrics.bump("requests_total")
        if self._draining:
            self.metrics.bump("responses_error")
            return (
                503,
                error_payload(
                    503,
                    "fleet router is draining; retry shortly",
                    retry_after_s=self.retry_after_s,
                ),
                self._retry_header(),
            )
        request = None
        try:
            request = parse_request(json.loads(body.decode("utf-8")))
            # identify_request builds the benchmark Funcs (lowering spec
            # targets) to fingerprint them — CPU work, so keep it off
            # the event loop.
            _case, _arch, key = await self._loop.run_in_executor(
                None, identify_request, request
            )
        except REQUEST_ERRORS as exc:
            # A spec that does not lower is the caller's bug: reject at
            # the router before any shard burns a forward leg on it.
            self.metrics.bump("responses_error")
            return rejection(request, exc)

        # The end-to-end budget is charged ONCE, here at admission: every
        # forward leg (failover successors included) sees only what is
        # left of it, so a failed-over request can never double-spend.
        deadline = (
            Deadline(request.deadline_ms / 1000.0, "fleet-admission")
            if request.deadline_ms is not None
            else None
        )
        order = self.ring.successors(key)
        home = order[0]
        outcome = await self._forward_with_failover(
            order, home, body, request=request, deadline=deadline
        )
        elapsed_ms = (time.perf_counter() - arrived) * 1000.0
        self.metrics.observe_latency(elapsed_ms)
        status, payload, extra = outcome
        self.metrics.bump(
            "responses_ok" if status == 200 else "responses_error"
        )
        return status, payload, extra

    def _deadline_expired_payload(
        self, request: ServeRequest, home: int
    ) -> Reply:
        """The router-side 504: budget died between forward legs.

        Attribution (benchmark/platform/home shard) is preserved so a
        timed-out caller still learns which request died where — the
        chaos harness asserts on exactly these fields.
        """
        self.metrics.bump("deadline_expired")
        payload = error_payload(
            504,
            f"end-to-end deadline of {request.deadline_ms:g} ms expired "
            f"before a shard could answer",
            reason=REASON_DEADLINE_EXPIRED,
        )
        payload["benchmark"] = request.label
        payload["platform"] = request.platform
        payload["shard"] = home
        return 504, render_for(request, payload), None

    async def _forward_with_failover(
        self,
        order,
        home: int,
        body: bytes,
        *,
        request: ServeRequest,
        deadline: Optional[Deadline] = None,
    ) -> Reply:
        """Walk the ring order until a shard answers; attribute failover.

        A shard is tried when the health gate says it is routable AND
        its circuit breaker admits the leg; a forward leg that dies
        (:class:`ConnectionError` — the worker was SIGKILLed
        mid-request, say) feeds the breaker and moves on, a 503
        (draining) moves on without penalizing the breaker (an HTTP
        answer is proof of life).  Any other answer — success *or*
        error — is relayed as-is: a 400 or a 429 is the same answer on
        every shard, so hopping would only hide it.

        Between legs the remaining end-to-end budget is re-checked: a
        deadline that dies after the home shard failed but before the
        successor answers yields a 504 ``deadline_expired`` (never a
        wasted search on the successor), and each admitted leg carries
        the remaining budget in the :data:`DEADLINE_HEADER` so the
        worker's own admission gate sees the same clock.
        """
        tried = 0
        for shard in order:
            if not self.supervisor.routable(shard):
                continue
            if not self.breaker.allow(shard):
                continue
            if deadline is not None and deadline.expired():
                return self._deadline_expired_payload(request, home)
            if tried:
                self.metrics.bump("forward_retries")
            tried += 1
            extra_headers = None
            if deadline is not None:
                extra_headers = {
                    DEADLINE_HEADER: f"{deadline.remaining_ms():.3f}"
                }
            try:
                status, _headers, payload = await forward(
                    self.supervisor.host,
                    self.supervisor.port_of(shard),
                    "POST",
                    "/v1/optimize",
                    body,
                    timeout_s=self.forward_timeout_s,
                    extra_headers=extra_headers,
                )
            except ConnectionError:
                self.breaker.record_failure(shard)
                continue
            except ServeError as exc:
                self.breaker.record_success(shard)
                return 502, error_payload(502, f"shard {shard}: {exc}"), None
            self.breaker.record_success(shard)
            if status == 503:
                continue  # draining worker the gate has not caught yet
            if status == 200:
                payload = dict(payload)
                payload["shard"] = shard
                if shard != home:
                    payload["served_by"] = SERVED_BY_FAILOVER
                    payload["failover_from"] = home
                    self.metrics.bump("failover")
                    self.tracer.event(
                        EVENT_FLEET_FAILOVER,
                        key=payload.get("key", ""),
                        home=home,
                        served_by_shard=shard,
                    )
                return 200, payload, None
            extra = None
            if status in (429, 503) and "retry_after_s" in payload:
                extra = retry_after_header(payload["retry_after_s"])
            return status, payload, extra
        self.metrics.bump("no_shard")
        return (
            503,
            error_payload(
                503,
                "no shard can take this request right now (all down, "
                "draining, or quarantined); retry shortly",
                retry_after_s=self.retry_after_s,
            ),
            self._retry_header(),
        )

    # -- the tune job --------------------------------------------------

    def _tune_journal_path(self, job_id: str) -> str:
        """Where one tune job's resumable journal lives.

        Deterministic from the ``tune_id``, so re-POSTing the same
        request body — after a router SIGKILL, say — finds its own
        half-finished journal and resumes instead of recomputing.
        """
        if self.tune_dir:
            base = self.tune_dir
        elif self.supervisor.cache_path:
            base = os.path.dirname(
                os.path.abspath(self.supervisor.cache_path)
            )
        else:
            base = os.getcwd()
        return os.path.join(base, f"tune-{job_id}.jsonl")

    async def _handle_tune(self, http: Request) -> Optional[Reply]:
        """``POST /v1/tune``: plan, fan out, stream settled cells.

        The job itself runs on an executor thread (it drives blocking
        :class:`~repro.serve.ServeClient` round-trips back through this
        router's own listening socket); settled-cell records cross back
        onto the loop via ``call_soon_threadsafe`` and go out as NDJSON
        chunks the moment they land, with the final
        ``repro-tune-report-v1`` document as the stream's last record.
        Errors found before the stream opens are ordinary JSON replies.
        """
        self.metrics.bump("tune_requests")
        if self._draining:
            return (
                503,
                error_payload(
                    503,
                    "fleet router is draining; retry shortly",
                    retry_after_s=self.retry_after_s,
                ),
                self._retry_header(),
            )
        try:
            payload = json.loads(http.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, error_payload(400, f"request is not JSON: {exc}"), None
        try:
            # Planning lowers corpus specs to fingerprint cells — CPU
            # work, so keep it off the event loop.
            cells = await self._loop.run_in_executor(
                None, plan_tune_cells, payload
            )
        except (KeyError, ValueError) as exc:
            return 400, error_payload(400, str(exc)), None
        writer = http.writer
        job_id = tune_id(payload)
        journal = Journal(self._tune_journal_path(job_id))
        loop = self._loop
        queue: asyncio.Queue = asyncio.Queue()

        def on_record(record: Dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, record)

        def run_job():
            runner = TuneRunner(
                journal,
                host=self.host,
                port=self.port,
                jobs=self.tune_jobs,
                timeout_s=self.forward_timeout_s,
                deadline_ms=payload.get("deadline_ms"),
                tracer=self.tracer,
            )
            return runner.run(cells, tune_id=job_id, on_record=on_record)

        await write_chunked_head(
            writer, 200, {"x-repro-tune-id": job_id}
        )
        future = loop.run_in_executor(None, run_job)
        try:
            while True:
                get = asyncio.ensure_future(queue.get())
                await asyncio.wait(
                    {get, future}, return_when=asyncio.FIRST_COMPLETED
                )
                if get.done():
                    self.metrics.bump("tune_cells")
                    await write_chunk(writer, get.result())
                    continue
                get.cancel()
                break
            report = await future
            while not queue.empty():
                self.metrics.bump("tune_cells")
                await write_chunk(writer, queue.get_nowait())
            await write_chunk(writer, report.document())
        except Exception as exc:  # noqa: BLE001 — stream the failure
            await write_chunk(
                writer,
                {"format": TUNE_FORMAT, "kind": "error", "error": str(exc)},
            )
        await write_chunked_end(writer)
        return None
