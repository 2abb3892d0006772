"""repro.serve — the coalescing, cache-backed optimization service.

The long-running counterpart of :func:`repro.api.optimize`: a pure-stdlib
asyncio HTTP/JSON server that accepts versioned ``repro-serve-v1``
requests, coalesces identical in-flight work onto one computation,
dispatches admissions into a bounded worker pool, consults the
persistent :class:`repro.cache.ScheduleCache` before any search, sheds
load deterministically when its admission queue fills, and drains
gracefully on SIGTERM.  ``/metrics`` exposes a validated
``repro-serve-metrics-v1`` snapshot; ``serve.*`` trace events flow
through the standard :class:`repro.obs.Tracer` protocol.

Layout:

* :mod:`repro.serve.schema` — the wire formats and their validators;
* :mod:`repro.serve.service` — :class:`~repro.serve.service.HttpService`,
  the HTTP core (listener, route table, drain, CLI loop) the worker and
  the fleet router share;
* :mod:`repro.serve.server` — :class:`OptimizeServer` (admission,
  coalescing, dispatch, workers, drain);
* :mod:`repro.serve.coalesce` — the in-flight job table;
* :mod:`repro.serve.metrics` — counters + the latency histogram;
* :mod:`repro.serve.client` — the blocking :class:`ServeClient`;
* :mod:`repro.serve.testing` — the in-process :class:`ServerThread`
  harness (and the :class:`~repro.serve.testing.LoopThread` under it)
  used by the test suite and CI's serve-smoke job.

CLI: ``python -m repro serve`` / ``python -m repro submit``.
"""

from repro.serve.client import ServeClient
from repro.serve.metrics import LATENCY_BOUNDS_MS, LatencyHistogram, ServeMetrics
from repro.serve.identify import identify_request
from repro.serve.schema import (
    METRICS_FORMAT,
    METRIC_COUNTERS,
    OPTION_KEYS,
    SERVED_BY,
    SERVED_BY_CACHE,
    SERVED_BY_COALESCED,
    SERVED_BY_FAILOVER,
    SERVED_BY_SEARCH,
    SERVE_FORMAT,
    WORKER_SERVED_BY,
    ServeRequest,
    build_request,
    coalesce_key,
    error_payload,
    healthz_payload,
    parse_request,
    result_payload,
    validate_healthz,
    validate_metrics,
)
from repro.serve.server import OptimizeServer
from repro.serve.testing import ServerThread

__all__ = [
    "LATENCY_BOUNDS_MS",
    "LatencyHistogram",
    "METRICS_FORMAT",
    "METRIC_COUNTERS",
    "OPTION_KEYS",
    "OptimizeServer",
    "SERVED_BY",
    "SERVED_BY_CACHE",
    "SERVED_BY_COALESCED",
    "SERVED_BY_FAILOVER",
    "SERVED_BY_SEARCH",
    "SERVE_FORMAT",
    "WORKER_SERVED_BY",
    "ServeClient",
    "ServeMetrics",
    "ServeRequest",
    "ServerThread",
    "build_request",
    "coalesce_key",
    "error_payload",
    "healthz_payload",
    "identify_request",
    "parse_request",
    "result_payload",
    "validate_healthz",
    "validate_metrics",
]
