"""Fleet-level metrics: the router's counters + per-shard health states.

The router exposes one JSON snapshot (``repro-fleet-metrics-v1``) on its
``/metrics`` route.  It deliberately does *not* proxy or merge the
workers' own ``repro-serve-metrics-v1`` snapshots — those stay available
per worker, and conflating two schemas would break both contracts.  The
fleet document answers fleet questions: how requests were routed, how
often the health gate re-routed a keyspace, how many restarts the
supervisor performed, and what state every shard is in right now.

Latency is observed router-side (admission to response) on the same
log-spaced histogram the workers use
(:class:`repro.serve.LatencyHistogram`), so fleet and single-server
latency distributions are directly comparable — which is exactly what
``repro loadgen`` and ``BENCH_serve.json`` need.
"""

from __future__ import annotations

from typing import Dict, List

from repro.serve.metrics import CounterRegistry
from repro.serve.schema import counter_problems

__all__ = [
    "FLEET_METRICS_FORMAT",
    "FLEET_METRIC_COUNTERS",
    "FleetMetrics",
    "validate_fleet_metrics",
]

#: Fleet metrics snapshot schema tag, versioned independently.
FLEET_METRICS_FORMAT = "repro-fleet-metrics-v1"

#: Counter names every fleet snapshot must carry (all >= 0 integers).
FLEET_METRIC_COUNTERS = (
    "requests_total",      # optimize requests admitted by the router
    "responses_ok",        # 200s relayed to clients
    "responses_error",     # non-200s relayed to clients
    "failover",            # responses served by a sibling shard
    "forward_retries",     # forward legs retried on another shard
    "no_shard",            # 503s because no shard could take the key
    "probe_failures",      # health probes that failed or timed out
    "worker_restarts",     # crash/hang restarts performed
    "workers_quarantined", # shards flap-quarantined (never restarted)
    "rolls",               # completed rolling restarts
    "breaker_opened",      # per-shard circuit breakers tripped open
    "breaker_probes",      # half-open probe requests admitted
    "deadline_expired",    # 504s because the end-to-end budget ran out
    "tune_requests",       # POST /v1/tune jobs admitted
    "tune_cells",          # tune cells streamed (settled, any status)
)


class FleetMetrics(CounterRegistry):
    """The router/supervisor registry, named by
    :data:`FLEET_METRIC_COUNTERS`: the same fixed counter registry and
    latency histogram as :class:`repro.serve.ServeMetrics`."""

    def __init__(self) -> None:
        super().__init__(FLEET_METRIC_COUNTERS, "fleet")

    def snapshot(self, *, workers: List[Dict]) -> Dict:
        """The full ``repro-fleet-metrics-v1`` document for ``/metrics``.

        ``workers`` is the supervisor's per-shard state listing (shard,
        port, state, restarts, consecutive failures...).
        """
        uptime_ms, counters, latency = self._read()
        return {
            "format": FLEET_METRICS_FORMAT,
            "uptime_ms": uptime_ms,
            "counters": counters,
            "latency_ms": latency,
            "workers": [dict(w) for w in workers],
        }


def validate_fleet_metrics(snapshot) -> List[str]:
    """Check one fleet ``/metrics`` snapshot against the schema.

    Returns every problem found (empty list = valid), in the style of
    :func:`repro.serve.validate_metrics`; the CI fleet-smoke job fails
    on a non-empty return.
    """
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return [f"snapshot is {type(snapshot).__name__}, not an object"]
    if snapshot.get("format") != FLEET_METRICS_FORMAT:
        problems.append(
            f"format is {snapshot.get('format')!r} "
            f"(expected {FLEET_METRICS_FORMAT!r})"
        )
    uptime = snapshot.get("uptime_ms")
    if isinstance(uptime, bool) or not isinstance(uptime, (int, float)) or uptime < 0:
        problems.append(f"uptime_ms must be a number >= 0, got {uptime!r}")
    problems += counter_problems(
        snapshot.get("counters"), FLEET_METRIC_COUNTERS
    )
    workers = snapshot.get("workers")
    if not isinstance(workers, list):
        problems.append(f"workers must be a list, got {workers!r}")
    else:
        for index, worker in enumerate(workers):
            if not isinstance(worker, dict):
                problems.append(f"workers[{index}] must be an object")
                continue
            for key in ("shard", "port", "restarts"):
                value = worker.get(key)
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or value < 0
                ):
                    problems.append(
                        f"workers[{index}].{key} must be a non-negative "
                        f"integer, got {value!r}"
                    )
            if not isinstance(worker.get("state"), str):
                problems.append(
                    f"workers[{index}].state must be a string, "
                    f"got {worker.get('state')!r}"
                )
    latency = snapshot.get("latency_ms")
    if not isinstance(latency, dict):
        problems.append(f"latency_ms must be an object, got {latency!r}")
    return problems
