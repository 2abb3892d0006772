"""Live serving metrics: counters, queue gauges, a latency histogram.

The server exposes one JSON snapshot (``repro-serve-metrics-v1``, see
:func:`repro.serve.schema.validate_metrics`) on ``/metrics``.  All state
here is updated from both the asyncio event loop and the worker threads,
so every mutation is guarded by one lock — the rates involved (requests,
not candidates) make contention irrelevant.

The histogram uses fixed log-spaced bucket bounds rather than adaptive
ones so that snapshots from different servers (or different moments of
one server's life) are directly comparable, the property every
production metrics pipeline (Prometheus histograms, HdrHistogram
exports) builds on.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.serve.schema import METRICS_FORMAT, METRIC_COUNTERS

__all__ = [
    "LATENCY_BOUNDS_MS",
    "CounterRegistry",
    "LatencyHistogram",
    "ServeMetrics",
]

#: Upper bucket bounds in milliseconds; one implicit overflow bucket.
LATENCY_BOUNDS_MS = (
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)


class LatencyHistogram:
    """Fixed-bound latency histogram (``observe`` in milliseconds)."""

    def __init__(self, bounds_ms=LATENCY_BOUNDS_MS) -> None:
        self.bounds_ms = tuple(float(b) for b in bounds_ms)
        if list(self.bounds_ms) != sorted(set(self.bounds_ms)):
            raise ValueError(
                f"histogram bounds must increase strictly: {bounds_ms!r}"
            )
        self._counts = [0] * (len(self.bounds_ms) + 1)
        self._count = 0
        self._sum_ms = 0.0
        self._max_ms = 0.0

    def observe(self, ms: float) -> None:
        index = len(self.bounds_ms)
        for i, bound in enumerate(self.bounds_ms):
            if ms <= bound:
                index = i
                break
        self._counts[index] += 1
        self._count += 1
        self._sum_ms += ms
        self._max_ms = max(self._max_ms, ms)

    def snapshot(self) -> Dict:
        return {
            "bounds_ms": list(self.bounds_ms),
            "counts": list(self._counts),
            "count": self._count,
            "sum_ms": round(self._sum_ms, 3),
            "max_ms": round(self._max_ms, 3),
        }


class CounterRegistry:
    """A fixed counter registry, a latency histogram and an uptime
    clock behind one lock; thread-safe.

    Counter names are fixed at construction — bumping an unknown name is
    a programming error, caught loudly, so a documented snapshot schema
    cannot silently drift from what the code records.  ``kind`` names
    the registry in that error (``unknown serve counter ...``).
    """

    def __init__(self, names: Sequence[str], kind: str) -> None:
        self._kind = kind
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in names}
        self._latency = LatencyHistogram()
        self._started_at = time.perf_counter()

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            if name not in self._counters:
                raise KeyError(
                    f"unknown {self._kind} counter {name!r}; known: "
                    f"{sorted(self._counters)}"
                )
            self._counters[name] += n

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def observe_latency(self, ms: float) -> None:
        with self._lock:
            self._latency.observe(ms)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def _read(self) -> Tuple[float, Dict[str, int], Dict]:
        """Uptime (ms), counters and latency histogram, read together."""
        with self._lock:
            return (
                round((time.perf_counter() - self._started_at) * 1000.0, 3),
                dict(self._counters),
                self._latency.snapshot(),
            )


class ServeMetrics(CounterRegistry):
    """The server's registry, named by
    :data:`repro.serve.schema.METRIC_COUNTERS`; snapshot on demand."""

    def __init__(self) -> None:
        super().__init__(METRIC_COUNTERS, "serve")

    def snapshot(
        self,
        *,
        queue_depth: int,
        queue_limit: int,
        in_flight: int,
        draining: bool,
        cache: Optional[Dict] = None,
        tracer_counters: Optional[Dict] = None,
    ) -> Dict:
        """The full ``repro-serve-metrics-v1`` document for ``/metrics``."""
        uptime_ms, counters, latency = self._read()
        snapshot = {
            "format": METRICS_FORMAT,
            "uptime_ms": uptime_ms,
            "queue": {"depth": int(queue_depth), "limit": int(queue_limit)},
            "in_flight": int(in_flight),
            "draining": bool(draining),
            "counters": counters,
            "latency_ms": latency,
        }
        if cache is not None:
            snapshot["cache"] = dict(cache)
        if tracer_counters:
            snapshot["tracer_counters"] = dict(tracer_counters)
        return snapshot
