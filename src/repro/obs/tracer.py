"""The ``Tracer`` protocol and its implementations.

A tracer is the single sink for everything the observability layer
records: **events** (one structured fact — a pruned candidate, a
simulated nest, a sweep-cell outcome), **counters** (cheap accumulators
the hot search loops bump), and **spans** (named scopes whose end record
carries elapsed wall-clock plus the counter deltas that accumulated
inside them).

Implementations:

* :class:`NullTracer` / :data:`NULL_TRACER` — the zero-overhead default.
  Every method is a no-op and ``enabled`` is ``False`` so hot loops can
  skip even the cost of building event attributes; with no tracer
  installed the optimizer's results are bit-for-bit identical to an
  uninstrumented build.
* :class:`CollectingTracer` — keeps events in memory (tests, in-process
  summaries).
* :class:`JsonlTracer` — streams each record as one JSON line to an
  append-only log file (schema ``repro-trace-v2``, see
  :mod:`repro.obs.events`), flushed per record like the sweep journal so
  a crash loses at most the record in flight.

Like the cooperative deadline (:mod:`repro.util.deadline`), the ambient
tracer travels in a :class:`contextvars.ContextVar`: ``activate_tracer``
installs one for a ``with`` body and :func:`current_tracer` retrieves it
(defaulting to :data:`NULL_TRACER`), so deep call sites — ``emu``,
``run_nests`` — need no parameter threading.  Note that context
variables do not propagate into worker threads; components that run
work on a pool (:class:`repro.sweep.SweepRunner`) take the tracer as an
explicit constructor argument instead.  All tracers are thread-safe.
"""

from __future__ import annotations

import contextlib
import threading
import time
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, TextIO

from repro.obs.events import TRACE_FORMAT
from repro.util.jsonl import compact_json

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "JsonlTracer",
    "activate_tracer",
    "current_tracer",
]


class Tracer:
    """Base class for recording tracers.

    Subclasses implement :meth:`_write` (one finished record dict);
    everything else — sequence numbers, relative timestamps, counter
    accumulation, span bracketing — lives here.
    """

    #: Hot loops check this before building event attributes.
    enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.perf_counter()
        self._counters: Dict[str, int] = {}

    # -- sink ----------------------------------------------------------

    def _write(self, payload: Dict) -> None:
        raise NotImplementedError

    def _emit(
        self, kind: str, name: str, attrs: Dict, extra: Optional[Dict] = None
    ) -> None:
        with self._lock:
            payload = {
                "format": TRACE_FORMAT,
                "seq": self._seq,
                "ts_ms": round((time.perf_counter() - self._t0) * 1000.0, 3),
                "kind": kind,
                "name": name,
                "attrs": dict(attrs),
            }
            if extra:
                payload.update(extra)
            self._seq += 1
            self._write(payload)

    # -- recording API -------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        """Record one structured event."""
        self._emit("event", name, attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter (recorded at span ends and on close)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counters(self) -> Dict[str, int]:
        """A snapshot of every counter's current total."""
        with self._lock:
            return dict(self._counters)

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator["Tracer"]:
        """Bracket a scope: ``span_begin`` now, ``span_end`` on exit.

        The end record carries ``elapsed_ms`` and the per-counter deltas
        accumulated inside the span.
        """
        self._emit("span_begin", name, attrs)
        before = self.counters()
        started = time.perf_counter()
        try:
            yield self
        finally:
            after = self.counters()
            delta = {
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value != before.get(key, 0)
            }
            self._emit(
                "span_end",
                name,
                attrs,
                extra={
                    "elapsed_ms": round(
                        (time.perf_counter() - started) * 1000.0, 3
                    ),
                    "counters": delta,
                },
            )

    def close(self) -> None:
        """Flush the final counter totals and release any resources."""
        self._emit("counters", "totals", self.counters())

    # -- context-manager sugar -----------------------------------------

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class _NullSpan:
    """A reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-overhead default: every operation is a no-op.

    Deliberately *not* a :class:`Tracer` subclass — it carries no lock,
    no sequence counter and no clock, so an instrumented call site costs
    one attribute check (``tracer.enabled``) and nothing else.
    """

    __slots__ = ()

    enabled = False

    def event(self, name: str, **attrs) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def counters(self) -> Dict[str, int]:
        return {}

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *_exc) -> None:
        pass


#: The shared do-nothing tracer every API defaults to.
NULL_TRACER = NullTracer()


class CollectingTracer(Tracer):
    """Keeps every record in memory (``.events``) — tests and summaries."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict] = []

    def _write(self, payload: Dict) -> None:
        self.events.append(payload)


class JsonlTracer(Tracer):
    """Streams records to an append-only JSONL file, one line each.

    The file is truncated on open (one trace per run); every record is
    flushed immediately, so a crashed run leaves a valid prefix of the
    log behind.  ``close()`` appends the counter-totals record and
    closes the handle; later records are dropped silently, which lets a
    traced component outlive the CLI's trace scope without erroring.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = str(path)
        self._handle: Optional[TextIO] = open(self.path, "w", encoding="utf-8")

    def _write(self, payload: Dict) -> None:
        if self._handle is None:
            return
        self._handle.write(compact_json(payload) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is None:
            return
        super().close()
        handle, self._handle = self._handle, None
        handle.close()


_ACTIVE: ContextVar[object] = ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def current_tracer():
    """The tracer installed by the nearest :func:`activate_tracer`.

    Never ``None`` — with nothing installed this is :data:`NULL_TRACER`,
    so call sites can use the result unconditionally.
    """
    return _ACTIVE.get()


@contextlib.contextmanager
def activate_tracer(tracer) -> Iterator[object]:
    """Install ``tracer`` as the ambient tracer for the ``with`` body.

    Passing ``None`` installs :data:`NULL_TRACER`, muting any outer
    tracer for the scope.
    """
    token = _ACTIVE.set(tracer if tracer is not None else NULL_TRACER)
    try:
        yield _ACTIVE.get()
    finally:
        _ACTIVE.reset(token)
