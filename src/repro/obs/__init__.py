"""Observability layer: structured tracing and metrics for the repro
pipeline (search, simulation, sweeps).

The surface is deliberately small:

* :class:`Tracer` — spans, counters, structured events; concrete sinks
  are :class:`JsonlTracer` (schema-versioned JSONL event log) and
  :class:`CollectingTracer` (in-memory).
* :data:`NULL_TRACER` / :class:`NullTracer` — the zero-overhead default;
  untraced runs are bit-for-bit identical to pre-instrumentation ones.
* :func:`activate_tracer` / :func:`current_tracer` — ambient tracer via
  a context variable, mirroring :mod:`repro.util.deadline`.
* :class:`CandidateStats` / :class:`CandidateCounter` — the canonical
  candidate accounting shared by every search (replaces the three
  duplicated ``candidates_evaluated`` integers).
* :func:`validate_trace` / :func:`read_trace` / :func:`render_summary`
  — the ``repro trace`` toolchain.
"""

from repro.obs.events import (
    KINDS,
    PRUNE_REASONS,
    TRACE_FORMAT,
    read_trace,
    validate_event,
    validate_trace,
)
from repro.obs.stats import CandidateCounter, CandidateStats
from repro.obs.tracer import (
    NULL_TRACER,
    CollectingTracer,
    JsonlTracer,
    NullTracer,
    Tracer,
    activate_tracer,
    current_tracer,
)
from repro._lazy import lazy_exports

# The trace summary renders ``repro trace``; a traced run never reads it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "render_summary": "repro.obs.summary",
    "summarize": "repro.obs.summary",
})

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "JsonlTracer",
    "activate_tracer",
    "current_tracer",
    "CandidateStats",
    "CandidateCounter",
    "TRACE_FORMAT",
    "KINDS",
    "PRUNE_REASONS",
    "validate_event",
    "validate_trace",
    "read_trace",
    "summarize",
    "render_summary",
]
