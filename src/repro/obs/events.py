"""Trace-event vocabulary and the ``repro-trace-v2`` schema validator.

Every record a tracer writes is one JSON object::

    {"format": "repro-trace-v2", "seq": 17, "ts_ms": 4.211,
     "kind": "event", "name": "candidate.pruned",
     "attrs": {"phase": "temporal", "reason": "capacity", "count": 312}}

``kind`` is one of ``event`` | ``span_begin`` | ``span_end`` |
``counters``; ``span_end`` records additionally carry ``elapsed_ms``
and a ``counters`` delta object, and the terminal ``counters`` record
(``name: "totals"``) carries the final counter totals in ``attrs``.

The event *names* and pruning *reasons* below are the machine-readable
contract downstream tooling (the ``repro trace`` summary, CI schema
validation, future learned-tuning datasets) keys on — add to them, never
repurpose them.  The schema tag is versioned exactly like the sweep
journal's (:data:`repro.sweep.journal.JOURNAL_FORMAT`): bump
:data:`TRACE_FORMAT` on any incompatible layout change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.jsonl import read_lines

#: Schema tag; bump when the record layout changes incompatibly.
TRACE_FORMAT = "repro-trace-v2"

# -- record kinds ------------------------------------------------------

KIND_EVENT = "event"
KIND_SPAN_BEGIN = "span_begin"
KIND_SPAN_END = "span_end"
KIND_COUNTERS = "counters"

KINDS = (KIND_EVENT, KIND_SPAN_BEGIN, KIND_SPAN_END, KIND_COUNTERS)

# -- event names -------------------------------------------------------

#: Fig. 1 stage 1: the classifier's verdict for one Func.
EVENT_CLASSIFY = "classify"
#: How many candidates one Algorithm 2/3 or baseline search rejected
#: for one reason (``count``); emitted once per reason when the search
#: ends, and once with ``count: 1`` when the deadline expires.
EVENT_CANDIDATE_PRUNED = "candidate.pruned"
#: Algorithm 1 (or its capacity-only ablation) capping a tile dimension.
EVENT_SEARCH_BOUND = "search.bound"
#: One ``emu`` invocation (inputs and the returned row bound).
EVENT_EMU = "emu"
#: Per-nest simulator counter snapshot (hits, traffic, coverage).
EVENT_SIM_NEST = "sim.nest"
#: Whole-simulation outcome (total milliseconds, nest count).
EVENT_SIM_TOTAL = "sim.total"
#: Stream-table snapshot of the multi-stream detector model (engine
#: occupancy, evictions, late/on-time prefetch hits); emitted once per
#: simulation, only when the stream model is active.
EVENT_SIM_STREAMS = "sim.streams"
#: The three-way strategy classifier's verdict for one Func (chosen
#: strategy, stream count/loop, and the modeled cost of every candidate).
EVENT_MULTISTRIDE = "multistride.decision"
#: One fallback-chain rung attempt in ``safe_optimize``.
EVENT_RUNG = "rung"
#: Sweep cell lifecycle (see :class:`repro.sweep.SweepRunner`).
EVENT_CELL_RESUMED = "sweep.cell.resumed"
EVENT_CELL_ATTEMPT = "sweep.cell.attempt"
EVENT_CELL_RETRY = "sweep.cell.retry"
EVENT_CELL_OK = "sweep.cell.ok"
EVENT_CELL_QUARANTINED = "sweep.cell.quarantined"
#: Serving-layer lifecycle (see :mod:`repro.serve`): one finished
#: request (attrs carry ``served_by`` = ``search`` | ``cache`` |
#: ``coalesced`` and the HTTP status), one load-shed admission
#: rejection, and the start of a graceful drain.
EVENT_SERVE_REQUEST = "serve.request"
EVENT_SERVE_SHED = "serve.shed"
EVENT_SERVE_DRAIN = "serve.drain"
#: Fleet lifecycle (see :mod:`repro.fleet`): worker spawn/up/down state
#: transitions from the supervisor's health gate, one request re-routed
#: to a sibling shard, one worker restart (crash or rolling), a flapping
#: worker quarantined, and the rolling-restart roll itself.
EVENT_FLEET_SPAWN = "fleet.worker.spawn"
EVENT_FLEET_UP = "fleet.worker.up"
EVENT_FLEET_DOWN = "fleet.worker.down"
EVENT_FLEET_RESTART = "fleet.worker.restart"
EVENT_FLEET_QUARANTINED = "fleet.worker.quarantined"
EVENT_FLEET_FAILOVER = "fleet.failover"
EVENT_FLEET_ROLL = "fleet.roll"
#: One per-shard circuit-breaker state transition in the fleet router
#: (attrs: ``shard``, ``state`` = closed | open | half_open).
EVENT_FLEET_BREAKER = "fleet.breaker"
#: One :meth:`repro.cache.ScheduleCache.compact` that found corrupt or
#: checksum-mismatched lines (attrs: ``path``, ``lines``, the sidecar
#: ``quarantine`` they were preserved in) — emitted at most once per
#: compact, per satellite contract.
EVENT_CACHE_CORRUPT = "cache.corrupt"
#: Chaos-harness lifecycle (see :mod:`repro.chaos`): one scripted fault
#: executed against the live fleet (attrs: ``scenario``, ``action``,
#: ``after_responses``, plus action-specific fields).
EVENT_CHAOS_FAULT = "chaos.fault"
#: Fleet-tune lifecycle (see :mod:`repro.tune`): job admission (attrs:
#: ``tune_id``, ``cells``, ``platforms``), per-cell settlement, and the
#: final report fold.
EVENT_TUNE_START = "tune.start"
EVENT_TUNE_CELL_OK = "tune.cell.ok"
EVENT_TUNE_CELL_QUARANTINED = "tune.cell.quarantined"
EVENT_TUNE_CELL_RESUMED = "tune.cell.resumed"
EVENT_TUNE_REPORT = "tune.report"

# -- machine-readable pruning reasons ----------------------------------

#: Working set exceeds the L1 or (halved) L2 capacity (Eqs. 1/6, 18/19).
REASON_CAPACITY = "capacity"
#: Eq. 13: no inter-tile loop offers one iteration per hardware thread.
REASON_PARALLELISM = "parallelism"
#: The vector (column) tile degenerated below two elements.
REASON_VECTOR_TILE = "vector_tile"
#: The cooperative deadline expired mid-search.
REASON_DEADLINE = "deadline"

PRUNE_REASONS = (
    REASON_CAPACITY,
    REASON_PARALLELISM,
    REASON_VECTOR_TILE,
    REASON_DEADLINE,
)

# -- schema validation -------------------------------------------------

_REQUIRED_KEYS = ("format", "seq", "kind", "name", "attrs")


def validate_event(payload, *, prev_seq: Optional[int] = None) -> Optional[str]:
    """Check one record against the ``repro-trace-v2`` schema.

    Returns ``None`` for a valid record, else a human-readable problem
    description.  ``prev_seq`` (the previous record's sequence number)
    additionally enforces strictly increasing ordering.
    """
    if not isinstance(payload, dict):
        return f"record is {type(payload).__name__}, not an object"
    for key in _REQUIRED_KEYS:
        if key not in payload:
            return f"missing required key {key!r}"
    if payload["format"] != TRACE_FORMAT:
        return (
            f"format is {payload['format']!r} (expected {TRACE_FORMAT!r})"
        )
    seq = payload["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        return f"seq must be a non-negative integer, got {seq!r}"
    if prev_seq is not None and seq <= prev_seq:
        return f"seq {seq} does not increase over {prev_seq}"
    if payload["kind"] not in KINDS:
        return f"unknown kind {payload['kind']!r} (known: {KINDS})"
    name = payload["name"]
    if not isinstance(name, str) or not name:
        return f"name must be a non-empty string, got {name!r}"
    attrs = payload["attrs"]
    if not isinstance(attrs, dict) or any(
        not isinstance(k, str) for k in attrs
    ):
        return "attrs must be an object with string keys"
    ts = payload.get("ts_ms")
    if ts is not None and (not isinstance(ts, (int, float)) or ts < 0):
        return f"ts_ms must be a non-negative number, got {ts!r}"
    if payload["kind"] == KIND_SPAN_END:
        elapsed = payload.get("elapsed_ms")
        if not isinstance(elapsed, (int, float)) or elapsed < 0:
            return f"span_end needs a non-negative elapsed_ms, got {elapsed!r}"
        counters = payload.get("counters")
        if not isinstance(counters, dict) or any(
            not isinstance(k, str) or not isinstance(v, (int, float))
            for k, v in counters.items()
        ):
            return "span_end needs a counters object of numeric deltas"
    if name == EVENT_CANDIDATE_PRUNED:
        reason = attrs.get("reason")
        if reason not in PRUNE_REASONS:
            return (
                f"candidate.pruned reason {reason!r} is not machine-"
                f"readable (known: {PRUNE_REASONS})"
            )
        if not isinstance(attrs.get("phase"), str):
            return "candidate.pruned needs a string 'phase' attribute"
        count = attrs.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            return (
                f"candidate.pruned needs an integer 'count' >= 1, got {count!r}"
            )
    return None


def validate_trace(events: Sequence[Dict]) -> List[str]:
    """Validate a whole event sequence; returns every problem found."""
    problems: List[str] = []
    prev_seq: Optional[int] = None
    for index, payload in enumerate(events):
        note = validate_event(payload, prev_seq=prev_seq)
        if note is not None:
            problems.append(f"record {index}: {note}")
        if isinstance(payload, dict) and isinstance(
            payload.get("seq"), int
        ):
            prev_seq = payload["seq"]
    return problems


def read_trace(path: str) -> Tuple[List[Dict], List[str]]:
    """Load a JSONL trace file.

    Returns ``(events, problems)`` — lines that are not UTF-8 or not
    JSON become problems, never exceptions.  A missing file is a single
    problem entry.
    """
    try:
        lines = read_lines(path)
    except OSError as exc:
        return [], [f"{path}: cannot read ({exc.strerror or exc})"]
    events = [line.value for line in lines if line.damage is None]
    problems = [
        f"{line.where}: {line.damage}" for line in lines if line.damage
    ]
    return events, problems
