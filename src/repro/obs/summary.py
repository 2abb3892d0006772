"""Human summary renderer for ``repro-trace-v2`` event logs.

``render_summary`` turns the raw event stream into the report a
performance engineer actually wants after a traced run: where the time
went (spans), how hard each search worked (candidate counters, the
pruned-by-reason breakdown summed over the events' ``count``, and the
Algorithm 1 caps that bound a tile dimension below its extent), what
the simulator saw per nest, and how the sweep's and the tune's cells
fared.
``python -m repro trace out.jsonl`` is the CLI front end.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.events import (
    EVENT_CANDIDATE_PRUNED,
    EVENT_CLASSIFY,
    EVENT_EMU,
    EVENT_RUNG,
    EVENT_SIM_NEST,
    KIND_COUNTERS,
    KIND_EVENT,
    KIND_SPAN_END,
)

__all__ = ["summarize", "render_summary"]


def _span_rollup(events) -> Dict[str, Dict[str, float]]:
    """name -> {count, total_ms} over every completed span."""
    spans: Dict[str, Dict[str, float]] = {}
    for payload in events:
        if payload.get("kind") != KIND_SPAN_END:
            continue
        name = payload.get("name", "?")
        entry = spans.setdefault(name, {"count": 0, "total_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += float(payload.get("elapsed_ms") or 0.0)
    return spans


def _counter_totals(events) -> Dict[str, float]:
    """Final counter totals: the last ``counters``/``totals`` record, or
    (for a trace cut short before ``close()``) the sum of span deltas."""
    totals: Optional[Dict[str, float]] = None
    for payload in events:
        if (
            payload.get("kind") == KIND_COUNTERS
            and payload.get("name") == "totals"
        ):
            totals = dict(payload.get("attrs") or {})
    if totals is not None:
        return totals
    summed: Dict[str, float] = {}
    for payload in events:
        if payload.get("kind") != KIND_SPAN_END:
            continue
        for key, value in (payload.get("counters") or {}).items():
            summed[key] = summed.get(key, 0) + value
    return summed


#: Runner namespace -> the summary key of its ``<namespace>.cell.<what>``
#: tally (:class:`repro.sweep.runner.CellRunner` and its subclasses).
_CELL_TALLIES = {"sweep": "cells", "tune": "tune_cells"}

#: ``<what>`` of a cell event -> its count in a tally.
_CELL_OUTCOMES = {
    "ok": "ok", "resumed": "resumed", "quarantined": "quarantined",
    "retry": "retries",
}


def summarize(events) -> Dict:
    """Aggregate an event stream into a plain-data summary object."""
    events = [e for e in events if isinstance(e, dict)]
    pruned: Dict[str, Dict[str, int]] = {}
    bounds: List[Dict] = []
    nests: List[Dict] = []
    classifications: List[Dict] = []
    rungs: List[Dict] = []
    cells = {
        namespace: dict.fromkeys(_CELL_OUTCOMES.values(), 0)
        for namespace in _CELL_TALLIES
    }
    for payload in events:
        if payload.get("kind") != KIND_EVENT:
            continue
        name = payload.get("name")
        attrs = payload.get("attrs") or {}
        if name == EVENT_CANDIDATE_PRUNED:
            count = attrs.get("count")
            if isinstance(count, int):
                phase = str(attrs.get("phase", "?"))
                reason = str(attrs.get("reason", "?"))
                per_phase = pruned.setdefault(phase, {})
                per_phase[reason] = per_phase.get(reason, 0) + count
        elif name == EVENT_EMU and attrs.get("saturated") is False:
            # A saturated cap (max_ti >= max_rows) bounds nothing.
            bounds.append(attrs)
        elif name == EVENT_SIM_NEST:
            nests.append(attrs)
        elif name == EVENT_CLASSIFY:
            classifications.append(attrs)
        elif name == EVENT_RUNG:
            rungs.append(attrs)
        elif isinstance(name, str) and ".cell." in name:
            namespace, _, what = name.partition(".cell.")
            if namespace in cells and what in _CELL_OUTCOMES:
                cells[namespace][_CELL_OUTCOMES[what]] += 1
    return {
        "events": len(events),
        "spans": _span_rollup(events),
        "counters": _counter_totals(events),
        "pruned": pruned,
        "bounds": bounds,
        "nests": nests,
        "classifications": classifications,
        "rungs": rungs,
        **{key: cells[namespace] for namespace, key in _CELL_TALLIES.items()},
    }


def _fmt_count(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else f"{value:g}"


def render_summary(events) -> str:
    """The ``repro trace`` report: one block per phase, spans first."""
    summary = summarize(events)
    lines: List[str] = [f"trace: {summary['events']} records"]

    if summary["classifications"]:
        lines.append("classified:")
        for attrs in summary["classifications"]:
            lines.append(
                f"  {attrs.get('func', '?')}: "
                f"{attrs.get('locality', '?')}"
                + (" (+NTI)" if attrs.get("use_nti") else "")
            )

    if summary["spans"]:
        lines.append("spans:")
        for name, entry in sorted(
            summary["spans"].items(),
            key=lambda kv: kv[1]["total_ms"],
            reverse=True,
        ):
            lines.append(
                f"  {name:28s} {int(entry['count']):4d}x "
                f"{entry['total_ms']:10.1f} ms"
            )

    if summary["pruned"] or any(
        key.endswith(".candidates") for key in summary["counters"]
    ):
        lines.append("search:")
        phases = set(summary["pruned"])
        phases.update(
            key[: -len(".candidates")]
            for key in summary["counters"]
            if key.endswith(".candidates")
        )
        for phase in sorted(phases):
            considered = summary["counters"].get(f"{phase}.candidates", 0)
            reasons = summary["pruned"].get(phase, {})
            breakdown = ", ".join(
                f"{reason} {count}"
                for reason, count in sorted(reasons.items())
            )
            lines.append(
                f"  {phase}: {_fmt_count(considered)} candidates considered"
                + (f"; pruned: {breakdown}" if breakdown else "")
            )
        if summary["bounds"]:
            lines.append(
                f"  emu bounds applied: {len(summary['bounds'])} "
                "(tile lattice capped below the problem size)"
            )

    if summary["rungs"]:
        failed = [r for r in summary["rungs"] if not r.get("ok")]
        lines.append(
            f"fallback rungs: {len(summary['rungs'])} attempted, "
            f"{len(failed)} failed"
        )
        for attrs in failed:
            lines.append(
                f"  {attrs.get('rung', '?')}: "
                f"{attrs.get('error_type', '?')}"
            )

    if summary["nests"]:
        lines.append("simulated nests:")
        for attrs in summary["nests"]:
            demand = (
                attrs.get("l1_hits", 0)
                + attrs.get("l2_hits", 0)
                + attrs.get("l3_hits", 0)
                + attrs.get("mem_lines", 0)
            ) or 1
            coverage = attrs.get("coverage")
            lines.append(
                f"  {attrs.get('nest', '?')}: "
                f"L1 {100.0 * attrs.get('l1_hits', 0) / demand:.1f}%  "
                f"L2 {100.0 * attrs.get('l2_hits', 0) / demand:.1f}%  "
                f"DRAM {100.0 * attrs.get('mem_lines', 0) / demand:.1f}%"
                + (
                    f"  coverage {100.0 * float(coverage):.0f}%"
                    if coverage is not None
                    else ""
                )
            )

    for namespace, key in _CELL_TALLIES.items():
        cells = summary[key]
        if any(cells.values()):
            lines.append(
                f"{namespace} cells: {cells['ok']} measured, "
                f"{cells['resumed']} resumed, {cells['quarantined']} "
                f"quarantined ({cells['retries']} retries)"
            )

    if summary["counters"]:
        lines.append("counters:")
        for name, value in sorted(summary["counters"].items()):
            lines.append(f"  {name:36s} {_fmt_count(value):>10s}")

    return "\n".join(lines)
