"""Wire formats of the fleet autotuning service (``repro-tune-v1``).

One tune job = (kernel selection) × (platforms) × (an options grid).
The request selects corpus kernels either by name (``kernels``) or by
corpus family (``families``), never both; the grid is a list of
:class:`~repro.options.OptimizeOptions` overlays (``[{}]`` = just the
defaults).  Each resulting cell is executed as an ordinary
``/v1/optimize`` through the fleet router, so coalescing, deadlines,
circuit breakers and failover all apply unchanged.

Three documents travel the wire:

* the **request** (``POST /v1/tune`` body, format ``repro-tune-v1``);
* per-cell **stream records** (chunked NDJSON, one line per finished
  cell, format ``repro-tune-v1`` with ``kind: "cell"``);
* the final **report** (last NDJSON line, format
  ``repro-tune-report-v1``): winners per (kernel, platform), the full
  speedup table, quarantined cells.

The report deliberately excludes anything nondeterministic (attempt
counts, wall-clock, shard attribution): a tune SIGKILLed mid-run and
resumed from its journal must produce a report bit-identical to an
uninterrupted run — CI enforces this (``repro tune --check``).

``validate_tune_request`` / ``validate_tune_record`` /
``validate_tune_report`` return human-readable problem lists (empty =
valid), mirroring :func:`repro.serve.schema.validate_metrics` and
:func:`repro.fleet.validate_fleet_metrics`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from repro.options import CACHE_KEYS, OptimizeOptions
from repro.util.jsonl import compact_json

TUNE_FORMAT = "repro-tune-v1"
TUNE_REPORT_FORMAT = "repro-tune-report-v1"

#: Stream-record statuses (the report folds ``resumed`` into ``ok``).
CELL_OK = "ok"
CELL_QUARANTINED = "quarantined"
CELL_RESUMED = "resumed"
_CELL_STATUSES = (CELL_OK, CELL_QUARANTINED, CELL_RESUMED)

#: Known corpus families a request may select by.
KNOWN_FAMILIES = ("polybench", "dl", "micro", "mef")


def build_tune_request(
    *,
    kernels: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    platforms: Sequence[str] = ("i7-5930k",),
    grid: Optional[Sequence[Dict]] = None,
    fast: bool = False,
    deadline_ms: Optional[float] = None,
) -> Dict:
    """Assemble (and sanity-check) one ``repro-tune-v1`` request body."""
    payload = {
        "format": TUNE_FORMAT,
        "platforms": list(platforms),
        "grid": [dict(overlay) for overlay in (grid or [{}])],
        "fast": bool(fast),
        "deadline_ms": deadline_ms,
    }
    if kernels is not None:
        payload["kernels"] = list(kernels)
    if families is not None:
        payload["families"] = list(families)
    problems = validate_tune_request(payload)
    if problems:
        raise ValueError("; ".join(problems))
    return payload


def tune_id(payload: Dict) -> str:
    """Deterministic job identity: 16 hex chars over the request's
    schedule-relevant fields (canonical JSON).  Re-POSTing the same
    request resumes the same journal."""
    identity = {
        "kernels": sorted(payload.get("kernels") or []),
        "families": sorted(payload.get("families") or []),
        "platforms": list(payload.get("platforms") or []),
        "grid": payload.get("grid") or [{}],
        "fast": bool(payload.get("fast", False)),
    }
    blob = compact_json(identity)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def validate_tune_request(payload: Dict) -> List[str]:
    """Schema-check one tune request; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"request must be an object, got {type(payload).__name__}"]
    if payload.get("format") != TUNE_FORMAT:
        problems.append(
            f"format must be {TUNE_FORMAT!r}, got {payload.get('format')!r}"
        )
    kernels = payload.get("kernels")
    families = payload.get("families")
    if (kernels is None) == (families is None):
        problems.append("exactly one of 'kernels' or 'families' is required")
    if kernels is not None:
        if not isinstance(kernels, list) or not kernels or not all(
            isinstance(k, str) and k for k in kernels
        ):
            problems.append("'kernels' must be a non-empty list of names")
    if families is not None:
        if not isinstance(families, list) or not families or not all(
            isinstance(f, str) for f in families
        ):
            problems.append("'families' must be a non-empty list of names")
        else:
            unknown = sorted(set(families) - set(KNOWN_FAMILIES))
            if unknown:
                problems.append(
                    f"unknown families {unknown}; known: "
                    f"{list(KNOWN_FAMILIES)}"
                )
    platforms = payload.get("platforms")
    if not isinstance(platforms, list) or not platforms or not all(
        isinstance(p, str) and p for p in platforms
    ):
        problems.append("'platforms' must be a non-empty list of names")
    grid = payload.get("grid")
    if not isinstance(grid, list) or not grid:
        problems.append("'grid' must be a non-empty list of option overlays")
    else:
        for index, overlay in enumerate(grid):
            if not isinstance(overlay, dict):
                problems.append(f"grid[{index}] must be an object")
                continue
            try:
                OptimizeOptions.from_dict(overlay)
            except ValueError as exc:
                problems.append(f"grid[{index}]: {exc}")
    if not isinstance(payload.get("fast", False), bool):
        problems.append("'fast' must be a boolean")
    deadline = payload.get("deadline_ms")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(
            deadline, bool
        ) or deadline <= 0:
            problems.append("'deadline_ms' must be a positive number or null")
    known = {
        "format", "kernels", "families", "platforms", "grid", "fast",
        "deadline_ms",
    }
    for name in sorted(set(payload) - known):
        problems.append(f"unknown request field {name!r}")
    return problems


def cell_record(
    *,
    key: str,
    status: str,
    kernel: str,
    platform: str,
    options: Dict[str, bool],
    ms: Optional[float],
    baseline_ms: Optional[float],
    error: Optional[str] = None,
) -> Dict:
    """One per-cell NDJSON stream line."""
    speedup = None
    if ms and baseline_ms:
        speedup = round(baseline_ms / ms, 6)
    return {
        "format": TUNE_FORMAT,
        "kind": "cell",
        "key": key,
        "status": status,
        "kernel": kernel,
        "platform": platform,
        "options": dict(options),
        "ms": ms,
        "baseline_ms": baseline_ms,
        "speedup": speedup,
        "error": error,
    }


def validate_tune_record(payload: Dict) -> List[str]:
    """Schema-check one per-cell stream record."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"record must be an object, got {type(payload).__name__}"]
    if payload.get("format") != TUNE_FORMAT:
        problems.append(
            f"format must be {TUNE_FORMAT!r}, got {payload.get('format')!r}"
        )
    if payload.get("kind") != "cell":
        problems.append(f"kind must be 'cell', got {payload.get('kind')!r}")
    status = payload.get("status")
    if status not in _CELL_STATUSES:
        problems.append(
            f"status must be one of {_CELL_STATUSES}, got {status!r}"
        )
    for name in ("key", "kernel", "platform"):
        if not isinstance(payload.get(name), str) or not payload.get(name):
            problems.append(f"'{name}' must be a non-empty string")
    options = payload.get("options")
    if not isinstance(options, dict) or set(CACHE_KEYS) - set(options):
        problems.append(
            f"'options' must carry exactly the switch set {list(CACHE_KEYS)}"
            f" (plus an optional 'multistride')"
        )
    else:
        try:
            OptimizeOptions.from_dict(options)
        except ValueError as exc:
            problems.append(f"'options': {exc}")
    ms = payload.get("ms")
    if status in (CELL_OK, CELL_RESUMED):
        if not isinstance(ms, (int, float)) or isinstance(ms, bool) or ms <= 0:
            problems.append(f"{status} records need a positive 'ms', got {ms!r}")
    elif ms is not None:
        problems.append("quarantined records must carry ms=null")
    if status == CELL_QUARANTINED and not payload.get("error"):
        problems.append("quarantined records need a non-empty 'error'")
    return problems


def tune_report(
    *,
    tune_id_value: str,
    platforms: Sequence[str],
    outcomes: Sequence[Dict],
) -> Dict:
    """Fold per-cell outcome dicts into the final report document.

    Each outcome is a :func:`cell_record`-shaped dict; ``resumed``
    counts as ``ok`` so an interrupted-then-resumed tune folds to the
    same report as an uninterrupted one.
    """
    ok = [o for o in outcomes if o["status"] in (CELL_OK, CELL_RESUMED)]
    quarantined = [o for o in outcomes if o["status"] == CELL_QUARANTINED]
    winners: Dict[str, Dict] = {}
    for outcome in ok:
        slot = f"{outcome['kernel']}@{outcome['platform']}"
        best = winners.get(slot)
        if best is None or outcome["ms"] < best["ms"]:
            winners[slot] = {
                "options": dict(outcome["options"]),
                "ms": outcome["ms"],
                "baseline_ms": outcome["baseline_ms"],
                "speedup": outcome["speedup"],
            }
    table = sorted(
        (
            {
                "kernel": o["kernel"],
                "platform": o["platform"],
                "options": dict(o["options"]),
                "ms": o["ms"],
                "baseline_ms": o["baseline_ms"],
                "speedup": o["speedup"],
            }
            for o in ok
        ),
        key=lambda row: (row["kernel"], row["platform"],
                         json.dumps(row["options"], sort_keys=True)),
    )
    return {
        "format": TUNE_REPORT_FORMAT,
        "tune_id": tune_id_value,
        "platforms": list(platforms),
        "cells": len(outcomes),
        "ok": len(ok),
        "quarantined": len(quarantined),
        "winners": winners,
        "table": table,
        "quarantined_cells": sorted(o["key"] for o in quarantined),
    }


def validate_tune_report(payload: Dict) -> List[str]:
    """Schema-check one final report; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"report must be an object, got {type(payload).__name__}"]
    if payload.get("format") != TUNE_REPORT_FORMAT:
        problems.append(
            f"format must be {TUNE_REPORT_FORMAT!r}, "
            f"got {payload.get('format')!r}"
        )
    tid = payload.get("tune_id")
    if not isinstance(tid, str) or len(tid) != 16:
        problems.append(f"'tune_id' must be 16 hex chars, got {tid!r}")
    for name in ("cells", "ok", "quarantined"):
        value = payload.get(name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"'{name}' must be a non-negative integer")
    if all(
        isinstance(payload.get(n), int) and not isinstance(payload.get(n), bool)
        for n in ("cells", "ok", "quarantined")
    ):
        if payload["ok"] + payload["quarantined"] != payload["cells"]:
            problems.append(
                f"cells ({payload['cells']}) != ok ({payload['ok']}) + "
                f"quarantined ({payload['quarantined']})"
            )
    winners = payload.get("winners")
    if not isinstance(winners, dict):
        problems.append("'winners' must be an object")
    else:
        for slot, entry in winners.items():
            if "@" not in slot:
                problems.append(f"winner slot {slot!r} must be kernel@platform")
            if not isinstance(entry, dict) or not isinstance(
                entry.get("ms"), (int, float)
            ):
                problems.append(f"winner {slot!r} needs a numeric 'ms'")
            elif not isinstance(entry.get("options"), dict):
                problems.append(f"winner {slot!r} needs an 'options' object")
    table = payload.get("table")
    if not isinstance(table, list):
        problems.append("'table' must be a list")
    quarantined_cells = payload.get("quarantined_cells")
    if not isinstance(quarantined_cells, list):
        problems.append("'quarantined_cells' must be a list")
    elif isinstance(payload.get("quarantined"), int) and len(
        quarantined_cells
    ) != payload["quarantined"]:
        problems.append(
            f"quarantined_cells lists {len(quarantined_cells)} keys but "
            f"quarantined={payload['quarantined']}"
        )
    return problems
