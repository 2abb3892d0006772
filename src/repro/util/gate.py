"""One baseline gate for ``repro.bench --check`` and ``repro loadgen --check``.

Both compare a fresh payload with a committed baseline
(``BENCH_search.json``, ``BENCH_serve.json``) on machine-independent
quantities only, and exit 1 on any failure.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["check_baseline", "floor_failures", "like_with_like"]


def like_with_like(
    current: Dict, baseline: Dict, keys: Sequence[str], mismatch: str
) -> List[str]:
    """A format mismatch alone, else each workload ``key`` that differs,
    labelled ``mismatch.format(key=key)``."""
    if current.get("format") != baseline.get("format"):
        return [
            f"format mismatch: current={current.get('format')!r} "
            f"baseline={baseline.get('format')!r} (regenerate the baseline)"
        ]
    return [
        f"{mismatch.format(key=key)}: current={current.get(key)!r} "
        f"baseline={baseline.get(key)!r} (compare like with like)"
        for key in keys
        if current.get(key) != baseline.get(key)
    ]


def floor_failures(
    name: str,
    current: Optional[float],
    baseline: Optional[float],
    tolerance: float,
    *,
    unit: str = "",
    missing: Optional[str] = None,
    consequence: str = "",
) -> List[str]:
    """One-sided: ``current`` may not fall more than ``tolerance`` below
    ``baseline``; ``missing`` names the quantity if either is absent."""
    if current is None or baseline is None:
        return [f"missing {missing or name} in current or baseline"]
    floor = baseline * (1.0 - tolerance)
    if current >= floor:
        return []
    return [
        f"{name} regressed: {current:.2f}{unit} < {floor:.2f}{unit} "
        f"(baseline {baseline:.2f}{unit} - {tolerance:.0%} tolerance)"
        f"{consequence}"
    ]


def check_baseline(
    prog: str,
    payload: Dict,
    path: str,
    check: Callable[..., List[str]],
    tolerance: float,
) -> int:
    """Gate ``payload`` against the baseline file at ``path``; exit 0 or 1."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{prog} --check: cannot read baseline: {exc}", file=sys.stderr)
        return 1
    failures = check(payload, baseline, tolerance=tolerance)
    for failure in failures:
        print(f"{prog} --check FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"  check vs {path}: OK (±{tolerance:.0%})")
    return 0
