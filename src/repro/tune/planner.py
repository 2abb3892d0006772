"""Tune-cell planning: expand one request into its grid of cells.

A ``repro-tune-v1`` request names corpus kernels (directly or by
family), target platforms, and an options grid; the planner expands the
cross product into :class:`~repro.sweep.SweepCell` values of kind
``tune``, each carrying one frozen
:class:`~repro.options.OptimizeOptions`.  Planning is deterministic:
kernels in request order (families expand in corpus order), platforms
in request order, overlays in grid order — so a resumed tune walks the
cells in exactly the order the interrupted one did.
"""

from __future__ import annotations

from typing import Dict, List

from repro.frontend.corpus import CORPUS, CorpusKernel, corpus_kernel
from repro.options import OptimizeOptions
from repro.sweep import KIND_TUNE, SweepCell

from repro.tune.schema import validate_tune_request


def resolve_kernels(payload: Dict) -> List[CorpusKernel]:
    """The corpus kernels one request selects, in deterministic order."""
    if payload.get("kernels") is not None:
        return [corpus_kernel(name) for name in payload["kernels"]]
    families = set(payload.get("families") or ())
    return [kernel for kernel in CORPUS if kernel.family in families]


def plan_tune_cells(payload: Dict) -> List[SweepCell]:
    """Expand one validated request into its (deduplicated) cell list."""
    problems = validate_tune_request(payload)
    if problems:
        raise ValueError("; ".join(problems))
    kernels = resolve_kernels(payload)
    if not kernels:
        raise ValueError(
            f"request selects no kernels (families="
            f"{payload.get('families')!r})"
        )
    fast = bool(payload.get("fast", False))
    cells: List[SweepCell] = []
    seen = set()
    for kernel in kernels:
        for platform in payload["platforms"]:
            for overlay in payload["grid"] or [{}]:
                cell = SweepCell(
                    benchmark=kernel.name,
                    technique="proposed",
                    platform=platform,
                    line_budget=0,
                    fast=fast,
                    kind=KIND_TUNE,
                    options=OptimizeOptions.from_dict(overlay),
                )
                key = cell.key()
                if key not in seen:
                    seen.add(key)
                    cells.append(cell)
    return cells
