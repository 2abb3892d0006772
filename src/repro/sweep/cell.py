"""The unit of sweep work: one measurement cell.

A :class:`SweepCell` pins down everything a worker subprocess needs to
reproduce one ``measure_case`` call — benchmark, technique, platform,
problem-size overrides, and the budget/seed knobs that are normally
carried by :class:`~repro.experiments.harness.ExperimentConfig`.  Cells
are value objects: two cells with equal fields denote the same
measurement, have the same :meth:`key`, and map to the same record in
the on-disk journal and the same entry in the in-process memo
(:func:`~repro.experiments.harness.measure_key`).

Optimizer switches travel as one frozen
:class:`~repro.options.OptimizeOptions` value in the ``options`` field
(``None`` = let the technique decide, the historical behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.experiments.harness import (
    ExperimentConfig,
    measure_key,
    optimize_runtime_key,
)
from repro.options import OptimizeOptions

#: A ``measure_case`` cell (simulated milliseconds for one technique).
KIND_MEASURE = "measure"
#: A Table-5 cell: wall-clock seconds of the proposed optimizer.
KIND_OPTIMIZE_RUNTIME = "optimize_runtime"
#: A fleet-tune cell: one (kernel, platform, options) point of a tune
#: grid, executed as an ordinary ``/v1/optimize`` through the router
#: (see :mod:`repro.tune`) rather than in a local worker subprocess.
KIND_TUNE = "tune"

_KINDS = (KIND_MEASURE, KIND_OPTIMIZE_RUNTIME, KIND_TUNE)


@dataclass(frozen=True)
class SweepCell:
    """One (benchmark, technique, platform, sizes, budgets) measurement.

    ``autotune_evals`` and ``seed`` only matter for the ``autotuner``
    technique; :meth:`memo_key` normalizes them away for deterministic
    techniques exactly as the harness memo does.  ``optimize_runtime``
    cells (Table 5) only use benchmark/platform/fast; their value is
    seconds of optimizer wall-clock rather than simulated milliseconds.
    ``tune`` cells identify one point of a tune grid by (benchmark,
    platform, options, fast); ``options`` must be set for them.
    """

    benchmark: str
    technique: str
    platform: str
    line_budget: int
    autotune_evals: Optional[int] = None
    fast: bool = False
    seed: int = 0
    size_overrides: Tuple[Tuple[str, int], ...] = field(default=())
    kind: str = KIND_MEASURE
    options: Optional[OptimizeOptions] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown cell kind {self.kind!r}; known: {_KINDS}"
            )
        if self.kind == KIND_TUNE and self.options is None:
            raise ValueError("tune cells require options=OptimizeOptions(...)")
        # Normalize dict-valued overrides into the canonical sorted tuple
        # so equal cells always hash (and serialize) identically.
        if isinstance(self.size_overrides, dict):
            object.__setattr__(
                self,
                "size_overrides",
                tuple(sorted(self.size_overrides.items())),
            )

    # -- identity ------------------------------------------------------

    def options_dict(self) -> Optional[Dict[str, bool]]:
        """The canonical cache/coalesce options dict, or ``None``."""
        return None if self.options is None else self.options.cache_dict()

    def memo_key(self) -> Tuple:
        """The harness memo key this cell fills when it completes."""
        if self.kind == KIND_OPTIMIZE_RUNTIME:
            return optimize_runtime_key(
                self.benchmark, self.platform, self.fast
            )
        if self.kind == KIND_TUNE:
            return (
                "tune",
                self.benchmark,
                self.platform,
                self.options.fingerprint(),
                self.fast,
            )
        return measure_key(
            self.benchmark,
            self.technique,
            self.platform,
            line_budget=self.line_budget,
            autotune_evals=self.autotune_evals,
            fast=self.fast,
            seed=self.seed,
            size_overrides=dict(self.size_overrides),
        )

    def key(self) -> str:
        """Stable string identity used by the journal and the logs."""
        if self.kind == KIND_OPTIMIZE_RUNTIME:
            parts = [self.kind, self.benchmark, self.platform]
            if self.fast:
                parts.append("fast")
            return ":".join(parts)
        if self.kind == KIND_TUNE:
            parts = [
                self.kind,
                self.benchmark,
                self.platform,
                f"opt{self.options.fingerprint()[:12]}",
            ]
            if self.fast:
                parts.append("fast")
            return ":".join(parts)
        parts = [
            self.benchmark,
            self.technique,
            self.platform,
            f"lb{self.line_budget}",
        ]
        if self.technique == "autotuner":
            parts.append(f"ev{self.autotune_evals or 0}")
            parts.append(f"seed{self.seed}")
        if self.fast:
            parts.append("fast")
        if self.options is not None:
            parts.append(f"opt{self.options.fingerprint()[:12]}")
        parts.extend(f"{k}={v}" for k, v in self.size_overrides)
        return ":".join(parts)

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "technique": self.technique,
            "platform": self.platform,
            "line_budget": self.line_budget,
            "autotune_evals": self.autotune_evals,
            "fast": self.fast,
            "seed": self.seed,
            "size_overrides": dict(self.size_overrides),
            "options": self.options_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SweepCell":
        options = payload.get("options")
        return cls(
            kind=payload.get("kind", KIND_MEASURE),
            benchmark=payload["benchmark"],
            technique=payload.get("technique", ""),
            platform=payload["platform"],
            line_budget=int(payload.get("line_budget", 0)),
            autotune_evals=(
                None
                if payload.get("autotune_evals") is None
                else int(payload["autotune_evals"])
            ),
            fast=bool(payload.get("fast", False)),
            seed=int(payload.get("seed", 0)),
            size_overrides=tuple(
                sorted(
                    (k, int(v))
                    for k, v in (payload.get("size_overrides") or {}).items()
                )
            ),
            options=(
                None if options is None else OptimizeOptions.from_dict(options)
            ),
        )

    # -- execution support ---------------------------------------------

    def config(self) -> ExperimentConfig:
        """An ExperimentConfig reproducing this cell in a fresh process.

        Built explicitly from the cell's fields — never from environment
        variables — so a worker measures exactly what the parent planned
        regardless of its inherited environment.
        """
        return ExperimentConfig(
            line_budget=self.line_budget,
            autotune_evals=self.autotune_evals or 12,
            fast=self.fast,
            seed=self.seed,
        )
