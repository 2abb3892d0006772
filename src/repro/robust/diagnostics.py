"""Structured diagnostics for the graceful-degradation flow.

The straight-line flow of the paper (Fig. 1) either succeeds silently or
raises; once :func:`repro.robust.safe_optimize` starts absorbing failures
and descending a fallback chain, *what went wrong and what was done about
it* must travel with the result instead of being printed or lost.  A
:class:`Diagnostics` collector is attached to every
:class:`~repro.robust.safe.SafeResult`; each entry is a
:class:`DiagnosticRecord` carrying the stage, severity, the exception that
triggered it, elapsed time, and the rung the flow descended to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

_SEVERITIES = (SEVERITY_INFO, SEVERITY_WARNING, SEVERITY_ERROR)


@dataclass(frozen=True)
class DiagnosticRecord:
    """One structured event of a ``safe_optimize`` run.

    Attributes
    ----------
    severity:
        ``"info"``, ``"warning"`` or ``"error"``.
    stage:
        Where the event happened — a fallback rung (``"proposed"``,
        ``"auto-scheduler"``, ...) or a flow stage (``"validation"``).
    message:
        Human-readable description.
    error_type:
        Class name of the triggering exception, when there was one.
    elapsed_ms:
        Time spent in the stage before the event, when measured.
    fallback_to:
        The rung the flow descended to because of this event, when any.
    """

    severity: str
    stage: str
    message: str
    error_type: Optional[str] = None
    elapsed_ms: Optional[float] = None
    fallback_to: Optional[str] = None

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"severity must be one of {_SEVERITIES}, got {self.severity!r}"
            )

    def describe(self) -> str:
        parts = [f"[{self.severity}] {self.stage}: {self.message}"]
        if self.error_type:
            parts.append(f"({self.error_type})")
        if self.elapsed_ms is not None:
            parts.append(f"after {self.elapsed_ms:.1f} ms")
        if self.fallback_to:
            parts.append(f"-> falling back to {self.fallback_to!r}")
        return " ".join(parts)


@dataclass
class Diagnostics:
    """An append-only collection of :class:`DiagnosticRecord`."""

    records: List[DiagnosticRecord] = field(default_factory=list)

    # -- recording -----------------------------------------------------

    def add(self, record: DiagnosticRecord) -> DiagnosticRecord:
        self.records.append(record)
        return record

    def info(self, stage: str, message: str, **kwargs) -> DiagnosticRecord:
        return self.add(
            DiagnosticRecord(SEVERITY_INFO, stage, message, **kwargs)
        )

    def warning(self, stage: str, message: str, **kwargs) -> DiagnosticRecord:
        return self.add(
            DiagnosticRecord(SEVERITY_WARNING, stage, message, **kwargs)
        )

    def error(self, stage: str, message: str, **kwargs) -> DiagnosticRecord:
        return self.add(
            DiagnosticRecord(SEVERITY_ERROR, stage, message, **kwargs)
        )

    def record_exception(
        self,
        stage: str,
        exc: BaseException,
        *,
        elapsed_ms: Optional[float] = None,
        fallback_to: Optional[str] = None,
    ) -> DiagnosticRecord:
        """Record a caught exception as an error entry."""
        return self.error(
            stage,
            str(exc) or exc.__class__.__name__,
            error_type=exc.__class__.__name__,
            elapsed_ms=elapsed_ms,
            fallback_to=fallback_to,
        )

    # -- querying ------------------------------------------------------

    @property
    def warnings(self) -> List[DiagnosticRecord]:
        return [r for r in self.records if r.severity == SEVERITY_WARNING]

    @property
    def errors(self) -> List[DiagnosticRecord]:
        return [r for r in self.records if r.severity == SEVERITY_ERROR]

    def has_errors(self) -> bool:
        return any(r.severity == SEVERITY_ERROR for r in self.records)

    def summary(self) -> str:
        """Multi-line rendering of every record (empty string when clean)."""
        return "\n".join(r.describe() for r in self.records)

    def __iter__(self) -> Iterator[DiagnosticRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        # A Diagnostics object is always truthy so ``result.diagnostics``
        # can be tested for presence without surprising emptiness checks.
        return True
