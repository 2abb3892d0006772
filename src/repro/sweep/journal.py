"""Append-only, checksummed JSONL journal for sweep results.

Every completed (or quarantined) cell becomes one JSON line::

    {"format": "repro-sweep-v1", "key": "<cell key>", "status": "ok",
     "cell": {...}, "ms": 12.34, "attempts": 1, "trail": [...],
     "schedules": [...], "sha256": "<hex>"}

The journal is a typed view over :class:`repro.util.jsonl.RecordLog`,
the log the schedule cache also uses: a completed cell survives a
SIGKILL of the sweep driver an instant later, and the torn append such a
kill may leave costs one cell, not the whole sweep.

The record ``status`` is ``"ok"`` for a measured cell or
``"quarantined"`` for one that exhausted its retries; the last record
per key wins, so re-running a quarantined cell successfully simply
appends the fresh ``"ok"`` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sweep.cell import SweepCell
from repro.util.jsonl import RecordLog, checksum

#: Schema tag; bump when the record layout changes incompatibly.
JOURNAL_FORMAT = "repro-sweep-v1"

STATUS_OK = "ok"
STATUS_QUARANTINED = "quarantined"

_STATUSES = (STATUS_OK, STATUS_QUARANTINED)


@dataclass
class JournalRecord:
    """One journaled cell result."""

    cell: SweepCell
    status: str
    ms: Optional[float] = None
    attempts: int = 1
    error: Optional[str] = None
    trail: List[str] = field(default_factory=list)
    schedules: Optional[List[Dict]] = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; known: {_STATUSES}"
            )
        if self.status == STATUS_OK and self.ms is None:
            raise ValueError("an 'ok' record needs a measurement")

    @property
    def key(self) -> str:
        return self.cell.key()

    def to_dict(self) -> Dict:
        payload = {
            "format": JOURNAL_FORMAT,
            "key": self.key,
            "status": self.status,
            "cell": self.cell.to_dict(),
            "ms": self.ms,
            "attempts": self.attempts,
            "error": self.error,
            "trail": list(self.trail),
            "schedules": self.schedules,
        }
        payload["sha256"] = checksum(payload)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "JournalRecord":
        return cls(
            cell=SweepCell.from_dict(payload["cell"]),
            status=payload["status"],
            ms=payload.get("ms"),
            attempts=int(payload.get("attempts", 1)),
            error=payload.get("error"),
            trail=list(payload.get("trail") or []),
            schedules=payload.get("schedules"),
        )


class Journal:
    """The on-disk store, safe for concurrent appends from worker threads."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._log = RecordLog(
            self.path,
            JOURNAL_FORMAT,
            lambda payload: JournalRecord.from_dict(payload).key,
        )
        #: Human-readable notes about skipped lines from the last load.
        self.load_diagnostics: List[str] = []

    def append(self, record: JournalRecord) -> None:
        """Durably append one record."""
        self._log.append(record.to_dict())

    def clear(self) -> None:
        """Delete the journal file and its lock sidecar (``--fresh``)."""
        self._log.clear()

    def load(self) -> Dict[str, JournalRecord]:
        """Parse the journal; last valid record per key wins.

        Truncated, corrupt, or foreign lines are skipped with a note in
        :attr:`load_diagnostics` — a damaged journal degrades to fewer
        resumable cells, it never aborts the sweep.
        """
        records, self.load_diagnostics = self._log.load()
        return _typed(records)

    def compact(self) -> Dict[str, JournalRecord]:
        """Quarantine damaged lines and drop superseded ones by
        atomically rewriting the file."""
        records, self.load_diagnostics = self._log.compact()
        return _typed(records)


def _typed(records: Dict[str, Dict]) -> Dict[str, JournalRecord]:
    return {
        key: JournalRecord.from_dict(payload)
        for key, payload in records.items()
    }
