"""The one checksummed JSONL record log.

The sweep journal and the schedule cache are typed views over
:class:`RecordLog`; :func:`repro.obs.read_trace` uses :func:`read_lines`.
A record is one line of :func:`compact_json` with a ``format`` tag and a
``sha256`` :func:`checksum` over the rest; the last valid record per key
wins.  The durability rules, the same for every log:

* An append is one ``O_APPEND`` write plus ``fsync`` under a shared
  advisory lock on ``<path>.lock``.  The kernel serializes such writes,
  so concurrent writers never interleave bytes within a line and the
  checksum only has torn tails from crashes to catch.
* A read never raises on damage: a line that is not UTF-8, not JSON,
  not an object, foreign, checksum-mismatched or malformed is skipped
  with a diagnostic.
* Compaction holds the lock exclusively, appends damaged lines' raw
  bytes to ``<path>.quarantine``, rewrites the survivors through a temp
  file + ``fsync`` + ``os.replace``, and fsyncs the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

try:  # advisory inter-process locking; unix-only, gracefully absent
    import fcntl
except ImportError:  # pragma: no cover - non-posix platforms
    fcntl = None

__all__ = ["Line", "RecordLog", "checksum", "compact_json", "read_lines"]


def compact_json(payload) -> str:
    """Sorted-key, ``(",", ":")``-separated JSON: the on-disk record
    encoding, the bytes under every checksum and fingerprint."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload: Dict) -> str:
    """SHA-256 over the compact JSON of ``payload`` minus its ``sha256``."""
    body = {k: v for k, v in payload.items() if k != "sha256"}
    return hashlib.sha256(compact_json(body).encode("utf-8")).hexdigest()


class Line(NamedTuple):
    """One non-blank line: ``where`` is ``<path>:<lineno>``, ``raw`` its
    bytes without the newline, ``damage`` why it is unusable (or None)."""

    where: str
    raw: bytes
    value: Any = None
    damage: Optional[str] = None


def read_lines(path: str) -> List[Line]:
    """Parse every non-blank line of ``path``.

    A line that is not UTF-8 or not JSON comes back damaged, never as an
    exception.  Raises :class:`OSError` when the file cannot be read.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    lines: List[Line] = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        if not raw.strip():
            continue
        value = damage = None
        try:
            value = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            damage = f"non-UTF-8 line ({exc.reason})"
        except json.JSONDecodeError as exc:
            damage = f"unparsable line ({exc.msg})"
        lines.append(Line(f"{path}:{lineno}", raw, value, damage))
    return lines


def _note(line: Line) -> str:
    return f"{line.where}: skipping {line.damage}"


@contextmanager
def _advisory_lock(path: str, *, exclusive: bool):
    """Advisory lock on ``<path>.lock``: shared for appends, exclusive
    for compaction so its read-then-replace cannot drop an append.  It
    is a sidecar because compaction replaces the data file's inode.
    Without :mod:`fcntl` (non-posix) this is a no-op.
    """
    if fcntl is None:
        yield
        return
    fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def _append_fsync(path: str, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: str) -> None:
    """Make a rename in ``directory`` durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platform without directory fsync
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class RecordLog:
    """A checksummed JSONL file of ``record_format`` records.

    ``key_of(payload)`` names a checksum-valid record's key; it raises
    :class:`KeyError`, :class:`TypeError` or :class:`ValueError` for a
    malformed one, which is then skipped like any other damage.
    """

    def __init__(
        self, path: str, record_format: str, key_of: Callable[[Dict], str]
    ) -> None:
        self.path = str(path)
        self.record_format = record_format
        self._key_of = key_of

    def append(self, payload: Dict) -> None:
        """Durably append one checksummed record."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        data = (compact_json(payload) + "\n").encode("utf-8")
        with _advisory_lock(self.path, exclusive=False):
            _append_fsync(self.path, data)

    def load(self) -> Tuple[Dict[str, Dict], List[str]]:
        """``(records, diagnostics)``: the last valid payload per key, in
        first-seen key order, and one note per skipped line.  A missing
        file is an empty log."""
        records, skipped = self._scan()
        return records, [_note(line) for line in skipped]

    def _scan(self) -> Tuple[Dict[str, Dict], List[Line]]:
        try:
            lines = read_lines(self.path)
        except FileNotFoundError:
            return {}, []
        records: Dict[str, Dict] = {}
        skipped: List[Line] = []
        for line in lines:
            damage = line.damage or self._check(line.value)
            if damage is None:
                try:
                    records[self._key_of(line.value)] = line.value
                    continue
                except (KeyError, TypeError, ValueError) as exc:
                    detail = f" ({exc})" if str(exc) else ""
                    damage = f"malformed record{detail}"
            skipped.append(line._replace(damage=damage))
        return records, skipped

    def _check(self, payload) -> Optional[str]:
        if not isinstance(payload, dict):
            return "non-object line"
        if payload.get("format") != self.record_format:
            return (
                f"record with format={payload.get('format')!r} "
                f"(expected {self.record_format!r})"
            )
        if payload.get("sha256") != checksum(payload):
            return "record with bad checksum (truncated?)"
        return None

    def compact(self) -> Tuple[Dict[str, Dict], List[str]]:
        """Quarantine damaged lines, drop superseded ones, and atomically
        rewrite the survivors; returns what :meth:`load` would."""
        with _advisory_lock(self.path, exclusive=True):
            records, skipped = self._scan()
            if skipped:
                _append_fsync(
                    self.path + ".quarantine",
                    b"".join(line.raw + b"\n" for line in skipped),
                )
            directory = os.path.dirname(os.path.abspath(self.path))
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{os.path.basename(self.path)}-",
                suffix=".tmp",
                dir=directory,
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    for payload in records.values():
                        handle.write(compact_json(payload) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            _fsync_dir(directory)
        return records, [_note(line) for line in skipped]

    def clear(self) -> None:
        """Delete the log and its lock sidecar."""
        for path in (self.path, self.path + ".lock"):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
