"""The persistent cross-run schedule cache.

A checksummed, append-only JSONL store mapping
``(Func fingerprint, ArchSpec fingerprint, optimizer options)`` to the
serialized schedule the search chose, so a sweep — or any repeated
``safe_optimize`` call — pays for each search once per machine instead
of once per run.  Every line is one record::

    {"format": "repro-schedule-cache-v1", "key": "<sha256>",
     "func_fingerprint": "...", "arch_fingerprint": "...",
     "options": {...}, "schedule": {...}, "meta": {...},
     "sha256": "<hex>"}

The store is a view over :class:`repro.util.jsonl.RecordLog`, the log
the sweep journal also uses, so a torn append costs one entry, never the
cache.  Re-caching a key appends a superseding line, and
:meth:`ScheduleCache.compact` drops superseded lines.

Corruption is *counted and healed*, never silently absorbed: every
skipped line bumps ``stats.corrupt_lines_skipped`` (surfaced through the
serve layer's ``/metrics`` cache block), :meth:`ScheduleCache.compact`
preserves the damaged raw lines in a ``<path>.quarantine`` sidecar
before rewriting the store clean (one structured ``cache.corrupt`` trace
event per compact that found any), and :meth:`ScheduleCache.heal` is the
detect-quarantine-repair loop the serve layer runs at startup.  For a
sharded fleet, :func:`check_shard_caches` cross-checks that any key
present in several shard stores (failover writes) carries bit-identical
schedules everywhere — the ``fleet status`` consistency report.

Hits are *replayed*, not trusted: :meth:`ScheduleCache.get` re-applies
the stored directives to the caller's Func through
:func:`repro.ir.serialize.schedule_from_dict`, so a stale entry whose
directives no longer fit the definition fails the replay and degrades to
a miss (the caller then searches and overwrites the entry) instead of
returning a corrupt schedule.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.arch import ArchSpec
from repro.cache.fingerprint import func_fingerprint, options_fingerprint
from repro.ir.func import Func
from repro.ir.schedule import Schedule
from repro.ir.serialize import schedule_from_dict, schedule_to_dict
from repro.util import ScheduleError
from repro.util.jsonl import RecordLog, checksum, compact_json

#: Schema tag; bump when the record layout changes incompatibly.
CACHE_FORMAT = "repro-schedule-cache-v1"

__all__ = [
    "CACHE_FORMAT",
    "CacheStats",
    "ScheduleCache",
    "cache_key",
    "check_shard_caches",
    "shard_cache_path",
]


def _key_of(payload: Dict) -> str:
    """A record's key; a record needs a string key and a schedule object."""
    key = payload.get("key")
    if not isinstance(key, str) or not isinstance(
        payload.get("schedule"), dict
    ):
        raise ValueError
    return key


def cache_key(func_fp: str, arch_fp: str, options: Dict) -> str:
    """The record key: one hash over the three key components."""
    return hashlib.sha256(
        f"{func_fp}:{arch_fp}:{options_fingerprint(options)}".encode("utf-8")
    ).hexdigest()


def shard_cache_path(base_path: str, shard: int) -> str:
    """The per-shard spelling of a fleet's base cache path.

    ``cache.jsonl`` + shard 2 → ``cache-shard2.jsonl``.  The fleet's
    consistent-hash router keeps each key on one shard, so giving every
    worker its own file keeps each store warm for exactly its keyspace
    and keeps appends single-writer — no cross-process compaction races,
    and a worker restart reopens a cache that is warm by construction.
    """
    if shard < 0:
        raise ValueError(f"shard must be >= 0, got {shard}")
    root, ext = os.path.splitext(base_path)
    return f"{root}-shard{shard}{ext or '.jsonl'}"


@dataclass
class CacheStats:
    """Cumulative counters for one :class:`ScheduleCache` instance.

    ``corrupt_lines_skipped`` counts every damaged line a load refused
    to ingest (unparsable JSON, checksum mismatch, malformed record);
    ``quarantined_lines`` counts how many of those :meth:`compact`
    preserved in the ``.quarantine`` sidecar before repairing the store.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    replay_failures: int = 0
    corrupt_lines_skipped: int = 0
    quarantined_lines: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "replay_failures": self.replay_failures,
            "corrupt_lines_skipped": self.corrupt_lines_skipped,
            "quarantined_lines": self.quarantined_lines,
        }


class ScheduleCache:
    """The on-disk schedule store, safe for concurrent use in one process.

    The backing file is read lazily on first access and kept as an
    in-memory ``key -> record`` map; :meth:`put` appends to the file and
    updates the map, so interleaved get/put always see the caller's own
    writes.  Cross-process appends are line-atomic and readers tolerate
    any torn line, so several processes (sweep workers, serve workers)
    may share one cache file; :meth:`compact` holds the log's exclusive
    ``<path>.lock`` so rewrites never drop concurrent appends.
    """

    def __init__(self, path: str, *, tracer=None) -> None:
        self.path = str(path)
        self.stats = CacheStats()
        self._log = RecordLog(self.path, CACHE_FORMAT, _key_of)
        self._lock = threading.Lock()
        self._records: Optional[Dict[str, Dict]] = None
        #: Human-readable notes about skipped lines from the last load.
        self.load_diagnostics: List[str] = []
        if tracer is None:
            from repro.obs import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer

    # -- key construction ---------------------------------------------

    @staticmethod
    def key_for(func: Func, arch: ArchSpec, options: Dict) -> str:
        return cache_key(func_fingerprint(func), arch.fingerprint(), options)

    # -- reading -------------------------------------------------------

    def load(self) -> Dict[str, Dict]:
        """Parse the backing file; last valid record per key wins.

        Damaged lines are skipped with a note in :attr:`load_diagnostics`
        and each bumps ``stats.corrupt_lines_skipped``.
        """
        records, self.load_diagnostics = self._log.load()
        self.stats.corrupt_lines_skipped += len(self.load_diagnostics)
        return records

    def _loaded(self) -> Dict[str, Dict]:
        if self._records is None:
            self._records = self.load()
        return self._records

    def __len__(self) -> int:
        with self._lock:
            return len(self._loaded())

    def get(
        self, func: Func, arch: ArchSpec, options: Dict
    ) -> Optional[Schedule]:
        """Look up and replay a cached schedule for this exact key.

        Returns ``None`` on a miss *or* when the stored directives no
        longer replay onto ``func`` (counted in
        ``stats.replay_failures``) — stale entries degrade to misses.
        """
        key = self.key_for(func, arch, options)
        with self._lock:
            record = self._loaded().get(key)
            if record is None:
                self.stats.misses += 1
                return None
        try:
            schedule = schedule_from_dict(func, record["schedule"])
        except ScheduleError as exc:
            with self._lock:
                self.stats.replay_failures += 1
                self.stats.misses += 1
                self.load_diagnostics.append(
                    f"{self.path}: entry {key[:12]}... did not replay "
                    f"({exc}); treating as a miss"
                )
            return None
        with self._lock:
            self.stats.hits += 1
        return schedule

    # -- writing -------------------------------------------------------

    def put(
        self,
        func: Func,
        arch: ArchSpec,
        options: Dict,
        schedule: Schedule,
        meta: Optional[Dict] = None,
    ) -> str:
        """Durably append one schedule; returns the key."""
        func_fp = func_fingerprint(func)
        arch_fp = arch.fingerprint()
        key = cache_key(func_fp, arch_fp, options)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "func_fingerprint": func_fp,
            "arch_fingerprint": arch_fp,
            "options": dict(options),
            "schedule": schedule_to_dict(schedule),
            "meta": dict(meta or {}),
        }
        payload["sha256"] = checksum(payload)
        with self._lock:
            self._log.append(payload)
            self._loaded()[key] = payload
            self.stats.stores += 1
        return key

    def compact(self) -> int:
        """Drop superseded/corrupt lines via the log's atomic rewrite;
        returns the surviving record count.

        Damaged lines, quarantined by the log, count in
        ``stats.quarantined_lines`` (not again in
        ``corrupt_lines_skipped``: :meth:`heal`'s load did that) and
        raise one ``cache.corrupt`` trace event per compact.
        """
        with self._lock:
            self._records, self.load_diagnostics = self._log.compact()
            damaged = len(self.load_diagnostics)
            if damaged:
                self.stats.quarantined_lines += damaged
                from repro.obs.events import EVENT_CACHE_CORRUPT

                self.tracer.event(
                    EVENT_CACHE_CORRUPT,
                    path=self.path,
                    lines=damaged,
                    quarantine=self.path + ".quarantine",
                )
            return len(self._records)

    def heal(self) -> int:
        """Detect, quarantine, and repair corrupt lines; returns how many.

        The self-healing loop the serve layer runs at startup: load the
        store (counting damage), and — only when damage was found —
        compact it, which preserves the damaged lines in the
        ``.quarantine`` sidecar and rewrites the store clean.  A healthy
        store is left untouched (no rewrite churn).
        """
        with self._lock:
            self._records = self.load()
            corrupt = len(self.load_diagnostics)
        if corrupt:
            self.compact()
        return corrupt

    def clear(self) -> None:
        """Remove the backing file (and lock sidecar); forget the map."""
        with self._lock:
            self._records = None
            self._log.clear()


def check_shard_caches(base_path: str, shards: Sequence[int]) -> Dict:
    """Cross-shard consistency report over a fleet's per-shard stores.

    The consistent-hash router keeps each key home on one shard, but a
    failover leg legitimately writes the same key into the successor's
    store — and because the whole pipeline is deterministic, those twin
    entries must carry *bit-identical* canonical schedule JSON.  Any key
    present in several shard files whose schedules differ means the
    determinism contract broke somewhere (a corrupt line that still
    checksums, divergent search inputs, a bad failover), which is worth
    failing ``fleet status`` over.

    Returns a JSON-shaped report::

        {"shards": {"0": {"path": ..., "entries": N,
                          "corrupt_lines": M}, ...},
         "shared_keys": K, "mismatched_keys": ["<key>", ...],
         "consistent": bool}

    Each shard file is loaded fresh (read-only; no instance reuse), so
    the check sees exactly what is on disk right now.
    """
    per_shard: Dict[str, Dict] = {}
    schedules_by_key: Dict[str, Dict[str, str]] = {}
    for shard in shards:
        path = shard_cache_path(base_path, shard)
        store = ScheduleCache(path)
        records = store.load()
        per_shard[str(shard)] = {
            "path": path,
            "entries": len(records),
            "corrupt_lines": store.stats.corrupt_lines_skipped,
        }
        for key, payload in records.items():
            schedules_by_key.setdefault(key, {})[str(shard)] = compact_json(
                payload.get("schedule", {})
            )
    shared = {
        key: by_shard
        for key, by_shard in schedules_by_key.items()
        if len(by_shard) > 1
    }
    mismatched = sorted(
        key
        for key, by_shard in shared.items()
        if len(set(by_shard.values())) > 1
    )
    return {
        "shards": per_shard,
        "shared_keys": len(shared),
        "mismatched_keys": mismatched,
        "consistent": not mismatched,
    }
