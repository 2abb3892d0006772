"""Self-healing schedule cache: corruption counting, quarantine, repair.

The discipline under test: damaged lines are *counted and healed*,
never silently absorbed.  ``load`` counts each one
(``stats.corrupt_lines_skipped``), ``compact`` preserves the raw bytes
in the ``.quarantine`` sidecar and emits one structured
``cache.corrupt`` trace event, ``heal`` is the detect-quarantine-repair
loop the serve layer runs at startup, and ``check_shard_caches``
cross-checks that keys shared between shard stores (failover writes)
carry bit-identical schedules everywhere.
"""

import json
import os

from repro.cache import ScheduleCache, check_shard_caches, shard_cache_path
from repro.util.jsonl import checksum as _checksum
from repro.core import optimize
from repro.obs import CollectingTracer
from repro.obs.events import EVENT_CACHE_CORRUPT

from tests.helpers import make_matmul, make_transpose_mask

GARBAGE = "@@@ not json @@@"


def _seed_store(path, arch, *, funcs=(make_matmul,)):
    """A store with one good entry per func; returns (cache, options)."""
    from repro.options import OptimizeOptions

    cache = ScheduleCache(str(path))
    options = OptimizeOptions().cache_dict()
    for make in funcs:
        func, _, _ = make(64)
        cache.put(func, arch, options, optimize(func, arch).schedule)
    return cache, options


def _corrupt(path, *lines):
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


class TestCorruptionCounting:
    def test_load_counts_each_damaged_line(self, tmp_path, arch):
        cache, _ = _seed_store(tmp_path / "c.jsonl", arch)
        _corrupt(
            cache.path,
            GARBAGE,
            json.dumps({"format": "repro-schedule-cache-v1", "key": "k",
                        "schedule": {}, "sha256": "feedface"}),
        )
        fresh = ScheduleCache(cache.path)
        records = fresh.load()
        assert len(records) == 1  # the good entry survives
        assert fresh.stats.corrupt_lines_skipped == 2
        assert len(fresh.load_diagnostics) == 2

    def test_bit_flip_fails_the_checksum(self, tmp_path, arch):
        cache, _ = _seed_store(tmp_path / "c.jsonl", arch)
        with open(cache.path, encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        record["options"] = {"tampered": True}  # checksum now stale
        with open(cache.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        fresh = ScheduleCache(cache.path)
        assert fresh.load() == {}
        assert fresh.stats.corrupt_lines_skipped == 1


class TestQuarantineAndHeal:
    def test_compact_quarantines_and_traces(self, tmp_path, arch):
        tracer = CollectingTracer()
        cache, _ = _seed_store(tmp_path / "c.jsonl", arch)
        _corrupt(cache.path, GARBAGE)
        traced = ScheduleCache(cache.path, tracer=tracer)
        assert traced.compact() == 1
        sidecar = cache.path + ".quarantine"
        assert os.path.exists(sidecar)
        with open(sidecar, encoding="utf-8") as handle:
            assert GARBAGE in handle.read()
        assert traced.stats.quarantined_lines == 1
        corrupt_events = [
            e for e in tracer.events if e.get("name") == EVENT_CACHE_CORRUPT
        ]
        assert len(corrupt_events) == 1
        assert corrupt_events[0]["attrs"]["lines"] == 1
        assert corrupt_events[0]["attrs"]["quarantine"] == sidecar
        # The store itself is clean after the rewrite.
        verify = ScheduleCache(cache.path)
        verify.load()
        assert verify.stats.corrupt_lines_skipped == 0

    def test_heal_repairs_and_reports(self, tmp_path, arch):
        cache, options = _seed_store(tmp_path / "c.jsonl", arch)
        _corrupt(cache.path, GARBAGE, GARBAGE + " again")
        healer = ScheduleCache(cache.path)
        assert healer.heal() == 2
        assert os.path.exists(cache.path + ".quarantine")
        # Healed store still serves its good entry.
        func, _, _ = make_matmul(64)
        assert healer.get(func, arch, options) is not None

    def test_heal_quarantines_a_non_utf8_line(self, tmp_path, arch):
        cache, options = _seed_store(tmp_path / "c.jsonl", arch)
        raw = b"\xff\xfe not UTF-8 \xc0\n"
        with open(cache.path, "ab") as handle:
            handle.write(raw)
        healer = ScheduleCache(cache.path)
        assert healer.heal() == 1
        assert healer.stats.quarantined_lines == 1
        with open(cache.path + ".quarantine", "rb") as handle:
            assert handle.read() == raw
        func, _, _ = make_matmul(64)
        assert healer.get(func, arch, options) is not None

    def test_heal_on_healthy_store_is_a_noop(self, tmp_path, arch):
        cache, _ = _seed_store(tmp_path / "c.jsonl", arch)
        before = os.stat(cache.path).st_mtime_ns
        assert ScheduleCache(cache.path).heal() == 0
        assert os.stat(cache.path).st_mtime_ns == before  # no rewrite churn
        assert not os.path.exists(cache.path + ".quarantine")

    def test_corrupt_line_counted_once_across_heal(self, tmp_path, arch):
        # heal = load (counts) + compact (recounts internally with
        # count_corrupt=False): the line must be counted exactly once.
        cache, _ = _seed_store(tmp_path / "c.jsonl", arch)
        _corrupt(cache.path, GARBAGE)
        healer = ScheduleCache(cache.path)
        healer.heal()
        assert healer.stats.corrupt_lines_skipped == 1
        assert healer.stats.quarantined_lines == 1


class TestShardConsistency:
    def test_consistent_twin_entries(self, tmp_path, arch):
        base = str(tmp_path / "fleet.jsonl")
        # The same key written to two shards (a failover write) with the
        # same deterministic schedule: consistent.
        for shard in (0, 1):
            _seed_store(shard_cache_path(base, shard), arch)
        report = check_shard_caches(base, [0, 1])
        assert report["consistent"] is True
        assert report["shared_keys"] == 1
        assert report["mismatched_keys"] == []
        assert report["shards"]["0"]["entries"] == 1

    def test_divergent_twin_entries_flagged(self, tmp_path, arch):
        base = str(tmp_path / "fleet.jsonl")
        cache0, _ = _seed_store(shard_cache_path(base, 0), arch)
        _seed_store(shard_cache_path(base, 1), arch)
        # Tamper shard 1's entry *with a valid checksum*: same key,
        # different schedule — the determinism contract broken.
        path1 = shard_cache_path(base, 1)
        with open(path1, encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        record["schedule"] = dict(record["schedule"], tampered=1)
        record["sha256"] = _checksum(record)
        with open(path1, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        report = check_shard_caches(base, [0, 1])
        assert report["consistent"] is False
        assert len(report["mismatched_keys"]) == 1

    def test_disjoint_keyspaces_are_trivially_consistent(self, tmp_path, arch):
        base = str(tmp_path / "fleet.jsonl")
        _seed_store(shard_cache_path(base, 0), arch, funcs=(make_matmul,))
        _seed_store(
            shard_cache_path(base, 1), arch, funcs=(make_transpose_mask,)
        )
        report = check_shard_caches(base, [0, 1])
        assert report["consistent"] is True
        assert report["shared_keys"] == 0

    def test_corrupt_lines_surfaced_per_shard(self, tmp_path, arch):
        base = str(tmp_path / "fleet.jsonl")
        cache0, _ = _seed_store(shard_cache_path(base, 0), arch)
        _seed_store(shard_cache_path(base, 1), arch)
        _corrupt(cache0.path, GARBAGE)
        report = check_shard_caches(base, [0, 1])
        assert report["shards"]["0"]["corrupt_lines"] == 1
        assert report["shards"]["1"]["corrupt_lines"] == 0
        # Corruption alone is not inconsistency (checksums caught it).
        assert report["consistent"] is True
