"""Tests for the persistent cross-run schedule cache (``repro.cache``)."""

import json

import pytest

from repro.cache import (
    CACHE_FORMAT,
    ScheduleCache,
    cache_key,
    func_fingerprint,
    options_fingerprint,
)
from repro.options import OptimizeOptions
from repro.util.jsonl import checksum as _checksum
from repro.core import optimize
from repro.ir.serialize import schedule_to_dict
from repro.robust import (
    FallbackPolicy,
    RUNG_CACHE,
    RUNG_PROPOSED,
    safe_optimize,
)

from tests.helpers import make_matmul, make_transpose_mask

#: The cache-key options half of a default-configured run.
DEFAULT_OPTIONS = OptimizeOptions().cache_dict()


@pytest.fixture
def cache(tmp_path):
    return ScheduleCache(str(tmp_path / "schedules.jsonl"))


class TestFingerprints:
    def test_content_keyed_not_identity_keyed(self):
        # Two independently built, identical programs share a fingerprint.
        assert func_fingerprint(make_matmul(64)[0]) == func_fingerprint(
            make_matmul(64)[0]
        )

    def test_bounds_change_the_fingerprint(self):
        assert func_fingerprint(make_matmul(64)[0]) != func_fingerprint(
            make_matmul(128)[0]
        )

    def test_program_change_the_fingerprint(self):
        assert func_fingerprint(make_matmul(64)[0]) != func_fingerprint(
            make_transpose_mask(64)[0]
        )

    def test_options_exclude_jobs(self):
        # jobs never changed what the search returns (and was removed
        # in 2.0), so it must stay out of the cache key space.
        assert "jobs" not in DEFAULT_OPTIONS
        with pytest.raises(TypeError):
            OptimizeOptions(jobs=4)

    def test_options_fingerprint_is_order_insensitive(self):
        options = DEFAULT_OPTIONS
        reordered = dict(reversed(list(options.items())))
        assert options_fingerprint(options) == options_fingerprint(reordered)


class TestRoundTrip:
    def test_cold_get_is_a_miss(self, cache, arch):
        func, _, _ = make_matmul(64)
        assert cache.get(func, arch, DEFAULT_OPTIONS) is None
        assert cache.stats.misses == 1

    def test_put_then_get_same_instance(self, cache, arch):
        func, _, _ = make_matmul(64)
        options = DEFAULT_OPTIONS
        schedule = optimize(func, arch).schedule
        cache.put(func, arch, options, schedule)
        hit = cache.get(func, arch, options)
        assert hit is not None
        assert schedule_to_dict(hit) == schedule_to_dict(schedule)
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_warm_get_across_instances(self, cache, arch):
        """A fresh process (new instance, same file) must see the entry."""
        func, _, _ = make_matmul(64)
        options = DEFAULT_OPTIONS
        schedule = optimize(func, arch).schedule
        cache.put(func, arch, options, schedule)

        reopened = ScheduleCache(cache.path)
        replay_target, _, _ = make_matmul(64)
        hit = reopened.get(replay_target, arch, options)
        assert hit is not None
        assert schedule_to_dict(hit) == schedule_to_dict(schedule)

    def test_options_partition_the_key_space(self, cache, arch):
        func, _, _ = make_matmul(64)
        schedule = optimize(func, arch).schedule
        cache.put(func, arch, DEFAULT_OPTIONS, schedule)
        no_nti = OptimizeOptions(use_nti=False).cache_dict()
        assert cache.get(func, arch, no_nti) is None

    def test_arch_partitions_the_key_space(self, cache, arch, arch_6700):
        func, _, _ = make_matmul(64)
        schedule = optimize(func, arch).schedule
        cache.put(func, arch, DEFAULT_OPTIONS, schedule)
        assert cache.get(func, arch_6700, DEFAULT_OPTIONS) is None

    def test_last_write_wins_and_compact_drops_superseded(self, cache, arch):
        func, _, _ = make_matmul(64)
        options = DEFAULT_OPTIONS
        schedule = optimize(func, arch).schedule
        cache.put(func, arch, options, schedule, meta={"gen": 1})
        cache.put(func, arch, options, schedule, meta={"gen": 2})
        with open(cache.path) as handle:
            assert len(handle.readlines()) == 2
        assert len(cache) == 1
        assert cache.compact() == 1
        with open(cache.path) as handle:
            (line,) = handle.readlines()
        assert json.loads(line)["meta"]["gen"] == 2


class TestCorruption:
    def _populate(self, cache, arch):
        func, _, _ = make_matmul(64)
        schedule = optimize(func, arch).schedule
        cache.put(func, arch, DEFAULT_OPTIONS, schedule)
        return schedule

    def test_garbage_line_is_skipped_with_diagnostic(self, cache, arch):
        schedule = self._populate(cache, arch)
        with open(cache.path, "a") as handle:
            handle.write("{not json\n")
        reopened = ScheduleCache(cache.path)
        hit = reopened.get(make_matmul(64)[0], arch, DEFAULT_OPTIONS)
        assert hit is not None
        assert schedule_to_dict(hit) == schedule_to_dict(schedule)
        assert any("unparsable" in note for note in reopened.load_diagnostics)

    def test_bad_checksum_is_skipped(self, cache, arch):
        self._populate(cache, arch)
        with open(cache.path) as handle:
            record = json.loads(handle.readline())
        record["sha256"] = "0" * 64
        with open(cache.path, "w") as handle:
            handle.write(json.dumps(record) + "\n")
        reopened = ScheduleCache(cache.path)
        assert reopened.get(make_matmul(64)[0], arch, DEFAULT_OPTIONS) is None
        assert any("checksum" in note for note in reopened.load_diagnostics)

    def test_truncated_tail_costs_one_entry(self, cache, arch):
        self._populate(cache, arch)
        with open(cache.path) as handle:
            intact = handle.read()
        with open(cache.path, "w") as handle:
            handle.write(intact + intact[: len(intact) // 2])
        reopened = ScheduleCache(cache.path)
        assert (
            reopened.get(make_matmul(64)[0], arch, DEFAULT_OPTIONS)
            is not None
        )

    def test_replay_failure_degrades_to_miss(self, cache, arch):
        """An entry whose directives no longer fit the Func is a miss."""
        self._populate(cache, arch)
        with open(cache.path) as handle:
            record = json.loads(handle.readline())
        # Point a directive at a variable the Func does not have; the
        # checksum is recomputed so only the *replay* can reject it.
        blob = json.dumps(record["schedule"])
        record["schedule"] = json.loads(
            blob.replace('"i"', '"no_such_var"')
        )
        record.pop("sha256")
        record["sha256"] = _checksum(record)
        with open(cache.path, "w") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        reopened = ScheduleCache(cache.path)
        assert reopened.get(make_matmul(64)[0], arch, DEFAULT_OPTIONS) is None
        assert reopened.stats.replay_failures == 1
        assert reopened.stats.misses == 1

    def test_missing_file_is_empty_cache(self, tmp_path, arch):
        cache = ScheduleCache(str(tmp_path / "absent.jsonl"))
        assert len(cache) == 0
        assert cache.get(make_matmul(64)[0], arch, DEFAULT_OPTIONS) is None


class TestSafeOptimizeIntegration:
    def test_first_run_searches_second_run_hits(self, cache, arch):
        policy = FallbackPolicy.lenient()
        first = safe_optimize(make_matmul(64)[0], arch, policy, cache=cache)
        assert first.rung == RUNG_PROPOSED
        assert not first.fell_back

        second = safe_optimize(make_matmul(64)[0], arch, policy, cache=cache)
        assert second.rung == RUNG_CACHE
        assert not second.fell_back
        assert schedule_to_dict(second.schedule) == schedule_to_dict(
            first.schedule
        )

    def test_policy_switches_partition_the_cache(self, cache, arch):
        safe_optimize(
            make_matmul(64)[0],
            arch,
            FallbackPolicy.lenient(),
            cache=cache,
        )
        # A different optimizer configuration must not reuse the entry.
        other = safe_optimize(
            make_matmul(64)[0],
            arch,
            FallbackPolicy.lenient(),
            options=OptimizeOptions(use_nti=False),
            cache=cache,
        )
        assert other.rung == RUNG_PROPOSED

    def test_record_format_tag(self, cache, arch):
        func, _, _ = make_matmul(64)
        key = cache.put(
            func, arch, DEFAULT_OPTIONS, optimize(func, arch).schedule
        )
        with open(cache.path) as handle:
            record = json.loads(handle.readline())
        assert record["format"] == CACHE_FORMAT
        assert record["key"] == key
        assert key == cache_key(
            func_fingerprint(func), arch.fingerprint(), DEFAULT_OPTIONS
        )
