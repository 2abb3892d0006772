"""The shared checksummed JSONL log under the sweep journal and the
schedule cache (``repro.util.jsonl``): on-disk format pins, one
corruption matrix over both stores, and compaction durability."""

import os
import stat

import pytest

from repro.cache import CACHE_FORMAT, ScheduleCache
from repro.ir.schedule import Schedule
from repro.options import OptimizeOptions
from repro.sweep import (
    JOURNAL_FORMAT,
    Journal,
    JournalRecord,
    STATUS_OK,
    SweepCell,
)
from repro.util.jsonl import checksum, compact_json

from tests.helpers import make_copy

# Bytes written by the 1.x/2.x stores for one record each; the log must
# keep writing (and reading) exactly these.
JOURNAL_LINE = (
    b'{"attempts":2,"cell":{"autotune_evals":null,"benchmark":"copy",'
    b'"fast":true,"kind":"measure","line_budget":2000,"options":null,'
    b'"platform":"i7-5930k","seed":0,"size_overrides":{},'
    b'"technique":"baseline"},"error":null,"format":"repro-sweep-v1",'
    b'"key":"copy:baseline:i7-5930k:lb2000:fast","ms":1.25,'
    b'"schedules":null,"sha256":"c781581e4932a1298085642e7a94074ab7cb0ebe'
    b'8d1d1953983fbc193ead46ef","status":"ok","trail":["[info] measured"]}'
    b"\n"
)
CACHE_LINE = (
    b'{"arch_fingerprint":"c5bce9fb06b0d06c8d1fc7ff5f06601097fa9c8cb56114'
    b'48df8be95a0d1e8b13","format":"repro-schedule-cache-v1",'
    b'"func_fingerprint":"78176c3c011db1ad24756b3d53ef1f551138d320a2b7504'
    b'4fb4de948710a4abd","key":"f274a2bf87cf1c660ef3f882236e2e2006da222c0'
    b'd627032f60490fa14293062","meta":{"ms":0.5},"options":{"exhaustive":'
    b'false,"order_step":true,"parallelize":true,"use_emu":true,'
    b'"use_nti":true,"vectorize":true},"schedule":{"definition_index":0,'
    b'"directives":[],"format":"repro-schedule-v1","func":"Copy"},'
    b'"sha256":"7fbc855a130b19231d99674931259184bf158a522c06f6b376a9c34935'
    b'19c035"}\n'
)
JOURNAL_KEY = "copy:baseline:i7-5930k:lb2000:fast"
CACHE_KEY = "f274a2bf87cf1c660ef3f882236e2e2006da222c0d627032f60490fa14293062"

# store name -> (class, one good line, its key, the record format, the
# good line with its measurement altered but its checksum kept)
STORES = {
    "journal": (
        Journal, JOURNAL_LINE, JOURNAL_KEY, JOURNAL_FORMAT,
        JOURNAL_LINE.replace(b'"ms":1.25', b'"ms":9.25'),
    ),
    "cache": (
        ScheduleCache, CACHE_LINE, CACHE_KEY, CACHE_FORMAT,
        CACHE_LINE.replace(b'"ms":0.5', b'"ms":9.5'),
    ),
}


def _malformed(record_format):
    """A checksum-valid record the store cannot use."""
    payload = {"format": record_format, "key": "k"}
    payload["sha256"] = checksum(payload)
    return compact_json(payload).encode("utf-8")


def _journal_record():
    return JournalRecord(
        cell=SweepCell("copy", "baseline", "i7-5930k", 2000, fast=True),
        status=STATUS_OK,
        ms=1.25,
        attempts=2,
        trail=["[info] measured"],
    )


class TestFormatPins:
    def test_journal_append_bytes(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        journal.append(_journal_record())
        with open(journal.path, "rb") as handle:
            assert handle.read() == JOURNAL_LINE

    def test_cache_put_bytes(self, tmp_path, arch):
        cache = ScheduleCache(str(tmp_path / "c.jsonl"))
        func = make_copy(16)[0]
        cache.put(
            func,
            arch,
            OptimizeOptions().cache_dict(),
            Schedule(func),
            meta={"ms": 0.5},
        )
        with open(cache.path, "rb") as handle:
            assert handle.read() == CACHE_LINE

    @pytest.mark.parametrize("name", sorted(STORES))
    def test_old_file_loads_equal_records_and_diagnostics(
        self, tmp_path, name
    ):
        cls, good, key, record_format, bad_sum = STORES[name]
        path = str(tmp_path / f"{name}.jsonl")
        with open(path, "wb") as handle:
            handle.write(
                bad_sum + _malformed(record_format) + b"\n" + good
                + b'garbage{{{\n[1, 2]\n{"format": "other-v9"}\n\n'
                + good[:40]
            )
        store = cls(path)
        records = store.load()
        assert list(records) == [key]
        if name == "journal":
            record = records[key]
            expected = _journal_record()
            assert (record.cell, record.status, record.ms) == (
                expected.cell, expected.status, expected.ms
            )
            assert (record.attempts, record.trail) == (2, expected.trail)
            malformed, torn = "malformed record ('cell')", "Expecting value"
        else:
            assert compact_json(records[key]) + "\n" == good.decode()
            malformed = "malformed record"
            torn = "Unterminated string starting at"
        assert store.load_diagnostics == [
            f"{path}:1: skipping record with bad checksum (truncated?)",
            f"{path}:2: skipping {malformed}",
            f"{path}:4: skipping unparsable line (Expecting value)",
            f"{path}:5: skipping non-object line",
            f"{path}:6: skipping record with format='other-v9' "
            f"(expected {record_format!r})",
            f"{path}:8: skipping unparsable line ({torn})",
        ]


# damage name -> (bytes appended after one good line, diagnostic word);
# a ``None`` word means the input is not damage at all.
DAMAGE = {
    "unparsable": (b"garbage{{{\n", "unparsable"),
    "non_object": (b"[1, 2]\n", "non-object"),
    "foreign_format": (b'{"format": "other-v9"}\n', "format='other-v9'"),
    "bad_checksum": (None, "bad checksum"),
    "malformed": (None, "malformed record"),
    "blank": (b"\n   \n", None),
    "non_utf8": (b"\xff\xfe not UTF-8 \xc0\n", "non-UTF-8"),
    "torn_tail": (None, "unparsable"),
}


def _damage_bytes(name, damage):
    _, good, _, record_format, bad_sum = STORES[name]
    raw, word = DAMAGE[damage]
    if damage == "bad_checksum":
        raw = bad_sum
    elif damage == "malformed":
        raw = _malformed(record_format) + b"\n"
    elif damage == "torn_tail":
        raw = good[: len(good) // 2]
    return raw, word


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("name", sorted(STORES))
def test_corruption_matrix(tmp_path, name, damage):
    """Load skips the damaged line with a diagnostic and keeps the good
    record; compaction quarantines its raw bytes verbatim and leaves
    exactly the good line."""
    cls, good, key, _, _ = STORES[name]
    raw, word = _damage_bytes(name, damage)
    path = str(tmp_path / f"{name}.jsonl")
    with open(path, "wb") as handle:
        handle.write(good + raw)

    store = cls(path)
    assert list(store.load()) == [key]
    if word is None:
        assert store.load_diagnostics == []
    else:
        (note,) = store.load_diagnostics
        assert note.startswith(f"{path}:2: skipping ") and word in note

    cls(path).compact()
    with open(path, "rb") as handle:
        assert handle.read() == good
    quarantine = path + ".quarantine"
    if word is None:
        assert not os.path.exists(quarantine)
    else:
        with open(quarantine, "rb") as handle:
            assert handle.read() == raw.rstrip(b"\n") + b"\n"
    reopened = cls(path)
    assert list(reopened.load()) == [key]
    assert reopened.load_diagnostics == []


@pytest.mark.parametrize("name", sorted(STORES))
def test_compaction_fsyncs_the_directory_after_the_replace(
    tmp_path, monkeypatch, name
):
    cls, good, _, _, _ = STORES[name]
    path = str(tmp_path / f"{name}.jsonl")
    with open(path, "wb") as handle:
        handle.write(good + good)
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    cls(path).compact()
    replaced = calls.index(("replace", path))
    assert ("fsync", True) in calls[replaced + 1:]
