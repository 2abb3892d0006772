"""Tests for the sweep journal (repro.sweep.journal)."""

import json
import os

import pytest

from repro.sweep import (
    JOURNAL_FORMAT,
    Journal,
    JournalRecord,
    STATUS_OK,
    STATUS_QUARANTINED,
    SweepCell,
)


def cell(benchmark="copy", technique="baseline", **kwargs):
    kwargs.setdefault("platform", "i7-5930k")
    kwargs.setdefault("line_budget", 2000)
    kwargs.setdefault("fast", True)
    return SweepCell(benchmark, technique, **kwargs)


@pytest.fixture
def journal(tmp_path):
    return Journal(str(tmp_path / "journal.jsonl"))


class TestRecord:
    def test_roundtrip(self):
        rec = JournalRecord(
            cell=cell(),
            status=STATUS_OK,
            ms=1.25,
            attempts=2,
            trail=["[info] worker: measured"],
            schedules=[{"format": "repro-schedule-v1"}],
        )
        back = JournalRecord.from_dict(rec.to_dict())
        assert back.cell == rec.cell
        assert back.ms == rec.ms
        assert back.attempts == 2
        assert back.trail == rec.trail
        assert back.schedules == rec.schedules

    def test_ok_requires_measurement(self):
        with pytest.raises(ValueError):
            JournalRecord(cell=cell(), status=STATUS_OK, ms=None)

    def test_unknown_status(self):
        with pytest.raises(ValueError):
            JournalRecord(cell=cell(), status="maybe", ms=1.0)

    def test_checksum_present_and_stable(self):
        payload = JournalRecord(cell=cell(), status=STATUS_OK, ms=1.0).to_dict()
        assert payload["format"] == JOURNAL_FORMAT
        assert len(payload["sha256"]) == 64


class TestAppendLoad:
    def test_append_then_load(self, journal):
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=3.0))
        journal.append(
            JournalRecord(
                cell=cell(technique="proposed"),
                status=STATUS_QUARANTINED,
                error="boom",
            )
        )
        records = journal.load()
        assert len(records) == 2
        assert records[cell().key()].ms == 3.0
        assert (
            records[cell(technique="proposed").key()].status
            == STATUS_QUARANTINED
        )
        assert journal.load_diagnostics == []

    def test_float_roundtrip_is_exact(self, journal):
        ms = 0.1 + 0.2  # not representable exactly in decimal
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=ms))
        assert journal.load()[cell().key()].ms == ms

    def test_last_record_per_key_wins(self, journal):
        journal.append(
            JournalRecord(cell=cell(), status=STATUS_QUARANTINED, error="x")
        )
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=7.0))
        records = journal.load()
        assert len(records) == 1
        assert records[cell().key()].status == STATUS_OK

    def test_missing_file_loads_empty(self, journal):
        assert journal.load() == {}

    def test_truncated_line_skipped_with_diagnostic(self, journal):
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=1.0))
        good = JournalRecord(
            cell=cell(technique="proposed"), status=STATUS_OK, ms=2.0
        )
        line = json.dumps(good.to_dict())
        with open(journal.path, "a") as handle:
            handle.write(line[: len(line) // 2])  # torn append
        records = journal.load()
        assert len(records) == 1  # the torn record is dropped
        assert any("unparsable" in d for d in journal.load_diagnostics)

    def test_bit_flip_caught_by_checksum(self, journal):
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=1.0))
        with open(journal.path) as handle:
            payload = json.loads(handle.read())
        payload["ms"] = 999.0  # corrupt without updating the checksum
        with open(journal.path, "w") as handle:
            handle.write(json.dumps(payload) + "\n")
        assert journal.load() == {}
        assert any("checksum" in d for d in journal.load_diagnostics)

    def test_foreign_format_skipped(self, journal):
        with open(journal.path, "w") as handle:
            handle.write(json.dumps({"format": "other-v9"}) + "\n")
        assert journal.load() == {}
        assert any("format" in d for d in journal.load_diagnostics)

    def test_append_creates_missing_directory(self, tmp_path):
        journal = Journal(str(tmp_path / "newdir" / "sweep.jsonl"))
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=1.0))
        assert journal.load()[cell().key()].ms == 1.0

    def test_blank_lines_ignored(self, journal):
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=1.0))
        with open(journal.path, "a") as handle:
            handle.write("\n\n")
        assert len(journal.load()) == 1
        assert journal.load_diagnostics == []


class TestRewrite:
    def test_compact_drops_superseded_and_corrupt(self, journal):
        journal.append(
            JournalRecord(cell=cell(), status=STATUS_QUARANTINED, error="x")
        )
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=5.0))
        with open(journal.path, "a") as handle:
            handle.write("garbage{{{\n")
        records = journal.compact()
        assert len(records) == 1
        with open(journal.path) as handle:
            lines = [l for l in handle if l.strip()]
        assert len(lines) == 1
        assert journal.load()[cell().key()].ms == 5.0

    def test_rewrite_is_atomic_no_temp_left_behind(self, journal, tmp_path):
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=1.0))
        journal.compact()
        leftovers = [
            p for p in os.listdir(tmp_path) if p.endswith(".tmp")
        ]
        assert leftovers == []

    def test_clear(self, journal):
        journal.append(JournalRecord(cell=cell(), status=STATUS_OK, ms=1.0))
        journal.clear()
        assert not os.path.exists(journal.path)
        journal.clear()  # idempotent


class TestCellIdentity:
    def test_key_distinguishes_autotuner_seed_and_evals(self):
        a = cell(technique="autotuner", autotune_evals=2, seed=0)
        b = cell(technique="autotuner", autotune_evals=2, seed=1)
        c = cell(technique="autotuner", autotune_evals=4, seed=0)
        assert len({a.key(), b.key(), c.key()}) == 3

    def test_key_normalizes_seed_for_deterministic_techniques(self):
        assert cell(seed=0).key() == cell(seed=5).key()
        assert cell(seed=0).memo_key() == cell(seed=5).memo_key()

    def test_size_overrides_normalized(self):
        a = SweepCell(
            "matmul", "baseline", "i7-5930k", 2000,
            size_overrides={"n": 64},
        )
        b = SweepCell(
            "matmul", "baseline", "i7-5930k", 2000,
            size_overrides=(("n", 64),),
        )
        assert a == b and a.key() == b.key()

    def test_runtime_cell_key_and_memo_key(self):
        r = SweepCell(
            "matmul", "", "i7-5930k", 0, kind="optimize_runtime", fast=True
        )
        assert r.key().startswith("optimize_runtime:")
        assert r.memo_key()[0] == "__optimize_runtime__"
        back = SweepCell.from_dict(r.to_dict())
        assert back == r

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SweepCell("matmul", "baseline", "i7-5930k", 2000, kind="weird")
