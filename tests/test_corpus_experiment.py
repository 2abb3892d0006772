"""Tests for the corpus win/loss regenerator's ``CORPUS.md`` writer
(:mod:`repro.experiments.corpus`).

The corpus tables and the mef three-strategy section share one file: a
full corpus run rewrites its own tables and must keep the marked section
that :mod:`repro.experiments.mef` splices in, byte for byte.  The run
below is a full-size run over an empty kernel list, so no simulation
happens.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import corpus, mef
from repro.experiments.harness import ExperimentConfig

COMMITTED = Path(__file__).resolve().parents[1] / corpus.TABLE_PATH


def _copy_of_committed(tmp_path) -> Path:
    path = tmp_path / "CORPUS.md"
    path.write_bytes(COMMITTED.read_bytes())
    return path


class TestTableWrite:
    def test_full_run_keeps_the_mef_section(self, tmp_path, monkeypatch):
        path = _copy_of_committed(tmp_path)
        original = path.read_text(encoding="utf-8")
        section = original[original.index(mef.SECTION_BEGIN):]
        assert mef.SECTION_END in section
        monkeypatch.setenv(corpus.TABLE_ENV, str(path))
        monkeypatch.setattr(corpus, "CORPUS", [])
        corpus.run(config=ExperimentConfig(fast=False), echo=False)
        text = path.read_text(encoding="utf-8")
        begin = text.find(mef.SECTION_BEGIN)
        assert begin != -1, "the mef section was deleted"
        assert text[begin:] == section
        assert text[:begin] == corpus._markdown({}, {}) + "\n"

    def test_rewriting_the_committed_tables_is_byte_identical(self, tmp_path):
        path = _copy_of_committed(tmp_path)
        original = path.read_bytes()
        text = original.decode("utf-8")
        tables = text[:text.index(mef.SECTION_BEGIN) - 1]
        corpus._write_table(tables, str(path))
        assert path.read_bytes() == original

    def test_file_without_a_section_is_overwritten(self, tmp_path):
        path = tmp_path / "fresh.md"
        corpus._write_table("tables\n", str(path))
        corpus._write_table("new tables\n", str(path))
        assert path.read_text(encoding="utf-8") == "new tables\n"
