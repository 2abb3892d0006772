"""Tests for the corpus win/loss regenerator
(:mod:`repro.experiments.corpus`) and the pieces of the shared harness
that every per-row study uses: the ``CORPUS.md`` writer, the ``--only``
kernel selection and the command line.

The corpus tables and the mef three-strategy section share one file: a
full corpus run rewrites the file's head and must keep the marked
section that :mod:`repro.experiments.mef` writes, byte for byte.  The
first run below is a full-size run over an empty kernel list, so no
simulation happens.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments import corpus, mef
from repro.experiments.harness import (
    TABLE_ENV,
    TABLE_PATH,
    ExperimentConfig,
    markdown_table,
    study_main,
    write_corpus,
)

COMMITTED = Path(__file__).resolve().parents[1] / TABLE_PATH
MEF_BEGIN = "<!-- mef-three-strategy:begin -->"
MEF_END = "<!-- mef-three-strategy:end -->"


@pytest.fixture
def table(tmp_path, monkeypatch) -> Path:
    """The file the writer writes: a fresh path under ``tmp_path``."""
    path = tmp_path / "CORPUS.md"
    monkeypatch.setenv(TABLE_ENV, str(path))
    return path


class TestTableWrite:
    def test_full_run_keeps_the_mef_section(self, table, monkeypatch):
        table.write_bytes(COMMITTED.read_bytes())
        original = table.read_text(encoding="utf-8")
        section = original[original.index(MEF_BEGIN):]
        assert MEF_END in section
        monkeypatch.setattr(corpus, "CORPUS", [])
        corpus.run(config=ExperimentConfig(fast=False), echo=False)
        text = table.read_text(encoding="utf-8")
        begin = text.find(MEF_BEGIN)
        assert begin != -1, "the mef section was deleted"
        assert text[begin:] == section
        assert text[:begin] == corpus._markdown({}, {}) + "\n"

    def test_rewriting_the_committed_tables_is_byte_identical(self, table):
        original = COMMITTED.read_bytes()
        table.write_bytes(original)
        text = original.decode("utf-8")
        write_corpus(text[:text.index(MEF_BEGIN) - 1])
        assert table.read_bytes() == original

    def test_file_without_a_section_is_overwritten(self, table):
        write_corpus("tables\n")
        write_corpus("new tables\n")
        assert table.read_text(encoding="utf-8") == "new tables\n"


class TestCommittedTable:
    def test_full_size_rows_match_corpus_md(self):
        # One cheap row per class; axpy's win comes from the NT stores
        # alone, so it also pins which technique prices the proposed flow.
        results = corpus.run(
            config=ExperimentConfig(line_budget=60_000, fast=False),
            only=["mxv", "transpose", "axpy"],
            echo=False,
        )
        rows = {k: v for k, v in results.items() if k != "classes"}
        assert [row["class"] for row in rows.values()] == [
            "temporal", "spatial", "none"
        ]
        committed = set(COMMITTED.read_text(encoding="utf-8").splitlines())
        body = markdown_table(
            corpus._KERNEL_HEADERS, corpus._kernel_rows(rows)
        ).splitlines()[2:]
        assert len(body) == 3
        for line in body:
            assert line in committed


class TestCommandLine:
    @pytest.mark.parametrize("module, message", [
        (corpus, "unknown corpus kernel(s): nope"),
        (mef, "unknown mef kernel(s): matmul, nope"),
    ], ids=["corpus", "mef"])
    def test_unknown_only_kernel_exits_naming_it(
        self, module, message, monkeypatch
    ):
        # matmul is a corpus kernel, but not of the mef family.
        prog = f"python -m {module.__name__}"
        monkeypatch.setattr(
            sys, "argv", [prog, "--fast", "--only", "nope,matmul"]
        )
        with pytest.raises(SystemExit) as info:
            study_main(module.run, prog=prog, description="")
        assert str(info.value) == message
