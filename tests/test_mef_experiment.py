"""Tests for the mef three-strategy regenerator (:mod:`repro.experiments.mef`).

CI compares two full-size runs with each other, byte for byte; here we
keep the cheap invariants (smoke-size determinism, the ``--only``
contract, the idempotent marked-section rewrite of ``CORPUS.md`` through
the harness's one writer) and pin a full-size subset of the committed
table, unopposed stages included.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import mef
from repro.experiments.harness import (
    TABLE_ENV,
    TABLE_PATH,
    ExperimentConfig,
    write_corpus,
)
from repro.frontend.corpus import CORPUS


SMOKE = ["mef-mxv", "mef-doitgen"]
BEGIN = "<!-- mef-three-strategy:begin -->"
END = "<!-- mef-three-strategy:end -->"


def _fast_run(only=SMOKE):
    return mef.run(
        config=ExperimentConfig(fast=True), echo=False, only=only
    )


class TestRun:
    def test_two_runs_are_identical(self):
        assert _fast_run() == _fast_run()

    def test_rows_cover_every_stage_of_the_selection(self):
        results = _fast_run(["mef-bicg"])
        rows = {k: v for k, v in results.items() if k != "strategies"}
        assert set(rows) == {"mef-bicg/s", "mef-bicg/q"}
        for row in rows.values():
            assert row["strategy"] in ("tile", "multistride", "combined")
            assert "tile" in row["costs"]

    def test_strategy_aggregate_accounts_for_every_row(self):
        results = _fast_run()
        rows = {k: v for k, v in results.items() if k != "strategies"}
        total = sum(
            agg["stages"] for agg in results["strategies"].values()
        )
        assert total == len(rows)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit, match="mef-nope"):
            _fast_run(["mef-nope"])

    def test_non_mef_kernels_are_not_selectable(self):
        # matmul is a corpus kernel, but not of this family.
        with pytest.raises(SystemExit, match="matmul"):
            _fast_run(["matmul"])

    def test_family_exists_and_is_sized_for_all_three_verdicts(self):
        names = [k.name for k in CORPUS if k.family == mef.FAMILY]
        assert len(names) >= 6
        assert all(name.startswith("mef-") for name in names)


class TestCommittedTable:
    def test_full_size_rows_match_corpus_md(self):
        # mef-doitgen and mef-gemver/Ah are unopposed (the classifier does
        # not price them), mef-gemver/w is contested: all three published
        # tile costs must come out of the regenerator unchanged.
        results = mef.run(only=["mef-doitgen", "mef-gemver"], echo=False)
        rows = {k: v for k, v in results.items() if k != "strategies"}
        assert set(rows) == {"mef-doitgen", "mef-gemver/Ah", "mef-gemver/w"}
        corpus = Path(__file__).resolve().parents[1] / TABLE_PATH
        text = corpus.read_text(encoding="utf-8")
        section = text[text.index(BEGIN):text.index(END)]
        committed = set(section.splitlines())
        for cells in mef._stage_rows(rows):
            assert cells[1] != "—"
            assert "| " + " | ".join(cells) + " |" in committed


@pytest.fixture
def table(tmp_path, monkeypatch) -> Path:
    """The file the writer writes: a fresh path under ``tmp_path``."""
    path = tmp_path / "CORPUS.md"
    monkeypatch.setenv(TABLE_ENV, str(path))
    return path


class TestSectionRewrite:
    def test_append_then_replace_is_idempotent(self, table):
        table.write_text("# Corpus win/loss\n\nbody\n", encoding="utf-8")
        write_corpus("table one\n", mef.SECTION)
        first = table.read_text(encoding="utf-8")
        assert "table one" in first
        assert first.startswith("# Corpus win/loss")
        write_corpus("table one\n", mef.SECTION)
        assert table.read_text(encoding="utf-8") == first

    def test_replaces_only_the_marked_section(self, table):
        table.write_text("prefix\n", encoding="utf-8")
        write_corpus("old table\n", mef.SECTION)
        write_corpus("new table\n", mef.SECTION)
        text = table.read_text(encoding="utf-8")
        assert "old table" not in text
        assert "new table" in text
        assert text.startswith("prefix\n")
        assert text.count(BEGIN) == 1

    def test_missing_file_gets_created(self, table):
        write_corpus("table\n", mef.SECTION)
        text = table.read_text(encoding="utf-8")
        assert text.startswith(BEGIN)
        assert text.endswith(f"{END}\n")

    def test_rewritten_section_moves_to_the_end(self, table):
        sections = (
            "<!-- b:begin -->\nb\n<!-- b:end -->\n\n"
            "<!-- a:begin -->\na2\n<!-- a:end -->\n"
        )
        write_corpus("head\n")
        write_corpus("a\n", "a")
        write_corpus("b\n", "b")
        write_corpus("a2\n", "a")
        assert table.read_text(encoding="utf-8") == f"head\n\n{sections}"
        write_corpus("new head\n")
        assert table.read_text(encoding="utf-8") == f"new head\n\n{sections}"
