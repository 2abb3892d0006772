"""Tests for the crash-safe sweep runner (repro.sweep.runner).

The worker-subprocess tests use the cheapest real cell there is (copy /
baseline on tiny sizes) so each spawn costs interpreter startup plus a
few milliseconds of simulation.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from repro.experiments import ExperimentConfig, clear_measure_cache, measure_case
from repro.experiments import __main__ as experiments_main
from repro.robust import (
    FaultPlan,
    FaultSpec,
    corrupt_worker,
    hang_worker,
    kill_worker,
)
from repro.sweep import (
    Journal,
    JournalRecord,
    RetryPolicy,
    STATUS_OK,
    STATUS_QUARANTINED,
    SweepCell,
    SweepRunner,
    plan_cells,
)

CHEAP = SweepCell("copy", "baseline", "i7-5930k", line_budget=2000, fast=True)
CHEAP2 = SweepCell("copy", "proposed", "i7-5930k", line_budget=2000, fast=True)

FAST_RETRY = RetryPolicy(max_attempts=2, backoff_s=0.01)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_measure_cache()
    yield
    clear_measure_cache()


@pytest.fixture
def journal(tmp_path):
    return Journal(str(tmp_path / "journal.jsonl"))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_s=1.0, multiplier=2.0, jitter=0.0)
        assert policy.delay_before("k", 2) == 1.0
        assert policy.delay_before("k", 3) == 2.0
        assert policy.delay_before("k", 4) == 4.0

    def test_jitter_is_deterministic_per_cell(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5)
        assert policy.delay_before("a", 2) == policy.delay_before("a", 2)
        assert policy.delay_before("a", 2) != policy.delay_before("b", 2)
        assert 1.0 <= policy.delay_before("a", 2) <= 1.5


class TestWorkerFaults:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(kind="kill", n=0)

    def test_plan_counts_spawns_and_fires_once(self):
        plan = FaultPlan(kill_worker(2))
        assert plan.next("spawn") is None
        assert plan.next("spawn").env() == "kill"
        assert plan.next("spawn") is None
        assert plan.calls("spawn") == 3

    def test_hang_env_encodes_seconds(self):
        plan = FaultPlan(hang_worker(1, seconds=2.5))
        assert plan.next("spawn").env() == "hang:2.5"

    def test_negative_hang_seconds_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seconds"):
            hang_worker(seconds=-1)


class TestRunner:
    def test_measures_and_journals(self, journal):
        report = SweepRunner(journal, timeout_s=120).run([CHEAP])
        assert report.completed == 1
        assert report.exit_code() == 0
        record = journal.load()[CHEAP.key()]
        assert record.status == STATUS_OK
        assert record.ms > 0
        assert record.schedules  # serialized schedules journaled
        assert record.trail  # diagnostics trail journaled

    def test_journaled_schedule_replays(self, journal):
        from repro.bench import make_benchmark, size_for
        from repro.ir.serialize import schedule_from_dict

        SweepRunner(journal, timeout_s=120).run([CHEAP])
        record = journal.load()[CHEAP.key()]
        case = make_benchmark("copy", **size_for("copy", small=True))
        by_name = {f.name: f for f in case.funcs}
        for payload in record.schedules:
            schedule = schedule_from_dict(by_name[payload["func"]], payload)
            assert schedule.loop_names()

    def test_resume_skips_journaled_cells(self, journal):
        first = SweepRunner(journal, timeout_s=120)
        first.run([CHEAP])
        second = SweepRunner(journal, timeout_s=120)
        report = second.run([CHEAP, CHEAP2])
        assert report.resumed == 1
        assert report.completed == 1
        assert CHEAP.key() not in second.trails  # never re-executed

    def test_duplicate_cells_deduplicated(self, journal):
        report = SweepRunner(journal, timeout_s=120).run([CHEAP, CHEAP])
        assert len(report.outcomes) == 1

    def test_parallel_jobs(self, journal):
        report = SweepRunner(journal, jobs=2, timeout_s=120).run(
            [CHEAP, CHEAP2]
        )
        assert report.completed == 2
        assert len(journal.load()) == 2

    def test_kill_then_retry_succeeds(self, journal):
        plan = FaultPlan(kill_worker(1))
        report = SweepRunner(
            journal, timeout_s=120, retry=FAST_RETRY, fault_plan=plan
        ).run([CHEAP])
        assert report.completed == 1
        assert report.retried == 1
        assert plan.calls("spawn") == 2
        assert journal.load()[CHEAP.key()].attempts == 2

    def test_persistent_corruption_quarantines(self, journal):
        plan = FaultPlan(corrupt_worker(1, count=None))
        report = SweepRunner(
            journal, timeout_s=120, retry=FAST_RETRY, fault_plan=plan
        ).run([CHEAP])
        assert report.quarantined == 1
        assert report.exit_code() == 5
        record = journal.load()[CHEAP.key()]
        assert record.status == STATUS_QUARANTINED
        assert "corrupt" in record.error

    def test_hung_worker_killed_by_timeout(self, journal):
        plan = FaultPlan(hang_worker(1, seconds=60))
        report = SweepRunner(
            journal, timeout_s=5, retry=FAST_RETRY, fault_plan=plan
        ).run([CHEAP])
        assert report.completed == 1  # retry after the timeout kill
        assert report.retried == 1

    def test_quarantine_does_not_abort_sweep(self, journal):
        # First cell always corrupt, second clean: the sweep continues.
        plan = FaultPlan(
            FaultSpec(kind="corrupt", n=1, count=2)
        )
        report = SweepRunner(
            journal, timeout_s=120, retry=FAST_RETRY, fault_plan=plan
        ).run([CHEAP, CHEAP2])
        assert report.quarantined == 1
        assert report.completed == 1

    def test_quarantine_is_a_persistent_poison_list(self, journal):
        plan = FaultPlan(corrupt_worker(1, count=None))
        SweepRunner(
            journal, timeout_s=120, retry=FAST_RETRY, fault_plan=plan
        ).run([CHEAP])
        # A later run resumes the quarantine instead of burning retries
        # on a known-bad cell again (--fresh clears the poison list).
        second = SweepRunner(journal, timeout_s=120)
        report = second.run([CHEAP])
        assert report.quarantined == 1
        assert CHEAP.key() not in second.trails  # not re-executed
        assert journal.load()[CHEAP.key()].status == STATUS_QUARANTINED

    def test_validation(self, journal):
        with pytest.raises(ValueError):
            SweepRunner(journal, jobs=0)
        with pytest.raises(ValueError):
            SweepRunner(journal, timeout_s=0)


class TestDefaultJournal:
    def test_is_named_after_the_package_sources(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_JOURNAL", raising=False)
        path = experiments_main.journal_path(None)
        assert re.fullmatch(r"\.repro-sweep-[0-9a-f]{12}\.jsonl", path)
        assert path == f".repro-sweep-{experiments_main.source_digest()}.jsonl"

    def test_explicit_paths_are_kept(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOURNAL", "env.jsonl")
        assert experiments_main.journal_path(None) == "env.jsonl"
        assert experiments_main.journal_path("flag.jsonl") == "flag.jsonl"

    def test_a_journal_of_other_sources_is_not_resumed(self, tmp_path,
                                                       monkeypatch):
        """A cell journaled by default is resumed while the sources stay
        as they were, and measured again once they change; compiled
        files do not count as sources."""
        package = tmp_path / "pkg"
        (package / "sub" / "__pycache__").mkdir(parents=True)
        (package / "__init__.py").write_text("X = 1\n")
        (package / "sub" / "mod.py").write_text("Y = 2\n")
        monkeypatch.setattr(experiments_main, "PACKAGE_ROOT", str(package))
        monkeypatch.setattr(
            experiments_main, "DEFAULT_JOURNAL",
            str(tmp_path / experiments_main.DEFAULT_JOURNAL),
        )
        monkeypatch.delenv("REPRO_SWEEP_JOURNAL", raising=False)

        def sweep():
            journal = Journal(experiments_main.journal_path(None))
            return SweepRunner(journal, timeout_s=120).run([CHEAP])

        first = experiments_main.journal_path(None)
        assert sweep().completed == 1
        (package / "sub" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
        assert experiments_main.journal_path(None) == first
        assert sweep().resumed == 1
        (package / "sub" / "mod.py").write_text("Y = 3\n")
        assert experiments_main.journal_path(None) != first
        report = sweep()
        assert (report.resumed, report.completed) == (0, 1)


class TestInstall:
    def test_journal_seeds_measure_cache(self, journal):
        runner = SweepRunner(journal, timeout_s=120)
        runner.run([CHEAP])
        journaled_ms = journal.load()[CHEAP.key()].ms
        clear_measure_cache()
        ok, bad = runner.install()
        assert (ok, bad) == (1, 0)
        config = ExperimentConfig(line_budget=2000, fast=True)
        # Comes straight from the journal — no simulation in this process.
        assert (
            measure_case("copy", "baseline", "i7-5930k", config=config)
            == journaled_ms
        )

    def test_quarantined_cells_render_nan(self, journal):
        journal.append(
            JournalRecord(cell=CHEAP, status=STATUS_QUARANTINED, error="x")
        )
        SweepRunner(journal).install()
        config = ExperimentConfig(line_budget=2000, fast=True)
        ms = measure_case("copy", "baseline", "i7-5930k", config=config)
        assert math.isnan(ms)


class TestPlanner:
    def test_plan_covers_fig6_and_table5(self):
        from repro.experiments import fig6, table5

        config = ExperimentConfig(
            line_budget=2000, autotune_evals=2, autotune_evals_day=3,
            fast=True,
        )
        cells = plan_cells((fig6, table5), config=config)
        keys = {c.key() for c in cells}
        assert len(keys) == len(cells)  # deduplicated
        assert any(c.kind == "optimize_runtime" for c in cells)
        assert any(
            c.kind == "measure" and c.technique == "proposed_nti"
            for c in cells
        )
        # Planning must not have left anything in the memo.
        import repro.experiments.harness as harness

        assert harness._MEASURE_CACHE == {}

    def test_recording_is_not_reentrant(self):
        from repro.experiments import recording_cells

        with recording_cells(lambda cell: None):
            with pytest.raises(RuntimeError):
                with recording_cells(lambda cell: None):
                    pass


class TestWorkerProtocol:
    def _run_worker(self, stdin_text, env_extra=None):
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [repo_src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.update(env_extra or {})
        return subprocess.run(
            [sys.executable, "-m", "repro.sweep.worker"],
            input=stdin_text,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_worker_happy_path(self):
        proc = self._run_worker(
            json.dumps({"cell": CHEAP.to_dict(), "deadline_s": None})
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout.strip())
        assert payload["ok"] and payload["ms"] > 0

    def test_worker_bad_fault_env_names_the_variable(self):
        proc = self._run_worker(
            "{}", env_extra={"REPRO_WORKER_FAULT": "hang:soon"}
        )
        assert proc.returncode != 0
        assert "REPRO_WORKER_FAULT='hang:soon'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_worker_bad_stdin_is_structured(self):
        proc = self._run_worker("this is not json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout.strip())
        assert payload == {
            "ok": False,
            "error": "ProtocolError",
            "message": payload["message"],
        }

    def test_worker_reports_failure_for_unknown_benchmark(self):
        bad = dict(CHEAP.to_dict(), benchmark="no-such-kernel")
        proc = self._run_worker(json.dumps({"cell": bad}))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout.strip())
        assert payload["ok"] is False
        assert payload["error"]

    def test_worker_runtime_cell(self):
        cell = SweepCell(
            "copy", "", "i7-5930k", 0, kind="optimize_runtime", fast=True
        )
        proc = self._run_worker(json.dumps({"cell": cell.to_dict()}))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout.strip())
        assert payload["ok"] and payload["ms"] >= 0
        assert payload["schedules"] is None
