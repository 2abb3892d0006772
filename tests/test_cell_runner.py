"""The one journaled cell lifecycle behind ``SweepRunner`` and
``TuneRunner`` (repro.sweep.runner.CellRunner).

Every test drives a runner in-process with a scripted attempt and a
recording sleeper: no worker subprocess, no server.
"""

import io
import re
import sys

import pytest

from repro.core.exitcodes import EXIT_QUARANTINED
from repro.experiments import clear_measure_cache
from repro.frontend.corpus import corpus_kernel
from repro.obs import CollectingTracer
from repro.obs.events import (
    EVENT_CELL_ATTEMPT,
    EVENT_CELL_OK,
    EVENT_CELL_QUARANTINED,
    EVENT_CELL_RESUMED,
    EVENT_CELL_RETRY,
    EVENT_TUNE_CELL_ATTEMPT,
    EVENT_TUNE_CELL_OK,
    EVENT_TUNE_CELL_QUARANTINED,
    EVENT_TUNE_CELL_RESUMED,
    EVENT_TUNE_CELL_RETRY,
    EVENT_TUNE_REPORT,
    EVENT_TUNE_START,
)
from repro.sweep import (
    Journal,
    JournalRecord,
    RetryPolicy,
    STATUS_OK,
    STATUS_QUARANTINED,
    SweepCell,
    SweepRunner,
)
from repro.sweep.runner import AttemptFailed
from repro.tune import (
    TuneRunner,
    build_tune_request,
    plan_tune_cells,
    replay_ms,
)
from repro.util import ServeError

A = SweepCell("copy", "baseline", "i7-5930k", line_budget=2000, fast=True)
B = SweepCell("copy", "proposed", "i7-5930k", line_budget=2000, fast=True)
C = SweepCell("axpy", "baseline", "i7-5930k", line_budget=2000, fast=True)

POLICY = RetryPolicy(max_attempts=2, backoff_s=0.5, jitter=0.25)


@pytest.fixture(autouse=True)
def _fresh_memo():
    # SweepRunner.run installs the journal into the process-wide memo.
    clear_measure_cache()
    yield
    clear_measure_cache()


class Harness:
    """One runner kind: how to build it, the exception its scripted
    failing attempt raises, the journaled ``error`` that becomes, and
    the regexes its journaled trail must match, per attempt script."""

    def __init__(self, name, build, failure, error, trail):
        self.name = name
        self.build = build
        self.failure = failure
        self.error = error
        self.trail = trail


def _sweep(journal, sleeps, tracer=None, progress=None):
    runner = SweepRunner(
        journal, retry=POLICY, tracer=tracer, progress=progress
    )
    runner.sleeper = sleeps.append
    return runner


def _tune(journal, sleeps, tracer=None, progress=None):
    return TuneRunner(
        journal,
        port=1,
        retry=POLICY,
        tracer=tracer,
        progress=progress,
        sleeper=sleeps.append,
    )


ELAPSED = r"after \d+\.\d ms"

SWEEP = Harness(
    "sweep",
    _sweep,
    lambda: AttemptFailed("worker crashed with exit code -9"),
    "worker crashed with exit code -9",
    {
        "fail-ok": [
            rf"\[error\] worker: attempt 1 failed: worker crashed with "
            rf"exit code -9 {ELAPSED}",
            r"\[info\] retry: attempt 2 after 0\.\d\ds backoff",
            rf"\[info\] worker: measured 1\.5000 ms \(attempt 2\) {ELAPSED}",
        ],
        "fail-fail": [
            rf"\[error\] worker: attempt 1 failed: worker crashed with "
            rf"exit code -9 {ELAPSED}",
            r"\[info\] retry: attempt 2 after 0\.\d\ds backoff",
            rf"\[error\] worker: attempt 2 failed: worker crashed with "
            rf"exit code -9 {ELAPSED}",
        ],
    },
)

TUNE = Harness(
    "tune",
    _tune,
    lambda: ServeError("shard 0 is down"),
    "ServeError: shard 0 is down",
    {
        "fail-ok": [re.escape("attempt 1: ServeError: shard 0 is down")],
        "fail-fail": [
            re.escape("attempt 1: ServeError: shard 0 is down"),
            re.escape("attempt 2: ServeError: shard 0 is down"),
        ],
    },
)


@pytest.fixture(params=[SWEEP, TUNE], ids=lambda h: h.name)
def kind(request):
    return request.param


@pytest.fixture
def journal(tmp_path):
    return Journal(str(tmp_path / "journal.jsonl"))


def script(runner, harness, plan):
    """Replace the runner's attempt with ``plan[cell key]``: a list of
    ``"fail"``/``"ok"`` steps; returns the list of attempted keys."""
    calls = []
    steps = {key: iter(seq) for key, seq in plan.items()}

    def attempt(cell, attempt_no):
        calls.append((cell.key(), attempt_no))
        if next(steps[cell.key()]) == "fail":
            raise harness.failure()
        return 1.5, [{"stage": "s", "schedule": {}}]

    runner._attempt = attempt
    return calls


def assert_trail(harness, record, shape):
    patterns = harness.trail[shape]
    assert len(record.trail) == len(patterns), record.trail
    for line, pattern in zip(record.trail, patterns):
        assert re.fullmatch(pattern, line), (line, pattern)


class TestContract:
    def test_duplicate_cell_runs_once(self, kind, journal):
        sleeps = []
        runner = kind.build(journal, sleeps)
        calls = script(runner, kind, {A.key(): ["ok"]})
        report = runner.run([A, A])
        assert calls == [(A.key(), 1)]
        assert [o.status for o in report.outcomes] == ["ok"]
        assert sleeps == []

    def test_journaled_ok_cell_resumes_without_an_attempt(
        self, kind, journal
    ):
        journal.append(JournalRecord(cell=A, status=STATUS_OK, ms=2.0,
                                     attempts=2))
        sleeps = []
        runner = kind.build(journal, sleeps)
        calls = script(runner, kind, {B.key(): ["ok"]})
        report = runner.run([B, A])
        assert calls == [(B.key(), 1)]
        # Resumed cells settle first, then live cells in input order.
        assert [(o.cell, o.status, o.ms) for o in report.outcomes] == [
            (A, "resumed", 2.0), (B, "ok", 1.5),
        ]
        assert A.key() not in runner.trails

    def test_journaled_quarantine_is_not_retried(self, kind, journal):
        journal.append(JournalRecord(
            cell=A, status=STATUS_QUARANTINED, attempts=3, error="bad"
        ))
        sleeps = []
        runner = kind.build(journal, sleeps)
        calls = script(runner, kind, {})
        report = runner.run([A])
        assert calls == []
        (outcome,) = report.outcomes
        assert (outcome.status, outcome.attempts, outcome.error) == (
            "quarantined", 3, "bad",
        )
        assert report.exit_code() == EXIT_QUARANTINED

    def test_fail_then_ok_backs_off_once_and_journals_two_attempts(
        self, kind, journal
    ):
        sleeps = []
        runner = kind.build(journal, sleeps)
        calls = script(runner, kind, {A.key(): ["fail", "ok"]})
        report = runner.run([A])
        assert calls == [(A.key(), 1), (A.key(), 2)]
        assert sleeps == [POLICY.delay_before(A.key(), 2)]
        (outcome,) = report.outcomes
        assert (outcome.status, outcome.attempts) == ("ok", 2)
        assert outcome.ms == 1.5
        assert outcome.schedules == [{"stage": "s", "schedule": {}}]
        record = journal.load()[A.key()]
        assert (record.status, record.attempts) == (STATUS_OK, 2)
        assert record.ms == 1.5
        assert record.schedules == [{"stage": "s", "schedule": {}}]
        assert_trail(kind, record, "fail-ok")

    def test_out_of_attempts_quarantines_with_the_last_error(
        self, kind, journal
    ):
        sleeps = []
        runner = kind.build(journal, sleeps)
        script(runner, kind, {A.key(): ["fail", "fail"], B.key(): ["ok"]})
        report = runner.run([A, B])
        assert [o.status for o in report.outcomes] == ["quarantined", "ok"]
        record = journal.load()[A.key()]
        assert (record.status, record.attempts, record.error) == (
            STATUS_QUARANTINED, 2, kind.error,
        )
        assert record.ms is None
        assert_trail(kind, record, "fail-fail")
        assert report.exit_code() == EXIT_QUARANTINED

    def test_unexpected_exceptions_are_failed_attempts(self, kind, journal):
        tracer = CollectingTracer()
        runner = kind.build(journal, [], tracer=tracer)

        def attempt(cell, attempt_no):
            raise TypeError("string indices must be integers")

        raised_at = attempt.__code__.co_firstlineno + 1
        runner._attempt = attempt
        (outcome,) = runner.run([A]).outcomes
        error = "TypeError: string indices must be integers"
        assert outcome.status == "quarantined"
        assert outcome.error == error
        record = journal.load()[A.key()]
        assert record.status == STATUS_QUARANTINED
        assert record.error == error
        # The trail says where the bug is; the journal's error and the
        # events keep the plain ``Type: message``.
        where = f"{__file__}:{raised_at} in attempt"
        failed = [
            r.message for r in runner.trails[A.key()].records
            if " failed: " in r.message
        ]
        assert len(failed) == POLICY.max_attempts
        assert all(line == f"attempt {n} failed: {error} ({where})"
                   for n, line in enumerate(failed, start=1))
        assert {
            e["attrs"]["error"] for e in tracer.events
            if e.get("name", "").endswith((".retry", ".quarantined"))
        } == {error}

    def test_reported_failures_carry_no_frame(self, journal):
        runner = SWEEP.build(journal, [])
        script(runner, SWEEP, {A.key(): ["fail", "fail"]})
        runner.run([A])
        assert not any(
            " in attempt)" in r.message for r in runner.trails[A.key()].records
        )

    def test_parallel_jobs_settle_in_input_order(self, kind, journal):
        # More threads than cores and a tiny switch interval: every
        # cell must still journal once and settle in input order.
        cells = [
            SweepCell("copy", "baseline", "i7-5930k", line_budget=lb,
                      fast=True)
            for lb in range(1000, 1024)
        ]
        tracer = CollectingTracer()
        runner = kind.build(journal, [], tracer=tracer)
        runner.jobs = 6
        script(runner, kind, {c.key(): ["fail", "ok"] for c in cells})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = runner.run(cells[::-1])
        finally:
            sys.setswitchinterval(interval)
        assert [o.cell for o in report.outcomes] == cells[::-1]
        assert all(o.attempts == 2 for o in report.outcomes)
        with open(journal.path, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == len(cells)
        assert tracer.counters()[f"{kind.name}.attempts"] == 2 * len(cells)


class TestResumedAttempts:
    def test_resumed_sweep_cell_is_not_counted_as_retried(self, journal):
        journal.append(JournalRecord(cell=A, status=STATUS_OK, ms=2.0,
                                     attempts=2))
        report = _sweep(journal, []).run([A])
        assert report.retried == 0
        assert report.summary() == (
            "sweep: 1 cells — 1 resumed from journal, 0 measured "
            "(0 after retries), 0 quarantined"
        )

    def test_resumed_tune_cell_carries_its_journaled_attempts(
        self, journal
    ):
        journal.append(JournalRecord(cell=A, status=STATUS_OK, ms=2.0,
                                     attempts=2))
        (outcome,) = _tune(journal, []).run([A]).outcomes
        assert (outcome.status, outcome.attempts) == ("resumed", 2)

    def test_sweep_summary_and_progress_wording(self, journal):
        progress = io.StringIO()
        runner = _sweep(journal, [], progress=progress)
        script(runner, SWEEP, {
            A.key(): ["fail", "fail"], B.key(): ["fail", "ok"],
        })
        report = runner.run([A, B])
        assert report.summary() == (
            "sweep: 2 cells — 0 resumed from journal, 1 measured "
            "(2 after retries), 1 quarantined\n"
            f"  quarantined {A.key()} after 2 attempts: "
            "worker crashed with exit code -9"
        )
        assert progress.getvalue() == (
            "sweep: 2 cells to measure (0 already journaled), jobs=1\n"
            f"  attempt 1 failed for {A.key()}: {SWEEP.error}\n"
            f"  attempt 2 failed for {A.key()}: {SWEEP.error}\n"
            f"  quarantine {A.key()} after 2 attempts\n"
            f"  attempt 1 failed for {B.key()}: {SWEEP.error}\n"
            f"  ok         {B.key()} (1.50 ms)\n"
        )


def _lifecycle(events):
    """(kind, name, attrs) of each trace record, wall-clock dropped."""
    out = []
    for payload in events:
        attrs = dict(payload["attrs"])
        attrs.pop("elapsed_ms", None)
        out.append((payload["kind"], payload["name"], attrs))
    return out


class TestEventLifecycle:
    """Both runners emit one lifecycle: resumed, retried-then-ok and
    quarantined cells, pinned event for event."""

    NAMES = {
        "sweep": (EVENT_CELL_RESUMED, EVENT_CELL_ATTEMPT, EVENT_CELL_RETRY,
                  EVENT_CELL_OK, EVENT_CELL_QUARANTINED),
        "tune": (EVENT_TUNE_CELL_RESUMED, EVENT_TUNE_CELL_ATTEMPT,
                 EVENT_TUNE_CELL_RETRY, EVENT_TUNE_CELL_OK,
                 EVENT_TUNE_CELL_QUARANTINED),
    }

    def test_names_share_one_shape(self):
        for ns, names in self.NAMES.items():
            assert names == tuple(
                f"{ns}.cell.{what}"
                for what in ("resumed", "attempt", "retry", "ok",
                             "quarantined")
            )

    def test_golden_sequence(self, kind, journal):
        journal.append(JournalRecord(cell=A, status=STATUS_OK, ms=2.0))
        tracer = CollectingTracer()
        runner = kind.build(journal, [], tracer=tracer)
        script(runner, kind, {
            B.key(): ["fail", "ok"], C.key(): ["fail", "fail"],
        })
        runner.run([A, B, C])
        resumed, attempt, retry, ok, quarantined = self.NAMES[kind.name]
        b_backoff = round(POLICY.delay_before(B.key(), 2), 4)
        c_backoff = round(POLICY.delay_before(C.key(), 2), 4)
        run = f"{kind.name}.run"
        expected = [
            ("event", resumed, {"cell": A.key(), "ms": 2.0}),
            ("span_begin", run, {"pending": 2, "jobs": 1}),
            ("event", attempt, {"cell": B.key(), "attempt": 1}),
            ("event", retry, {"cell": B.key(), "attempt": 2,
                              "backoff_s": b_backoff, "error": kind.error}),
            ("event", attempt, {"cell": B.key(), "attempt": 2}),
            ("event", ok, {"cell": B.key(), "ms": 1.5, "attempt": 2}),
            ("event", attempt, {"cell": C.key(), "attempt": 1}),
            ("event", retry, {"cell": C.key(), "attempt": 2,
                              "backoff_s": c_backoff, "error": kind.error}),
            ("event", attempt, {"cell": C.key(), "attempt": 2}),
            ("event", quarantined, {"cell": C.key(), "attempts": 2,
                                    "error": kind.error}),
            ("span_end", run, {"pending": 2, "jobs": 1}),
        ]
        if kind.name == "tune":
            expected = (
                [("event", EVENT_TUNE_START, {
                    "tune_id": "", "cells": 3, "platforms": ["i7-5930k"],
                })]
                + expected
                + [("event", EVENT_TUNE_REPORT, {
                    "tune_id": "", "cells": 3, "quarantined": 1,
                })]
            )
        assert _lifecycle(tracer.events) == expected
        ns = kind.name
        assert tracer.counters() == {
            f"{ns}.cells.resumed": 1,
            f"{ns}.attempts": 4,
            f"{ns}.retries": 2,
            f"{ns}.cells.ok": 1,
            f"{ns}.cells.quarantined": 1,
        }


class TestTuneReplayFailures:
    def test_unreplayable_schedule_quarantines_instead_of_escaping(
        self, tmp_path
    ):
        # A schedule payload the fleet sent back that does not
        # deserialize raises ScheduleError inside replay_ms; that is a
        # failed attempt like any other, never an escape from run().
        cells = plan_tune_cells(build_tune_request(kernels=["mxv"], fast=True))
        stages = corpus_kernel("mxv").case(fast=True).pipeline
        journal = Journal(str(tmp_path / "journal.jsonl"))
        runner = TuneRunner(journal, port=1, sleeper=lambda s: None)

        def attempt(cell, attempt_no):
            schedules = [
                {"stage": stage.name, "schedule": {"format": "bogus"}}
                for stage in stages
            ]
            return replay_ms(cell, schedules), schedules

        runner._attempt = attempt
        report = runner.run(cells)
        (outcome,) = report.outcomes
        assert outcome.status == "quarantined"
        assert outcome.error.startswith("ScheduleError:")
        assert report.exit_code() == EXIT_QUARANTINED
        record = journal.load()[cells[0].key()]
        assert record.status == STATUS_QUARANTINED
        assert record.error == outcome.error
        assert len(record.trail) == runner.retry.max_attempts
