"""Run every table/figure regenerator, crash-safely.

Usage::

    python -m repro.experiments [--fast] [--jobs N|auto] [--fresh]
                                [--timeout-s S] [--journal PATH]
                                [--schedule-cache PATH] [--trace PATH]
    python -m repro sweep ...   # the same flags, the same run

``--fast`` (or ``REPRO_FAST=1``) uses the scaled-down problem sizes for
a smoke run; the default regenerates everything at the paper's sizes,
which takes tens of minutes (the autotuner searches dominate).

Every ``measure_case`` cell the regenerators need is first executed by
the crash-safe sweep runner (:mod:`repro.sweep`): isolated worker
subprocesses with per-cell timeouts, retries with backoff, quarantine
for repeat offenders, and a durable journal.  Re-running this command
resumes from the journal — completed cells are never re-measured — and
the tables/figures then render from the journaled values, with ``—``
placeholders (plus a completion summary) for quarantined cells.  The
default journal, ``.repro-sweep-<digest>.jsonl`` in the working
directory, is named after a digest of the package's sources, so a run
resumes only cells that the same code measured.

Sweep progress and timing go to **stderr**; stdout carries only the
tables and figures, so an interrupted-then-resumed run produces output
bitwise-identical to an uninterrupted one.

``--trace PATH`` records a ``repro-trace-v2`` JSONL event log of the run
(sweep-cell lifecycle from the runner, plus planning/render spans and
any in-process optimizer/simulator activity); inspect it with
``python -m repro trace PATH`` and schema-check it with ``--validate``.

Exit codes: 0 = complete, 1 = invalid options (``--jobs -1``), 2 =
usage error, 5 = completed with quarantined cells (rendered as ``—``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import os
import sys
import time
from typing import Optional

from repro.obs import NULL_TRACER, JsonlTracer, activate_tracer
from repro.util import jobs_arg, resolve_workers

#: (label, regenerator module in :mod:`repro.experiments`, takes a
#: config) in render order.  The modules are imported when the run needs
#: them, so ``python -m repro`` can register these flags without them.
ORDER = [
    ("Table 3", "platforms", False),
    ("Table 5", "table5", True),
    ("Fig. 4", "fig4", True),
    ("Fig. 6", "fig6", True),
    ("Fig. 5", "fig5", True),
    ("Fig. 7", "fig7", True),
    ("Table 6", "table6", True),
    ("Table 4", "table4", True),
    ("Corpus", "corpus", True),
    ("Multistride", "mef", True),
]

#: Regenerators whose measurements flow through the recording-aware
#: harness entry points (``measure_case`` / ``optimize_runtime``) — the
#: set the sweep plans and executes in workers.  Table 6 and the per-row
#: studies (corpus, mef) measure inline: a swept cell pays for a fresh
#: worker.  On a 2-CPU VM a ``--fast`` run with CI's small budgets sweeps
#: 162 cells in 43-61 s, mostly worker starts, while corpus measures its
#: 43 rows in about 1.2 s (as 86 cells, about 25 s) and mef in 0.4 s.
SWEPT_MODULES = ("table5", "fig4", "fig6", "fig5", "fig7", "table4")

#: Journal location when neither --journal nor REPRO_SWEEP_JOURNAL is
#: set, named after the package's sources (:func:`source_digest`): cells
#: journaled by other code are never resumed.
DEFAULT_JOURNAL = ".repro-sweep-{digest}.jsonl"

#: The ``repro`` package directory, whose sources :func:`source_digest`
#: hashes.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_digest() -> str:
    """12 hex digits of a SHA-256 over every ``.py`` file under
    :data:`PACKAGE_ROOT`: each file's relative path and bytes, in path
    order.  Any edit to the package's code changes it."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(PACKAGE_ROOT):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                body = fh.read()
            rel = os.path.relpath(path, PACKAGE_ROOT).replace(os.sep, "/")
            digest.update(f"{rel}\0{len(body)}\0".encode())
            digest.update(body)
    return digest.hexdigest()[:12]


def journal_path(explicit: Optional[str]) -> str:
    """The sweep journal: ``explicit`` (``--journal``), else
    ``$REPRO_SWEEP_JOURNAL``, else :data:`DEFAULT_JOURNAL`."""
    return (
        explicit
        or os.environ.get("REPRO_SWEEP_JOURNAL")
        or DEFAULT_JOURNAL.format(digest=source_digest())
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the flags; ``python -m repro sweep`` registers the same."""
    parser.add_argument("--fast", action="store_true",
                        help="scaled-down problem sizes (smoke run)")
    parser.add_argument("--jobs", type=jobs_arg, default=1, metavar="N",
                        help="measure up to N cells in parallel workers "
                             "('auto' or 0 = one per core, capped)")
    parser.add_argument("--fresh", action="store_true",
                        help="discard the journal and re-measure everything")
    parser.add_argument("--timeout-s", type=float, default=None, metavar="S",
                        help="hard wall-clock limit per cell attempt")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help=f"sweep journal path (default: "
                             f"$REPRO_SWEEP_JOURNAL or {DEFAULT_JOURNAL})")
    parser.add_argument("--schedule-cache", default=None, metavar="PATH",
                        help="persistent cross-run schedule cache (JSONL); "
                             "workers consult it before searching and "
                             "append what they find")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a repro-trace-v2 JSONL event log")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every table and figure of the paper",
    )
    add_arguments(parser)
    return parser


def _regenerator(name: str):
    return importlib.import_module(f"repro.experiments.{name}")


def _render_all(config) -> None:
    """Run every regenerator; tables to stdout, timings to stderr."""
    for label, name, takes_config in ORDER:
        print(f"--- {label} " + "-" * (60 - len(label)))
        start = time.perf_counter()
        module = _regenerator(name)
        if takes_config:
            module.run(config=config)
        else:
            module.run()
        print(f"    [{label}: {time.perf_counter() - start:.1f}s]",
              file=sys.stderr)
        print()


def run(args) -> int:
    """Sweep every cell, then render every table from the journal."""
    try:
        jobs = resolve_workers(args.jobs, name="jobs")
    except ValueError as exc:
        raise SystemExit(f"invalid options: {exc}") from None
    from repro.experiments import ExperimentConfig

    if args.fast:
        os.environ["REPRO_FAST"] = "1"
    config = ExperimentConfig()
    mode = "FAST (scaled sizes)" if config.fast else "paper sizes"
    print(f"=== Regenerating every table and figure [{mode}] ===\n")

    with contextlib.ExitStack() as stack:
        tracer = NULL_TRACER
        if args.trace:
            try:
                tracer = JsonlTracer(args.trace)
            except OSError as exc:
                build_parser().error(
                    f"cannot write {args.trace!r}: {exc.strerror or exc}"
                )
            stack.enter_context(tracer)
            # Ambient for the in-process work (planning, rendering); the
            # runner gets it explicitly because its worker threads do not
            # inherit context vars.
            stack.enter_context(activate_tracer(tracer))

        from repro.sweep import Journal, SweepRunner, plan_cells

        journal = Journal(journal_path(args.journal))
        if args.fresh:
            journal.clear()

        with tracer.span("plan"):
            swept = [_regenerator(name) for name in SWEPT_MODULES]
            cells = plan_cells(swept, config=config)
        runner = SweepRunner(
            journal,
            jobs=jobs,
            timeout_s=args.timeout_s,
            progress=sys.stderr,
            tracer=tracer,
            schedule_cache=args.schedule_cache,
        )
        report = runner.run(cells)
        print(report.summary(), file=sys.stderr)

        # run() already installed the journal into the measurement memo,
        # so the regenerators below replay journaled numbers instead of
        # re-simulating; quarantined cells render as "—".
        with tracer.span("render"):
            _render_all(config)
        return report.exit_code()


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
