"""The CLI's flag surface: every option declared once, none lost.

``PINNED`` is the option strings each parser accepted before the
duplicate declarations were folded together (``repro sweep`` now
registers the experiments CLI's own flags, ``submit`` shares the target
flags of ``optimize``/``compare``/``codegen``, and ``repro.frontend
lower`` shares the spec value types).  The one intended removal is the
experiments CLI's ``--no-sweep`` inline mode.
"""

import argparse
import os
import subprocess
import sys

import pytest

from repro.__main__ import build_parser
from repro.experiments.__main__ import build_parser as experiments_parser
from repro.experiments.__main__ import run as run_experiments
from repro.frontend.__main__ import build_parser as frontend_parser
from repro.frontend.__main__ import main as frontend_main

_TARGET = {
    "benchmark", "--spec", "--dims", "--dtypes", "--param", "--platform",
    "--fast", "--no-nti", "--deadline-ms", "--jobs",
}
_SEARCH = _TARGET | {"--trace", "--strict", "--lenient"}
_SWEEP = {
    "--fast", "--jobs", "--fresh", "--timeout-s", "--journal",
    "--schedule-cache", "--trace",
}

PINNED = {
    "list": set(),
    "optimize": _SEARCH | {"--schedule-cache", "--show-nest", "--halide"},
    "compare": _SEARCH | {"--budget", "--autotune"},
    "codegen": _SEARCH | {"-o", "--output"},
    "sweep": _SWEEP,
    "trace": {"path", "--validate"},
    "serve": {
        "--host", "--port", "--workers", "--queue-limit",
        "--retry-after-s", "--schedule-cache", "--trace",
    },
    "fleet": {
        "action", "--host", "--port", "--workers", "--queue-limit",
        "--schedule-cache", "--probe-interval-s", "--retry-after-s",
        "--trace",
    },
    "chaos": {
        "action", "--scenario", "--seed", "--requests", "--json", "--check",
    },
    "loadgen": {
        "--host", "--port", "--fleet", "--requests", "--rate-rps",
        "--hot-fraction", "--seed", "--platform", "--corpus-family",
        "--timeout-s", "--out", "--check", "--baseline", "--tolerance",
    },
    "tune": {
        "--kernels", "--family", "--platform", "--vary", "--fast",
        "--deadline-ms", "--fleet", "--host", "--port", "--journal",
        "--jobs", "--schedule-cache", "--timeout-s", "--check", "--out",
        "--json",
    },
    "submit": _TARGET | {
        "--host", "--port", "--retries", "--timeout-s", "--json",
    },
    # Before: _SWEEP | {"--no-sweep"}; the inline mode was removed.
    "repro.experiments": _SWEEP,
    "repro.frontend lower": {
        "spec", "--dims", "--dtypes", "--param", "-v", "--verbose",
    },
}

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _subcommands(parser):
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _options(parser):
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        out.update(action.option_strings or [action.dest])
    return out


def _run(module, *argv):
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=180,
        cwd=_ROOT,
    )


class TestParserPin:
    def test_every_option_string_is_unchanged(self):
        found = {
            name: _options(sub)
            for name, sub in _subcommands(build_parser()).items()
        }
        found["repro.experiments"] = _options(experiments_parser())
        found["repro.frontend lower"] = _options(
            _subcommands(frontend_parser())["lower"]
        )
        assert found == PINNED

    @pytest.mark.parametrize("argv", [
        [],
        ["--jobs", "auto"],
        ["--jobs", "0"],
        ["--fast", "--jobs", "3", "--fresh", "--timeout-s", "2.5",
         "--journal", "j.jsonl", "--schedule-cache", "c.jsonl",
         "--trace", "t.jsonl"],
    ])
    def test_sweep_alias_parses_like_experiments(self, argv):
        alias = vars(build_parser().parse_args(["sweep", *argv]))
        assert alias.pop("command") == "sweep"
        assert alias == vars(experiments_parser().parse_args(argv))

    def test_experiments_rejects_negative_jobs_cleanly(self):
        args = experiments_parser().parse_args(["--jobs", "-1"])
        with pytest.raises(SystemExit) as excinfo:
            run_experiments(args)
        assert str(excinfo.value) == (
            "invalid options: jobs must be >= 0 (0 = auto), got -1"
        )


class TestFrontendLower:
    def test_stdout_is_pinned(self, capsys):
        argv = ["lower", "C[i,j] += A[i,k] * B[k,j]",
                "--dims", "i=8,j=8,k=8", "-v"]
        assert frontend_main(argv) == 0
        assert capsys.readouterr().out == (
            "stage C: 36e33078687475ee66d7dcd1b083e82ec5086620de5200171e5c"
            "482a35728c46\n"
            "  pure: Const(0.0)\n"
            "  update 1: BinOp('+', Access(C, [Var('i'), Var('j')]), "
            "BinOp('*', Access(A, [Var('i'), RVar('k', extent=8, min=0)]), "
            "Access(B, [RVar('k', extent=8, min=0), Var('j')])))\n"
            "  bounds: {'i': 8, 'j': 8}\n"
        )

    def test_param_value_is_applied(self, capsys):
        argv = ["lower", "C[i] = A[i] * a", "--dims", "i=4",
                "--param", "a=2"]
        assert frontend_main(argv) == 0
        assert capsys.readouterr().out == (
            "stage C: 0f19c51aa7d0b231d644490930f9498a81e4142a24c0ef1310c7"
            "f5d100835641\n"
        )

    @pytest.mark.parametrize("flags, message", [
        (["--dims", "i=4", "--param", "a"],
         "argument --param: --param wants NAME=VALUE[,NAME=VALUE...], "
         "got 'a'"),
        (["--dims", "i=x"], "argument --dims: --dims: i='x' is not an "
                            "integer"),
        (["--dims", "=3"], "argument --dims: --dims wants "
                           "NAME=VALUE[,NAME=VALUE...], got '=3'"),
    ])
    def test_malformed_values_are_usage_errors(self, capsys, flags, message):
        with pytest.raises(SystemExit) as excinfo:
            frontend_main(["lower", "C[i] = A[i] * a", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("usage:") == 1
        assert err.rstrip().endswith(message)

    def test_malformed_param_has_no_traceback(self):
        proc = _run("repro.frontend", "lower", "C[i] = A[i] * a",
                    "--dims", "i=4", "--param", "a")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: ")


class TestExitCodeOne:
    """Post-parse ``SystemExit(message)`` exits 1: docs/API.md's table."""

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "nonsense"],
         "unknown benchmark 'nonsense'; see `python -m repro list`"),
        (["optimize", "--spec", "C[i] = A[i]"],
         "--spec needs --dims (loop extents, e.g. --dims i=512,j=512,k=512)"),
        (["codegen", "copy", "--fast", "-o",
          "no-such-dir/k.c"],
         "cannot write 'no-such-dir/k.c': No such file or directory"),
    ])
    def test_repro_invalid_input_exits_1(self, argv, message):
        proc = _run("repro", *argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == message + "\n"
