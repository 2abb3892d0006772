"""CLI robustness: exit-code protocol, friendly errors, degradation flags.

Exit codes under test (see ``repro.__main__``): 0 = ok, 2 = argparse
usage error, 3 = completed but degraded, 4 = hard failure.
"""

import pytest

from repro.__main__ import main
from repro.core.exitcodes import EXIT_FALLBACK, EXIT_HARD, EXIT_OK
from repro.robust import inject, raise_on


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["optimize", "matmul", "--fast"]) == EXIT_OK
        assert "schedule:" in capsys.readouterr().out

    def test_lenient_clean_run_exits_zero(self, capsys):
        assert main(["optimize", "matmul", "--fast", "--lenient"]) == EXIT_OK

    def test_lenient_tiny_deadline_exits_three(self, capsys):
        code = main(
            ["optimize", "matmul", "--lenient", "--deadline-ms", "0.01"]
        )
        assert code == EXIT_FALLBACK
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "DeadlineExceeded" in out

    def test_lenient_fault_exits_three(self, capsys):
        with inject(raise_on("classify")):
            code = main(["optimize", "matmul", "--fast", "--lenient"])
        assert code == EXIT_FALLBACK
        out = capsys.readouterr().out
        assert "auto-scheduler" in out

    def test_strict_fault_exits_four(self, capsys):
        with inject(raise_on("classify")):
            code = main(["optimize", "matmul", "--fast"])
        assert code == EXIT_HARD
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "injected fault" in err

    def test_strict_deadline_exits_four(self, capsys):
        code = main(["optimize", "matmul", "--deadline-ms", "0.01"])
        assert code == EXIT_HARD
        assert "deadline" in capsys.readouterr().err

    def test_strict_failure_prints_no_traceback(self, capsys):
        with inject(raise_on("classify")):
            main(["optimize", "matmul", "--fast"])
        assert "Traceback" not in capsys.readouterr().err


class TestFriendlyErrors:
    def test_unknown_platform_message(self):
        with pytest.raises(SystemExit, match="unknown platform 'z80'"):
            main(["optimize", "matmul", "--fast", "--platform", "z80"])

    def test_unknown_platform_suggests_list(self):
        with pytest.raises(SystemExit, match="python -m repro list"):
            main(["optimize", "matmul", "--fast", "--platform", "z80"])

    def test_unknown_benchmark_message(self):
        with pytest.raises(SystemExit, match="unknown benchmark 'nonsense'"):
            main(["optimize", "nonsense"])

    def test_codegen_unwritable_path(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "k.c"
        with pytest.raises(SystemExit, match="cannot write"):
            main(["codegen", "copy", "--fast", "-o", str(target)])

    def test_negative_deadline_message(self):
        with pytest.raises(SystemExit, match="invalid options: deadline_ms"):
            main(["optimize", "matmul", "--fast", "--deadline-ms", "-5"])

    def test_strict_lenient_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "matmul", "--strict", "--lenient"])
        assert excinfo.value.code == 2  # argparse usage error


class TestFlagPlumbing:
    def test_deadline_flag_parsed(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["optimize", "matmul", "--deadline-ms", "250"]
        )
        assert args.deadline_ms == 250.0
        assert not args.lenient

    def test_lenient_compare_still_reports_all_rows(self, capsys):
        with inject(raise_on("classify")):
            code = main(
                ["compare", "copy", "--fast", "--budget", "3000", "--lenient"]
            )
        assert code == EXIT_FALLBACK
        out = capsys.readouterr().out
        assert "proposed" in out and "baseline" in out

    def test_lenient_codegen_still_emits(self, tmp_path, capsys):
        target = tmp_path / "k.c"
        with inject(raise_on("classify")):
            code = main(
                ["codegen", "copy", "--fast", "--lenient", "-o", str(target)]
            )
        assert code == EXIT_FALLBACK
        assert "void copy(" in target.read_text()
