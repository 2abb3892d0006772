"""CLI tests for ``python -m repro serve`` / ``python -m repro submit``.

The in-process behavior lives in ``tests/test_serve_server.py``; these
tests cover the process boundary — argument parsing, startup and submit
error messages, the 0/4/5 exit-code contract, and SIGTERM draining a
real subprocess server.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.__main__ import build_parser, main

_ENV = dict(os.environ, PYTHONPATH="src")


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def run_cli(*argv, env=None, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env or _ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8377
        assert args.queue_limit == 16
        assert args.workers == 1

    def test_jobs_auto_spelling(self):
        args = build_parser().parse_args(
            ["optimize", "matmul", "--jobs", "auto"]
        )
        assert args.jobs == "auto"
        args = build_parser().parse_args(["serve", "--workers", "auto"])
        assert args.workers == "auto"
        args = build_parser().parse_args(["sweep", "--jobs", "auto"])
        assert args.jobs == "auto"

    def test_jobs_rejects_nonsense(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["optimize", "matmul", "--jobs", "many"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "integer or 'auto'" in capsys.readouterr().err

    def test_optimize_output_ignores_jobs(self, capsys):
        # --jobs is a no-op since 2.0; only the wall-clock line may vary.
        def run(*extra):
            assert main(["optimize", "matmul", "--fast", *extra]) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if "runtime:" not in l]

        plain = run()
        assert run("--jobs", "4") == plain
        assert run("--jobs", "auto") == plain

    def test_bad_jobs_still_rejected(self):
        for command in (["optimize", "matmul"], ["submit", "matmul"]):
            with pytest.raises(SystemExit) as excinfo:
                main([*command, "--fast", "--jobs", "-1"])
            assert str(excinfo.value) == (
                "invalid options: jobs must be >= 0 (0 = auto), got -1"
            )

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "matmul"])
        assert args.port == 8377
        assert args.retries == 3
        assert not args.json


class TestSubmitErrors:
    def test_no_server_exits_5_with_hint(self, capsys):
        rc = main(
            ["submit", "matmul", "--port", str(free_port()), "--fast"]
        )
        err = capsys.readouterr().err
        assert rc == 5
        assert "cannot reach server" in err
        assert "repro serve" in err  # actionable hint

    def test_serve_invalid_options_are_friendly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--queue-limit", "0", "--port", str(free_port())])
        assert "queue_limit" in str(excinfo.value)

    def test_serve_bad_fault_env_fails_startup(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_FAULT", "explode:what")
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", str(free_port())])
        assert "invalid options" in str(excinfo.value)


@pytest.mark.slow
class TestServeSubprocess:
    def test_serve_submit_drain_cycle(self, tmp_path):
        port = free_port()
        cache = str(tmp_path / "cache.jsonl")
        trace = str(tmp_path / "trace.jsonl")
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--schedule-cache",
                cache,
                "--trace",
                trace,
            ],
            env=_ENV,
            stderr=subprocess.PIPE,
            text=True,
            cwd=os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))
            ),
        )
        try:
            deadline = time.perf_counter() + 20.0
            first = None
            while time.perf_counter() < deadline:
                first = run_cli(
                    "submit", "matmul", "--port", str(port), "--fast"
                )
                if first.returncode != 5:
                    break
                time.sleep(0.2)
            assert first is not None and first.returncode == 0, first.stderr
            assert "served_by=search" in first.stdout

            second = run_cli(
                "submit", "matmul", "--port", str(port), "--fast", "--json"
            )
            assert second.returncode == 0, second.stderr
            payload = json.loads(second.stdout)
            assert payload["served_by"] == "cache"
            assert payload["format"] == "repro-serve-v1"

            bad = run_cli("submit", "warp-drive", "--port", str(port))
            assert bad.returncode == 4
            assert "unknown benchmark" in bad.stderr
        finally:
            server.send_signal(signal.SIGTERM)
            stderr = server.communicate(timeout=30)[1]
        assert server.returncode == 0, stderr
        assert "drained" in stderr
        # The trace survives the drain and records the serving lifecycle.
        names = [
            json.loads(line).get("name")
            for line in open(trace, encoding="utf-8")
        ]
        assert "serve.request" in names
        assert "serve.drain" in names
