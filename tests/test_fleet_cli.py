"""CLI lifecycle test for ``python -m repro fleet``.

The in-process router is covered by ``tests/test_fleet_router.py``;
this test covers the process boundary: the router announces its port
on stderr in the form load drivers parse, serves a request through its
worker, and on SIGTERM drains, stops the worker and exits 0.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import ServeClient

pytestmark = pytest.mark.slow

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ENV = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"))
#: The banner pattern a load driver reads the router's port from.
_ROUTING = re.compile(r"routing on http://[^:]+:(\d+)")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_fleet_serves_then_drains_on_sigterm(tmp_path):
    err_path = tmp_path / "fleet.err"
    with open(err_path, "w", encoding="utf-8") as err:
        fleet = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet", "--workers", "1",
                "--port", "0", "--schedule-cache",
                str(tmp_path / "cache.jsonl"),
            ],
            env=_ENV,
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=str(tmp_path),
        )
    try:
        port = None
        give_up = time.perf_counter() + 60.0
        while port is None and time.perf_counter() < give_up:
            assert fleet.poll() is None, err_path.read_text()
            match = _ROUTING.search(err_path.read_text())
            if match:
                port = int(match.group(1))
            else:
                time.sleep(0.05)
        assert port is not None, err_path.read_text()

        client = ServeClient(port=port)
        worker_pid = client.get("/fleet/status")[1]["workers"][0]["pid"]
        assert _alive(worker_pid)
        result = client.optimize("copy", "i7-5930k", fast=True)
        assert result["served_by"] == "search"
        assert result["shard"] == 0
    finally:
        fleet.send_signal(signal.SIGTERM)
        try:
            fleet.wait(timeout=60)
        except subprocess.TimeoutExpired:
            fleet.kill()
            fleet.wait(timeout=30)
    stderr = err_path.read_text()
    assert fleet.returncode == 0, stderr
    assert stderr.splitlines()[-1] == "repro fleet: drained, bye"
    assert not _alive(worker_pid)
