"""The serving path: a one-worker fleet under an open-loop stream.

The fleet is the program's own ``python -m repro fleet --workers 1``
(a router process plus one ``repro serve`` worker process) with a fresh
schedule cache file per start.  The stream comes from the plan: every
request is due at a fixed instant whether or not earlier ones have
finished, and at most ``nproc`` requests are in flight, so a stall makes
later requests late.  Each request is timed from its due instant; how
late the generator sent it is reported separately.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from plan import PLATFORM, Plan, Request

_ROUTING = re.compile(r"routing on http://[^:]+:(\d+)")

#: Shed (429/503) answers are re-sent at most this many times.
MAX_RETRIES = 4
#: Liveness bound of one request; far above any latency the stream sees.
REQUEST_TIMEOUT_S = 120.0


class Fleet:
    """One ``repro fleet`` process and its worker, started and stopped."""

    def __init__(self, src_dir: str, run_dir: str, index: int,
                 trace: bool = False) -> None:
        self.cache_path = os.path.join(run_dir, f"cache{index}.jsonl")
        self._err_path = os.path.join(run_dir, f"fleet{index}.err")
        argv = [
            sys.executable, "-m", "repro", "fleet", "--workers", "1",
            "--port", "0", "--schedule-cache", self.cache_path,
        ]
        if trace:
            argv += ["--trace", os.path.join(run_dir, f"fleet{index}.trace")]
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        self._err = open(self._err_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=self._err,
            cwd=run_dir,
        )
        self.port: Optional[int] = None
        self.worker_port: Optional[int] = None
        self.worker_pid: Optional[int] = None

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until the router announces its port (workers are up)."""
        from repro.serve.client import ServeClient

        give_up = time.perf_counter() + timeout_s
        while time.perf_counter() < give_up:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro fleet exited with {self.proc.returncode}: "
                    f"{self._stderr_tail()}"
                )
            with open(self._err_path, encoding="utf-8") as handle:
                match = _ROUTING.search(handle.read())
            if match:
                self.port = int(match.group(1))
                _status, body = ServeClient(port=self.port, retries=0).get(
                    "/fleet/status"
                )
                worker = body["workers"][0]
                self.worker_port = worker["port"]
                self.worker_pid = worker["pid"]
                return
            time.sleep(0.01)
        raise RuntimeError(f"repro fleet not ready within {timeout_s:g}s")

    def _stderr_tail(self) -> str:
        with open(self._err_path, encoding="utf-8") as handle:
            return handle.read()[-400:]

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait; kill whatever is left."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
            if self.worker_pid is not None:
                _reap_orphan(self.worker_pid)
        finally:
            self._err.close()


def _reap_orphan(pid: int) -> None:
    """Kill a worker the router failed to stop and wait for it to go."""
    for _ in range(300):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.01)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(300):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


@dataclass
class Reply:
    """One request's outcome, timed against its due instant."""

    request: Request
    sent_s: float = 0.0
    done_s: float = 0.0
    retries: int = 0
    body: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done_s - self.request.due_s) * 1000.0

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent_s - self.request.due_s) * 1000.0

    @property
    def client_ms(self) -> float:
        return (self.done_s - self.sent_s) * 1000.0


def connections() -> int:
    """At most one in-flight request per CPU (``nproc``)."""
    return max(1, len(os.sched_getaffinity(0)))


def run_stream(plan: Plan, port: int) -> List[Reply]:
    """Send the plan's requests on schedule; returns replies in plan order."""
    from repro.serve.client import ServeClient
    from repro.util import ServeOverloaded

    replies = [Reply(request=r) for r in plan.requests]
    epoch = time.perf_counter()

    def send(index: int) -> None:
        reply = replies[index]
        kernel = reply.request.kernel
        client = ServeClient(port=port, timeout_s=REQUEST_TIMEOUT_S,
                             retries=0, backoff_seed=plan.seed * 10_000 + index)
        reply.sent_s = time.perf_counter() - epoch
        try:
            while True:
                try:
                    reply.body = client.optimize(
                        platform=PLATFORM,
                        spec=kernel.spec,
                        dims=dict(kernel.dims),
                        dtypes=None if kernel.dtypes is None
                        else dict(kernel.dtypes),
                        params=None if kernel.params is None
                        else dict(kernel.params),
                        **dict(kernel.overlay),
                    )
                    break
                except ServeOverloaded as exc:
                    if reply.retries >= MAX_RETRIES:
                        raise
                    reply.retries += 1
                    time.sleep(client.backoff_s(
                        reply.retries, floor=exc.retry_after_s))
        except Exception as exc:  # a failed request is a result, not a crash
            reply.error = f"{type(exc).__name__}: {exc}"
        reply.done_s = time.perf_counter() - epoch

    pool = ThreadPoolExecutor(max_workers=connections(),
                              thread_name_prefix="perfbench-send")
    futures = []
    try:
        for index, request in enumerate(plan.requests):
            delay = epoch + request.due_s - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(send, index))
    finally:
        pool.shutdown(wait=True)
    for future in futures:
        future.result()
    return replies


def worker_metrics(fleet: Fleet) -> Dict:
    from repro.serve.client import ServeClient

    return ServeClient(port=fleet.worker_port, retries=0).metrics()


def replay_cache_gets(program, fleet: Fleet, plan: Plan) -> List[float]:
    """Time ``ScheduleCache.get`` on the worker's cache file after the run,
    once per stage of every distinct requested key (all hits by now)."""
    from repro.cache import ScheduleCache, optimize_options, shard_cache_path

    cache = ScheduleCache(shard_cache_path(fleet.cache_path, 0))
    len(cache)  # load the file outside the timed lookups
    times = []
    for kernel in plan.kernels():
        options = optimize_options(**dict(kernel.overlay))
        for stage in program.lower(kernel).pipeline:
            started = time.perf_counter()
            cache.get(stage, program.arch, options)
            times.append((time.perf_counter() - started) * 1000.0)
    return times


def start_fleets(src_dir: str, run_dir: str, count: int,
                 first_index: int = 0, trace: bool = False):
    """Start ``count`` fleets one after another, timing each to ready.

    All but the last are stopped again; returns (setup seconds of each,
    the last fleet, still running).
    """
    setups = []
    fleet = None
    for offset in range(count):
        if fleet is not None:
            fleet.stop()
        started = time.perf_counter()
        fleet = Fleet(src_dir, run_dir, first_index + offset, trace=trace)
        try:
            fleet.wait_ready()
        except BaseException:
            fleet.stop()
            raise
        setups.append(time.perf_counter() - started)
    return setups, fleet
