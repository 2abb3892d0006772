"""Worker lifecycle management for the serve fleet.

:class:`FleetSupervisor` owns N ``python -m repro serve`` subprocesses —
one shard each, every shard on its own port with its own
:func:`repro.cache.shard_cache_path` store — and runs the health gate
the router's failover keys on:

* **probing** — a daemon thread hits every worker's enriched
  ``GET /healthz`` on an interval (:meth:`repro.serve.ServeClient.probe`,
  which never raises on a non-200): 200 means *up*, a 503-draining
  answer means *degraded* (alive, finishing admitted work, not
  routable), and connection failures accumulate toward *down*;
* **crash/hang restarts** — a worker whose process exited, or whose
  probes failed ``down_after`` times in a row (a hung event loop looks
  exactly like that), is killed if needed and respawned on the *same*
  port after an exponential backoff, so the router's shard→port map
  never changes;
* **flap quarantine** — a shard restarted more than ``flap_threshold``
  times inside ``flap_window_s`` is quarantined instead of respawned
  (mirroring the sweep runner's poison list): its keyspace permanently
  fails over to the deterministic sibling, and a human gets to look at
  it rather than the supervisor burning CPU on a crash loop;
* **rolling restart** — :meth:`FleetSupervisor.rolling_restart` drains
  one shard at a time (SIGTERM → the worker's graceful drain → respawn
  → wait up), so a fleet-wide restart never loses an admitted job and
  never takes two shards out at once.

States: ``starting → up ⇄ draining``, ``up → down → (backoff) →
starting`` on crash, ``down → quarantined`` on flapping.  Every
transition emits a ``fleet.*`` trace event and bumps the shared
:class:`repro.fleet.metrics.FleetMetrics`.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import repro
from repro.cache import shard_cache_path
from repro.fleet.metrics import FleetMetrics
from repro.obs import NULL_TRACER
from repro.obs.events import (
    EVENT_FLEET_DOWN,
    EVENT_FLEET_QUARANTINED,
    EVENT_FLEET_RESTART,
    EVENT_FLEET_ROLL,
    EVENT_FLEET_SPAWN,
    EVENT_FLEET_UP,
)
from repro.serve.client import ServeClient

__all__ = [
    "FleetSupervisor",
    "STATE_DOWN",
    "STATE_DRAINING",
    "STATE_QUARANTINED",
    "STATE_STARTING",
    "STATE_UP",
    "free_port",
]

STATE_STARTING = "starting"
STATE_UP = "up"
STATE_DRAINING = "draining"
STATE_DOWN = "down"
STATE_QUARANTINED = "quarantined"


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for a currently-free port (bind-then-close)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _worker_environment(extra: Optional[Dict[str, str]]) -> Dict[str, str]:
    """The spawn environment: inherit, ensure ``repro`` is importable.

    Same discipline as the sweep runner's worker spawn: prepend this
    package's source root to ``PYTHONPATH`` so ``python -m repro`` works
    from any CWD, then layer per-shard extras (e.g. a test arming
    ``REPRO_SERVE_FAULT`` on one shard only) on top.
    """
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    if extra:
        env.update(extra)
    return env


@dataclass
class _Worker:
    """Mutable supervisor-side record of one shard."""

    shard: int
    port: int
    proc: Optional[subprocess.Popen] = None
    state: str = STATE_STARTING
    restarts: int = 0
    consecutive_failures: int = 0
    restart_times: List[float] = field(default_factory=list)
    next_restart_at: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "shard": self.shard,
            "port": self.port,
            "state": self.state,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "pid": self.proc.pid if self.proc is not None else None,
        }


class FleetSupervisor:
    """Spawn, probe, restart and roll N serve workers.

    Parameters
    ----------
    workers:
        Shard count (>= 1).
    host:
        Bind address shared by every worker.
    cache_path:
        Base schedule-cache path; each shard gets its own
        :func:`repro.cache.shard_cache_path` spelling (``None`` disables
        caching).
    queue_limit / serve_args:
        Per-worker admission bound, plus any extra ``repro serve``
        argv tail (e.g. ``["--retry-after-s", "2"]``).
    probe_interval_s / probe_timeout_s / down_after:
        The health gate: probe cadence, per-probe socket timeout, and
        how many consecutive failures mark a shard down.
    restart_backoff_base_s / restart_backoff_cap_s:
        Exponential restart backoff (``min(cap, base * 2**(n-1))`` for
        the n-th restart).
    flap_window_s / flap_threshold:
        Quarantine a shard restarted more than ``flap_threshold`` times
        within ``flap_window_s`` seconds.
    metrics / tracer:
        Shared :class:`~repro.fleet.metrics.FleetMetrics` (the router
        passes its own) and :class:`repro.obs.Tracer`.
    worker_env:
        Optional per-shard extra environment: ``{shard: {VAR: value}}``
        — the fault-injection hook the failover tests use.
    worker_cmd:
        Optional ``(shard, port) -> argv`` override replacing the
        ``repro serve`` command line entirely (flap tests spawn a
        process that exits immediately).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        cache_path: Optional[str] = None,
        queue_limit: int = 16,
        serve_args: Optional[Sequence[str]] = None,
        probe_interval_s: float = 0.25,
        probe_timeout_s: float = 2.0,
        down_after: int = 3,
        restart_backoff_base_s: float = 0.25,
        restart_backoff_cap_s: float = 5.0,
        flap_window_s: float = 30.0,
        flap_threshold: int = 3,
        metrics: Optional[FleetMetrics] = None,
        tracer=None,
        worker_env: Optional[Dict[int, Dict[str, str]]] = None,
        worker_cmd: Optional[Callable[[int, int], List[str]]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if probe_interval_s <= 0 or probe_timeout_s <= 0:
            raise ValueError("probe interval/timeout must be positive")
        if down_after < 1:
            raise ValueError(f"down_after must be >= 1, got {down_after}")
        if flap_threshold < 1:
            raise ValueError(
                f"flap_threshold must be >= 1, got {flap_threshold}"
            )
        self.host = host
        self.cache_path = cache_path
        self.queue_limit = int(queue_limit)
        self.serve_args = list(serve_args or [])
        self.probe_interval_s = float(probe_interval_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.down_after = int(down_after)
        self.restart_backoff_base_s = float(restart_backoff_base_s)
        self.restart_backoff_cap_s = float(restart_backoff_cap_s)
        self.flap_window_s = float(flap_window_s)
        self.flap_threshold = int(flap_threshold)
        self.metrics = metrics if metrics is not None else FleetMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.worker_env = dict(worker_env or {})
        self.worker_cmd = worker_cmd

        self._lock = threading.Lock()
        self._workers: List[_Worker] = [
            _Worker(shard=shard, port=free_port(host))
            for shard in range(workers)
        ]
        self._rolling: set = set()  # shards mid-roll: probe loop hands off
        self._probe_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # -- introspection -------------------------------------------------

    @property
    def shards(self) -> List[int]:
        return [w.shard for w in self._workers]

    def port_of(self, shard: int) -> int:
        return self._worker(shard).port

    def state_of(self, shard: int) -> str:
        with self._lock:
            return self._worker(shard).state

    def routable(self, shard: int) -> bool:
        """May the router send this shard new work right now?"""
        with self._lock:
            worker = self._worker(shard)
            return (
                worker.state == STATE_UP and worker.shard not in self._rolling
            )

    def states(self) -> List[Dict]:
        """Per-shard listing for ``/metrics`` and ``/fleet/status``."""
        with self._lock:
            return [w.to_dict() for w in self._workers]

    def _worker(self, shard: int) -> _Worker:
        for worker in self._workers:
            if worker.shard == shard:
                return worker
        raise KeyError(f"no shard {shard} (have {self.shards})")

    # -- spawning ------------------------------------------------------

    def _command(self, shard: int, port: int) -> List[str]:
        if self.worker_cmd is not None:
            return list(self.worker_cmd(shard, port))
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            str(port),
            "--workers",
            "1",
            "--queue-limit",
            str(self.queue_limit),
        ]
        if self.cache_path:
            argv += [
                "--schedule-cache",
                shard_cache_path(self.cache_path, shard),
            ]
        return argv + self.serve_args

    def _spawn(self, worker: _Worker) -> None:
        worker.proc = subprocess.Popen(
            self._command(worker.shard, worker.port),
            env=_worker_environment(self.worker_env.get(worker.shard)),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        worker.state = STATE_STARTING
        worker.consecutive_failures = 0
        self.tracer.event(
            EVENT_FLEET_SPAWN,
            shard=worker.shard,
            port=worker.port,
            pid=worker.proc.pid,
        )

    def start(self, *, wait_s: float = 30.0) -> None:
        """Spawn every worker, start the probe loop, wait for readiness.

        Raises :class:`RuntimeError` when any shard fails to answer its
        ``/healthz`` within ``wait_s`` — a fleet that cannot boot should
        fail loudly at start, not limp into degraded mode.
        """
        with self._lock:
            for worker in self._workers:
                self._spawn(worker)
        give_up = time.perf_counter() + wait_s
        for worker in self._workers:
            remaining = give_up - time.perf_counter()
            if remaining <= 0 or not self._client(worker).wait_ready(
                timeout_s=max(remaining, 0.01)
            ):
                self.stop()
                raise RuntimeError(
                    f"fleet worker shard={worker.shard} "
                    f"port={worker.port} did not come up within {wait_s:g}s"
                )
            with self._lock:
                worker.state = STATE_UP
            self.tracer.event(
                EVENT_FLEET_UP, shard=worker.shard, port=worker.port
            )
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-fleet-probe", daemon=True
        )
        self._probe_thread.start()

    def _client(self, worker: _Worker) -> ServeClient:
        return ServeClient(
            self.host, worker.port, timeout_s=self.probe_timeout_s, retries=0
        )

    # -- the health gate -----------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stopping.wait(self.probe_interval_s):
            for worker in self._workers:
                with self._lock:
                    skip = (
                        worker.state == STATE_QUARANTINED
                        or worker.shard in self._rolling
                    )
                if not skip:
                    try:
                        self._probe_one(worker)
                    except Exception:  # pragma: no cover - keep gating
                        pass

    def _probe_one(self, worker: _Worker) -> None:
        if worker.proc is not None and worker.proc.poll() is not None:
            self._note_down(
                worker, f"process exited with {worker.proc.returncode}"
            )
            self._maybe_restart(worker)
            return
        try:
            status, _body = self._client(worker).probe()
        except (ConnectionError, OSError):
            self.metrics.bump("probe_failures")
            with self._lock:
                worker.consecutive_failures += 1
                failures = worker.consecutive_failures
            if failures >= self.down_after:
                self._note_down(
                    worker, f"{failures} consecutive probe failures"
                )
                # A live-but-unresponsive process is hung: reclaim it so
                # the respawn can rebind the port.
                if worker.proc is not None and worker.proc.poll() is None:
                    worker.proc.kill()
                    worker.proc.wait()
                self._maybe_restart(worker)
            return
        with self._lock:
            worker.consecutive_failures = 0
            previous = worker.state
            worker.state = STATE_DRAINING if status == 503 else STATE_UP
            current = worker.state
        if current == STATE_UP and previous != STATE_UP:
            self.tracer.event(
                EVENT_FLEET_UP, shard=worker.shard, port=worker.port
            )

    def _note_down(self, worker: _Worker, reason: str) -> None:
        with self._lock:
            already = worker.state == STATE_DOWN
            worker.state = STATE_DOWN
        if not already:
            self.tracer.event(
                EVENT_FLEET_DOWN,
                shard=worker.shard,
                port=worker.port,
                reason=reason,
            )

    def _maybe_restart(self, worker: _Worker) -> None:
        """Restart a down worker — after backoff, unless it is flapping."""
        now = time.monotonic()
        with self._lock:
            if worker.state != STATE_DOWN or now < worker.next_restart_at:
                return
            recent = [
                t
                for t in worker.restart_times
                if now - t <= self.flap_window_s
            ]
            if len(recent) >= self.flap_threshold:
                worker.state = STATE_QUARANTINED
                worker.restart_times = recent
                quarantined = True
            else:
                worker.restarts += 1
                recent.append(now)
                worker.restart_times = recent
                worker.next_restart_at = now + min(
                    self.restart_backoff_cap_s,
                    self.restart_backoff_base_s
                    * 2.0 ** max(len(recent) - 1, 0),
                )
                quarantined = False
        if quarantined:
            self.metrics.bump("workers_quarantined")
            self.tracer.event(
                EVENT_FLEET_QUARANTINED,
                shard=worker.shard,
                port=worker.port,
                restarts_in_window=self.flap_threshold,
                window_s=self.flap_window_s,
            )
            return
        self.metrics.bump("worker_restarts")
        self.tracer.event(
            EVENT_FLEET_RESTART,
            shard=worker.shard,
            port=worker.port,
            restarts=worker.restarts,
        )
        with self._lock:
            self._spawn(worker)

    # -- rolling restart -----------------------------------------------

    def rolling_restart(self, *, drain_timeout_s: float = 60.0) -> int:
        """Drain and respawn every live shard, one at a time.

        Each shard gets SIGTERM (the worker's graceful drain: every
        admitted job finishes, every open connection gets its answer),
        then a respawn on the same port, then a wait until its
        ``/healthz`` answers 200 — only then does the roll move on, so
        at most one shard is ever out and its keyspace is covered by
        the deterministic sibling throughout.  Returns how many shards
        were rolled; quarantined shards are skipped.
        """
        rolled = 0
        for worker in self._workers:
            with self._lock:
                if worker.state == STATE_QUARANTINED:
                    continue
                self._rolling.add(worker.shard)
                worker.state = STATE_DRAINING
            try:
                proc = worker.proc
                if proc is not None and proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=drain_timeout_s)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                with self._lock:
                    worker.restarts += 1
                    self._spawn(worker)
                self.tracer.event(
                    EVENT_FLEET_RESTART,
                    shard=worker.shard,
                    port=worker.port,
                    restarts=worker.restarts,
                    rolling=True,
                )
                if not self._client(worker).wait_ready(
                    timeout_s=drain_timeout_s
                ):
                    raise RuntimeError(
                        f"rolled worker shard={worker.shard} did not come "
                        f"back within {drain_timeout_s:g}s"
                    )
                with self._lock:
                    worker.state = STATE_UP
                self.tracer.event(
                    EVENT_FLEET_UP, shard=worker.shard, port=worker.port
                )
                rolled += 1
            finally:
                with self._lock:
                    self._rolling.discard(worker.shard)
        self.metrics.bump("rolls")
        self.tracer.event(EVENT_FLEET_ROLL, rolled=rolled)
        return rolled

    # -- shutdown ------------------------------------------------------

    def stop(self, *, drain_timeout_s: float = 30.0) -> None:
        """Stop probing, drain every worker (SIGTERM), reap stragglers."""
        self._stopping.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=drain_timeout_s)
            self._probe_thread = None
        procs = [w.proc for w in self._workers if w.proc is not None]
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        give_up = time.monotonic() + drain_timeout_s
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(give_up - time.monotonic(), 0.1))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        with self._lock:
            for worker in self._workers:
                if worker.state != STATE_QUARANTINED:
                    worker.state = STATE_DOWN

    # -- test hooks ----------------------------------------------------

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one worker (fault injection for failover tests)."""
        worker = self._worker(shard)
        if worker.proc is not None and worker.proc.poll() is None:
            worker.proc.kill()
            worker.proc.wait()
        with self._lock:
            worker.state = STATE_DOWN

    def suspend_worker(self, shard: int) -> None:
        """SIGSTOP one worker — a *hung* process, not a dead one.

        The process keeps its port bound and its PID alive, but answers
        nothing: exactly the failure the probe gate's ``down_after``
        consecutive-failure counter plus hung-process reclaim
        (:meth:`_probe_one` SIGKILLs a live-but-unresponsive process
        before respawning) exists for.  The chaos harness's hung-worker
        scenario drives this hook.
        """
        worker = self._worker(shard)
        if worker.proc is not None and worker.proc.poll() is None:
            worker.proc.send_signal(signal.SIGSTOP)

    def resume_worker(self, shard: int) -> None:
        """SIGCONT a suspended worker (undo :meth:`suspend_worker`).

        Usually unnecessary — the probe gate reclaims a hung worker with
        SIGKILL — but lets a test end a hang without the reclaim path.
        """
        worker = self._worker(shard)
        if worker.proc is not None and worker.proc.poll() is None:
            worker.proc.send_signal(signal.SIGCONT)
