"""Fault injection for proving the degradation paths.

The robustness guarantee of :func:`repro.robust.safe_optimize` — *every
failure lands on a legal schedule* — is only as good as the failures the
test suite can manufacture.  This module injects configurable faults into
the flow's seams:

========== ==================================================== ===========
site       what is wrapped                                      default exc
========== ==================================================== ===========
classify   :func:`repro.core.classify.classify`                 ClassificationError
emu        :func:`repro.core.emu.emu` (tile-bound emulation)    ReproError
cost       :func:`repro.core.costs.total_cost` (one call per    ReproError
           Algorithm-2 placement pass) /
           :func:`repro.core.costs.spatial_partial_cost`
simulate   :func:`repro.sim.executor.run_nests`                 SimulationError
schedule   :func:`repro.core.standard.build_schedule`           ScheduleError
analyze    :func:`repro.ir.analysis.analyze_func`               ClassificationError
========== ==================================================== ===========

Every fault is one :class:`FaultSpec`: a *kind*, the *site* whose
events it counts, and a window — it fires on the ``n``-th event at that
site and the ``count - 1`` after it (``count=None``: every event from
``n`` on).  One :class:`FaultPlan` counts events per site and hands back
the spec that fires.  The in-process kinds count calls to a seam above:

* ``raise`` — raise an exception (default per site, overridable);
* ``deadline`` — exhaust the ambient :class:`~repro.util.Deadline`
  (via :meth:`~repro.util.deadline.Deadline.force_expire`), so the next
  cooperative checkpoint raises :class:`~repro.util.DeadlineExceeded`
  exactly as a genuinely slow search would;
* ``poison`` — return a configurable value (default ``nan``) instead of
  calling the real function, modelling a numerically corrupted cost model.

Use as a context manager or decorator::

    with FaultInjector(raise_on("classify")):
        result = safe_optimize(func, arch)     # lands on a fallback rung

Injection patches the functions in their defining modules *and* in the
namespaces of the known importers (``optimize`` binds ``classify`` at
import time), and restores everything on exit, even when the body raises.

The process kinds reach a child process through one environment
variable spelled ``kind[:seconds[:n]]`` (:meth:`FaultSpec.parse`):

======= ===== ====================== ===================================
kind    site  variable               effect
======= ===== ====================== ===================================
kill    spawn ``REPRO_WORKER_FAULT`` the sweep worker SIGKILLs itself
hang    spawn ``REPRO_WORKER_FAULT`` the sweep worker sleeps ``seconds``
corrupt spawn ``REPRO_WORKER_FAULT`` the worker writes garbage, exits 0
slow    job   ``REPRO_SERVE_FAULT``  the job sleeps ``seconds`` first
crash   job   ``REPRO_SERVE_FAULT``  the job raises before any work
======= ===== ====================== ===================================

:class:`repro.sweep.SweepRunner` consults its plan once per worker
spawn and arms the firing spec's :meth:`FaultSpec.env` for that spawn
only; :class:`repro.serve.OptimizeServer` consults its plan once per
executed job (coalesced waiters share their leader's job).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.util import DeadlineExceeded, ReproError, current_deadline
from repro.util.errors import (
    ClassificationError,
    ScheduleError,
    SimulationError,
)

KIND_RAISE = "raise"
KIND_DEADLINE = "deadline"
KIND_POISON = "poison"
KIND_KILL = "kill"
KIND_HANG = "hang"
KIND_CORRUPT = "corrupt"
KIND_SLOW = "slow"
KIND_CRASH = "crash"

#: The process-level event sites: sweep-worker spawns and served jobs.
SITE_SPAWN = "spawn"
SITE_JOB = "job"

#: Environment variable read by ``repro.sweep.worker`` at startup.
WORKER_FAULT_ENV = "REPRO_WORKER_FAULT"
#: Environment variable read by ``repro.serve.server`` at startup.
SERVE_FAULT_ENV = "REPRO_SERVE_FAULT"

#: Process kind -> the site whose events it counts.
_PROCESS_SITES = {
    KIND_KILL: SITE_SPAWN,
    KIND_HANG: SITE_SPAWN,
    KIND_CORRUPT: SITE_SPAWN,
    KIND_SLOW: SITE_JOB,
    KIND_CRASH: SITE_JOB,
}
_KINDS = (KIND_RAISE, KIND_DEADLINE, KIND_POISON, *_PROCESS_SITES)

#: Kinds that sleep, with the ``seconds`` an env spelling defaults to.
_SLEEP_DEFAULTS = {KIND_HANG: 3600.0, KIND_SLOW: 0.5}

#: Environment variable -> the site whose faults it arms.
_ENV_SITES = {WORKER_FAULT_ENV: SITE_SPAWN, SERVE_FAULT_ENV: SITE_JOB}

#: site -> [(module, attribute), ...]: every namespace holding a reference
#: that must be patched for the fault to be visible to the flow.
_PATCH_TABLE: Dict[str, List[Tuple[str, str]]] = {
    "classify": [
        ("repro.core.classify", "classify"),
        ("repro.core.optimizer", "classify"),
    ],
    "emu": [
        # emu_l1/emu_l2 call through this module-global, so one patch
        # covers both Algorithm-2 and Algorithm-3 bound queries.
        ("repro.core.emu", "emu"),
    ],
    "cost": [
        ("repro.core.costs", "total_cost"),
        ("repro.core.temporal", "total_cost"),
        ("repro.core.costs", "spatial_partial_cost"),
        ("repro.core.spatial", "spatial_partial_cost"),
    ],
    "simulate": [
        ("repro.sim.executor", "run_nests"),
        ("repro.sim.machine", "run_nests"),
    ],
    # The two seams below exist to drive the fallback chain all the way
    # down in tests: "schedule" fails every rung that materializes tiles
    # (proposed + auto-scheduler), "analyze" fails every rung that inspects
    # the statement (proposed + auto-scheduler + baseline), leaving only
    # the untransformed rung standing.
    "schedule": [
        ("repro.core.standard", "build_schedule"),
        ("repro.core.optimizer", "build_schedule"),
        ("repro.baselines.autoscheduler", "build_schedule"),
    ],
    "analyze": [
        ("repro.ir.analysis", "analyze_func"),
        ("repro.core.classify", "analyze_func"),
        ("repro.core.temporal", "analyze_func"),
        ("repro.core.spatial", "analyze_func"),
        ("repro.baselines.autoscheduler", "analyze_func"),
        ("repro.baselines.baseline", "analyze_func"),
    ],
}

_DEFAULT_EXC: Dict[str, Callable[[str], ReproError]] = {
    "classify": lambda site: ClassificationError(
        "injected fault: classification failed"
    ),
    "emu": lambda site: ReproError("injected fault: cache emulation failed"),
    "cost": lambda site: ReproError("injected fault: cost evaluation failed"),
    "simulate": lambda site: SimulationError(
        "injected fault: simulator inconsistency"
    ),
    "schedule": lambda site: ScheduleError(
        "injected fault: schedule construction failed"
    ),
    "analyze": lambda site: ClassificationError(
        "injected fault: statement analysis failed"
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *what kind*, *when* it fires, and *where*.

    Attributes
    ----------
    kind:
        ``raise``, ``deadline`` or ``poison`` (in-process seams), or
        ``kill``, ``hang``, ``corrupt``, ``slow`` or ``crash`` (process
        events; see the module docstring).
    n:
        1-based index of the first event at ``site`` that fires.
    count:
        How many consecutive events fire (``None`` = every event from
        ``n`` on).
    site:
        One of the six seams ``classify``, ``emu``, ``cost``,
        ``simulate``, ``schedule``, ``analyze`` for in-process kinds;
        process kinds fill in their own (``spawn`` or ``job``).
    seconds:
        Sleep length for ``hang`` and ``slow``; pick a ``hang`` above
        the sweep's per-cell timeout.
    value:
        Return value for ``poison`` faults (default NaN; use
        ``float("inf")`` for infinity poisoning).
    exc:
        Exception *instance* to raise for ``raise`` faults; defaults to
        the site's natural error type.
    """

    kind: str = KIND_RAISE
    n: int = 1
    count: Optional[int] = None
    site: Optional[str] = None
    seconds: float = 0.0
    value: float = float("nan")
    exc: Optional[BaseException] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {list(_KINDS)}"
            )
        process_site = _PROCESS_SITES.get(self.kind)
        if self.site is None and process_site:
            object.__setattr__(self, "site", process_site)
        sites = [process_site] if process_site else sorted(_PATCH_TABLE)
        if self.site not in sites:
            raise ValueError(
                f"unknown fault site {self.site!r} for kind {self.kind!r}; "
                f"known: {sites}"
            )
        if self.n < 1:
            raise ValueError(f"n is 1-based, got {self.n}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0 <= self.seconds < math.inf:
            raise ValueError(
                f"seconds must be finite and >= 0, got {self.seconds}"
            )

    def fires(self, index: int) -> bool:
        """Whether the fault is armed for the given 1-based event index."""
        if index < self.n:
            return False
        return self.count is None or index < self.n + self.count

    def env(self) -> str:
        """The ``kind[:seconds]`` spelling a child process fires at once."""
        if self.kind in _SLEEP_DEFAULTS:
            return f"{self.kind}:{self.seconds}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Build a one-shot process fault from ``kind[:seconds[:n]]``.

        E.g. ``kill``, ``hang:2.5``, ``crash``, ``slow:0.5:2``; an empty
        ``seconds`` takes the kind's default (3600 for ``hang``, 0.5 for
        ``slow``).  Raises :class:`ValueError` on malformed input.
        """
        kind, *rest = text.split(":")
        if kind not in _PROCESS_SITES:
            raise ValueError(
                f"unknown process fault kind {kind!r}; "
                f"known: {list(_PROCESS_SITES)}"
            )
        if len(rest) > 2:
            raise ValueError(
                f"malformed fault {text!r}: expected kind[:seconds[:n]]"
            )
        try:
            seconds = (
                float(rest[0]) if rest and rest[0]
                else _SLEEP_DEFAULTS.get(kind, 0.0)
            )
            n = int(rest[1]) if len(rest) > 1 else 1
        except ValueError:
            raise ValueError(
                f"malformed fault {text!r}: seconds must be a number and "
                f"n an integer"
            ) from None
        return cls(kind, n=n, count=1, seconds=seconds)

    @classmethod
    def from_env(cls, name: str) -> Optional["FaultSpec"]:
        """The fault armed by environment variable ``name``, if any.

        ``name`` is :data:`WORKER_FAULT_ENV` or :data:`SERVE_FAULT_ENV`;
        errors name the variable and its value, and reject a kind the
        variable's reader would never fire.
        """
        text = os.environ.get(name)
        if not text:
            return None
        try:
            spec = cls.parse(text)
            if spec.site != _ENV_SITES[name]:
                raise ValueError(
                    f"{spec.kind!r} faults are not armed through {name}"
                )
        except ValueError as exc:
            raise ValueError(f"{name}={text!r}: {exc}") from None
        return spec


def raise_on(
    site: str,
    n: int = 1,
    exc: Optional[BaseException] = None,
    count: Optional[int] = None,
) -> FaultSpec:
    """Fault: raise on the ``n``-th call to ``site`` (and onwards)."""
    return FaultSpec(KIND_RAISE, n=n, count=count, site=site, exc=exc)


def poison(
    site: str, value: float = float("nan"), n: int = 1
) -> FaultSpec:
    """Fault: return ``value`` (NaN/inf) instead of the real result."""
    return FaultSpec(KIND_POISON, n=n, site=site, value=value)


def exhaust_deadline(site: str, n: int = 1) -> FaultSpec:
    """Fault: expire the ambient deadline when ``site`` is called."""
    return FaultSpec(KIND_DEADLINE, n=n, site=site)


def kill_worker(n: int = 1, count: Optional[int] = 1) -> FaultSpec:
    """Fault: the ``n``-th spawned worker SIGKILLs itself immediately."""
    return FaultSpec(KIND_KILL, n=n, count=count)


def hang_worker(
    n: int = 1, seconds: float = 3600.0, count: Optional[int] = 1
) -> FaultSpec:
    """Fault: the ``n``-th spawned worker stalls for ``seconds``."""
    return FaultSpec(KIND_HANG, n=n, count=count, seconds=seconds)


def corrupt_worker(n: int = 1, count: Optional[int] = 1) -> FaultSpec:
    """Fault: the ``n``-th spawned worker emits garbage instead of JSON."""
    return FaultSpec(KIND_CORRUPT, n=n, count=count)


def slow_job(
    n: int = 1, seconds: float = 0.5, count: Optional[int] = 1
) -> FaultSpec:
    """Fault: the ``n``-th served job stalls for ``seconds`` first."""
    return FaultSpec(KIND_SLOW, n=n, count=count, seconds=seconds)


def crash_job(n: int = 1, count: Optional[int] = 1) -> FaultSpec:
    """Fault: the ``n``-th served job raises before doing any work."""
    return FaultSpec(KIND_CRASH, n=n, count=count)


class FaultPlan:
    """A set of :class:`FaultSpec` and a per-site event counter.

    Each :meth:`next` call records one event at a site and returns the
    first spec for that site whose window covers the event's 1-based
    index.  Thread-safe: parallel sweep spawns and the serve worker
    pool share one counter per site.  :meth:`calls` exposes the
    counters so tests can assert how many events actually happened.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        if not specs:
            raise ValueError(
                f"{type(self).__name__} needs at least one FaultSpec"
            )
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    def calls(self, site: str) -> int:
        """How many events ``site`` has recorded."""
        return self._counters.get(site, 0)

    def next(self, site: str) -> Optional[FaultSpec]:
        """Record one event at ``site``; return the spec firing on it."""
        with self._lock:
            index = self._counters[site] = self._counters.get(site, 0) + 1
        for spec in self.specs:
            if spec.site == site and spec.fires(index):
                return spec
        return None


class FaultInjector(FaultPlan):
    """Context manager / decorator installing in-process faults.

    Call counters are **per site** (shared across that site's patched
    functions) and reset on every ``__enter__``, so one injector can be
    reused across tests.  :meth:`calls` exposes the counters for
    asserting that a fault actually fired.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        super().__init__(*specs)
        for spec in self.specs:
            if spec.site not in _PATCH_TABLE:
                raise ValueError(
                    f"{spec.kind!r} is a process fault; run it through a "
                    f"FaultPlan, not a FaultInjector"
                )
        self._saved: List[Tuple[object, str, object]] = []
        self._active = False

    def _wrap(self, site: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spec = self.next(site)
            if spec is None:
                return original(*args, **kwargs)
            if spec.kind == KIND_RAISE:
                raise spec.exc if spec.exc is not None else _DEFAULT_EXC[site](site)
            if spec.kind == KIND_DEADLINE:
                deadline = current_deadline()
                if deadline is None:
                    # No budget to exhaust: surface the intent directly so
                    # the fault is never silently absorbed.
                    raise DeadlineExceeded(
                        f"injected fault: {site} exhausted a deadline, but "
                        f"no deadline was active"
                    )
                deadline.force_expire()
                return original(*args, **kwargs)
            # KIND_POISON: skip the real computation entirely.
            return spec.value

        return wrapper

    # -- installation --------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        if self._active:
            raise RuntimeError("FaultInjector is not re-entrant")
        self._active = True
        self._counters = {}
        sites = {spec.site for spec in self.specs}
        # Wrap each distinct original once so sites with several aliases
        # (classify in two namespaces) share one wrapper and counter.
        wrappers: Dict[int, Callable] = {}
        try:
            for site in sorted(sites):
                for module_name, attr in _PATCH_TABLE[site]:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    key = id(original)
                    if key not in wrappers:
                        wrappers[key] = self._wrap(site, original)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrappers[key])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._active = False

    # -- decorator support ---------------------------------------------

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        return wrapper


def inject(*specs: FaultSpec) -> FaultInjector:
    """Sugar: ``with inject(raise_on("classify")): ...``."""
    return FaultInjector(*specs)
