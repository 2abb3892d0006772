"""The stable, versioned entry point: one request in, one result out.

The repository grew five public optimization surfaces with divergent
keyword sets — :func:`repro.core.optimize`,
:func:`repro.core.optimize_temporal`, :func:`repro.core.optimize_spatial`,
:func:`repro.robust.safe_optimize` and
:func:`repro.core.optimize_pipeline`.  They remain available (and are
now thin delegates over the same machinery this module drives), but the
**documented, stability-guaranteed** surface is::

    from repro import OptimizeRequest, api

    result = api.optimize(OptimizeRequest(func=C, arch=arch))
    result.schedule            # the chosen Schedule
    result.stats.considered    # canonical candidate accounting

:class:`OptimizeRequest` is a frozen dataclass naming every knob the
five legacy surfaces accepted — NT stores, ablations, deadlines,
fallback policy, the persistent schedule cache, a tracer — with one
``mode`` selector:

* ``"auto"`` (default) — the paper's full flow (classify → Algorithm
  2/3 → schedule), via :func:`repro.core.optimize`;
* ``"temporal"`` / ``"spatial"`` — run exactly Algorithm 2 / Algorithm
  3 (search results only; no Schedule is materialized);
* ``"safe"`` — the graceful-degradation chain
  (:func:`repro.robust.safe_optimize`), run with the request's
  ``options`` and the fallback policy taken from ``policy`` (default:
  a lenient policy bounded by ``deadline_ms``).

:class:`OptimizeResult` is likewise frozen: which fields are populated
depends on the mode (``schedule`` for single-Func modes, ``schedules``
for pipelines, ``rung``/``fell_back``/``diagnostics`` for safe mode,
``temporal``/``spatial`` search details whenever a search ran).

Versioning: this surface follows the package ``__version__`` under
semantic-versioning rules — fields are only added (with defaults), never
renamed or removed, within a major version; see docs/API.md's "Stable
API" section and its migration notes for what 2.0 removed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Mapping, Optional, Union

from repro.arch import ArchSpec
from repro.core.classify import Classification
from repro.core.optimizer import (
    OptimizationResult,
    optimize as _core_optimize,
    optimize_pipeline as _core_optimize_pipeline,
)
from repro.core.spatial import SpatialResult, optimize_spatial
from repro.core.temporal import TemporalResult, optimize_temporal
from repro.ir.func import Func, Pipeline
from repro.ir.schedule import Schedule
from repro.obs.stats import CandidateStats
from repro.options import OptimizeOptions
from repro.robust.diagnostics import Diagnostics
from repro.robust.policy import FallbackPolicy
from repro.robust.safe import SafeResult, safe_optimize, safe_optimize_pipeline
from repro.util import Deadline

__all__ = [
    "MODE_AUTO",
    "MODE_SAFE",
    "MODE_SPATIAL",
    "MODE_TEMPORAL",
    "OptimizeOptions",
    "OptimizeRequest",
    "OptimizeResult",
    "optimize",
]

MODE_AUTO = "auto"
MODE_TEMPORAL = "temporal"
MODE_SPATIAL = "spatial"
MODE_SAFE = "safe"

_MODES = (MODE_AUTO, MODE_TEMPORAL, MODE_SPATIAL, MODE_SAFE)


@dataclass(frozen=True)
class OptimizeRequest:
    """Everything one optimization run needs, in one value object.

    Exactly one of ``func`` / ``pipeline`` / ``spec`` must be set.
    ``pipeline`` targets support the ``auto`` and ``safe`` modes (stages
    are optimized independently, as ``compute_root``).  A ``spec``
    target is a kernel-spec string (see :mod:`repro.frontend` and
    docs/API.md § *Kernel spec language*) lowered at construction time:
    after ``__init__`` the request's ``func`` (single-stage spec) or
    ``pipeline`` (multi-stage) is populated with the lowered target, so
    everything downstream sees a plain IR request.

    Attributes
    ----------
    func / pipeline / spec:
        The optimization target.  ``spec`` needs ``dims`` (loop extents,
        e.g. ``{"i": 512, "j": 512, "k": 512}``) and accepts optional
        ``dtypes`` / ``params`` mappings.
    arch:
        Target platform parameters (paper Table 1).
    mode:
        ``auto`` | ``temporal`` | ``spatial`` | ``safe`` (see module
        docstring).
    options:
        The consolidated :class:`repro.options.OptimizeOptions` — the
        schedule-changing switches plus ``tracer``; ``None`` means the
        defaults (after construction it always holds an
        ``OptimizeOptions``).
    deadline_ms:
        Cooperative time budget for the whole run (``None`` =
        unbounded).  In safe mode this becomes the policy's
        ``total_deadline_ms`` unless an explicit ``policy`` is given.
    policy:
        Safe-mode fallback policy (how to degrade; the switches stay in
        ``options``).  When ``None``, the default lenient policy with
        ``total_deadline_ms=deadline_ms``.
    cache_path:
        Path of a persistent :class:`repro.cache.ScheduleCache`; when
        set, ``auto`` and ``safe`` runs consult it before searching and
        store what they find.
    """

    arch: ArchSpec
    func: Optional[Func] = None
    pipeline: Optional[Pipeline] = None
    spec: Optional[str] = None
    dims: Optional[Mapping[str, int]] = None
    dtypes: Optional[Mapping[str, str]] = None
    params: Optional[Mapping[str, Union[int, float]]] = None
    mode: str = MODE_AUTO
    options: Optional[OptimizeOptions] = None
    deadline_ms: Optional[float] = None
    policy: Optional[FallbackPolicy] = None
    cache_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.options is None:
            object.__setattr__(self, "options", OptimizeOptions())
        self._resolve_target()
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; known: {list(_MODES)}"
            )
        if self.pipeline is not None and self.mode in (
            MODE_TEMPORAL,
            MODE_SPATIAL,
        ):
            raise ValueError(
                f"mode {self.mode!r} targets a single Func; pipelines "
                f"support the 'auto' and 'safe' modes"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.policy is not None and self.mode != MODE_SAFE:
            raise ValueError("policy= is only meaningful with mode='safe'")

    def _resolve_target(self) -> None:
        """Enforce exactly-one target and lower a spec into IR."""
        targets = [
            kind
            for kind, value in (
                ("func", self.func),
                ("pipeline", self.pipeline),
                ("spec", self.spec),
            )
            if value is not None
        ]
        if len(targets) != 1:
            raise ValueError(
                "an OptimizeRequest needs exactly one of func= / "
                "pipeline= / spec=" + (f"; got {targets}" if targets else "")
            )
        if self.spec is None:
            for name in ("dims", "dtypes", "params"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"{name}= is only meaningful together with spec="
                    )
            return
        from repro.frontend import lower_spec
        from repro.util import ValidationError

        if self.dims is None:
            raise ValidationError(
                "spec= needs dims= (loop extents, e.g. "
                "{'i': 512, 'j': 512, 'k': 512})"
            )
        lowered = lower_spec(
            self.spec, self.dims, dtypes=self.dtypes, params=self.params
        )
        funcs = lowered.funcs
        if len(funcs) == 1:
            object.__setattr__(self, "func", funcs[0])
        else:
            object.__setattr__(self, "pipeline", lowered.pipeline)

    def with_overrides(self, **kwargs) -> "OptimizeRequest":
        """Copy with some fields replaced (runs validation again).

        Accepts the same keywords as the constructor.  Passing a new
        target (``func`` / ``pipeline`` / ``spec``) replaces the old
        one, whichever spelling built it.
        """
        base = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.spec is not None:
            # The lowered twin of a spec target is derived state; keep
            # only the spec so re-validation lowers it afresh.
            base["func"] = None
            base["pipeline"] = None
        if any(k in kwargs for k in ("func", "pipeline", "spec")):
            for key in ("func", "pipeline", "spec", "dims",
                        "dtypes", "params"):
                base[key] = None
        unknown = sorted(set(kwargs) - set(base))
        if unknown:
            raise TypeError(
                f"unknown OptimizeRequest field(s) {unknown}"
            )
        base.update(kwargs)
        return OptimizeRequest(**base)


@dataclass(frozen=True)
class OptimizeResult:
    """What one :func:`optimize` call produced.

    Populated fields depend on the request's mode: every mode that
    materializes a schedule sets ``schedule`` (or ``schedules`` for a
    pipeline target); search modes and the full flow carry the
    ``temporal``/``spatial`` search details and their canonical
    ``stats``; safe mode adds ``rung``/``fell_back``/``diagnostics``.
    """

    request: OptimizeRequest
    mode: str
    schedule: Optional[Schedule] = None
    schedules: Optional[Mapping[Func, Schedule]] = None
    classification: Optional[Classification] = None
    temporal: Optional[TemporalResult] = None
    spatial: Optional[SpatialResult] = None
    rung: Optional[str] = None
    fell_back: bool = False
    diagnostics: Optional[Diagnostics] = None
    elapsed_seconds: float = 0.0
    #: The multi-striding classifier's verdict
    #: (:class:`repro.multistride.MultistrideDecision`); populated only
    #: when the request enabled the ``multistride`` option in ``auto``
    #: mode, or in ``safe`` mode when the ``proposed`` rung won.
    multistride: Optional[object] = None

    @property
    def stats(self) -> Optional[CandidateStats]:
        """The canonical candidate accounting of whichever search ran."""
        search = self.temporal or self.spatial
        return search.stats if search is not None else None

    @property
    def cost(self) -> Optional[float]:
        """The winning candidate's modeled cost (Eq. 11 / Eq. 15 sum)."""
        search = self.temporal or self.spatial
        return search.cost if search is not None else None

    def describe(self) -> str:
        parts = [f"mode={self.mode}"]
        if self.rung is not None:
            parts.append(f"rung={self.rung}")
        if self.schedule is not None:
            parts.append(self.schedule.describe())
        if self.schedules is not None:
            parts.append(f"{len(self.schedules)} stage schedules")
        search = self.temporal or self.spatial
        if search is not None:
            parts.append(search.describe())
        return "; ".join(parts)


def _deadline(request: OptimizeRequest) -> Optional[Deadline]:
    if request.deadline_ms is None:
        return None
    return Deadline(request.deadline_ms / 1000.0, label="repro.api.optimize")


def _schedule_cache(request: OptimizeRequest):
    if request.cache_path is None:
        return None
    from repro.cache import ScheduleCache

    return ScheduleCache(request.cache_path)


def _safe_policy(request: OptimizeRequest) -> FallbackPolicy:
    if request.policy is not None:
        return request.policy
    return FallbackPolicy(total_deadline_ms=request.deadline_ms)


def _from_core(
    request: OptimizeRequest, result: OptimizationResult
) -> OptimizeResult:
    return OptimizeResult(
        request=request,
        mode=request.mode,
        schedule=result.schedule,
        classification=result.classification,
        temporal=result.temporal,
        spatial=result.spatial,
        elapsed_seconds=result.runtime_seconds,
        multistride=result.multistride,
    )


def _from_safe(request: OptimizeRequest, safe: SafeResult) -> OptimizeResult:
    inner = safe.result
    return OptimizeResult(
        request=request,
        mode=request.mode,
        schedule=safe.schedule,
        classification=inner.classification if inner else None,
        temporal=inner.temporal if inner else None,
        spatial=inner.spatial if inner else None,
        rung=safe.rung,
        fell_back=safe.fell_back,
        diagnostics=safe.diagnostics,
        elapsed_seconds=safe.elapsed_ms / 1000.0,
        multistride=inner.multistride if inner else None,
    )


def optimize(request: OptimizeRequest) -> OptimizeResult:
    """Run the requested optimization; the one stable entry point.

    Dispatches on ``request.mode`` (and ``func`` vs ``pipeline``); see
    :class:`OptimizeRequest` for the knobs and :class:`OptimizeResult`
    for what comes back.
    """
    if request.mode == MODE_SAFE:
        policy = _safe_policy(request)
        options = request.options
        cache = _schedule_cache(request)
        if request.pipeline is not None:
            # Per-stage safe optimization; cache consulted per stage.
            schedules = {}
            fell_back = False
            diagnostics = Diagnostics()
            elapsed = 0.0
            for stage in request.pipeline:
                safe = safe_optimize(
                    stage, request.arch, policy, options=options, cache=cache
                )
                schedules[stage] = safe.schedule
                fell_back = fell_back or safe.fell_back
                for record in safe.diagnostics:
                    diagnostics.add(record)
                elapsed += safe.elapsed_ms
            return OptimizeResult(
                request=request,
                mode=request.mode,
                schedules=MappingProxyType(schedules),
                fell_back=fell_back,
                diagnostics=diagnostics,
                elapsed_seconds=elapsed / 1000.0,
            )
        safe = safe_optimize(
            request.func, request.arch, policy, options=options, cache=cache
        )
        return _from_safe(request, safe)

    if request.mode == MODE_TEMPORAL:
        opts = request.options
        result = optimize_temporal(
            request.func,
            request.arch,
            exhaustive=opts.exhaustive,
            use_emu=opts.use_emu,
            order_step=opts.order_step,
            tracer=opts.tracer,
        )
        return OptimizeResult(
            request=request, mode=request.mode, temporal=result
        )

    if request.mode == MODE_SPATIAL:
        opts = request.options
        result = optimize_spatial(
            request.func,
            request.arch,
            exhaustive=opts.exhaustive,
            use_emu=opts.use_emu,
            order_step=opts.order_step,
            tracer=opts.tracer,
        )
        return OptimizeResult(
            request=request, mode=request.mode, spatial=result
        )

    # MODE_AUTO
    if request.pipeline is not None:
        schedules = _core_optimize_pipeline(
            request.pipeline,
            request.arch,
            deadline=_deadline(request),
            **request.options.flow_kwargs(),
        )
        return OptimizeResult(
            request=request,
            mode=request.mode,
            schedules=MappingProxyType(schedules),
        )

    cache = _schedule_cache(request)
    if cache is not None:
        # OptimizeOptions is the single fingerprint source: the cache
        # key's options half is exactly its cache identity.
        options = request.options.cache_dict()
        hit = cache.get(request.func, request.arch, options)
        if hit is not None:
            return OptimizeResult(
                request=request, mode=request.mode, schedule=hit
            )
    result = _core_optimize(
        request.func,
        request.arch,
        deadline=_deadline(request),
        **request.options.flow_kwargs(),
    )
    if cache is not None:
        cache.put(
            request.func,
            request.arch,
            options,
            result.schedule,
            meta={"mode": request.mode, "func": request.func.name},
        )
    return _from_core(request, result)
