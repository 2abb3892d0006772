"""The end-to-end optimization flow (paper Fig. 1).

``optimize`` takes an algorithm definition plus the architecture parameters
and produces an optimization schedule, in four stages:

1. **Classification** (Sec. 3.1) of the main definition's statement;
2. the **temporal** (Algorithm 2) or **spatial** (Algorithm 3) optimizer,
   or neither for contiguous/stencil nests;
3. **standard optimizations** — parallelization, vectorization — applied
   while materializing the Schedule;
4. **non-temporal stores** when the output is never re-read and the ISA
   supports them (the "+NTI" configurations of the paper's figures).

The wall-clock time of the whole flow is recorded in
``runtime_seconds`` (shown by ``describe()`` and the CLI); the Table 5
regeneration (``experiments/table5.py``) instead derives a deterministic
runtime from the searches' ``stats.considered`` counts so repeated
sweeps render identically.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch import ArchSpec
from repro.obs.events import EVENT_CLASSIFY
from repro.obs.tracer import activate_tracer, current_tracer
from repro.util import Deadline, active_deadline, checkpoint
from repro.core.classify import Classification, Locality, classify
from repro.core.spatial import SpatialResult, optimize_spatial
from repro.core.standard import build_schedule, untransformed_schedule
from repro.core.temporal import TemporalResult, optimize_temporal
from repro.ir.func import Func, Pipeline
from repro.ir.schedule import Schedule


@dataclass
class OptimizationResult:
    """Everything the flow decided, plus how long deciding took."""

    func: Func
    schedule: Schedule
    classification: Classification
    temporal: Optional[TemporalResult]
    spatial: Optional[SpatialResult]
    runtime_seconds: float
    #: The multi-striding classifier's verdict
    #: (:class:`repro.multistride.MultistrideDecision`) when the
    #: ``multistride`` option was enabled; ``None`` otherwise.
    multistride: Optional[object] = None

    @property
    def locality(self) -> Locality:
        return self.classification.locality

    @property
    def uses_nti(self) -> bool:
        return self.schedule.nontemporal

    def describe(self) -> str:
        lines = [
            f"{self.func.name}: {self.classification!r}",
            f"  runtime: {self.runtime_seconds * 1000:.1f} ms",
        ]
        if self.temporal:
            lines.append(f"  temporal: {self.temporal.describe()}")
        if self.spatial:
            lines.append(f"  spatial: {self.spatial.describe()}")
        if self.multistride is not None:
            lines.append(f"  multistride: {self.multistride.describe()}")
        lines.append(f"  schedule: {self.schedule.describe()}")
        return "\n".join(lines)


def optimize(
    func: Func,
    arch: ArchSpec,
    *,
    use_nti: bool = True,
    parallelize: bool = True,
    vectorize: bool = True,
    exhaustive: bool = False,
    use_emu: bool = True,
    order_step: bool = True,
    multistride="off",
    deadline: Optional[Deadline] = None,
    tracer=None,
) -> OptimizationResult:
    """Run the full optimization flow on ``func``'s main definition.

    Parameters
    ----------
    func:
        The Func to optimize; bounds must be set.
    arch:
        Target platform parameters (Table 1 of the paper).
    use_nti:
        Permit non-temporal stores (disable to obtain the paper's plain
        "Proposed" configuration on NTI-eligible benchmarks).
    parallelize / vectorize:
        Master switches for the standard optimizations.
    exhaustive:
        Evaluate every integer tile size instead of the candidate lattice.
    use_emu / order_step:
        The ablation switches, forwarded verbatim: ``use_emu`` to both
        stage optimizers, ``order_step`` to
        :func:`repro.core.optimize_temporal` only (Algorithm 3 has no
        ordering step).  Both default to the paper's full method.
    multistride:
        ``"off"`` (default — the flow above, bit-identical to every
        pre-multistride release), ``"auto"`` (run the three-way
        tile-only / multistride-only / combined classifier of
        :mod:`repro.multistride` and keep the cheapest strategy), or an
        ``int >= 2`` (force that stream count on the best eligible
        loop).
    deadline:
        Optional time budget.  Installed as the ambient deadline for the
        whole flow, so the cooperative checkpoints inside classification
        and the Algorithm-2/3 candidate loops raise
        :class:`~repro.util.DeadlineExceeded` once it expires.  ``None``
        keeps whatever deadline an outer caller (e.g.
        :func:`repro.robust.safe_optimize`) already installed.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Installed as the ambient
        tracer for the whole flow (like ``deadline``) and forwarded to
        the stage optimizers; ``None`` keeps whatever tracer an outer
        caller installed (defaulting to the zero-overhead
        :data:`repro.obs.NULL_TRACER`).
    """
    with contextlib.ExitStack() as stack:
        if deadline is not None:
            stack.enter_context(active_deadline(deadline))
        if tracer is not None:
            stack.enter_context(activate_tracer(tracer))
        tracer = current_tracer()
        stack.enter_context(tracer.span("optimize", func=func.name))
        return _optimize_under_deadline(
            func,
            arch,
            use_nti=use_nti,
            parallelize=parallelize,
            vectorize=vectorize,
            exhaustive=exhaustive,
            use_emu=use_emu,
            order_step=order_step,
            multistride=multistride,
            tracer=tracer,
        )


def _optimize_under_deadline(
    func: Func,
    arch: ArchSpec,
    *,
    use_nti: bool,
    parallelize: bool,
    vectorize: bool,
    exhaustive: bool,
    use_emu: bool,
    order_step: bool,
    multistride,
    tracer,
) -> OptimizationResult:
    start = time.perf_counter()
    classification = classify(func)
    use_nti = use_nti and classification.use_nti and arch.supports_nt_stores
    if tracer.enabled:
        tracer.event(
            EVENT_CLASSIFY,
            func=func.name,
            locality=classification.locality.name.lower(),
            use_nti=use_nti,
        )

    temporal_result: Optional[TemporalResult] = None
    spatial_result: Optional[SpatialResult] = None

    if classification.locality is Locality.TEMPORAL:
        temporal_result = optimize_temporal(
            func,
            arch,
            classification.info,
            exhaustive=exhaustive,
            use_emu=use_emu,
            order_step=order_step,
            tracer=tracer,
        )
        if temporal_result.cost == float("inf"):
            schedule = untransformed_schedule(
                func,
                arch,
                parallelize=parallelize,
                vectorize=vectorize,
                nontemporal=use_nti,
            )
        else:
            schedule = build_schedule(
                func,
                arch,
                temporal_result.tiles,
                temporal_result.inter_order,
                temporal_result.intra_order,
                parallelize=parallelize,
                vectorize=vectorize,
                nontemporal=use_nti,
            )
    elif classification.locality is Locality.SPATIAL:
        spatial_result = optimize_spatial(
            func,
            arch,
            classification.info,
            exhaustive=exhaustive,
            use_emu=use_emu,
            tracer=tracer,
        )
        tiles = dict(spatial_result.tiles)
        # Untiled outer output dimensions (3-D+ outputs) stay untouched.
        bounds = {
            v.name: func.bound_of(v.name)
            for v in classification.info.definition.all_vars()
        }
        for var, bound in bounds.items():
            tiles.setdefault(var, bound)
        inter_order = [
            v
            for v in (spatial_result.row_var, spatial_result.col_var)
            if tiles[v] < bounds[v]
        ]
        intra_order = [
            v for v in bounds if tiles[v] == bounds[v] and v not in inter_order
        ]
        # Preserve definition order for untiled dims, then row/col tiles.
        intra_order += [
            v
            for v in (spatial_result.row_var, spatial_result.col_var)
            if tiles[v] > 1 and v not in intra_order
        ]
        schedule = build_schedule(
            func,
            arch,
            tiles,
            inter_order,
            intra_order,
            parallelize=parallelize,
            vectorize=vectorize,
            nontemporal=use_nti,
        )
    else:
        schedule = untransformed_schedule(
            func,
            arch,
            parallelize=parallelize,
            vectorize=vectorize,
            nontemporal=use_nti,
        )

    decision = None
    if multistride != "off":
        # Lazy import: the multistride package pulls in the simulator,
        # which the disabled path must never pay for (nor depend on).
        from repro.multistride import decide_strategy

        decision = decide_strategy(
            func,
            arch,
            schedule,
            multistride=multistride,
            tracer=tracer,
        )
        schedule = decision.schedule

    elapsed = time.perf_counter() - start
    return OptimizationResult(
        func=func,
        schedule=schedule,
        classification=classification,
        temporal=temporal_result,
        spatial=spatial_result,
        runtime_seconds=elapsed,
        multistride=decision,
    )


def optimize_pipeline(
    pipeline: Pipeline,
    arch: ArchSpec,
    *,
    use_nti: bool = True,
    parallelize: bool = True,
    vectorize: bool = True,
    exhaustive: bool = False,
    use_emu: bool = True,
    order_step: bool = True,
    multistride="off",
    deadline: Optional[Deadline] = None,
    tracer=None,
) -> Dict[Func, Schedule]:
    """Optimize every stage of a pipeline independently (compute_root).

    All keyword switches are forwarded to :func:`optimize` per stage —
    the same uniform surface, including the ``use_emu``/``order_step``
    ablations and ``tracer``; a ``deadline`` (and a ``tracer``) is
    shared across the whole pipeline, not per stage.
    """
    out: Dict[Func, Schedule] = {}
    with contextlib.ExitStack() as stack:
        if deadline is not None:
            stack.enter_context(active_deadline(deadline))
        if tracer is not None:
            stack.enter_context(activate_tracer(tracer))
        for stage in pipeline:
            checkpoint(f"pipeline stage {stage.name}")
            out[stage] = optimize(
                stage,
                arch,
                use_nti=use_nti,
                parallelize=parallelize,
                vectorize=vectorize,
                exhaustive=exhaustive,
                use_emu=use_emu,
                order_step=order_step,
                multistride=multistride,
            ).schedule
    return out
