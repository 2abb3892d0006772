"""Shared machinery for the experiment regenerators.

The five techniques of the paper's figures are named as in the legends:

* ``proposed`` — this paper's optimizer, NT stores disabled;
* ``proposed_nti`` — same, with the ``store_nontemporal`` directive where
  the classifier allows it;
* ``autoscheduler`` — the Mullapudi-style heuristic baseline;
* ``baseline`` — parallel outer + vectorized inner, no tiling;
* ``autotuner`` — the stochastic search, budgeted by evaluation count.

``measure_case`` runs a whole benchmark pipeline (all stages) under a
technique on a simulated platform and returns milliseconds.  Results are
memoized per (benchmark, size, technique, platform, budget, seed) within
a process, because Table 4, Fig. 4 and Fig. 6 share measurements.

The in-process memo integrates with the crash-safe sweep layer
(:mod:`repro.sweep`) through three hooks:

* :func:`recording_cells` — a planning mode in which ``measure_case``
  records the cell it *would* measure and returns NaN, so the sweep
  runner can enumerate every cell a set of regenerators needs without
  duplicating their loops;
* :func:`seed_measure_cache` — pre-populates the memo from a sweep
  journal, turning it into a persistent cross-process cache;
* :func:`mark_quarantined` — cells that repeatedly crashed in sweep
  workers return NaN instead of recomputing, and the table/figure
  renderers show them as ``—``.

The per-row studies (corpus, mef) measure inline and share one kernel
selection, :func:`select_kernels`, one command line, :func:`study_main`,
and one ``CORPUS.md`` writer, :func:`write_corpus`.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Set, Tuple

from repro.arch import ArchSpec, platform_by_name
from repro.baselines import Autotuner, autoschedule, baseline_schedule
from repro.bench import BenchmarkCase, make_benchmark, size_for
from repro.core import optimize
from repro.ir.func import Func
from repro.ir.schedule import Schedule
from repro.sim import Machine

#: Technique keys in the order the paper's legends list them.
TECHNIQUES = (
    "proposed",
    "proposed_nti",
    "autoscheduler",
    "baseline",
    "autotuner",
)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r}; "
            f"falling back to the default ({default})",
            stacklevel=2,
        )
        return default


@dataclass
class ExperimentConfig:
    """Budget knobs for the regenerators.

    Environment overrides: ``REPRO_LINE_BUDGET`` (trace lines per nest),
    ``REPRO_AT_EVALS`` (autotuner budget ~ "one hour"),
    ``REPRO_AT_EVALS_DAY`` (autotuner budget ~ "one day"),
    ``REPRO_FAST=1`` (scaled-down problem sizes for smoke runs).
    """

    line_budget: int = field(
        default_factory=lambda: _env_int("REPRO_LINE_BUDGET", 60_000)
    )
    autotune_evals: int = field(
        default_factory=lambda: _env_int("REPRO_AT_EVALS", 12)
    )
    autotune_evals_day: int = field(
        default_factory=lambda: _env_int("REPRO_AT_EVALS_DAY", 80)
    )
    fast: bool = field(
        default_factory=lambda: os.environ.get("REPRO_FAST", "") == "1"
    )
    seed: int = 0

    def machine(self, arch: ArchSpec) -> Machine:
        return Machine(arch, line_budget=self.line_budget)

    def case(
        self, name: str, overrides: Optional[dict] = None
    ) -> BenchmarkCase:
        """Suite row ``name`` at ``overrides``, else at its run's size."""
        return make_benchmark(
            name, **(overrides or size_for(name, small=self.fast))
        )


def schedules_for(
    case: BenchmarkCase,
    technique: str,
    arch: ArchSpec,
    *,
    config: Optional[ExperimentConfig] = None,
    autotune_evals: Optional[int] = None,
    cache=None,
    options=None,
) -> Dict[Func, Schedule]:
    """Produce one schedule per pipeline stage under a technique.

    ``cache`` is an optional :class:`repro.cache.ScheduleCache` consulted
    for the ``proposed``/``proposed_nti`` techniques (the only ones whose
    schedules come from the expensive Algorithm-2/3 search); hits skip
    the search, misses search and store.

    ``options`` is an optional :class:`repro.options.OptimizeOptions`
    overriding the full switch set for the ``proposed``/``proposed_nti``
    techniques (tune cells carry one); ``None`` keeps the historical
    behaviour where the technique name alone decides ``use_nti``.
    """
    config = config or ExperimentConfig()
    out: Dict[Func, Schedule] = {}
    for stage in case.pipeline:
        if technique in ("proposed", "proposed_nti"):
            from repro.options import OptimizeOptions

            opts = options or OptimizeOptions(
                use_nti=technique == "proposed_nti"
            )
            schedule = None
            if cache is not None:
                schedule = cache.get(stage, arch, opts.cache_dict())
            if schedule is None:
                schedule = optimize(stage, arch, **opts.flow_kwargs()).schedule
                if cache is not None:
                    cache.put(
                        stage,
                        arch,
                        opts.cache_dict(),
                        schedule,
                        meta={
                            "technique": technique,
                            "func": stage.name,
                            "arch": arch.name,
                        },
                    )
            out[stage] = schedule
        elif technique == "autoscheduler":
            out[stage] = autoschedule(stage, arch).schedule
        elif technique == "baseline":
            out[stage] = baseline_schedule(stage, arch)
        elif technique == "autotuner":
            machine = config.machine(arch)
            tuner = Autotuner(
                machine,
                evaluations=autotune_evals or config.autotune_evals,
                seed=config.seed,
            )
            out[stage] = tuner.tune(stage).schedule
        else:
            raise KeyError(
                f"unknown technique {technique!r}; known: {TECHNIQUES}"
            )
    return out


_MEASURE_CACHE: Dict[Tuple, float] = {}

#: Memo keys of cells quarantined by the sweep runner (poison list):
#: ``measure_case`` returns NaN for them instead of recomputing, and the
#: renderers show ``—``.
_QUARANTINED: Set[Tuple] = set()

#: When set, ``measure_case`` records the normalized cell parameters via
#: this callback and returns NaN without simulating anything — the sweep
#: planner uses it to enumerate cells (see :func:`recording_cells`).
_CELL_RECORDER: Optional[Callable[[Dict], None]] = None


def measure_key(
    name: str,
    technique: str,
    platform: str,
    *,
    line_budget: int,
    autotune_evals: Optional[int],
    fast: bool,
    seed: int,
    size_overrides: Optional[dict] = None,
) -> Tuple:
    """The memo key for one measurement cell.

    Only the autotuner consumes the evaluation budget and the RNG seed,
    so both are normalized away for the deterministic techniques — the
    other parameters identify the measurement for every technique.  The
    sweep journal (:mod:`repro.sweep`) derives its record keys from the
    same tuple, keeping the in-process memo and the on-disk store in
    agreement.
    """
    is_autotuner = technique == "autotuner"
    return (
        name,
        technique,
        platform,
        line_budget,
        (autotune_evals or 0) if is_autotuner else 0,
        fast,
        seed if is_autotuner else 0,
        tuple(sorted((size_overrides or {}).items())),
    )


def measure_case(
    name: str,
    technique: str,
    platform: str,
    *,
    config: Optional[ExperimentConfig] = None,
    autotune_evals: Optional[int] = None,
    size_overrides: Optional[dict] = None,
) -> float:
    """Milliseconds for one (benchmark, technique, platform) cell.

    Memoized per process; ``size_overrides`` (e.g. Table 6's problem
    sizes), the autotuner budget, and the autotuner seed are part of the
    key.  Returns NaN for cells quarantined by the sweep runner (the
    renderers print ``—`` for those).
    """
    config = config or ExperimentConfig()
    effective_evals = (
        (autotune_evals or config.autotune_evals)
        if technique == "autotuner"
        else None
    )
    key = measure_key(
        name,
        technique,
        platform,
        line_budget=config.line_budget,
        autotune_evals=effective_evals,
        fast=config.fast,
        seed=config.seed,
        size_overrides=size_overrides,
    )
    if _CELL_RECORDER is not None:
        _CELL_RECORDER(
            {
                "kind": "measure",
                "benchmark": name,
                "technique": technique,
                "platform": platform,
                "line_budget": config.line_budget,
                "autotune_evals": effective_evals,
                "fast": config.fast,
                "seed": config.seed,
                "size_overrides": dict(size_overrides or {}),
            }
        )
        return float("nan")
    if key in _MEASURE_CACHE:
        return _MEASURE_CACHE[key]
    if key in _QUARANTINED:
        return float("nan")
    arch = platform_by_name(platform)
    case = config.case(name, size_overrides)
    schedules = schedules_for(
        case, technique, arch, config=config, autotune_evals=autotune_evals
    )
    machine = config.machine(arch)
    ms = machine.time_pipeline(case.pipeline, schedules)
    _MEASURE_CACHE[key] = ms
    return ms


def optimize_runtime_key(name: str, platform: str, fast: bool) -> Tuple:
    """Memo key for a Table-5 optimizer-runtime cell.

    The leading tag keeps these keys disjoint from measurement keys in
    the shared memo/quarantine stores and in the sweep journal.
    """
    return ("__optimize_runtime__", name, platform, fast)


#: Table 5 cost model: seconds per pipeline stage plus seconds per
#: candidate the Algorithm 2/3 searches evaluate.  Calibrated against
#: wall-clock on the development machine (20-40 µs per candidate) so the
#: paper-size numbers keep the paper's shape — convlayer the multi-second
#: outlier (322k candidates, paper: 7.6 s), doitgen second (11.5k), the
#: rest milliseconds — while staying a pure function of the search space,
#: so every run of every process renders the same Table 5 bit for bit.
#: The calibration predates Algorithm 2's array-priced tile grid, which
#: is an order of magnitude cheaper per candidate; the constant stays so
#: Table 5 keeps both the paper's shape and its committed bytes.
OPTIMIZER_BASE_S = 2e-3
OPTIMIZER_PER_CANDIDATE_S = 25e-6


def modeled_optimize_seconds(case: BenchmarkCase, arch: ArchSpec) -> float:
    """Deterministic optimizer runtime over ``case``'s stages (Table 5)."""
    seconds = 0.0
    for stage in case.pipeline:
        result = optimize(stage, arch)
        candidates = sum(
            sub.stats.considered
            for sub in (result.temporal, result.spatial)
            if sub is not None
        )
        seconds += OPTIMIZER_BASE_S + candidates * OPTIMIZER_PER_CANDIDATE_S
    return seconds


def optimize_runtime(
    name: str,
    platform: str,
    *,
    config: Optional[ExperimentConfig] = None,
) -> float:
    """Seconds to run the proposed optimizer on every stage (Table 5).

    Derived from the deterministic candidate-evaluation counts via
    :func:`modeled_optimize_seconds` rather than wall-clock — wall-clock
    is inherently non-reproducible, and bitwise-identical output across
    interrupted/resumed/re-run sweeps is a harder requirement here than
    machine-local timing fidelity.  Memoized (and journaled by the
    sweep) exactly like a measurement.
    """
    config = config or ExperimentConfig()
    key = optimize_runtime_key(name, platform, config.fast)
    if _CELL_RECORDER is not None:
        _CELL_RECORDER(
            {
                "kind": "optimize_runtime",
                "benchmark": name,
                "platform": platform,
                "fast": config.fast,
            }
        )
        return float("nan")
    if key in _MEASURE_CACHE:
        return _MEASURE_CACHE[key]
    if key in _QUARANTINED:
        return float("nan")
    arch = platform_by_name(platform)
    case = config.case(name)
    seconds = modeled_optimize_seconds(case, arch)
    _MEASURE_CACHE[key] = seconds
    return seconds


def clear_measure_cache() -> None:
    """Drop memoized measurements and quarantine marks (test isolation)."""
    _MEASURE_CACHE.clear()
    _QUARANTINED.clear()


def seed_measure_cache(entries: Dict[Tuple, float]) -> None:
    """Pre-populate the memo (e.g. from a sweep journal's completed cells)."""
    _MEASURE_CACHE.update(entries)


def mark_quarantined(keys: Iterable[Tuple]) -> None:
    """Poison-list cells: ``measure_case`` returns NaN instead of running."""
    _QUARANTINED.update(keys)


@contextmanager
def recording_cells(recorder: Callable[[Dict], None]) -> Iterator[None]:
    """Planning mode: ``measure_case`` reports cells instead of measuring.

    Within the context every ``measure_case`` call invokes ``recorder``
    with the normalized cell parameters (benchmark, technique, platform,
    line_budget, autotune_evals, fast, seed, size_overrides) and returns
    NaN.  The sweep planner runs each regenerator once under this mode to
    discover the exact cell set it needs.
    """
    global _CELL_RECORDER
    if _CELL_RECORDER is not None:
        raise RuntimeError("recording_cells is not re-entrant")
    _CELL_RECORDER = recorder
    try:
        yield
    finally:
        _CELL_RECORDER = None


#: Placeholder the renderers print for cells without a measurement
#: (quarantined by the sweep runner, or not yet swept).
MISSING = "—"


def nanmin(values: Iterable[float]) -> float:
    """``min`` over the non-NaN values; NaN when every value is missing.

    Partial sweep results must not poison a whole row: ``min`` with a NaN
    operand is order-dependent, so the regenerators normalize against the
    fastest *available* measurement instead.
    """
    valid = [v for v in values if not math.isnan(v)]
    return min(valid) if valid else float("nan")


def fmt_value(value: float, fmt: str = "{:.2f}") -> str:
    """Format a measurement, rendering NaN as the ``—`` placeholder."""
    return MISSING if math.isnan(value) else fmt.format(value)


def relative(fastest: float, ms: float) -> float:
    """Throughput of ``ms`` relative to ``fastest``; NaN stays NaN.

    A quarantined cell must render as ``—``, not as a spurious ``0.00``
    (the naive ``ms > 0`` guard is False for NaN).
    """
    if math.isnan(ms) or math.isnan(fastest):
        return float("nan")
    return fastest / ms if ms > 0 else 0.0


def completion_note(values: Iterable[float]) -> Optional[str]:
    """A one-line summary when a result set is partial, else ``None``.

    The regenerators print this after their table whenever quarantined or
    unswept cells left ``—`` placeholders behind.
    """
    values = list(values)
    missing = sum(1 for v in values if math.isnan(v))
    if not missing:
        return None
    done = len(values) - missing
    return (
        f"partial results: {done}/{len(values)} cells measured, "
        f"{missing} unavailable (rendered as {MISSING})"
    )


def ascii_bar(value: float, *, width: int = 24, vmax: float = 1.0) -> str:
    """A proportional bar for terminal "figures" (paper-style relative
    throughput plots)."""
    if vmax <= 0 or math.isnan(value):
        return ""
    filled = int(round(width * max(0.0, min(value, vmax)) / vmax))
    return "#" * filled


def format_table(
    headers: Tuple[str, ...], rows, *, float_fmt: str = "{:.2f}"
) -> str:
    """Plain-text table formatting shared by the regenerators.

    Float cells are formatted with ``float_fmt``; NaN floats render as
    the ``—`` placeholder (missing/quarantined sweep cells).
    """
    rendered = [
        [
            fmt_value(cell, float_fmt) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rendered)) if rendered else len(headers[c])
        for c in range(len(headers))
    ]
    def fmt_row(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(r) for r in rendered)
    return "\n".join(lines)


def markdown_table(headers: Sequence[str], rows) -> str:
    """A GitHub markdown table; cells are rendered with ``str``."""
    out = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(out)


def geomean(values) -> float:
    """Geometric mean as the n-th root of the product (the committed
    tables' rounding; ``statistics.geometric_mean`` differs)."""
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


#: Where the per-row studies publish: every study's table lives in this
#: one file, and ``REPRO_CORPUS_TABLE`` points them all at a copy.
TABLE_ENV = "REPRO_CORPUS_TABLE"
TABLE_PATH = "CORPUS.md"

_FIRST_SECTION = re.compile(r"^<!-- .+:begin -->$", re.MULTILINE)


def write_corpus(text: str, section: Optional[str] = None) -> None:
    """Write one part of the per-row studies' file, keeping the rest.

    With no ``section``, ``text`` replaces the file's head: everything
    before the first marked section, which follows after one blank line.
    With a ``section``, ``text`` becomes that marked section's body; the
    section is removed from where it stood and written last, one blank
    line after the rest.  A missing file is created.  The file is
    ``$REPRO_CORPUS_TABLE``, else ``CORPUS.md``.
    """
    path = os.environ.get(TABLE_ENV, TABLE_PATH)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            old = handle.read()
    except FileNotFoundError:
        old = ""
    if section is None:
        first = _FIRST_SECTION.search(old)
        new = text if first is None else f"{text}\n{old[first.start():]}"
    else:
        begin, end = f"<!-- {section}:begin -->", f"<!-- {section}:end -->"
        start, stop = old.find(begin), old.find(end)
        if start != -1 and stop != -1:
            old = old[:start] + old[stop + len(end):].lstrip("\n")
        block = f"{begin}\n{text}{end}\n"
        old = old.rstrip("\n")
        new = f"{old}\n\n{block}" if old else block
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(new)


def select_kernels(
    kernels, only: Optional[Sequence[str]], what: str
) -> List:
    """The ``kernels`` named in ``only`` (all of them when ``None``), in
    their own order; an unknown name exits with the list of unknowns."""
    if only is None:
        return list(kernels)
    wanted = set(only)
    unknown = wanted - {kernel.name for kernel in kernels}
    if unknown:
        raise SystemExit(
            f"unknown {what} kernel(s): {', '.join(sorted(unknown))}"
        )
    return [kernel for kernel in kernels if kernel.name in wanted]


def study_main(run: Callable, *, prog: str, description: str) -> None:
    """The per-row studies' command line: ``[--fast] [--only K1,K2,...]``."""
    import argparse

    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke sizes (never rewrites CORPUS.md)",
    )
    parser.add_argument(
        "--only",
        metavar="K1,K2,...",
        help="comma-separated kernel subset (never rewrites CORPUS.md)",
    )
    args = parser.parse_args()
    run(
        config=ExperimentConfig(fast=args.fast),
        only=args.only.split(",") if args.only else None,
    )
