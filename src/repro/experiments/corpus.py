"""Corpus win/loss: the classifier judged over the generated workload ring.

For every kernel of :data:`repro.frontend.corpus.CORPUS` (the PolyBench
remainder + DL-shaped ops + micro-kernels — all lowered from spec
strings), this regenerator compares

* **proposed** — the paper's full flow (classification, then the
  temporal/spatial optimizer or no transformation, NT stores where the
  classifier allows), against
* **baseline** — the developer-obvious schedule (parallel outer loop,
  vectorized contiguous inner loop; Sec. 5.1),

on the simulated i7-5930K, and aggregates wins/losses/ties *per
classifier class* (temporal / spatial / none).  The interesting row is
``none``: the classifier's claim is that for streaming/stencil kernels
no *loop transformation* helps, so any win there must come from the
independent NT-store decision (Sec. 3.4) alone — and a loss would mean
the classifier wrongly skipped a transformation.

Like Table 6, this module measures inline (deterministic simulator
runs; the optimizer search is the only cost) rather than through the
sweep planner.  At paper sizes (not ``--fast``) the rendered table is
also written to ``CORPUS.md`` so the committed artifact is regenerated
by ``python -m repro.experiments``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from repro.arch import platform_by_name
from repro.baselines import baseline_schedule
from repro.core import optimize
from repro.core.classify import classify
from repro.experiments.harness import ExperimentConfig, format_table
from repro.experiments.mef import SECTION_BEGIN as MEF_SECTION_BEGIN
from repro.frontend.corpus import CORPUS

PLATFORM = "i7-5930k"

#: Relative tolerance below which proposed-vs-baseline is a tie: the
#: simulator is deterministic, so this only absorbs float round-off.
TIE_RTOL = 1e-3

#: Where the committed per-class table lives (regenerated on full runs).
TABLE_ENV = "REPRO_CORPUS_TABLE"
TABLE_PATH = "CORPUS.md"


def _verdict(baseline_ms: float, proposed_ms: float) -> str:
    if proposed_ms < baseline_ms * (1.0 - TIE_RTOL):
        return "win"
    if proposed_ms > baseline_ms * (1.0 + TIE_RTOL):
        return "loss"
    return "tie"


def _geomean(values) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


def run(
    *,
    config: Optional[ExperimentConfig] = None,
    echo: bool = True,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, Dict]:
    """Measure every corpus kernel; returns ``{kernel: row}`` plus the
    per-class aggregate under the ``"classes"`` key.

    ``only`` restricts the run to the named kernels (CI smoke subsets);
    restricted runs never rewrite ``CORPUS.md``.
    """
    config = config or ExperimentConfig()
    arch = platform_by_name(PLATFORM)
    machine = config.machine(arch)

    kernels = CORPUS
    if only is not None:
        wanted = set(only)
        unknown = wanted - {kernel.name for kernel in CORPUS}
        if unknown:
            raise SystemExit(
                f"unknown corpus kernel(s): {', '.join(sorted(unknown))}"
            )
        kernels = [kernel for kernel in CORPUS if kernel.name in wanted]

    rows = {}
    for kernel in kernels:
        case = kernel.case(fast=config.fast)
        stages = case.funcs
        locality = classify(stages[-1]).locality.value
        base = [(s, baseline_schedule(s, arch)) for s in stages]
        prop = [(s, optimize(s, arch).schedule) for s in stages]
        baseline_ms = machine.time_funcs(base)
        proposed_ms = machine.time_funcs(prop)
        rows[kernel.name] = {
            "family": kernel.family,
            "class": locality,
            "baseline_ms": baseline_ms,
            "proposed_ms": proposed_ms,
            "speedup": (
                baseline_ms / proposed_ms if proposed_ms > 0 else 1.0
            ),
            "verdict": _verdict(baseline_ms, proposed_ms),
        }

    classes: Dict[str, Dict] = {}
    for row in rows.values():
        agg = classes.setdefault(
            row["class"],
            {"kernels": 0, "win": 0, "loss": 0, "tie": 0, "speedups": []},
        )
        agg["kernels"] += 1
        agg[row["verdict"]] += 1
        agg["speedups"].append(row["speedup"])
    for agg in classes.values():
        agg["geomean_speedup"] = _geomean(agg.pop("speedups"))

    if echo:
        print(_render(rows, classes, config))
    if not config.fast and only is None:
        path = os.environ.get(TABLE_ENV, TABLE_PATH)
        _write_table(_markdown(rows, classes), path)
    return {**rows, "classes": classes}


def _write_table(text: str, path: str) -> None:
    """Write the corpus tables over ``path``, keeping the marked section
    that :mod:`repro.experiments.mef` splices into the same file (and
    anything after it) byte for byte."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            old = handle.read()
    except FileNotFoundError:
        old = ""
    begin = old.find(MEF_SECTION_BEGIN)
    if begin != -1:
        text = f"{text}\n{old[begin:]}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _kernel_rows(rows):
    return [
        (
            name,
            row["family"],
            row["class"],
            f"{row['baseline_ms']:.3f}",
            f"{row['proposed_ms']:.3f}",
            f"{row['speedup']:.2f}x",
            row["verdict"],
        )
        for name, row in rows.items()
    ]


def _class_rows(classes):
    # temporal / spatial / none, in the classifier's decision order.
    order = ("temporal", "spatial", "none")
    return [
        (
            cls,
            classes[cls]["kernels"],
            classes[cls]["win"],
            classes[cls]["loss"],
            classes[cls]["tie"],
            f"{classes[cls]['geomean_speedup']:.2f}x",
        )
        for cls in order
        if cls in classes
    ]


_KERNEL_HEADERS = (
    "kernel", "family", "class", "baseline", "proposed", "speedup", "verdict"
)
_CLASS_HEADERS = ("class", "kernels", "win", "loss", "tie", "geomean")


def _render(rows, classes, config) -> str:
    sizes = "smoke sizes" if config.fast else "corpus sizes"
    lines = [
        f"Corpus win/loss — proposed vs baseline, {PLATFORM} ({sizes}), "
        f"{len(rows)} kernels",
        format_table(_KERNEL_HEADERS, _kernel_rows(rows)),
        "",
        "Per-class summary (the classifier's scorecard):",
        format_table(_CLASS_HEADERS, _class_rows(classes)),
    ]
    return "\n".join(lines)


def _markdown(rows, classes) -> str:
    def table(headers, body):
        out = [
            "| " + " | ".join(str(h) for h in headers) + " |",
            "|" + "|".join(" --- " for _ in headers) + "|",
        ]
        out += ["| " + " | ".join(str(c) for c in r) + " |" for r in body]
        return "\n".join(out)

    return (
        "# Corpus win/loss\n\n"
        "Per-class scorecard of the paper's classifier over the generated\n"
        f"kernel corpus ({len(rows)} kernels lowered from spec strings by\n"
        "`repro.frontend`), proposed flow vs the Sec. 5.1 baseline\n"
        f"schedule on the simulated {PLATFORM}.  Regenerate with\n"
        "`python -m repro.experiments` (full sizes; this file is not\n"
        "rewritten by `--fast` runs).\n\n"
        "For the `none` class the classifier applies no loop\n"
        "transformation; wins there come from the independent NT-store\n"
        "decision (Sec. 3.4) alone, while a loss would mean the\n"
        "classifier wrongly skipped a transformation.\n\n"
        "## Per-class summary\n\n"
        + table(_CLASS_HEADERS, _class_rows(classes))
        + "\n\n## Per-kernel results\n\n"
        + table(_KERNEL_HEADERS, _kernel_rows(rows))
        + "\n"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.corpus",
        description="Per-class win/loss of the classifier over the "
        "spec-lowered kernel corpus.",
    )
    parser.add_argument(
        "--fast", action="store_true", help="smoke sizes (never rewrites CORPUS.md)"
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
