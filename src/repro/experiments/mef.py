"""Three-strategy table: tile-only vs multistride-only vs combined.

For every stage of every ``mef``-family corpus kernel (the
multi-striding evaluation set of Blom et al., lowered from spec strings
like the rest of the corpus), this regenerator runs the paper's
optimizer to obtain the ``tile`` incumbent and then asks the three-way
classifier (:func:`repro.multistride.decide_strategy`) to price the
feasible ``multistride``/``combined`` challengers on the dedicated
pricing machine.  The published table therefore *is* the classifier's
argmin — same candidates, same machine, same margins — not a parallel
re-derivation that could drift.  The classifier does not simulate an
unopposed incumbent, so for those stages the regenerator prices the
``tile`` schedule itself, on the same machine, to fill its column.

Everything is deterministic (the pricing machine has a fixed line
budget, the stream model has no randomness), so two runs of ::

    python -m repro.experiments.mef

produce bit-identical tables; CI's ``multistride-smoke`` job compares a
5-kernel sweep run twice, byte for byte.  On full-size runs the rendered
markdown replaces the marked section at the end of ``CORPUS.md``
(:func:`~repro.experiments.harness.write_corpus`; ``--fast`` and
``--only`` runs never rewrite it).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.arch import platform_by_name
from repro.core import optimize
from repro.experiments.harness import (
    ExperimentConfig,
    format_table,
    markdown_table,
    select_kernels,
    study_main,
    write_corpus,
)
from repro.frontend.corpus import CORPUS
from repro.multistride import (
    STRATEGY_COMBINED,
    STRATEGY_MULTISTRIDE,
    STRATEGY_TILE,
    decide_strategy,
    pricing_machine,
)

PLATFORM = "i7-5930k"

#: Family this regenerator sweeps.
FAMILY = "mef"

#: The marked section of ``CORPUS.md`` that holds the committed table
#: (regenerated on full runs only).
SECTION = "mef-three-strategy"

STRATEGIES = (STRATEGY_TILE, STRATEGY_MULTISTRIDE, STRATEGY_COMBINED)


def run(
    *,
    config: Optional[ExperimentConfig] = None,
    echo: bool = True,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, Dict]:
    """Classify every ``mef`` stage; returns ``{"kernel/stage": row}``
    plus the per-strategy aggregate under the ``"strategies"`` key.

    ``only`` restricts the run to the named kernels (CI smoke subsets);
    restricted and ``--fast`` runs never rewrite the committed table.
    """
    config = config or ExperimentConfig()
    arch = platform_by_name(PLATFORM)
    machine = pricing_machine(arch)

    family = [kernel for kernel in CORPUS if kernel.family == FAMILY]
    rows: Dict[str, Dict] = {}
    for kernel in select_kernels(family, only, FAMILY):
        case = kernel.case(fast=config.fast)
        for stage in case.funcs:
            tile = optimize(stage, arch).schedule
            decision = decide_strategy(stage, arch, tile, machine=machine)
            # The classifier does not simulate an unopposed incumbent; the
            # table still publishes its cost, priced on the same machine.
            costs = dict(decision.costs) or {
                STRATEGY_TILE: machine.time_funcs([(stage, tile)])
            }
            label = (
                kernel.name
                if len(case.funcs) == 1
                else f"{kernel.name}/{stage.name}"
            )
            rows[label] = {
                "kernel": kernel.name,
                "stage": stage.name,
                "strategy": decision.strategy,
                "streams": decision.streams,
                "loop": decision.loop,
                "costs": costs,
            }

    strategies: Dict[str, Dict] = {
        name: {"stages": 0, "kernels": []} for name in STRATEGIES
    }
    for label, row in rows.items():
        agg = strategies[row["strategy"]]
        agg["stages"] += 1
        agg["kernels"].append(label)

    if echo:
        print(_render(rows, strategies, config))
    if not config.fast and only is None:
        write_corpus(_markdown(rows, strategies), SECTION)
    return {**rows, "strategies": strategies}


def _cost(row, name) -> str:
    value = row["costs"].get(name)
    return "—" if value is None else f"{value:.4f}"


def _rewrite(row) -> str:
    if row["strategy"] == STRATEGY_TILE:
        return "—"
    return f"{row['loop']} x{row['streams']}"


def _stage_rows(rows):
    return [
        (
            label,
            _cost(row, STRATEGY_TILE),
            _cost(row, STRATEGY_MULTISTRIDE),
            _cost(row, STRATEGY_COMBINED),
            row["strategy"],
            _rewrite(row),
        )
        for label, row in rows.items()
    ]


def _strategy_rows(strategies):
    return [
        (
            name,
            strategies[name]["stages"],
            ", ".join(strategies[name]["kernels"]) or "—",
        )
        for name in STRATEGIES
    ]


_STAGE_HEADERS = (
    "kernel", "tile ms", "multistride ms", "combined ms", "chosen", "rewrite"
)
_STRATEGY_HEADERS = ("strategy", "stages", "chosen for")


def _render(rows, strategies, config) -> str:
    sizes = "smoke sizes" if config.fast else "corpus sizes"
    lines = [
        f"Three-strategy classification — {PLATFORM} ({sizes}), "
        f"{len(rows)} stages ({FAMILY} family)",
        format_table(_STAGE_HEADERS, _stage_rows(rows)),
        "",
        "Per-strategy summary:",
        format_table(_STRATEGY_HEADERS, _strategy_rows(strategies)),
    ]
    return "\n".join(lines)


def _markdown(rows, strategies) -> str:
    return (
        "## Multi-striding: three-strategy classification\n\n"
        "Per-stage verdict of the three-way strategy classifier\n"
        "(`repro.multistride`) over the `mef` family: the main\n"
        "optimizer's schedule (*tile*), the best feasible\n"
        "`multistride(loop, K)` on the untransformed schedule\n"
        "(*multistride*), and multistride applied on top of the tiled\n"
        f"schedule (*combined*), priced on the simulated {PLATFORM}\n"
        "with the multi-stream detector enabled.  `—` marks strategies\n"
        "with no feasible candidate.  Regenerate with\n"
        "`python -m repro.experiments.mef` (full sizes; `--fast` and\n"
        "`--only` runs never rewrite this section).\n\n"
        + markdown_table(_STAGE_HEADERS, _stage_rows(rows))
        + "\n\n### Per-strategy summary\n\n"
        + markdown_table(_STRATEGY_HEADERS, _strategy_rows(strategies))
        + "\n"
    )


if __name__ == "__main__":
    study_main(
        run,
        prog="python -m repro.experiments.mef",
        description="Three-way tile/multistride/combined classification "
        "over the mef corpus family.",
    )
