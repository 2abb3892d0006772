"""Regenerators for every table and figure of the paper's evaluation.

Each module exposes ``run(...) -> dict`` printing the same rows/series the
paper reports and returning the raw numbers for tests and benches:

* :mod:`repro.experiments.platforms` — Table 3 (platform parameters).
* :mod:`repro.experiments.table4` — Table 4 (benchmarks + best times).
* :mod:`repro.experiments.table5` — Table 5 (optimizer runtime).
* :mod:`repro.experiments.fig4` — Fig. 4a/4b (relative throughput on the
  two Intel platforms, five techniques).
* :mod:`repro.experiments.fig5` — Fig. 5 (one-day autotuner vs proposed).
* :mod:`repro.experiments.fig6` — Fig. 6 (the effect of NT stores).
* :mod:`repro.experiments.fig7` — Fig. 7 (ARM Cortex-A15 results).
* :mod:`repro.experiments.table6` — Table 6 (TTS / TSS / proposed).
* :mod:`repro.experiments.corpus` — per-class win/loss of the classifier
  over the :mod:`repro.frontend` kernel corpus (writes the head of
  ``CORPUS.md``).
* :mod:`repro.experiments.mef` — the three-strategy table (tile vs
  multistride vs combined) over the corpus's ``mef`` family (writes its
  marked section of ``CORPUS.md``).

Shared machinery lives in :mod:`repro.experiments.harness`; knobs (trace
budget, autotuner evaluations, small sizes for smoke runs) are env-var
controlled — see :class:`repro.experiments.harness.ExperimentConfig`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ExperimentConfig",
    "TECHNIQUES",
    "clear_measure_cache",
    "mark_quarantined",
    "measure_case",
    "measure_key",
    "optimize_runtime",
    "optimize_runtime_key",
    "recording_cells",
    "schedules_for",
    "seed_measure_cache",
]

# The harness loads the optimizer, the baselines and the simulator;
# ``python -m repro`` registers the sweep flags without them.
__getattr__, __dir__ = lazy_exports(
    __name__, {name: "repro.experiments.harness" for name in __all__}
)
