"""Configuration for the table/figure regeneration benches.

Each bench regenerates one table or figure of the paper at the paper's
problem sizes (the simulator samples traces, so this is tractable) and
asserts its shape claims.  They are plain tests, kept out of the tier-1
suite by their directory; ``pytest benchmarks/ --durations=0`` reports
each regeneration's wall-clock.

Budget knobs (override via environment):

* ``REPRO_LINE_BUDGET``  — trace lines per nest (default here 40k),
* ``REPRO_AT_EVALS``     — autotuner budget standing in for "1 hour",
* ``REPRO_AT_EVALS_DAY`` — autotuner budget standing in for "1 day",
* ``REPRO_FAST=1``       — scaled-down problem sizes for smoke runs.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentConfig


def _default(name: str, value: str) -> None:
    os.environ.setdefault(name, value)


_default("REPRO_LINE_BUDGET", "30000")
_default("REPRO_AT_EVALS", "8")
_default("REPRO_AT_EVALS_DAY", "24")


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """One shared config so the cross-experiment measurement cache helps."""
    return ExperimentConfig()
