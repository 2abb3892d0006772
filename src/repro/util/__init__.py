"""Small shared helpers used across the reproduction packages."""

from repro.util.errors import (
    ReproError,
    ScheduleError,
    ClassificationError,
    SimulationError,
    ValidationError,
    DeadlineExceeded,
    ServeError,
    ServeOverloaded,
)
from repro.util.deadline import (
    Deadline,
    active_deadline,
    checkpoint,
    current_deadline,
)
from repro.util.numbers import (
    ceil_div,
    divisors,
    pow2_range,
    tile_candidates,
    clamp,
)
from repro.util.workers import resolve_workers

__all__ = [
    "ReproError",
    "ScheduleError",
    "ClassificationError",
    "SimulationError",
    "ValidationError",
    "DeadlineExceeded",
    "ServeError",
    "ServeOverloaded",
    "Deadline",
    "active_deadline",
    "checkpoint",
    "current_deadline",
    "ceil_div",
    "divisors",
    "pow2_range",
    "tile_candidates",
    "clamp",
    "resolve_workers",
]
