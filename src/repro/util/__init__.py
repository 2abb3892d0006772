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
from repro.util.jsonfile import canonical_json, write_json
from repro.util.workers import jobs_arg, resolve_workers

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
    "canonical_json",
    "write_json",
    "jobs_arg",
    "resolve_workers",
]
