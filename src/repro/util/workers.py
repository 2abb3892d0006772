"""Worker-count normalization shared by every process- or thread-level
pool knob (``OptimizeServer(workers=)``, ``repro sweep --jobs``) and by
the validation of the no-op ``jobs`` field on the serve wire, plus the argparse type every such flag parses with."""

from __future__ import annotations

import os

#: Upper bound for the ``0`` / ``"auto"`` spelling.
MAX_AUTO_WORKERS = 8


def resolve_workers(value, *, name: str = "workers") -> int:
    """Normalize a worker-count request to a concrete positive count.

    ``0`` and the string ``"auto"`` both mean ``os.cpu_count()`` capped
    at :data:`MAX_AUTO_WORKERS` (and at least 1); positive integers are
    taken literally; negatives, floats, booleans and other strings raise
    :class:`ValueError` whose message starts with ``name``.
    """
    if value != "auto":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{name} must be an integer >= 0 or 'auto', got {value!r}"
            )
        if value < 0:
            raise ValueError(f"{name} must be >= 0 (0 = auto), got {value}")
        if value > 0:
            return value
    return max(1, min(MAX_AUTO_WORKERS, os.cpu_count() or 1))


def jobs_arg(value: str):
    """argparse type for ``--jobs``/``--workers``: an integer or ``auto``.

    Only the spelling is checked here; the range is left to
    :func:`resolve_workers`, so ``--jobs -1`` parses and then fails as
    one ``invalid options:`` line.
    """
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        import argparse  # only the CLIs pay for it; `import repro` does not

        raise argparse.ArgumentTypeError(
            f"must be an integer or 'auto', got {value!r}"
        ) from None
