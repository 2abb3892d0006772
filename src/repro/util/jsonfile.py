"""The one canonical JSON rendering: baselines (``BENCH_*.json``), tune
reports, the corpus manifest and every CLI ``--json`` print use it."""

from __future__ import annotations

import json


def canonical_json(document) -> str:
    """``document`` as ``indent=2, sort_keys=True`` JSON plus a newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_json(document, path: str) -> None:
    """Write :func:`canonical_json` of ``document`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document))
