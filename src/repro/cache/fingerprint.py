"""Content fingerprints for the persistent schedule cache.

A cached schedule is only reusable when *everything* the optimizer read
is unchanged, so cache keys are built from three independent hashes:

* :func:`func_fingerprint` — the algorithm: the Func's name, output
  dtype, loop bounds, and every definition (left-hand variables,
  reduction variables with extents, the full right-hand expression tree,
  update flag) plus the shape/dtype/name of every buffer it reads.
  Expression nodes are immutable value objects with deterministic
  ``repr``s, which makes ``repr(rhs)`` a canonical structural encoding.
* :meth:`repro.arch.ArchSpec.fingerprint` — the platform: any field
  change (cache geometry, prefetcher degree, core/thread counts...)
  invalidates cached schedules for that platform.
* :func:`options_fingerprint` — the optimizer configuration that can
  change the chosen schedule
  (:meth:`repro.options.OptimizeOptions.cache_dict`).

All hashes are SHA-256 over :func:`repro.util.jsonl.compact_json`, the
encoding under every journal and cache record checksum.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.ir.expr import Access, Expr
from repro.ir.func import Func
from repro.util.jsonl import compact_json

__all__ = ["func_fingerprint", "options_fingerprint"]


def _sha256(payload) -> str:
    return hashlib.sha256(compact_json(payload).encode("utf-8")).hexdigest()


def _buffers_read(expr: Expr, out: Dict[str, Dict]) -> None:
    """Collect every buffer referenced by ``expr`` (first-seen order is
    irrelevant; the dict is serialized with sorted keys)."""
    if isinstance(expr, Access):
        buf = expr.buffer
        shape = getattr(buf, "shape", None)
        out.setdefault(
            buf.name,
            {
                "shape": list(shape) if shape is not None else None,
                "dtype": buf.dtype.name,
            },
        )
    for child in expr.children():
        _buffers_read(child, out)


def func_fingerprint(func: Func) -> str:
    """Stable content hash of everything the optimizer reads from ``func``.

    Two Funcs built independently from the same definition share a
    fingerprint; changing a bound, an index expression, a buffer shape or
    the dtype produces a new one.
    """
    buffers: Dict[str, Dict] = {}
    definitions: List[Dict] = []
    for definition in func.definitions:
        _buffers_read(definition.rhs, buffers)
        definitions.append(
            {
                "lhs": [v.name for v in definition.lhs_vars],
                "rvars": [
                    {"name": r.name, "extent": r.extent, "min": r.min}
                    for r in definition.rvars
                ],
                "rhs": repr(definition.rhs),
                "is_update": definition.is_update,
            }
        )
    bounds = {
        v.name: func.bound_of(v.name)
        for d in func.definitions
        for v in d.all_vars()
    }
    return _sha256(
        {
            "name": func.name,
            "dtype": func.dtype.name,
            "bounds": bounds,
            "definitions": definitions,
            "buffers": buffers,
        }
    )


def options_fingerprint(options: Dict) -> str:
    """Stable content hash of an optimizer-options dict."""
    return _sha256(options)
