"""Persistent cross-run schedule cache (content-addressed, checksummed).

The Algorithm 2/3 searches are deterministic functions of the algorithm,
the platform, and the optimizer options — so their results are cacheable
across processes and runs.  This package provides:

* :class:`ScheduleCache` — the JSONL store (journal-style durability,
  per-record checksums, replay-validated hits);
* :func:`func_fingerprint` / :func:`options_fingerprint` — the content
  hashes behind the cache key (the options half hashes
  :meth:`repro.options.OptimizeOptions.cache_dict`, the architecture
  half is :meth:`repro.arch.ArchSpec.fingerprint`).

Consumers: :func:`repro.robust.safe_optimize` (``cache=`` keyword), the
sweep runner (``schedule_cache=`` / ``--schedule-cache``), and the
:mod:`repro.bench` harness's warm-path measurements.
"""

from repro.cache.fingerprint import func_fingerprint, options_fingerprint
from repro._lazy import lazy_exports

# Spec lowering fingerprints every stage; only cache users need the store.
__getattr__, __dir__ = lazy_exports(__name__, {
    name: "repro.cache.store"
    for name in (
        "CACHE_FORMAT",
        "CacheStats",
        "ScheduleCache",
        "cache_key",
        "check_shard_caches",
        "shard_cache_path",
    )
})

__all__ = [
    "CACHE_FORMAT",
    "CacheStats",
    "ScheduleCache",
    "cache_key",
    "check_shard_caches",
    "func_fingerprint",
    "options_fingerprint",
    "shard_cache_path",
]


def optimize_options(**switches):
    """Deprecated spelling of ``OptimizeOptions(**switches).cache_dict()``.

    Not exported; it stays importable only because the benchmark's
    serving harness (``perfbench/serveload.py``) still calls it.
    """
    from repro.options import OptimizeOptions

    return OptimizeOptions(**switches).cache_dict()
