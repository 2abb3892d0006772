"""Trace-driven cache-hierarchy simulator with hardware prefetchers.

This package is the reproduction's stand-in for the silicon of the paper's
three evaluation platforms.  It models the mechanisms the paper's analytical
model reasons about:

* set-associative, LRU caches at up to three levels
  (:mod:`repro.cachesim.cache`),
* a next-line *streaming* prefetcher at L1 and L2 and a *constant-stride*
  prefetcher that fills the outer levels (:mod:`repro.cachesim.prefetch`),
* non-temporal stores that bypass the hierarchy
  (:mod:`repro.cachesim.hierarchy`),
* per-level hit/miss/prefetch statistics (:mod:`repro.cachesim.stats`).

Addresses are **cache-line granular**: the trace generator already collapses
element accesses onto lines, so one simulated access is one line touch.
"""

from repro.cachesim.cache import SetAssocCache
from repro.cachesim.prefetch import (
    MultiStreamPrefetcher,
    NextLinePrefetcher,
    StreamModelParams,
    StreamTableStats,
    StridePrefetcher,
)
from repro.cachesim.hierarchy import (
    LOAD,
    NT_STORE,
    STORE,
    AccessResult,
    CacheHierarchy,
    access_kind,
)
from repro.cachesim.stats import LevelStats, HierarchyStats

__all__ = [
    "SetAssocCache",
    "MultiStreamPrefetcher",
    "NextLinePrefetcher",
    "StreamModelParams",
    "StreamTableStats",
    "StridePrefetcher",
    "CacheHierarchy",
    "AccessResult",
    "LOAD",
    "STORE",
    "NT_STORE",
    "access_kind",
    "LevelStats",
    "HierarchyStats",
]
