"""The paper's contribution: prefetcher-aware loop-transformation selection.

Modules follow the paper's structure:

* :mod:`repro.core.classify` — Sec. 3.1 / Fig. 2: decide temporal vs
  spatial vs no transformation, and whether non-temporal stores apply.
* :mod:`repro.core.emu` — Algorithm 1: the cache-emulation routine that
  upper-bounds tile dimensions so no interference (conflict) misses occur,
  prefetched lines included.
* :mod:`repro.core.costs` — the analytical cost equations: working sets
  (Eqs. 1, 6, 18, 19), prefetch-aware cold-miss counts (Eqs. 2–10), the
  weighted total (Eq. 11), the loop-distance cost (Eq. 12) and the spatial
  partial costs (Eqs. 14–17).
* :mod:`repro.core.temporal` — Algorithm 2: tile-size + loop-order search
  for temporal reuse.
* :mod:`repro.core.spatial` — Algorithm 3: tile-size search for
  self-spatial reuse under transposition.
* :mod:`repro.core.standard` — Sec. 3.4: parallelization, vectorization
  and non-temporal stores.
* :mod:`repro.core.optimizer` — Fig. 1: the end-to-end flow producing a
  :class:`~repro.ir.schedule.Schedule`.
"""

from repro._lazy import lazy_exports

#: Each public name and the module that defines it, imported on first use
#: (PEP 562): ``repro.core.exitcodes`` serves every CLI and loads neither
#: numpy nor the optimizer.
_EXPORTS = {
    "Locality": "repro.core.classify",
    "Classification": "repro.core.classify",
    "classify": "repro.core.classify",
    "emu": "repro.core.emu",
    "emu_l1": "repro.core.emu",
    "emu_l2": "repro.core.emu",
    "EmuParams": "repro.core.emu",
    "RefPattern": "repro.core.costs",
    "extract_patterns": "repro.core.costs",
    "level1_misses": "repro.core.costs",
    "level2_misses": "repro.core.costs",
    "working_set_l1": "repro.core.costs",
    "working_set_l2": "repro.core.costs",
    "total_cost": "repro.core.costs",
    "order_cost": "repro.core.costs",
    "spatial_partial_cost": "repro.core.costs",
    "spatial_working_sets": "repro.core.costs",
    "TemporalResult": "repro.core.temporal",
    "optimize_temporal": "repro.core.temporal",
    "SpatialResult": "repro.core.spatial",
    "optimize_spatial": "repro.core.spatial",
    "OptimizationResult": "repro.core.optimizer",
    "optimize": "repro.core.optimizer",
    "optimize_pipeline": "repro.core.optimizer",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
