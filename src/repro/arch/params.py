"""Architecture parameter dataclasses (paper Table 1 / Table 3).

Two levels of description are kept separate on purpose:

* :class:`CacheSpec` — geometry of a single cache level, in bytes.
* :class:`ArchSpec` — a whole platform: the cache hierarchy, the core/thread
  organisation, vector width and the latency/prefetcher model parameters that
  both the analytical model (Sec. 3) and the trace-driven simulator
  (:mod:`repro.sim`) consume.

All sizes are bytes; latencies are cycles.  The analytical model frequently
needs *elements* rather than bytes, so the specs expose helpers that take the
data-type size (``dts``) as an argument instead of baking one in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Tuple

from repro.util import ceil_div
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class CacheSpec:
    """Geometry and timing of one cache level.

    Attributes
    ----------
    size:
        Capacity in bytes.
    line_size:
        Cache line size in bytes.
    ways:
        Associativity (number of ways per set).
    latency:
        Load-to-use latency in cycles; used both as the simulator hit cost
        and as the ``a_i`` weight of the paper's Eq. 11.
    shared_by_cores:
        Number of cores sharing this level (1 = private).
    """

    size: int
    line_size: int
    ways: int
    latency: int
    shared_by_cores: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0 or self.line_size <= 0 or self.ways <= 0:
            raise ValidationError(
                "cache size, line size and ways must be positive"
            )
        if self.line_size & (self.line_size - 1):
            raise ValidationError(
                f"cache line size must be a power of two, got {self.line_size}"
            )
        if not 8 <= self.line_size <= 4096:
            raise ValidationError(
                f"cache line size {self.line_size}B is outside the plausible "
                f"8B..4096B range"
            )
        if self.size % (self.line_size * self.ways) != 0:
            raise ValidationError(
                f"cache size {self.size} is not a whole number of "
                f"{self.ways}-way sets of {self.line_size}B lines"
            )
        if self.latency <= 0:
            raise ValidationError(
                f"cache latency must be positive cycles, got {self.latency}"
            )
        if self.shared_by_cores <= 0:
            raise ValidationError(
                f"shared_by_cores must be positive, got {self.shared_by_cores}"
            )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines in this level."""
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (``size / (ways * line_size)``)."""
        return self.size // (self.ways * self.line_size)

    def elements_per_line(self, dts: int) -> int:
        """Number of ``dts``-byte elements in one cache line (paper's ``lc``)."""
        if dts <= 0:
            raise ValidationError(
                f"data type size must be positive, got {dts}"
            )
        return max(1, self.line_size // dts)

    def capacity_elements(self, dts: int) -> int:
        """How many ``dts``-byte elements fit in this level."""
        return self.size // dts


@dataclass(frozen=True)
class ArchSpec:
    """A complete platform description.

    The three platforms of the paper's Table 3 are built in
    :mod:`repro.arch.platforms`.

    Attributes
    ----------
    name:
        Human-readable platform name.
    l1, l2:
        Private cache levels (L2 may be shared on ARM; see
        ``l2_shared_across_cores``).
    l3:
        Optional shared last-level cache (the ARM A15 has none).
    n_cores:
        Physical cores (paper's ``NCores``).
    threads_per_core:
        Hardware threads per core (paper's ``Nthreads``).
    vector_width_bytes:
        Native SIMD width in bytes (32 for AVX2, 16 for NEON).
    l2_prefetches_per_access:
        Paper's ``L2pref``: lines the L2 streaming prefetcher requests per
        triggering access.
    l2_max_prefetch_distance:
        Paper's ``L2maxpref``: maximum distance (in lines) between the
        demand reference and a prefetched line (~20 on Intel).
    l2_shared_across_cores:
        When true (ARM A15), the effective associativity divisor in the
        model becomes ``n_cores`` instead of ``threads_per_core``
        (Sec. 5.1, Fig. 7 discussion).
    supports_nt_stores:
        Whether the ISA has vector non-temporal stores (false on the A15,
        which is why copy/mask are absent from Fig. 7).
    mem_latency:
        Main-memory access latency in cycles.
    freq_ghz:
        Clock frequency used to convert cycles to milliseconds.
    bw_bytes_per_cycle:
        Chip-wide sustainable DRAM bandwidth in bytes per core-clock
        cycle (the roofline floor shared by all cores).
    """

    name: str
    l1: CacheSpec
    l2: CacheSpec
    l3: Optional[CacheSpec]
    n_cores: int
    threads_per_core: int
    vector_width_bytes: int
    l2_prefetches_per_access: int = 2
    l2_max_prefetch_distance: int = 20
    l2_shared_across_cores: bool = False
    supports_nt_stores: bool = True
    mem_latency: int = 200
    freq_ghz: float = 3.0
    bw_bytes_per_cycle: float = 12.0

    def __post_init__(self) -> None:
        if self.n_cores <= 0 or self.threads_per_core <= 0:
            raise ValidationError("core and thread counts must be positive")
        if self.vector_width_bytes <= 0:
            raise ValidationError("vector width must be positive")
        if self.l1.size > self.l2.size:
            raise ValidationError(
                f"{self.name}: L1 ({self.l1.size}B) larger than L2 "
                f"({self.l2.size}B) is not a plausible hierarchy"
            )
        if self.l3 is not None and self.l3.size < self.l2.size:
            raise ValidationError(
                f"{self.name}: L3 ({self.l3.size}B) smaller than L2 "
                f"({self.l2.size}B) is not a plausible hierarchy"
            )
        if self.l1.line_size != self.l2.line_size:
            raise ValidationError(
                f"{self.name}: the model assumes one line size across "
                f"levels, got L1={self.l1.line_size}B L2={self.l2.line_size}B"
            )
        if self.mem_latency <= 0:
            raise ValidationError(
                f"memory latency must be positive cycles, got {self.mem_latency}"
            )
        if self.freq_ghz <= 0 or self.bw_bytes_per_cycle <= 0:
            raise ValidationError(
                "clock frequency and DRAM bandwidth must be positive"
            )
        if self.l2_prefetches_per_access < 0 or self.l2_max_prefetch_distance < 0:
            raise ValidationError(
                "prefetcher degree and distance must be non-negative"
            )

    # ----- derived quantities used by the analytical model -----

    @property
    def total_threads(self) -> int:
        """Total hardware threads (Eq. 13's ``Nthreads/core * Ncores``)."""
        return self.n_cores * self.threads_per_core

    def vector_lanes(self, dts: int) -> int:
        """SIMD lanes for ``dts``-byte elements."""
        return max(1, self.vector_width_bytes // dts)

    def lc(self, dts: int) -> int:
        """Elements per L1 cache line (paper's ``lc``)."""
        return self.l1.elements_per_line(dts)

    def cache_level(self, level: int) -> CacheSpec:
        """Return the :class:`CacheSpec` for level 1, 2 or 3."""
        if level == 1:
            return self.l1
        if level == 2:
            return self.l2
        if level == 3:
            if self.l3 is None:
                raise ValueError(f"{self.name} has no L3 cache")
            return self.l3
        raise ValueError(f"unknown cache level {level}")

    @property
    def levels(self) -> Tuple[CacheSpec, ...]:
        """All present cache levels, innermost first."""
        if self.l3 is None:
            return (self.l1, self.l2)
        return (self.l1, self.l2, self.l3)

    def effective_ways(self, level: int) -> int:
        """Effective associativity once sharing is accounted for.

        The paper divides ``Liway`` by the number of threads per core
        (SMT co-residency), except for a shared L2 (ARM) where the divisor
        becomes the number of cores.
        """
        spec = self.cache_level(level)
        if level == 2 and self.l2_shared_across_cores:
            divisor = self.n_cores
        else:
            divisor = self.threads_per_core
        return max(1, spec.ways // divisor)

    def access_cost(self, level: int) -> int:
        """The paper's ``a_i`` weight: access latency of level ``level``.

        ``level`` may be 1..3 or 4 for main memory.  When a platform has no
        L3 (ARM A15), level 3 falls through to main memory, which is what
        the weighted cost function degenerates to there.
        """
        if level == 4:
            return self.mem_latency
        if level == 3 and self.l3 is None:
            return self.mem_latency
        return self.cache_level(level).latency

    def with_overrides(self, **kwargs) -> "ArchSpec":
        """Return a copy with some fields replaced (for ablations/tests)."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Stable content hash of every model-relevant parameter.

        Two specs with equal fields — regardless of how they were built —
        share a fingerprint; any field change (cache geometry, prefetcher
        degree, thread counts...) produces a new one.  Used as the
        architecture half of content-addressed caches: the ``emu``
        memoization key and the persistent schedule cache
        (:mod:`repro.cache`).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            canonical = json.dumps(asdict(self), sort_keys=True)
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            # Frozen dataclasses only block attribute *assignment*; the
            # memo slot is invisible to ==/hash/asdict.
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def describe(self) -> str:
        """Multi-line human-readable summary (used by experiments)."""
        lines = [f"{self.name}:"]
        for i, spec in enumerate(self.levels, start=1):
            share = (
                f", shared by {spec.shared_by_cores} cores"
                if spec.shared_by_cores > 1
                else ""
            )
            lines.append(
                f"  L{i}: {spec.size // 1024}KB, {spec.ways}-way, "
                f"{spec.line_size}B lines, {spec.latency} cyc{share}"
            )
        lines.append(
            f"  cores={self.n_cores} x {self.threads_per_core} threads, "
            f"SIMD={self.vector_width_bytes}B, mem={self.mem_latency} cyc, "
            f"{self.freq_ghz} GHz"
        )
        return "\n".join(lines)
