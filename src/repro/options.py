"""The consolidated optimizer-option surface: :class:`OptimizeOptions`.

Every switch that can influence one optimization run lives here, in one
frozen value object, instead of being spread across a half-dozen keyword
arguments on :class:`repro.api.OptimizeRequest`:

* the six **schedule-changing** switches (``use_nti``, ``parallelize``,
  ``vectorize``, ``exhaustive``, ``use_emu``, ``order_step``) — exactly
  the set the persistent :class:`repro.cache.ScheduleCache` and the
  serve-layer coalescing keys fingerprint;
* ``multistride`` — the multi-striding strategy (``"off"`` | ``"auto"`` |
  stream count ``>= 2``); schedule-changing and therefore
  fingerprint-bearing, but included in :meth:`cache_dict` **only when
  enabled**, so every pre-multistride fingerprint stays byte-identical;
* ``tracer`` — observability; deliberately **excluded** from
  :meth:`cache_dict` (tracing is bit-for-bit neutral by contract, see
  :mod:`repro.obs`).

:func:`repro.cache.fingerprint.optimize_options` delegates here, which
makes this class the single source of truth for option fingerprints:
the cache key, the serve coalesce key, and the fleet shard key all
derive from :meth:`cache_dict` of the same value object.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Union

__all__ = ["OptimizeOptions"]

#: The switches that can change the chosen schedule — the fingerprint set.
CACHE_KEYS = (
    "use_nti",
    "parallelize",
    "vectorize",
    "exhaustive",
    "use_emu",
    "order_step",
)


@dataclass(frozen=True)
class OptimizeOptions:
    """One optimizer configuration, hashable down to its cache identity.

    Attributes
    ----------
    use_nti / parallelize / vectorize / exhaustive / use_emu / order_step:
        The uniform switch set of the stage optimizers (paper ablations).
    multistride:
        ``"off"`` | ``"auto"`` | stream count ``>= 2``.
    tracer:
        Optional :class:`repro.obs.Tracer` installed for the run;
        bit-for-bit neutral, so not part of the cache identity.
    """

    use_nti: bool = True
    parallelize: bool = True
    vectorize: bool = True
    exhaustive: bool = False
    use_emu: bool = True
    order_step: bool = True
    multistride: Union[str, int] = "off"
    tracer: object = None

    def __post_init__(self) -> None:
        ms = self.multistride
        if isinstance(ms, bool) or not (
            ms in ("off", "auto") or (isinstance(ms, int) and ms >= 2)
        ):
            raise ValueError(
                f"multistride must be 'off', 'auto' or an int >= 2, "
                f"got {ms!r}"
            )

    def cache_dict(self) -> Dict[str, object]:
        """The canonical options dict — exactly the switches that can
        change the chosen schedule, nothing that cannot (tracers,
        deadlines).  This is the options half of every cache,
        coalescing and shard key.

        ``multistride`` joins the dict **only when enabled**: the default
        ``"off"`` is omitted so every pre-multistride fingerprint, cache
        entry, coalescing key and tune_id stays byte-identical."""
        d: Dict[str, object] = {
            key: bool(getattr(self, key)) for key in CACHE_KEYS
        }
        if self.multistride != "off":
            d["multistride"] = self.multistride
        return d

    def fingerprint(self) -> str:
        """SHA-256 of :meth:`cache_dict` (canonical JSON)."""
        from repro.cache.fingerprint import options_fingerprint

        return options_fingerprint(self.cache_dict())

    def replace(self, **overrides) -> "OptimizeOptions":
        """Copy with some fields replaced (runs validation again)."""
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise TypeError(
                f"unknown option(s) {unknown}; known: {sorted(known)}"
            )
        merged = {f.name: getattr(self, f.name) for f in fields(self)}
        merged.update(overrides)
        return OptimizeOptions(**merged)
