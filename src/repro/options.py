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
  fingerprint-bearing, but included in :meth:`~OptimizeOptions.cache_dict`
  **only when enabled**, so every pre-multistride fingerprint stays
  byte-identical;
* ``tracer`` — observability; deliberately **excluded** from
  :meth:`~OptimizeOptions.cache_dict` (tracing is bit-for-bit neutral by
  contract, see :mod:`repro.obs`).

This module is the single source of truth for the set:

* :meth:`OptimizeOptions.from_dict` is the one parser of option dicts —
  the serve wire, the tune grid and records, sweep journal cells and
  ``repro tune --vary`` all read their switches through it;
* :meth:`OptimizeOptions.cache_dict` is the options half of every cache,
  coalescing, shard and tune key;
* :meth:`OptimizeOptions.flow_kwargs` spells the set as the keywords of
  :func:`repro.core.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping, Union

__all__ = ["CACHE_KEYS", "OPTION_KEYS", "OptimizeOptions"]

#: The boolean switches that can change the chosen schedule.
CACHE_KEYS = (
    "use_nti",
    "parallelize",
    "vectorize",
    "exhaustive",
    "use_emu",
    "order_step",
)

#: Every key an option dict may carry: the switches plus ``multistride``.
OPTION_KEYS = CACHE_KEYS + ("multistride",)


def _is_multistride(value) -> bool:
    """The ``multistride`` value rule: ``"off"``, ``"auto"`` or an int >= 2."""
    return not isinstance(value, bool) and (
        value in ("off", "auto") or (isinstance(value, int) and value >= 2)
    )


@dataclass(frozen=True)
class OptimizeOptions:
    """One optimizer configuration, hashable down to its cache identity.

    Attributes
    ----------
    use_nti / parallelize / vectorize / exhaustive / use_emu / order_step:
        The uniform switch set of the stage optimizers (paper ablations);
        each must be a ``bool``.
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
        for key in CACHE_KEYS:
            value = getattr(self, key)
            if not isinstance(value, bool):
                raise ValueError(
                    f"option {key!r} must be a boolean, got {value!r}"
                )
        if not _is_multistride(self.multistride):
            raise ValueError(
                f"multistride must be 'off', 'auto' or an int >= 2, "
                f"got {self.multistride!r}"
            )

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "OptimizeOptions":
        """Parse an option dict (wire, journal or grid overlay).

        Accepts exactly the :data:`OPTION_KEYS`; missing keys take their
        defaults.  Raises :class:`ValueError` with the serve wire's 400
        text on an unknown key, a non-bool switch, or a ``multistride``
        outside ``"off"`` | ``"auto"`` | int ``>= 2``.
        """
        unknown = sorted(set(raw) - set(OPTION_KEYS))
        if unknown:
            raise ValueError(
                f"unknown option(s) {unknown}; known: {list(OPTION_KEYS)}"
            )
        if "multistride" in raw and not _is_multistride(raw["multistride"]):
            raise ValueError(
                f"option 'multistride' must be 'off', 'auto' or an "
                f"integer >= 2, got {raw['multistride']!r}"
            )
        return cls(**raw)

    def cache_dict(self) -> Dict[str, object]:
        """The canonical options dict — exactly the switches that can
        change the chosen schedule, nothing that cannot (tracers,
        deadlines).  This is the options half of every cache,
        coalescing and shard key.

        ``multistride`` joins the dict **only when enabled**: the default
        ``"off"`` is omitted so every pre-multistride fingerprint, cache
        entry, coalescing key and tune_id stays byte-identical."""
        d: Dict[str, object] = {key: getattr(self, key) for key in CACHE_KEYS}
        if self.multistride != "off":
            d["multistride"] = self.multistride
        return d

    def flow_kwargs(self) -> Dict[str, object]:
        """Every field, spelled as the :func:`repro.core.optimize` (and
        ``optimize_pipeline``) keyword of the same name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

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
        merged = self.flow_kwargs()
        merged.update(overrides)
        return OptimizeOptions(**merged)
