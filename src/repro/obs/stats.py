"""Canonical search-candidate accounting shared by every optimizer.

Before this module existed, ``core.temporal``, ``core.spatial`` and
``baselines.tss``/``tts`` each kept a private ``candidates_evaluated``
integer — enough for Table 5's runtime model, useless for explaining
*why* a search rejected what it rejected.  :class:`CandidateStats` is
the one replacement: every search result carries one, and Table 5's
deterministic runtime model reads ``stats.considered`` — the exact same
count, byte for byte.

The companion :class:`CandidateCounter` bundles the stats object with a
tracer so a search makes a single call per candidate — or per block of
candidates, for Algorithm 2's array-priced tile grid; with the
:data:`~repro.obs.tracer.NULL_TRACER` installed that call is an integer
increment plus one attribute check.

Note the accounting contract: ``considered`` counts candidates the
search *evaluated* (exactly the legacy integer), and ``pruned`` breaks
down the evaluated-but-rejected subset by machine-readable reason.
Candidates excluded *before* evaluation — tiles above an Algorithm-1
``emu`` bound never enter the lattice — appear only in the trace (as
``search.bound`` / ``candidate.pruned(reason="emu_bound")`` events), so
the stats stay identical whether or not a tracer is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.tracer import current_tracer

__all__ = ["CandidateStats", "CandidateCounter"]


@dataclass
class CandidateStats:
    """What one candidate search did: volume and rejection breakdown."""

    #: Candidates evaluated (the legacy ``candidates_evaluated`` count).
    considered: int = 0
    #: Evaluated-but-rejected candidates, keyed by machine-readable
    #: reason (:data:`repro.obs.events.PRUNE_REASONS`).
    pruned: Dict[str, int] = field(default_factory=dict)

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned.values())

    @property
    def accepted(self) -> int:
        """Candidates that survived every constraint check."""
        return self.considered - self.pruned_total

    def to_dict(self) -> Dict:
        return {"considered": self.considered, "pruned": dict(self.pruned)}

    def describe(self) -> str:
        if not self.pruned:
            return f"{self.considered} candidates"
        reasons = ", ".join(
            f"{reason} {count}"
            for reason, count in sorted(self.pruned.items())
        )
        return f"{self.considered} candidates ({reasons} pruned)"


class CandidateCounter:
    """Per-search recorder: canonical stats plus optional trace output.

    One instance per search invocation; ``stats`` is handed to the
    result dataclass when the search finishes.
    """

    __slots__ = ("stats", "_tracer", "_phase", "_traced")

    def __init__(self, phase: str, tracer=None) -> None:
        self.stats = CandidateStats()
        self._tracer = tracer if tracer is not None else current_tracer()
        self._phase = phase
        self._traced = self._tracer.enabled

    def considered(self, n: int = 1) -> None:
        """``n`` candidates entered constraint checking / pricing."""
        self.stats.considered += n
        if self._traced:
            self._tracer.count(f"{self._phase}.candidates", n)

    def pruned(self, reason: str, n: int = 1, **attrs) -> None:
        """``n`` of the candidates just considered were rejected for
        ``reason``.

        Traced, each call also records one ``candidate.pruned`` event
        carrying ``attrs``, so a search that prices candidates in bulk
        replays one call per rejected candidate when tracing and passes
        ``n`` only when not.
        """
        pruned = self.stats.pruned
        pruned[reason] = pruned.get(reason, 0) + n
        if self._traced:
            self._tracer.count(f"{self._phase}.pruned.{reason}", n)
            self._tracer.event(
                "candidate.pruned",
                phase=self._phase,
                reason=reason,
                **attrs,
            )
