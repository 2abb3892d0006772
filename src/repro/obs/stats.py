"""Canonical search-candidate accounting shared by every optimizer.

Before this module existed, ``core.temporal``, ``core.spatial`` and
``baselines.tss``/``tts`` each kept a private ``candidates_evaluated``
integer — enough for Table 5's runtime model, useless for explaining
*why* a search rejected what it rejected.  :class:`CandidateStats` is
the one replacement: every search result carries one, and Table 5's
deterministic runtime model reads ``stats.considered`` — the exact same
count, byte for byte.

The companion :class:`CandidateCounter` is the one accounting path,
the same traced and untraced: during the search ``considered(n)`` and
``pruned(reason, n)`` are plain integer adds — per candidate, or per
block of candidates for Algorithm 2's array-priced tile grid.  When the
search's ``with`` block ends, a traced counter bumps the
``<phase>.candidates`` and ``<phase>.pruned.<reason>`` tracer counters
and emits one ``candidate.pruned`` event per reason carrying its
``count``.

Note the accounting contract: ``considered`` counts candidates the
search *evaluated* (exactly the legacy integer), and ``pruned`` breaks
down the evaluated-but-rejected subset by machine-readable reason.
Tiles above an Algorithm-1 ``emu`` bound never enter the lattice; the
trace records those caps as ``search.bound`` events, so the stats stay
identical whether or not a tracer is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.events import EVENT_CANDIDATE_PRUNED, REASON_DEADLINE
from repro.obs.tracer import current_tracer
from repro.util import DeadlineExceeded, checkpoint

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
    """Per-search recorder: canonical stats, reported once on exit.

    One instance per search invocation, used as a context manager that
    closes inside the search's span; ``stats`` is handed to the result
    dataclass when the search finishes.
    """

    __slots__ = ("stats", "_tracer", "_phase")

    def __init__(self, phase: str, tracer=None) -> None:
        self.stats = CandidateStats()
        self._tracer = tracer if tracer is not None else current_tracer()
        self._phase = phase

    def __enter__(self) -> "CandidateCounter":
        return self

    def __exit__(self, *_exc) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        phase, stats = self._phase, self.stats
        if stats.considered:
            tracer.count(f"{phase}.candidates", stats.considered)
        for reason, n in stats.pruned.items():
            tracer.count(f"{phase}.pruned.{reason}", n)
            tracer.event(
                EVENT_CANDIDATE_PRUNED, phase=phase, reason=reason, count=n
            )

    def considered(self, n: int = 1) -> None:
        """``n`` candidates entered constraint checking / pricing."""
        self.stats.considered += n

    def pruned(self, reason: str, n: int = 1) -> None:
        """``n`` of the candidates considered were rejected for
        ``reason``."""
        pruned = self.stats.pruned
        pruned[reason] = pruned.get(reason, 0) + n

    def checkpoint(self, stage: str) -> None:
        """Cooperative deadline probe; traced, an expiry is recorded as
        one ``candidate.pruned`` event with reason ``deadline``."""
        try:
            checkpoint(stage)
        except DeadlineExceeded:
            if self._tracer.enabled:
                self._tracer.event(
                    EVENT_CANDIDATE_PRUNED,
                    phase=self._phase,
                    reason=REASON_DEADLINE,
                    count=1,
                )
            raise
