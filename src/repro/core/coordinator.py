"""Multi-technique coordination under one shared policy.

The paper's coordination model is deliberately simple: every technique
gets a control array filled from the *same* ``P_p`` ("we fill out the
arrays in a unified way"), and the techniques' natural cost ordering —
out-of-band first, in-band only when needed — emerges from their
trigger conditions rather than a central arbiter.  The
:class:`Coordinator` packages that: it owns a shared
:class:`~repro.core.policy.Policy`, registers techniques in cost order,
fans sensor samples out to all of them, and reports a combined
inventory (who changed what, when) that the hybrid experiments mine for
trigger-time analysis.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.events import EventLog
from .policy import Policy

__all__ = [
    "Coordinator",
    "SampleSink",
]

#: A technique: anything accepting (t, temperature) samples.
SampleSink = Callable[[float, float], object]


class Coordinator:
    """Shared-policy fan-out over several thermal control techniques.

    Parameters
    ----------
    policy:
        The single user policy all registered techniques must share.
    events:
        Optional shared event log.
    name:
        Source name for coordinator-level events.
    """

    def __init__(
        self,
        policy: Policy,
        events: Optional[EventLog] = None,
        name: str = "coordinator",
    ) -> None:
        self.policy = policy
        self.events = events
        self.name = name
        self._techniques: List[Tuple[str, SampleSink, int]] = []

    def register(
        self, label: str, sink: SampleSink, cost_rank: int
    ) -> None:
        """Register a technique.

        Parameters
        ----------
        label:
            Technique name ("fan", "dvfs", ...), unique.
        sink:
            Sample receiver, typically a bound
            ``UnifiedThermalController.push_sample`` or a governor's
            ``on_sample``.
        cost_rank:
            Performance cost ordering: 0 = free (out-of-band), higher =
            costlier (in-band).  Samples are delivered cheapest-first,
            mirroring the paper's "fan if possible, DVFS when
            necessary" strategy.
        """
        if any(lbl == label for lbl, _, _ in self._techniques):
            raise ConfigurationError(f"technique {label!r} registered twice")
        self._techniques.append((label, sink, cost_rank))
        self._techniques.sort(key=lambda item: item[2])

    def on_sample(self, t: float, temperature: float) -> None:
        """Deliver one sensor sample to every technique, cheapest first."""
        for _, sink, _ in self._techniques:
            sink(t, temperature)

    def __len__(self) -> int:
        return len(self._techniques)
