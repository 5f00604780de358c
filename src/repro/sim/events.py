"""Discrete event records.

Beyond dense traces, experiments need *sparse* events: "tDVFS scaled
2.4 GHz → 2.2 GHz at t=412 s", "fan mode changed", "workload iteration
finished".  Table 1 of the paper literally counts frequency-change
events, so the event log is a first-class artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    """A single timestamped, categorized event.

    Attributes
    ----------
    time:
        Simulation time in seconds.
    category:
        Machine-friendly category string, e.g. ``"dvfs.change"``,
        ``"fan.mode"``, ``"workload.phase"``.
    source:
        Name of the emitting component (e.g. ``"node0.tdvfs"``).
    data:
        Free-form payload (old/new mode, phase name, ...).
    """

    time: float
    category: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        payload = ", ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        return f"[{self.time:10.3f}s] {self.category} ({self.source}) {payload}"


class EventLog:
    """Append-only, time-ordered list of :class:`Event` records."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def emit(
        self,
        time: float,
        category: str,
        source: str,
        **data: Any,
    ) -> Event:
        """Record and return a new event."""
        event = Event(time=time, category=category, source=source, data=data)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        t0: float = float("-inf"),
        t1: float = float("inf"),
    ) -> List[Event]:
        """Events matching the given category/source prefix and time range.

        ``category`` and ``source`` match by *prefix*, so
        ``filter(category="dvfs")`` catches both ``dvfs.change`` and
        ``dvfs.clamp``.
        """
        out = []
        for e in self._events:
            if category is not None and not e.category.startswith(category):
                continue
            if source is not None and not e.source.startswith(source):
                continue
            if not (t0 <= e.time <= t1):
                continue
            out.append(e)
        return out

    def count(self, category: str, source: Optional[str] = None) -> int:
        """Number of events whose category starts with ``category``."""
        return len(self.filter(category=category, source=source))
