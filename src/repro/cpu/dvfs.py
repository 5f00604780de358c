"""The in-band actuator: dynamic voltage and frequency scaling.

:class:`Dvfs` owns the processor's current P-state and is the *only*
way governors change it.  It models the two properties the paper's
evaluation leans on:

* **Transition cost** — a P-state switch stalls the pipeline for a
  short latency (voltage ramp + PLL relock, ~100 µs on K8).  During the
  stall no work retires, so pathological governors that flap between
  states (CPUSPEED in Table 1 flaps 101–139 times) pay a real, if
  small, performance tax.
* **Change accounting** — every transition is counted and logged;
  Table 1's "# freq changes" column and the trigger-time analysis of
  Figure 10 come straight from this log.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ActuatorError
from ..sim.events import EventLog
from ..units import require_non_negative
from .pstate import PState, PStateTable

__all__ = ["Dvfs", "GangedDvfs"]


class Dvfs:
    """P-state switch with latency modelling and change accounting.

    Parameters
    ----------
    table:
        The processor's P-state ladder (fastest first).
    transition_latency:
        Pipeline stall per switch, seconds.
    events:
        Optional event log; transitions are emitted as
        ``dvfs.change`` events.
    name:
        Source name used in emitted events.
    """

    def __init__(
        self,
        table: PStateTable,
        transition_latency: float = 1.0e-4,
        events: Optional[EventLog] = None,
        name: str = "dvfs",
    ) -> None:
        self.table = table
        self.transition_latency = require_non_negative(
            transition_latency, "transition_latency"
        )
        self._events = events
        self.name = name
        self._index = 0
        self._pstate = table[0]
        self._change_count = 0
        self._stall_remaining = 0.0
        self._now = 0.0

    # -- state -----------------------------------------------------------

    @property
    def index(self) -> int:
        """Current P-state index (0 = fastest)."""
        return self._index

    @property
    def pstate(self) -> PState:
        """Current operating point (kept by :meth:`set_index`)."""
        return self._pstate

    @property
    def frequency(self) -> float:
        """Current core clock in Hz."""
        return self._pstate.frequency

    # -- actuation ------------------------------------------------------------

    def set_index(self, index: int, t: Optional[float] = None) -> bool:
        """Switch to P-state ``index``; returns True if a change occurred.

        The only writer of the current index, and of the operating
        point :attr:`pstate` reads.

        Raises
        ------
        ActuatorError
            If ``index`` is outside the ladder.
        """
        if not 0 <= index < len(self.table):
            raise ActuatorError(
                f"P-state index {index} out of range [0, {len(self.table) - 1}]"
            )
        if index == self._index:
            return False
        old = self._pstate
        self._index = index
        self._pstate = self.table[index]
        self._change_count += 1
        self._stall_remaining += self.transition_latency
        when = self._now if t is None else t
        if self._events is not None:
            self._events.emit(
                when,
                "dvfs.change",
                self.name,
                old_ghz=old.frequency_ghz,
                new_ghz=self._pstate.frequency_ghz,
                old_index=self.table.index_of_frequency(old.frequency),
                new_index=index,
            )
        return True

    def step_down(self, t: Optional[float] = None) -> bool:
        """Move one P-state slower, if possible; returns True on change."""
        if self._index + 1 < len(self.table):
            return self.set_index(self._index + 1, t)
        return False

    # -- time ------------------------------------------------------------

    def note_time(self, t: float) -> None:
        """Inform the actuator of the current simulation time.

        Lets governors call :meth:`set_index` without threading time
        through every call site.
        """
        self._now = t

    def consume_stall(self, dt: float) -> float:
        """Consume up to ``dt`` seconds of pending transition stall.

        Returns the stall time actually consumed within this interval;
        the CPU core subtracts it from the time available for retiring
        work.
        """
        consumed = min(self._stall_remaining, dt)
        self._stall_remaining -= consumed
        return consumed


class GangedDvfs(Dvfs):
    """A lead DVFS domain that drags follower domains with it.

    Heterogeneous parts expose several DVFS domains (one per core
    class), but the paper's governors actuate a single ladder.  The
    lead domain (class 0) is what they see; every index change is
    propagated to each follower domain at the *proportionally
    equivalent* rung of its own ladder, so ladders of different
    lengths track together: lead index ``i`` of ``N`` maps to follower
    index ``round(i · (M−1)/(N−1))`` of ``M``.  Fastest maps to
    fastest, slowest to slowest — a PROCHOT clamp on the lead slams
    every class to its floor.

    Followers are ordinary :class:`Dvfs` objects with their own change
    accounting and event names; only the lead's events carry the
    ``node<i>.dvfs`` source the Table-1 change counts are drawn from.
    """

    def __init__(
        self,
        table: PStateTable,
        followers: Sequence[Dvfs] = (),
        transition_latency: float = 1.0e-4,
        events: Optional[EventLog] = None,
        name: str = "dvfs",
    ) -> None:
        super().__init__(
            table,
            transition_latency=transition_latency,
            events=events,
            name=name,
        )
        self.followers = tuple(followers)

    def set_index(self, index: int, t: Optional[float] = None) -> bool:
        changed = super().set_index(index, t)
        if changed:
            span = len(self.table) - 1
            for follower in self.followers:
                mapped = round(self._index * (len(follower.table) - 1) / span)
                follower.set_index(int(mapped), t)
        return changed

    def note_time(self, t: float) -> None:
        super().note_time(t)
        for follower in self.followers:
            follower.note_time(t)
