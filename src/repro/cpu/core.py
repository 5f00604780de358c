"""CPU execution model.

:class:`CpuCore` glues three things together each simulation tick:

1. the :class:`~repro.cpu.dvfs.Dvfs` actuator (what frequency are we
   at, and is any transition stall pending?),
2. the workload rank bound to this core (how much of the tick was the
   core busy, given that frequency?), and
3. utilization accounting (cumulative busy seconds) that
   utilization-driven governors like CPUSPEED sample.

The core itself has no thermal or electrical knowledge — the node
wiring feeds its utilization into the power model and the power into
the thermal package.
"""

from __future__ import annotations

from typing import Protocol

from ..errors import SimulationError
from ..sim.marker import coldpath, hotpath
from ..units import require_in_range
from .dvfs import Dvfs

__all__ = ["RankInterface", "CpuCore"]


class RankInterface(Protocol):
    """What a workload rank must expose to run on a :class:`CpuCore`.

    Implementations live in :mod:`repro.workloads`.
    """

    def advance(self, dt: float, frequency: float) -> float:
        """Advance the rank by ``dt`` seconds at ``frequency`` Hz.

        Returns the fraction of ``dt`` during which the core was busy
        (utilization in [0, 1]).
        """
        ...

    @property
    def finished(self) -> bool:
        """True once the rank's program has completed."""
        ...


class _IdleRank:
    """Built-in rank used when no workload is bound: the core idles."""

    def advance(self, dt: float, frequency: float) -> float:
        return 0.0

    @property
    def finished(self) -> bool:
        return False


class CpuCore:
    """One processor core executing a workload rank under DVFS.

    Parameters
    ----------
    dvfs:
        The core's frequency actuator.
    name:
        Identifier for error messages.
    """

    def __init__(self, dvfs: Dvfs, name: str = "core") -> None:
        self.dvfs = dvfs
        self.name = name
        self._rank: RankInterface = _IdleRank()
        self._utilization = 0.0
        self._busy_seconds = 0.0
        self._elapsed = 0.0
        self._retired_cycles = 0.0

    def bind_rank(self, rank: RankInterface) -> None:
        """Attach a workload rank; replaces any previous binding."""
        self._rank = rank

    @property
    def utilization(self) -> float:
        """Utilization over the most recent tick, in [0, 1]."""
        return self._utilization

    @property
    def busy_seconds(self) -> float:
        """Cumulative busy time since construction, seconds.

        Governors that measure utilization over their own interval
        (CPUSPEED) snapshot this counter and diff it.
        """
        return self._busy_seconds

    @property
    def retired_cycles(self) -> float:
        """Approximate work retired so far, in CPU cycles.

        Busy-time × frequency, accumulated per tick — the throughput
        proxy the emergency experiments use to compare how much *work*
        each control strategy salvaged, independent of wall time.
        """
        return self._retired_cycles

    @coldpath
    def _reject_dt(self, dt: float) -> None:
        raise SimulationError(f"core {self.name!r}: non-positive dt {dt!r}")

    @coldpath
    def _reject_utilization(self, util: float) -> None:
        require_in_range(
            util, 0.0, 1.0, f"utilization from rank on {self.name!r}"
        )

    @hotpath
    def step(self, t: float, dt: float) -> None:
        """Advance one tick: consume DVFS stall, then run the rank."""
        if dt <= 0:
            self._reject_dt(dt)
        dvfs = self.dvfs
        rank = self._rank
        frequency = dvfs.frequency
        dvfs.note_time(t)
        stall = dvfs.consume_stall(dt)
        dt_work = dt - stall
        util_work = 0.0
        if dt_work > 0 and not rank.finished:
            util_work = rank.advance(dt_work, frequency)
            if not (0.0 <= util_work <= 1.0):
                self._reject_utilization(util_work)
            util_work = float(util_work)
        # A stalled pipeline reads as busy to the OS (it is not idle),
        # so the stall contributes to utilization but not to progress.
        busy = util_work * dt_work + stall
        self._utilization = busy / dt
        self._busy_seconds += busy
        self._elapsed += dt
        self._retired_cycles += util_work * dt_work * frequency
