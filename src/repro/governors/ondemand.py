"""The Linux *ondemand* cpufreq governor — a second in-band baseline.

By the paper's publication date, ``ondemand`` (Pallipadi & Starikovskiy,
OLS 2006) was displacing the userspace CPUSPEED daemon it evaluates
against.  It is behaviourally close but not identical:

* runs at a much shorter sampling period (we default 100 ms vs
  CPUSPEED's 250 ms);
* above ``up_threshold`` utilization it jumps straight to the maximum
  frequency (same as CPUSPEED);
* below it, instead of stepping one P-state at a time, it picks the
  *lowest frequency that would keep utilization just under the
  threshold* — proportional down-scaling:
  ``f_target = f_current · util / up_threshold``;
* it has **no temperature input at all**.

Including it lets users ask the natural follow-up the paper doesn't:
does a smarter utilization governor change the thermal story?  (It
doesn't — it flaps less than CPUSPEED but still lets the plant run away
under a weak fan, because nothing in it looks at a thermometer.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cpu.core import CpuCore
from ..sim.events import EventLog
from ..units import require_in_range, require_positive
from .base import Governor

__all__ = ["OndemandParams", "Ondemand"]


@dataclass(frozen=True)
class OndemandParams:
    """Governor tuning (defaults mirror the kernel's).

    Attributes
    ----------
    sampling_period:
        Utilization evaluation period, seconds.
    up_threshold:
        Utilization at/above which the governor snaps to max (kernel
        default 80 %... up to 95 % in later kernels; 0.80 here).
    """

    sampling_period: float = 0.10
    up_threshold: float = 0.80

    def __post_init__(self) -> None:
        require_positive(self.sampling_period, "sampling_period")
        require_in_range(self.up_threshold, 0.05, 1.0, "up_threshold")


class Ondemand(Governor):
    """Proportional utilization-driven frequency governor.

    Parameters
    ----------
    core:
        The governed CPU core.
    params:
        Governor tuning.
    events:
        Shared event log (transitions logged by the Dvfs actuator).
    """

    def __init__(
        self,
        core: CpuCore,
        params: Optional[OndemandParams] = None,
        events: Optional[EventLog] = None,
        name: str = "ondemand",
    ) -> None:
        p = params if params is not None else OndemandParams()
        super().__init__(name=name, period=p.sampling_period)
        self.core = core
        self.params = p
        self.events = events
        self._busy_snapshot = 0.0
        self._time_snapshot: Optional[float] = None

    def start(self, t: float) -> None:
        self._busy_snapshot = self.core.busy_seconds
        self._time_snapshot = t

    def _interval_utilization(self, t: float) -> float:
        if self._time_snapshot is None:
            self._time_snapshot = t
            self._busy_snapshot = self.core.busy_seconds
            return 0.0
        elapsed = t - self._time_snapshot
        if elapsed <= 0:
            return 0.0
        busy = self.core.busy_seconds - self._busy_snapshot
        self._time_snapshot = t
        self._busy_snapshot = self.core.busy_seconds
        return min(1.0, busy / elapsed)

    def on_interval(self, t: float) -> None:
        p = self.params
        util = self._interval_utilization(t)
        dvfs = self.core.dvfs
        if util >= p.up_threshold:
            dvfs.set_index(0, t)
            return
        # Proportional target: the slowest frequency that would still
        # keep utilization below the threshold at the current load.
        demand_hz = util * dvfs.frequency / p.up_threshold
        table = dvfs.table
        target = len(table) - 1
        for index in range(len(table) - 1, -1, -1):
            if table[index].frequency >= demand_hz:
                target = index
                break
        dvfs.set_index(target, t)
