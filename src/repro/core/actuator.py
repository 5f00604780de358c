"""Mode actuator adapters.

The unification boundary: each physical technique is wrapped as a
:class:`ModeActuator` exposing its modes **ascending in cooling
effectiveness** plus apply/read methods.  The controller above this
line neither knows nor cares whether a mode is a PWM duty, a CPU
frequency, or a throttle level — which is precisely the paper's claim
that one framework can host in-band and out-of-band techniques alike.

* :class:`FanModeActuator` — out-of-band: duty fractions low→high over
  a :class:`~repro.fan.driver.FanDriver`.
* :class:`DvfsModeActuator` — in-band: P-state indices fast→slow over
  a :class:`~repro.cpu.dvfs.Dvfs` (note the order reversal: *lower*
  frequency is *more* effective at cooling).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..cpu.dvfs import Dvfs
from ..errors import ActuatorError
from ..fan.driver import FanDriver

__all__ = ["ModeActuator", "FanModeActuator", "DvfsModeActuator"]


class ModeActuator:
    """Protocol/base for technique adapters.

    Subclasses define :attr:`modes` (ascending effectiveness) and
    implement :meth:`apply` / :meth:`current_mode`.
    """

    #: Short technique tag used in events ("fan", "dvfs").
    technique: str = "abstract"

    @property
    def modes(self) -> Sequence[Any]:
        """Physically available modes, ascending cooling effectiveness."""
        raise NotImplementedError

    def apply(self, mode: Any, t: float) -> None:
        """Actuate ``mode`` at simulation time ``t``."""
        raise NotImplementedError

    def current_mode(self) -> Any:
        """The mode currently in force."""
        raise NotImplementedError


class FanModeActuator(ModeActuator):
    """Out-of-band: PWM duty steps over the fan driver.

    Parameters
    ----------
    driver:
        The host-side fan driver.  Only duties within the driver's
        ``max_duty`` cap are exposed as modes, so a capped (weaker) fan
        presents a genuinely smaller mode set — Figure 7's setup.
    """

    technique = "fan"

    def __init__(self, driver: FanDriver) -> None:
        self.driver = driver
        usable = [d for d in driver.ladder.duties if d <= driver.max_duty + 1e-12]
        if len(usable) < 2:
            raise ActuatorError(
                f"fan cap {driver.max_duty} leaves fewer than 2 usable "
                "duty steps"
            )
        self._modes = tuple(usable)

    @property
    def modes(self) -> Sequence[float]:
        return self._modes

    def apply(self, mode: float, t: float) -> None:
        self.driver.set_duty(float(mode))

    def current_mode(self) -> float:
        duty = self.driver.get_duty()
        # Snap the register readback to the nearest exposed mode.
        return min(self._modes, key=lambda d: abs(d - duty))


class DvfsModeActuator(ModeActuator):
    """In-band: P-state indices over the DVFS actuator.

    Mode values are P-state indices; since the
    :class:`~repro.cpu.pstate.PStateTable` is fastest-first, ascending
    index *is* ascending cooling effectiveness, so the mode list is
    simply ``0..len(table)-1``.
    """

    technique = "dvfs"

    def __init__(self, dvfs: Dvfs) -> None:
        self.dvfs = dvfs
        self._modes = tuple(range(len(dvfs.table)))

    @property
    def modes(self) -> Sequence[int]:
        return self._modes

    def apply(self, mode: int, t: float) -> None:
        self.dvfs.set_index(int(mode), t)

    def current_mode(self) -> int:
        return self.dvfs.index
