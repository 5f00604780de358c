"""Traditional static fan control (paper Figure 1).

The baseline the paper compares against: the fan speed is a *static*
function of the absolute temperature — PWM_min up to T_min, linear to
PWM_max at T_max.  On the real platform this map runs inside the
ADT7467's automatic fan-control hardware, so this governor does exactly
what the stock system does: program the curve registers once and leave
the chip in auto mode.  There is no host-side control loop at all; its
:meth:`on_sample` is intentionally empty.

Because the chip reacts only to the *current* temperature, it cannot
anticipate a rise — the paper's Figure 6 shows it stabilizing later and
hotter than the dynamic method.
"""

from __future__ import annotations

from ..fan.driver import FanDriver
from ..units import require_in_range
from .base import Governor

__all__ = ["TraditionalFanControl"]


class TraditionalFanControl(Governor):
    """Program the hardware automatic curve and step aside.

    Parameters
    ----------
    driver:
        The node's fan driver.
    t_min:
        Ramp start, °C (paper platform: 38).
    t_max:
        Full-speed temperature, °C (paper platform: 82).
    duty_min:
        Duty at/below ``t_min`` (paper platform: 10 %).
    duty_max:
        Duty ceiling; the ramp targets this at ``t_max``.  Capped
        configurations (Figures 6/8 use 75 % / 25 %) flatten the ramp,
        exactly as reprogramming the chip's PWM1-max register does.
    """

    def __init__(
        self,
        driver: FanDriver,
        t_min: float = 38.0,
        t_max: float = 82.0,
        duty_min: float = 0.10,
        duty_max: float = 1.0,
        name: str = "fan-traditional",
    ) -> None:
        super().__init__(name=name, period=1.0)
        self.driver = driver
        require_in_range(duty_min, 0.0, 1.0, "duty_min")
        require_in_range(duty_max, 0.0, 1.0, "duty_max")
        self.t_min = t_min
        self.t_max = t_max
        self.duty_min = duty_min
        self.duty_max = min(duty_max, driver.max_duty)

    def start(self, t: float) -> None:
        self.driver.set_auto_mode(
            t_min=self.t_min,
            t_range=self.t_max - self.t_min,
            duty_min=self.duty_min,
            duty_max=self.duty_max,
        )
