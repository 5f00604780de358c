"""Dynamic fan control — the paper's method applied to the fan (§4.2).

This is a thin governor shell around the
:class:`~repro.core.controller.UnifiedThermalController` with a
:class:`~repro.core.actuator.FanModeActuator`: every 4 Hz sensor sample
feeds the two-level window; each completed round moves the fan along
the P_p-filled thermal control array by ``c·Δt``.

Behaviour the paper demonstrates and our tests assert:

* responds within one window round to *sudden* rises (Figure 5);
* does **not** chase *jitter* — the half-sum cancellation eats it;
* tracks *gradual* drift through the level-two delta;
* smaller ``P_p`` holds lower temperature at higher mean duty
  (Figure 5's 70/53/36 % mean-duty ordering).
"""

from __future__ import annotations

from typing import Optional

from ..core.actuator import FanModeActuator
from ..core.controller import UnifiedThermalController
from ..core.policy import Policy
from ..fan.driver import FanDriver
from ..sim.events import EventLog
from ..telemetry.registry import MetricsRegistry
from .base import Governor

__all__ = ["DynamicFanControl"]


class DynamicFanControl(Governor):
    """The unified controller driving a fan.

    Parameters
    ----------
    driver:
        The node's fan driver (its ``max_duty`` cap bounds the mode
        set, emulating a weaker fan).
    policy:
        User policy; ``policy.pp`` is the aggressiveness knob.
    l1_size / l2_size:
        Window geometry (paper defaults 4 / 5).
    l2_when_l1_silent:
        §3.2.2 ordering rule (ablation hook).
    events:
        Shared event log.
    telemetry:
        Optional metrics registry for decision provenance.
    """

    def __init__(
        self,
        driver: FanDriver,
        policy: Policy,
        l1_size: int = 4,
        l2_size: int = 5,
        l2_when_l1_silent: bool = True,
        events: Optional[EventLog] = None,
        name: str = "fan-dynamic",
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name=name, period=1.0)
        self.driver = driver
        self.controller = UnifiedThermalController(
            actuator=FanModeActuator(driver),
            policy=policy,
            l1_size=l1_size,
            l2_size=l2_size,
            l2_when_l1_silent=l2_when_l1_silent,
            events=events,
            name=name,
            telemetry=telemetry,
        )

    def start(self, t: float) -> None:
        self.driver.set_manual_mode()
        # Actuate the initial slot's mode so chip and controller agree.
        self.driver.set_duty(float(self.controller.current_mode))

    def on_sample(self, t: float, temperature: float) -> None:
        self.controller.push_sample(t, temperature)
