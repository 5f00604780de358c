"""The paper's primary contribution: unified dynamic thermal control.

This package is hardware-free — it manipulates abstract *modes* through
the :class:`~repro.core.actuator.ModeActuator` protocol, which is
exactly the unification the paper proposes: fans, DVFS and sleep states
all become "an array of modes sorted by cooling effectiveness", and one
controller drives any of them.

* :mod:`repro.core.policy` — the user knob ``P_p`` and safe-range
  bounds.
* :mod:`repro.core.control_array` — the thermal control array and the
  Eq. (1) fill rule.
* :mod:`repro.core.window` — the two-level history window (Δt_l1,
  Δt_l2).
* :mod:`repro.core.classify` — sudden/gradual/jitter behaviour
  classification (§3.1).
* :mod:`repro.core.mode_select` — target-mode identification
  (``i + c·Δt``).
* :mod:`repro.core.actuator` — adapters wrapping the fan driver and
  DVFS as mode actuators.
* :mod:`repro.core.controller` — the unified controller tying window +
  array + selector + actuator together.
* :mod:`repro.core.coordinator` — multi-technique coordination under a
  shared policy.
"""

from .actuator import DvfsModeActuator, FanModeActuator, ModeActuator
from .classify import ThermalBehavior, classify_profile, classify_trace
from .control_array import ThermalControlArray
from .controller import ControllerState, UnifiedThermalController
from .coordinator import Coordinator
from .mode_select import ModeSelector
from .policy import Policy
from .window import TwoLevelWindow, WindowUpdate

__all__ = [
    "Policy",
    "ThermalControlArray",
    "TwoLevelWindow",
    "WindowUpdate",
    "ThermalBehavior",
    "classify_trace",
    "classify_profile",
    "ModeSelector",
    "ModeActuator",
    "FanModeActuator",
    "DvfsModeActuator",
    "UnifiedThermalController",
    "ControllerState",
    "Coordinator",
]
