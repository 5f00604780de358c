"""Fan motor dynamics: PWM duty → RPM with spin-up/spin-down inertia.

A fan is not an instantaneous actuator.  The rotor accelerates under
motor torque (fast, seconds) and decelerates by drag when the duty
drops (slower — it coasts).  Both are modelled as first-order lags with
separate time constants.  The steady-state RPM map is affine in duty
above a stall threshold:

.. math::

    RPM_{ss}(d) = RPM_{max} \\cdot (k_0 + (1 - k_0) d), \\quad d > 0

with ``k_0`` the fraction of full speed the motor turns at minimal duty
(axial fans spin at 10–20 % of max even at 1 % duty once started).
The paper's platform tops out at 4300 RPM (§4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..sim.marker import coldpath, hotpath, reject
from ..units import require_in_range, require_positive

__all__ = ["MotorParams", "FanMotor"]


@dataclass(frozen=True)
class MotorParams:
    """Constants of the fan motor model.

    Attributes
    ----------
    rpm_max:
        Full-speed revolutions per minute (paper: 4300).
    k0:
        Fraction of full speed at vanishing duty (keeps the affine
        duty→RPM map realistic at the low end).
    tau_up:
        Spin-up time constant, seconds.
    tau_down:
        Coast-down time constant, seconds (> tau_up: fans coast).
    """

    rpm_max: float = 4300.0
    k0: float = 0.12
    tau_up: float = 1.2
    tau_down: float = 3.0

    def __post_init__(self) -> None:
        require_positive(self.rpm_max, "rpm_max")
        require_in_range(self.k0, 0.0, 0.9, "k0")
        require_positive(self.tau_up, "tau_up")
        require_positive(self.tau_down, "tau_down")
        if self.tau_down < self.tau_up:
            raise ConfigurationError(
                "tau_down must be >= tau_up (fans coast down more slowly "
                "than they spin up)"
            )


class FanMotor:
    """First-order rotor dynamics under a commanded PWM duty.

    Parameters
    ----------
    params:
        Motor constants.
    initial_duty:
        Commanded duty at t=0; the rotor starts at the matching
        steady-state RPM (as if it had been running).
    """

    def __init__(
        self, params: MotorParams | None = None, initial_duty: float = 0.1
    ) -> None:
        self.params = params if params is not None else MotorParams()
        self._duty = require_in_range(initial_duty, 0.0, 1.0, "initial_duty")
        self._failed = False
        self._rpm = self.steady_state_rpm(self._duty)
        # ``1 - exp(-dt/tau)`` for both lags, cached for one ``dt``.
        self._alpha_dt: Optional[float] = None
        self._alpha_params: Optional[MotorParams] = None
        self._alpha_up = 0.0
        self._alpha_down = 0.0

    def steady_state_rpm(self, duty: float) -> float:
        """Equilibrium RPM for a given duty fraction (0 when failed)."""
        require_in_range(duty, 0.0, 1.0, "duty")
        if self._failed:
            return 0.0
        p = self.params
        if duty <= 0.0:
            return 0.0
        return p.rpm_max * (p.k0 + (1.0 - p.k0) * duty)

    # -- failure injection -------------------------------------------------

    def fail(self) -> None:
        """Seize the motor: the rotor coasts to a stop regardless of PWM.

        Models the bearing/winding failures the thermal-management
        literature (Choi et al., Heath et al.) injects; the paper's
        in-band technique is the only recourse once this happens.
        """
        self._failed = True

    def repair(self) -> None:
        """Undo :meth:`fail` (hot-swap): the rotor spins back up."""
        self._failed = False

    @property
    def failed(self) -> bool:
        """True while the motor is failed."""
        return self._failed

    @hotpath
    def set_duty(self, duty: float) -> None:
        """Command a new PWM duty fraction."""
        if not (0.0 <= duty <= 1.0):
            reject(require_in_range, duty, 0.0, 1.0, "duty")
        self._duty = float(duty)

    @property
    def duty(self) -> float:
        """Currently commanded duty fraction."""
        return self._duty

    @property
    def rpm(self) -> float:
        """Current rotor speed in RPM."""
        return self._rpm

    @coldpath
    def _refresh_alphas(self, dt: float) -> None:
        """Recompute the cached lag factors for a new ``dt``."""
        p = self.params
        self._alpha_up = 1.0 - math.exp(-dt / p.tau_up)
        self._alpha_down = 1.0 - math.exp(-dt / p.tau_down)
        self._alpha_dt = dt
        self._alpha_params = p

    @hotpath
    def step(self, t: float, dt: float) -> None:
        """Advance rotor speed by ``dt`` seconds toward the duty target.

        The target is :meth:`steady_state_rpm` of the commanded duty,
        written out here; the lag factors are cached per ``dt`` and
        :class:`MotorParams` (which is frozen).
        """
        if not (dt > 0.0):
            reject(require_positive, dt, "dt")
        p = self.params
        if dt != self._alpha_dt or p is not self._alpha_params:
            self._refresh_alphas(dt)
        duty = self._duty
        if not (0.0 <= duty <= 1.0):
            reject(require_in_range, duty, 0.0, 1.0, "duty")
        if self._failed or duty <= 0.0:
            target = 0.0
        else:
            target = p.rpm_max * (p.k0 + (1.0 - p.k0) * duty)
        rpm = self._rpm
        # Exact solution of the first-order lag over dt (unconditionally
        # stable regardless of dt/tau).
        alpha = self._alpha_up if target >= rpm else self._alpha_down
        self._rpm = rpm + alpha * (target - rpm)
