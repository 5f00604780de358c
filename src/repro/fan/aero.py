"""Fan aerodynamics: the fan affinity laws.

For a fixed impeller geometry the classical fan laws give

* volumetric flow ∝ RPM,
* static pressure ∝ RPM²,
* shaft power ∝ RPM³.

The cube law for power is what makes the paper's cost argument
("higher CPU fan speeds dissipate heat more quickly while consuming
more power") quantitative: doubling fan speed costs 8× fan power.
Electrical power adds a small constant for the motor controller.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.marker import hotpath, reject
from ..units import require_non_negative, require_positive

__all__ = ["FanAero"]


@dataclass(frozen=True)
class FanAero:
    """Flow and power curves of one fan.

    Attributes
    ----------
    rpm_max:
        Reference full speed (must match the motor's), RPM.
    cfm_max:
        Free-air flow at ``rpm_max``, CFM.  ~28 CFM suits a strong
        92 mm unit like the paper's 4300 RPM fan.
    power_max:
        Electrical power at ``rpm_max``, W.
    power_floor:
        Controller/electronics power at zero speed, W.
    """

    rpm_max: float = 4300.0
    cfm_max: float = 28.0
    power_max: float = 6.0
    power_floor: float = 0.3

    def __post_init__(self) -> None:
        require_positive(self.rpm_max, "rpm_max")
        require_positive(self.cfm_max, "cfm_max")
        require_positive(self.power_max, "power_max")
        require_non_negative(self.power_floor, "power_floor")

    @hotpath
    def airflow(self, rpm: float) -> float:
        """Volumetric flow in CFM at ``rpm`` (affinity: linear)."""
        if not (rpm >= 0.0):
            reject(require_non_negative, rpm, "rpm")
        return self.cfm_max * rpm / self.rpm_max

    @hotpath
    def power(self, rpm: float) -> float:
        """Electrical power in W at ``rpm`` (affinity: cubic + floor)."""
        if not (rpm >= 0.0):
            reject(require_non_negative, rpm, "rpm")
        return self.power_floor + self.power_max * (rpm / self.rpm_max) ** 3
