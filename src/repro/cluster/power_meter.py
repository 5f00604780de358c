"""Wall-power metering (Watts up? Pro ES emulation).

The paper measures system power with an inline Watts up? Pro meter.
:class:`PowerMeter` integrates instantaneous wall power into energy and
keeps a running average — the quantity in Table 1's "Ave Power" column
— plus windowed queries for phase-level analysis.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..sim.marker import hotpath, reject
from ..units import require_non_negative, require_positive

__all__ = ["PowerMeter"]


class PowerMeter:
    """Integrating wall-power meter.

    Energy is accumulated exactly (power × dt each tick); the average
    is energy / elapsed, so it is insensitive to tick rate.
    """

    def __init__(self, name: str = "meter") -> None:
        self.name = name
        self._energy = 0.0
        self._elapsed = 0.0
        self._last_power = 0.0
        self._peak = 0.0

    @hotpath
    def record(self, power_watts: float, dt: float) -> None:
        """Accumulate ``power_watts`` held for ``dt`` seconds."""
        if not (power_watts >= 0.0):
            reject(require_non_negative, power_watts, "power")
        if not (dt > 0.0):
            reject(require_positive, dt, "dt")
        self._energy += power_watts * dt
        self._elapsed += dt
        self._last_power = power_watts
        self._peak = max(self._peak, power_watts)

    @property
    def energy_joules(self) -> float:
        """Total energy since construction (or reset), J."""
        return self._energy

    @property
    def elapsed(self) -> float:
        """Total metered time, seconds."""
        return self._elapsed

    @property
    def average_power(self) -> float:
        """Mean wall power over the metered interval, W.

        Raises
        ------
        SimulationError
            If nothing has been recorded yet.
        """
        if self._elapsed <= 0.0:
            raise SimulationError(f"meter {self.name!r}: no samples recorded")
        return self._energy / self._elapsed

    def reset(self) -> None:
        """Zero the accumulators (start of a measured run)."""
        self._energy = 0.0
        self._elapsed = 0.0
        self._peak = 0.0
