"""Ambient (inlet air) temperature models.

The boundary node of every CPU package is the local ambient air.  In a
rack, that air is not constant: it drifts with the HVAC duty cycle and
it rises when neighbouring nodes dump heat into the shared airstream —
the "hot spots or pockets of elevated temperatures" the paper's
introduction motivates.  A node's inlet is a :class:`ConstantAmbient`
(the paper's single-rack testbed approximation); rack recirculation is
modelled at fleet scope (:mod:`repro.fleet`).
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = [
    "AmbientModel",
    "ConstantAmbient",
]


class AmbientModel:
    """Protocol: ambient temperature as a function of simulation time."""

    def temperature(self, t: float) -> float:
        """Inlet air temperature (°C) at simulation time ``t``."""
        raise NotImplementedError


class ConstantAmbient(AmbientModel):
    """Fixed inlet temperature.

    Parameters
    ----------
    celsius:
        The held ambient temperature.
    """

    def __init__(self, celsius: float = 28.0) -> None:
        if not -50.0 <= celsius <= 80.0:
            raise ConfigurationError(
                f"ambient {celsius!r} °C is outside the plausible [-50, 80] range"
            )
        self._celsius = float(celsius)

    def temperature(self, t: float) -> float:
        return self._celsius
