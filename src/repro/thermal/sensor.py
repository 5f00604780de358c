"""Digital thermal sensor model (lm-sensors emulation).

The paper reads the Athlon64's embedded digital thermal sensor through
lm-sensors at four samples per second.  Real on-die sensors are *not*
clean: they quantize (the ADT7467's remote channel resolves 0.25 °C),
they carry a few tenths of a degree of noise, and they can hold a
calibration offset.  That imperfection is load-bearing for this paper —
quantization plus noise is precisely the Type-III "jitter" that the
two-level history window must refuse to chase.

:class:`ThermalSensor` wraps a temperature source (anything with a
``die_temperature`` attribute, e.g. :class:`~repro.thermal.package.CpuPackage`)
and produces quantized, noisy, optionally lagged samples on demand.  The
sampling cadence itself is owned by the node wiring (a
:class:`~repro.sim.clock.PeriodicTask` at 4 Hz by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from ..units import require_non_negative

__all__ = ["TemperatureSource", "SensorParams", "ThermalSensor"]


class TemperatureSource(Protocol):
    """Anything exposing a true die temperature in °C."""

    @property
    def die_temperature(self) -> float: ...


@dataclass(frozen=True)
class SensorParams:
    """Sensor imperfection model.

    Attributes
    ----------
    quantum:
        Quantization step in °C (0.25 matches the ADT7467 remote
        channel; set 1.0 for coarse sensors, 0 to disable).
    noise_sigma:
        Standard deviation of additive Gaussian read noise, °C.
    offset:
        Static calibration offset, °C.
    lag:
        First-order sensor lag time constant in seconds (0 disables).
        Die sensors are effectively instantaneous; case sensors lag.
    """

    quantum: float = 0.25
    noise_sigma: float = 0.2
    offset: float = 0.0
    lag: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.quantum, "quantum")
        require_non_negative(self.noise_sigma, "noise_sigma")
        require_non_negative(self.lag, "lag")


class ThermalSensor:
    """Quantized, noisy reader of a :class:`TemperatureSource`.

    Parameters
    ----------
    source:
        The object whose ``die_temperature`` is measured.
    params:
        Imperfection model.
    rng:
        Generator for read noise.  Pass a stream from
        :class:`~repro.sim.rng.RngStreams` for reproducibility; when
        ``None``, noise is disabled regardless of ``noise_sigma``.
    """

    def __init__(
        self,
        source: TemperatureSource,
        params: SensorParams | None = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._source = source
        self.params = params if params is not None else SensorParams()
        self._rng = rng
        self._filtered: Optional[float] = None
        self._last_sample: Optional[float] = None
        self._last_time: Optional[float] = None
        self._count = 0

    def sample(self, t: float) -> float:
        """Take one reading at simulation time ``t`` and return it (°C)."""
        true = float(self._source.die_temperature)

        if self.params.lag > 0.0:
            if self._filtered is None or self._last_time is None:
                self._filtered = true
            else:
                dt = max(0.0, t - self._last_time)
                alpha = 1.0 - np.exp(-dt / self.params.lag)
                self._filtered += alpha * (true - self._filtered)
            value = self._filtered
        else:
            value = true

        value += self.params.offset
        if self._rng is not None and self.params.noise_sigma > 0.0:
            value += float(self._rng.normal(0.0, self.params.noise_sigma))
        if self.params.quantum > 0.0:
            value = round(value / self.params.quantum) * self.params.quantum

        self._last_sample = value
        self._last_time = t
        self._count += 1
        return value
