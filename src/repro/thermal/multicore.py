"""Multi-core package model: per-core hotspots under one heatsink.

The paper's testbed is single-core, but its future work points at
larger systems where *on-chip* hot spots matter.  This substrate
extends the package model to N cores:

.. code-block:: text

    P_0 ─▶ [core0] ──R_cs──┐
    P_1 ─▶ [core1] ──R_cs──┤
      ...                  ├─▶ [sink] ──R_conv(Q)──▶ (ambient)
    P_n ─▶ [coreN] ──R_cs──┘
              │  R_cc  │
              └─lateral─┘

Each core has its own thermal mass and conduction path into the shared
sink, plus lateral conduction to its ring neighbours (heat spreading
through the die).  The hottest core is what a per-package sensor-based
controller sees — :attr:`MulticorePackage.die_temperature` reports it,
so the model drops into :class:`~repro.thermal.sensor.ThermalSensor`
and the whole controller stack unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from ..units import require_non_negative, require_positive
from .ambient import AmbientModel, ConstantAmbient
from .convection import ConvectionModel
from .rc import RCNetwork, ThermalLink, ThermalNode

__all__ = ["MulticorePackage"]


class MulticorePackage:
    """N cores sharing one heatsink.

    Parameters
    ----------
    n_cores:
        Core count (>= 2; use
        :class:`~repro.thermal.package.CpuPackage` for one).
    c_core:
        Per-core thermal capacitance, J/K.
    c_sink:
        Heatsink capacitance, J/K.
    r_core_sink:
        Conduction resistance core → sink, K/W (per core).
    r_core_core:
        Lateral conduction between ring neighbours, K/W.
    convection:
        Sink-to-air model.
    ambient:
        Inlet air model.
    initial_temperature:
        All masses start here, °C.
    """

    def __init__(
        self,
        n_cores: int = 4,
        c_core: float = 8.0,
        c_sink: float = 200.0,
        r_core_sink: float = 0.45,
        r_core_core: float = 1.2,
        convection: Optional[ConvectionModel] = None,
        ambient: Optional[AmbientModel] = None,
        initial_temperature: float = 38.0,
        name: str = "mc",
    ) -> None:
        if n_cores < 2:
            raise ConfigurationError(
                f"MulticorePackage needs >= 2 cores, got {n_cores}"
            )
        require_positive(c_core, "c_core")
        require_positive(c_sink, "c_sink")
        require_positive(r_core_sink, "r_core_sink")
        require_positive(r_core_core, "r_core_core")
        self.n_cores = n_cores
        self.convection = convection if convection is not None else ConvectionModel()
        self.ambient = ambient if ambient is not None else ConstantAmbient()
        self.name = name

        self._net = RCNetwork()
        self._cores = [f"{name}.core{i}" for i in range(n_cores)]
        self._sink = f"{name}.sink"
        self._amb = f"{name}.ambient"
        for core in self._cores:
            self._net.add_node(ThermalNode(core, c_core, initial_temperature))
        self._net.add_node(ThermalNode(self._sink, c_sink, initial_temperature))
        self._net.add_node(
            ThermalNode(self._amb, None, self.ambient.temperature(0.0))
        )
        for i, core in enumerate(self._cores):
            self._net.add_link(
                ThermalLink(f"{core}.cs", core, self._sink, r_core_sink)
            )
            # ring topology: lateral spreading to the next core
            neighbour = self._cores[(i + 1) % n_cores]
            if n_cores > 2 or i == 0:  # avoid a duplicate link when N=2
                self._net.add_link(
                    ThermalLink(f"{core}.lat", core, neighbour, r_core_core)
                )
        self._conv_link = self._net.add_link(
            ThermalLink(
                f"{name}.conv", self._sink, self._amb,
                self.convection.resistance(0.0),
            )
        )
        self._powers = [0.0] * n_cores
        self._airflow = 0.0

    # -- inputs ------------------------------------------------------------

    def set_core_power(self, core: int, watts: float) -> None:
        """Set the heat dissipated in one core, W."""
        if not 0 <= core < self.n_cores:
            raise ConfigurationError(
                f"core index {core} out of range [0, {self.n_cores - 1}]"
            )
        self._powers[core] = require_non_negative(watts, "core power")

    def set_powers(self, watts: Sequence[float]) -> None:
        """Set all core powers at once."""
        if len(watts) != self.n_cores:
            raise ConfigurationError(
                f"need {self.n_cores} powers, got {len(watts)}"
            )
        for i, w in enumerate(watts):
            self.set_core_power(i, w)

    def set_airflow(self, cfm: float) -> None:
        """Set the airflow over the shared sink, CFM."""
        self._airflow = require_non_negative(cfm, "airflow")

    # -- outputs -----------------------------------------------------------

    def core_temperature(self, core: int) -> float:
        """Temperature of one core, °C."""
        if not 0 <= core < self.n_cores:
            raise ConfigurationError(
                f"core index {core} out of range [0, {self.n_cores - 1}]"
            )
        return self._net.temperature(self._cores[core])

    def core_temperatures(self) -> List[float]:
        """All core temperatures, index order."""
        return [self._net.temperature(c) for c in self._cores]

    @property
    def die_temperature(self) -> float:
        """Hottest core, °C — what a per-package diode sensor reports."""
        return max(self.core_temperatures())

    @property
    def sink_temperature(self) -> float:
        """Shared heatsink temperature, °C."""
        return self._net.temperature(self._sink)

    @property
    def ambient_temperature(self) -> float:
        """Inlet air temperature, °C — the fan chip's local diode."""
        return self._net.temperature(self._amb)

    @property
    def hotspot_spread(self) -> float:
        """Hottest minus coolest core, K — the on-chip gradient."""
        temps = self.core_temperatures()
        return max(temps) - min(temps)

    # -- dynamics ----------------------------------------------------------

    def step(self, t: float, dt: float) -> None:
        """Advance the package by ``dt`` seconds ending at ``t``."""
        self._conv_link.resistance = self.convection.resistance(self._airflow)
        self._net.set_temperature(self._amb, self.ambient.temperature(t))
        for core, power in zip(self._cores, self._powers):
            self._net.set_power(core, power)
        self._net.step(dt)

    def steady_state(self) -> List[float]:
        """Equilibrium core temperatures under the current inputs."""
        self._conv_link.resistance = self.convection.resistance(self._airflow)
        for core, power in zip(self._cores, self._powers):
            self._net.set_power(core, power)
        solution = self._net.steady_state()
        return [solution[c] for c in self._cores]
