"""CPU package thermal model: die + heatsink over ambient.

This wraps :class:`~repro.thermal.rc.RCNetwork` into the specific
two-mass topology of a socketed processor:

.. code-block:: text

    P_cpu ──▶ [die  C_die] ──R_jhs──▶ [sink C_sink] ──R_conv(Q)──▶ (ambient)

``R_jhs`` (junction/IHS/TIM to sink) is fixed by the mechanical
assembly; ``R_conv`` is updated every step from the fan's airflow via a
:class:`~repro.thermal.convection.ConvectionModel`.  The die time
constant is ~1 s (this is what makes Type-I "sudden" behaviour visible
at a 4 Hz sample rate) and the sink time constant is tens of seconds
(Type-II "gradual" drift).

Default parameters are calibrated so that a ~55 W Athlon64-class load
equilibrates near 58 °C at 25 % fan duty and near 50 °C at 100 % duty —
the ≈8 °C spread of the paper's Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import require_non_negative, require_positive
from .ambient import AmbientModel, ConstantAmbient
from .convection import ConvectionModel
from .rc import RCNetwork, ThermalLink, ThermalNode

__all__ = ["PackageParams", "CpuPackage"]


@dataclass(frozen=True)
class PackageParams:
    """Physical constants of the die/heatsink assembly.

    Attributes
    ----------
    c_die:
        Die + IHS + spreader heat capacity, J/K.  Sets the "sudden"
        response (~4 s) and smooths sub-second power swings the way the
        real part's thermal mass does — per-iteration MPI power dips
        must read as fractions of a kelvin, not whole kelvins, or they
        would drown the gradual trend the level-two window tracks.
    c_sink:
        Heatsink heat capacity, J/K.  Sets the "gradual" time constant.
    r_junction_sink:
        Conduction resistance die → sink (includes TIM), K/W.
    initial_temperature:
        Temperature of die and sink at t=0, °C (defaults to ambient-ish).
    """

    c_die: float = 25.0
    c_sink: float = 200.0
    r_junction_sink: float = 0.15
    initial_temperature: float = 38.0

    def __post_init__(self) -> None:
        require_positive(self.c_die, "c_die")
        require_positive(self.c_sink, "c_sink")
        require_positive(self.r_junction_sink, "r_junction_sink")
        if not -20.0 <= self.initial_temperature <= 120.0:
            raise ConfigurationError(
                f"initial_temperature {self.initial_temperature!r} °C "
                "is outside the plausible [-20, 120] range"
            )


class CpuPackage:
    """The die + heatsink thermal stack of one processor.

    Parameters
    ----------
    params:
        Mechanical/thermal constants.
    convection:
        Airflow → resistance model for the sink-to-air hop.
    ambient:
        Boundary temperature model.
    name:
        Prefix for internal node names (useful in multi-node debugging).
    """

    def __init__(
        self,
        params: PackageParams | None = None,
        convection: ConvectionModel | None = None,
        ambient: AmbientModel | None = None,
        name: str = "cpu",
    ) -> None:
        self.params = params if params is not None else PackageParams()
        self.convection = convection if convection is not None else ConvectionModel()
        self.ambient = ambient if ambient is not None else ConstantAmbient()
        self.name = name

        p = self.params
        self._net = RCNetwork()
        self._die = f"{name}.die"
        self._sink = f"{name}.sink"
        self._amb = f"{name}.ambient"
        self._net.add_node(
            ThermalNode(self._die, p.c_die, p.initial_temperature)
        )
        self._net.add_node(
            ThermalNode(self._sink, p.c_sink, p.initial_temperature)
        )
        self._net.add_node(
            ThermalNode(self._amb, None, self.ambient.temperature(0.0))
        )
        self._net.add_link(
            ThermalLink(f"{name}.jhs", self._die, self._sink, p.r_junction_sink)
        )
        # Convective link starts at the still-air value; updated each step.
        self._conv_link = self._net.add_link(
            ThermalLink(
                f"{name}.conv",
                self._sink,
                self._amb,
                self.convection.resistance(0.0),
            )
        )
        self._power = 0.0
        self._airflow = 0.0

    # -- inputs ---------------------------------------------------------------

    def set_power(self, watts: float) -> None:
        """Set the heat dissipated in the die (W)."""
        self._power = require_non_negative(watts, "CPU power")

    def set_airflow(self, cfm: float) -> None:
        """Set the airflow over the heatsink (CFM)."""
        self._airflow = require_non_negative(cfm, "airflow")

    # -- outputs ----------------------------------------------------------

    @property
    def die_temperature(self) -> float:
        """True (un-quantized) die temperature in °C."""
        return self._net.temperature(self._die)

    @property
    def sink_temperature(self) -> float:
        """Heatsink temperature in °C."""
        return self._net.temperature(self._sink)

    @property
    def power(self) -> float:
        """Heat currently injected into the die, W."""
        return self._power

    @property
    def airflow(self) -> float:
        """Airflow currently applied over the sink, CFM."""
        return self._airflow

    # -- dynamics --------------------------------------------------------

    def step(self, t: float, dt: float) -> None:
        """Advance the package thermal state by ``dt`` seconds ending at ``t``."""
        self._conv_link.resistance = self.convection.resistance(self._airflow)
        self._net.set_temperature(self._amb, self.ambient.temperature(t))
        self._net.set_power(self._die, self._power)
        self._net.step(dt)

    def reset(self, temperature: float | None = None) -> None:
        """Reset die and sink to ``temperature`` (default: initial temp)."""
        temp = (
            self.params.initial_temperature if temperature is None else float(temperature)
        )
        self._net.set_temperature(self._die, temp)
        self._net.set_temperature(self._sink, temp)
