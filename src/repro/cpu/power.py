"""CPU power model.

The model is the textbook CMOS decomposition the paper itself invokes
("scaling down DVFS processor frequency cubically reduces power"):

.. math::

    P = P_{leak}(V, T) + u \\cdot C_{eff} V^2 f

* **Dynamic power** scales with utilization ``u``, effective switched
  capacitance ``C_eff``, supply voltage squared and frequency — since
  voltage falls with frequency along the P-state ladder, power falls
  roughly cubically with frequency.
* **Leakage** scales with voltage and (weakly, exponentially) with die
  temperature; the temperature feedback term is small but makes the
  thermal runaway direction physically correct.

Default constants are calibrated so an Athlon64 4000+ at 2.4 GHz/1.50 V
under full load dissipates ≈ 63 W (near its 89 W TDP ceiling, typical
HPC draw), and ≈ 11 W when idle at 1.0 GHz — consistent with the wall
powers of the paper's Table 1 once baseboard power is added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..sim.marker import hotpath, reject
from ..units import require_in_range, require_non_negative, require_positive
from .pstate import PState

__all__ = ["PowerParams", "CpuPowerModel"]


@dataclass(frozen=True)
class PowerParams:
    """Constants of the CPU power model.

    Attributes
    ----------
    c_eff:
        Effective switched capacitance in farads.  With the Athlon64
        ladder top point (2.4 GHz, 1.5 V), ``c_eff=1.10e-8`` gives
        ``u=1`` dynamic power ≈ 59 W.
    leak_ref:
        Leakage power at ``v_ref`` and ``t_ref``, W.
    v_ref:
        Reference voltage of ``leak_ref``, V.
    t_ref:
        Reference die temperature of ``leak_ref``, °C.
    leak_temp_scale:
        Exponential temperature coefficient of leakage, 1/K.  Silicon
        leakage roughly doubles every 20–30 K; 0.03/K doubles at 23 K.
    idle_floor:
        Power at zero utilization and the slowest P-state is at least
        this floor (clock distribution, caches), W.
    """

    c_eff: float = 1.10e-8
    leak_ref: float = 8.0
    v_ref: float = 1.50
    t_ref: float = 50.0
    leak_temp_scale: float = 0.03
    idle_floor: float = 3.0

    def __post_init__(self) -> None:
        require_positive(self.c_eff, "c_eff")
        require_non_negative(self.leak_ref, "leak_ref")
        require_positive(self.v_ref, "v_ref")
        require_non_negative(self.leak_temp_scale, "leak_temp_scale")
        require_non_negative(self.idle_floor, "idle_floor")


class CpuPowerModel:
    """Compute CPU power from P-state, utilization and die temperature."""

    def __init__(self, params: PowerParams | None = None) -> None:
        self.params = params if params is not None else PowerParams()

    def dynamic_power(self, pstate: PState, utilization: float) -> float:
        """Switching power ``u · C_eff · V² · f`` in watts."""
        u = require_in_range(utilization, 0.0, 1.0, "utilization")
        return u * self.params.c_eff * pstate.voltage**2 * pstate.frequency

    def leakage_power(self, pstate: PState, die_temperature: float) -> float:
        """Leakage in watts at the given voltage and die temperature.

        Scales linearly with ``V/V_ref`` (a mild simplification of the
        V·I_sub dependence) and exponentially with temperature.
        """
        p = self.params
        v_scale = pstate.voltage / p.v_ref
        t_scale = math.exp(p.leak_temp_scale * (die_temperature - p.t_ref))
        return p.leak_ref * v_scale * t_scale

    @hotpath
    def pstate_terms(
        self, pstate: PState, utilization: float
    ) -> Tuple[float, float]:
        """The P-state half of :meth:`power`: ``(dynamic, leak)``.

        ``dynamic`` is ``u · C_eff · V² · f`` and ``leak`` the leakage
        prefactor ``leak_ref · V/V_ref``; neither depends on die
        temperature.  A core at temperature ``T`` then draws
        ``dynamic + leak · exp(scale · (T − t_ref))``, floored at
        ``idle_floor`` — the bits of :meth:`power` (see there).
        """
        if not (0.0 <= utilization <= 1.0):
            reject(require_in_range, utilization, 0.0, 1.0, "utilization")
        p = self.params
        voltage = pstate.voltage
        return (
            float(utilization) * p.c_eff * voltage**2 * pstate.frequency,
            p.leak_ref * (voltage / p.v_ref),
        )

    @hotpath
    def power(
        self, pstate: PState, utilization: float, die_temperature: float
    ) -> float:
        """Total CPU power in watts (never below ``idle_floor``).

        :meth:`dynamic_power` plus :meth:`leakage_power`, written out as
        one expression with the same operations in the same order.

        Python evaluates it left to right, so the dynamic term and the
        leakage prefactor ``leak_ref · (V/V_ref)`` are each complete
        before the temperature factor multiplies in: they are exactly
        :meth:`pstate_terms`, and a caller that shares them across the
        cores of one P-state domain (one ``math.exp`` per core, then
        ``if floor > p: p = floor``, which is ``max(p, floor)`` with a
        NaN kept) gets this method's bits.
        """
        if not (0.0 <= utilization <= 1.0):
            reject(require_in_range, utilization, 0.0, 1.0, "utilization")
        p = self.params
        voltage = pstate.voltage
        total = float(utilization) * p.c_eff * voltage**2 * pstate.frequency + (
            p.leak_ref
            * (voltage / p.v_ref)
            * math.exp(p.leak_temp_scale * (die_temperature - p.t_ref))
        )
        return max(total, p.idle_floor)
