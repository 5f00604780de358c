"""Rack-local fleet physics: nodes, fan walls and workload profiles.

Everything in this module is *rack-local*: a :class:`FleetNode` couples
to the world only through its own inlet-air boundary node, and a
:class:`FleetRack` aggregates its nodes behind one shared fan wall.
Nothing here reads another rack's state — cross-rack coupling happens
exclusively through the epoch exchange in
:mod:`repro.fleet.coordinator`.  That locality is the determinism
argument in miniature: any contiguous set of racks produces bitwise
the same trajectories no matter which worker process hosts it.

Workload profiles are pure functions ``u(rack, node, t)`` of the spec —
phase offsets come from integer hashing of ``(seed, rack, node)``, not
from a sequenced RNG, so there is no draw-order to get wrong when the
fleet is partitioned.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..cpu.power import PowerParams
from ..cpu.pstate import ATHLON64_4000, PStateTable
from ..fan.aero import FanAero
from ..platform.registry import resolve_platform
from ..thermal.package import CpuPackage
from .spec import FleetSpec

__all__ = [
    "AIR_W_PER_CFM_K",
    "FleetNode",
    "FleetRack",
    "WorkloadProfile",
    "build_rack",
    "node_band",
]

#: Heat carried per CFM of rack airflow per kelvin of rise, W/(CFM·K).
#: Standard-density air: outlet rise ΔT = P_rack / (this · total CFM).
AIR_W_PER_CFM_K = 0.566

#: Fan-wall duty band and proportional gain (per control tick, per K of
#: rack hot-spot error against the ``t_max - headroom`` target).
_DUTY_MIN = 0.15
_INITIAL_DUTY = 0.35
_DUTY_GAIN = 0.004
_FAN_HEADROOM_K = 6.0

#: DVFS release hysteresis below the trigger temperature, K.
_HYSTERESIS_K = 2.0

#: Knuth multiplicative constant + small primes: the integer mix that
#: turns (seed, rack, node) into a stable per-node phase in [0, 1).
_MIX_A = 2654435761
_MIX_RACK = 40503
_MIX_NODE = 9973
_MIX_MOD = 100003


def node_band(spec: FleetSpec) -> Tuple[PStateTable, PowerParams, float, float]:
    """The DVFS ladder, power constants and safe band the fleet's nodes run.

    ``platform=None`` is the paper's Athlon64 testbed.  A named platform
    contributes its *lead-class* ladder and power constants (the DVFS
    domain governors actuate) plus its safe band; the fleet node model
    stays the single die/sink package — the node is the unit here, not
    the core.
    """
    if spec.platform is None:
        return ATHLON64_4000, PowerParams(), 38.0, 82.0
    plat = resolve_platform(spec.platform)
    lead = plat.lead_class
    return lead.table(), lead.power, plat.t_min, plat.t_max


def _hot_spot(dies: List[float]) -> float:
    """The largest of ``dies`` by strict ``>`` in list order (exact)."""
    peak = dies[0]
    for die in dies[1:]:
        if die > peak:
            peak = die
    return peak


def _phase(seed: int, rack: int, node: int) -> float:
    """Stable per-node phase offset in [0, 1) by pure integer mixing."""
    mixed = (seed * _MIX_A + rack * _MIX_RACK + node * _MIX_NODE) % _MIX_MOD
    return mixed / _MIX_MOD


class WorkloadProfile:
    """A spec's workload profile, parsed once: ``u(rack, node, t)``.

    A pure function of the spec — evaluated at control ticks, piecewise
    constant in between.  Profiles (parameters from
    :meth:`FleetSpec.profile <repro.fleet.spec.FleetSpec.profile>`):

    ``uniform``
        Every node at ``u`` (default 0.85) plus a small per-node offset.
    ``imbalance``
        The first ``hot_racks`` racks run ``u_hot`` (default 0.95), the
        rest ``u_cold`` (default 0.30) — the load-imbalance scenario the
        coordinator's hierarchical capping is exercised against.
    ``wave``
        A fleet-wide sinusoid ``u_mid ± u_amp`` with per-node phase, so
        demand migrates across the fleet over each ``period``.
    """

    __slots__ = ("workload", "seed", "params")

    def __init__(self, spec: FleetSpec) -> None:
        self.workload = spec.workload
        self.seed = spec.seed
        self.params = spec.profile()

    def utilization(self, rack: int, node: int, t: float) -> float:
        """CPU utilization of ``(rack, node)`` at time ``t``, in [0, 1]."""
        params = self.params
        phase = _phase(self.seed, rack, node)
        if self.workload == "uniform":
            u = params["u"] + 0.04 * (phase - 0.5)
        elif self.workload == "imbalance":
            hot = rack < params["hot_racks"]
            u = params["u_hot"] if hot else params["u_cold"]
            u += 0.04 * (phase - 0.5)
        else:  # "wave" — spec validation admits nothing else
            u = params["u_mid"] + params["u_amp"] * math.sin(
                2.0 * math.pi * (t / params["period"] + phase)
            )
        return min(1.0, max(0.0, u))


class FleetNode:
    """One server: a die/sink package, its DVFS state and accumulators.

    Its die power, energy and running peak are computed for the whole
    shard at once by the shard's stacked node pass, which writes
    ``energy_j`` and ``max_die_c`` back at every epoch end.
    """

    __slots__ = (
        "rack",
        "index",
        "package",
        "table",
        "pstate",
        "util",
        "throttles",
        "energy_j",
        "max_die_c",
    )

    def __init__(
        self,
        rack: int,
        index: int,
        package: CpuPackage,
        table: PStateTable,
    ) -> None:
        self.rack = rack
        self.index = index
        self.package = package
        self.table = table
        self.pstate = 0  # fastest
        self.util = 0.0
        self.throttles = 0
        self.energy_j = 0.0
        self.max_die_c = package.die_temperature

    def dvfs_step(self, die: float, t_min: float, t_max: float, pp: float) -> None:
        """One in-band governor decision against the rack's ``P_p`` budget,
        from the die temperature ``die`` (°C) read for this control step.

        The trigger slides across the safe band with the performance
        preference: ``t_trig = t_min + (t_max - t_min) · pp / 100`` —
        a low budget throttles early, a 100 budget only at ``t_max``.
        """
        t_trig = t_min + (t_max - t_min) * pp / 100.0
        if die > t_trig:
            if self.pstate < len(self.table) - 1:
                self.pstate += 1
                self.throttles += 1
        elif die < t_trig - _HYSTERESIS_K and self.pstate > 0:
            self.pstate -= 1


class FleetRack:
    """``nodes_per_rack`` nodes behind one shared fan wall.

    The fan wall is one duty fraction driving an identical fan per
    node; its proportional loop tracks the rack hot spot against
    ``t_max - 6 K``.  Duty changes write every node's convective-link
    resistance (through the public setter, so the network's dirty
    bookkeeping fires) — between changes the coefficient caches stay
    warm.  The fan and power accumulators are kept by the shard's
    stacked node pass during an epoch and written back at its end.
    """

    __slots__ = (
        "index",
        "nodes",
        "aero",
        "duty",
        "airflow_cfm",
        "fan_power_w",
        "inlet_c",
        "pp",
        "fan_energy_j",
        "epoch_power_sum",
        "epoch_ticks_done",
    )

    def __init__(self, index: int, nodes: List[FleetNode]) -> None:
        self.index = index
        self.nodes = nodes
        self.aero = FanAero()
        self.duty = 0.0
        self.airflow_cfm = 0.0
        self.fan_power_w = 0.0
        self.inlet_c = 0.0
        self.pp = 100.0
        self.fan_energy_j = 0.0
        self.epoch_power_sum = 0.0
        self.epoch_ticks_done = 0
        self.set_duty(_INITIAL_DUTY)

    def set_duty(self, duty: float) -> None:
        """Set the fan-wall duty and push the resistance to every node."""
        self.duty = duty
        rpm = duty * self.aero.rpm_max
        self.airflow_cfm = self.aero.airflow(rpm)
        # Whole-wall electrical power: one fan per node.
        self.fan_power_w = len(self.nodes) * self.aero.power(rpm)
        for node in self.nodes:
            package = node.package
            package.set_airflow(self.airflow_cfm)
            package._conv_link.resistance = package.convection.resistance(
                self.airflow_cfm
            )

    def set_inlet(self, inlet_c: float) -> None:
        """Set the rack inlet air temperature (epoch-boundary exchange)."""
        self.inlet_c = inlet_c
        for node in self.nodes:
            package = node.package
            package._net.set_temperature(package._amb, inlet_c)

    def die_temperatures(self) -> List[float]:
        """Each node's current die temperature, °C (node order)."""
        return [node.package.die_temperature for node in self.nodes]

    def max_die_c(self) -> float:
        """Current rack hot spot, °C (fixed node order; max is exact)."""
        return _hot_spot(self.die_temperatures())

    def control_step(
        self, profile: WorkloadProfile, t: float, band: Tuple
    ) -> None:
        """One control period: workload refresh, DVFS, fan wall.

        Order is load-bearing for reproducibility and fixed here once:
        die temperatures read first (once each: the hot spot and every
        node's DVFS decision share them), then per-node utilization +
        DVFS in node order, then the fan-wall duty update.
        """
        _table, _power, t_min, t_max = band
        dies = self.die_temperatures()
        hot_spot = _hot_spot(dies)
        for node, die in zip(self.nodes, dies):
            node.util = profile.utilization(self.index, node.index, t)
            node.dvfs_step(die, t_min, t_max, self.pp)
        target = t_max - _FAN_HEADROOM_K
        duty = self.duty + _DUTY_GAIN * (hot_spot - target)
        duty = min(1.0, max(_DUTY_MIN, duty))
        if duty != self.duty:
            self.set_duty(duty)

    def begin_epoch(self, inlet_c: float, pp: float) -> None:
        """Absorb the coordinator's epoch command (inlet + budget)."""
        self.set_inlet(inlet_c)
        self.pp = pp
        self.epoch_power_sum = 0.0
        self.epoch_ticks_done = 0

    def mean_power_w(self) -> float:
        """Mean whole-rack CPU power over the finished epoch, W."""
        if self.epoch_ticks_done == 0:
            return 0.0
        return self.epoch_power_sum / self.epoch_ticks_done

    def outlet_c(self) -> float:
        """Rack outlet air temperature after the finished epoch, °C.

        Energy balance over the rack airflow: the exhaust rises above
        the inlet by ``P_rack / (0.566 · CFM_total)`` at the fan wall's
        current flow.
        """
        cfm_total = len(self.nodes) * self.airflow_cfm
        return self.inlet_c + self.mean_power_w() / (
            AIR_W_PER_CFM_K * cfm_total
        )


def build_rack(spec: FleetSpec, rack_index: int) -> FleetRack:
    """Materialize one rack of the fleet from its spec.

    Every node gets its own :class:`CpuPackage` (unique node names keep
    debugging sane); the platform only swaps the DVFS ladder, power
    constants and safe band — the chassis thermal stack is the paper's
    testbed.
    """
    table = node_band(spec)[0]
    nodes: List[FleetNode] = []
    for i in range(spec.nodes_per_rack):
        nodes.append(
            FleetNode(
                rack=rack_index,
                index=i,
                package=CpuPackage(name=f"r{rack_index}n{i}"),
                table=table,
            )
        )
    return FleetRack(index=rack_index, nodes=nodes)
