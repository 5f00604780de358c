"""The N-core cluster node: a floorplan-bearing :class:`Node` variant.

:class:`MulticoreNode` swaps the single-core compute complex for a
:class:`~repro.thermal.multicore.MulticorePackage` plus one DVFS domain
per core class — a :class:`~repro.cpu.dvfs.GangedDvfs` lead (class 0)
that governors actuate exactly as they do the single-core ladder, with
follower domains tracking it proportionally.  Everything else — fan
chip, motor, aero, sensor, meter, PROCHOT/THERMTRIP protection — is
inherited unchanged from :class:`~repro.cluster.node.Node`, which is
what lets the whole governor and controller stack run on heterogeneous
silicon without modification:

* the per-package :class:`~repro.thermal.sensor.ThermalSensor` reads
  :attr:`~repro.thermal.multicore.MulticorePackage.die_temperature`
  (the hottest core — what a per-package diode reports),
* the hardware protection path slams the lead DVFS domain, which the
  gang propagates to every class's floor,
* the fan chip sees the same remote/local diode pair.

Per tick, each core's power is computed from its *class* model at the
class's current P-state and that core's own temperature (per-core
leakage feedback), under the node-wide utilization of the bound rank —
the job spans the node, so all cores share its duty cycle.

The engine runs this class's own bound ``step`` (the node's hoisted
pre/post pair hard-assumes the 2-node die/sink package); the
floorplan's RC network steps through the same cached stepper as every
other :class:`~repro.thermal.rc.RCNetwork`.  Specs on a multicore
platform never form lockstep batch groups (see
:meth:`repro.runtime.executor.RunExecutor._batch_key`).
"""

from __future__ import annotations

from typing import List

from ..config import NodeConfig
from ..cpu.core import CpuCore
from ..cpu.dvfs import Dvfs, GangedDvfs
from ..cpu.power import CpuPowerModel
from ..errors import ConfigurationError
from ..sim.engine import Component
from ..thermal.multicore import MulticorePackage
from .node import Node

__all__ = ["MulticoreNode"]


class MulticoreNode(Node):
    """A cluster node built around an N-core die floorplan.

    Construction requires ``config.floorplan``; the constructor
    signature is identical to :class:`~repro.cluster.node.Node`.
    """

    #: The engine calls this class's own :meth:`step`, bound.
    compiled_step = Component.compiled_step

    def _build_compute(self, cfg: NodeConfig, name: str, events) -> None:
        floorplan = cfg.floorplan
        if floorplan is None:
            raise ConfigurationError(
                f"MulticoreNode {name!r} needs a config with a floorplan"
            )
        self.package = MulticorePackage(
            n_cores=floorplan.n_cores,
            c_core=floorplan.c_core,
            c_sink=floorplan.c_sink,
            r_core_sink=floorplan.r_core_sink,
            r_core_core=floorplan.r_core_core,
            convection=cfg.convection,
            ambient=self.ambient,
            name=f"{name}.pkg",
        )
        followers = [
            Dvfs(
                table=cls.pstates,
                transition_latency=cfg.dvfs_latency,
                events=events,
                name=f"{name}.dvfs.{cls.name}",
            )
            for cls in floorplan.classes[1:]
        ]
        self.dvfs = GangedDvfs(
            table=floorplan.classes[0].pstates,
            followers=followers,
            transition_latency=cfg.dvfs_latency,
            events=events,
            name=f"{name}.dvfs",
        )
        self.core = CpuCore(self.dvfs, name=f"{name}.core")
        self.power_model = CpuPowerModel(floorplan.classes[0].power)
        #: DVFS domain per class, index-aligned with the class list.
        self.domains = (self.dvfs, *followers)
        self._class_models = tuple(
            CpuPowerModel(cls.power) for cls in floorplan.classes
        )
        #: Class index of each core, floorplan order (class 0 first).
        self._core_class = tuple(
            k
            for k, cls in enumerate(floorplan.classes)
            for _ in range(cls.count)
        )
        self._core_powers: List[float] = [0.0] * floorplan.n_cores

    # -- observables -----------------------------------------------------

    def core_powers(self) -> List[float]:
        """Per-core power over the last tick, W (floorplan order)."""
        return list(self._core_powers)

    # -- dynamics ----------------------------------------------------------

    def step(self, t: float, dt: float) -> None:
        cfg = self.config
        package = self.package
        self._protection(t)
        # 1. workload execution at the lead frequency; 2. per-core
        # power from each class's model at that core's temperature.
        if self._shutdown:
            powers = [0.0] * package.n_cores
            self._cpu_power = 0.0
        else:
            if self._prochot:
                # PROCHOT re-clamps the lead every tick; the gang drags
                # every follower class to its own floor.
                self.dvfs.set_index(len(self.dvfs.table) - 1, t)
            self.core.step(t, dt)
            utilization = self.core.utilization
            temps = package.core_temperatures()
            powers = [
                self._class_models[k].power(
                    self.domains[k].pstate, utilization, temps[i]
                )
                for i, k in enumerate(self._core_class)
            ]
            self._cpu_power = sum(powers)
        self._core_powers = powers
        # 3. fan chip ingests measurements; auto mode updates its PWM
        self.fan_chip.update(
            remote_temp=package.die_temperature,
            local_temp=package.ambient_temperature,
            rpm=self.fan_motor.rpm,
        )
        # 4. rotor tracks the chip's PWM output
        self.fan_motor.set_duty(self.fan_chip.commanded_duty)
        self.fan_motor.step(t, dt)
        airflow = self.fan_aero.airflow(self.fan_motor.rpm)
        fan_power = self.fan_aero.power(self.fan_motor.rpm)
        # 5. thermal integration across the floorplan
        package.set_powers(powers)
        package.set_airflow(airflow)
        package.step(t, dt)
        # 6. wall power (a shut-down node still draws standby power)
        if self._shutdown:
            self._wall_power = 5.0 + fan_power
        else:
            self._wall_power = cfg.baseboard_power + self._cpu_power + fan_power
        self.meter.record(self._wall_power, dt)

