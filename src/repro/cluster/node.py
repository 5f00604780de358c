"""One cluster node: the full hardware wiring.

Per simulation tick a :class:`Node` advances its parts in physical
dependency order:

1. **CPU core** — runs the bound workload rank at the current DVFS
   frequency; yields utilization.
2. **CPU power** — from P-state, utilization and die temperature.
3. **Fan chip** — the ADT7467 ingests the thermal-diode temperature and
   tach; in auto mode it recomputes its PWM output (hardware static
   control).
4. **Fan motor** — rotor tracks the chip's PWM with inertia; aero maps
   RPM to airflow and fan power.
5. **Thermal package** — die/heatsink RC network integrates under the
   CPU power and airflow.
6. **Power meter** — wall power = baseboard + CPU + fan.

Governors never touch these parts directly: the in-band path goes
through :class:`~repro.cpu.dvfs.Dvfs`, the out-of-band path through
:class:`~repro.fan.driver.FanDriver` over the node's i2c bus — the same
interfaces the paper's daemons used.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import NodeConfig
from ..cpu.core import CpuCore, RankInterface
from ..cpu.dvfs import Dvfs
from ..cpu.power import CpuPowerModel
from ..fan.adt7467 import ADT7467
from ..fan.aero import FanAero
from ..fan.driver import FanDriver
from ..fan.motor import FanMotor
from ..i2c.bus import I2cBus
from ..sim.engine import Component
from ..sim.events import EventLog
from ..thermal.ambient import AmbientModel, ConstantAmbient
from ..thermal.package import CpuPackage
from ..thermal.sensor import ThermalSensor

__all__ = ["Node"]


class Node(Component):
    """A simulated cluster node.

    Parameters
    ----------
    name:
        Node identifier (``"node0"``, ...).
    config:
        Physical description; defaults to the paper's testbed node.
    events:
        Shared event log (DVFS changes etc. are emitted here).
    rng:
        Noise generator for the thermal sensor; ``None`` = noiseless.
    ambient:
        Inlet air model; defaults to a constant at
        ``config.ambient_celsius``.
    """

    def __init__(
        self,
        name: str,
        config: Optional[NodeConfig] = None,
        events: Optional[EventLog] = None,
        rng: Optional[np.random.Generator] = None,
        ambient: Optional[AmbientModel] = None,
    ) -> None:
        super().__init__(name)
        self.config = config if config is not None else NodeConfig()
        cfg = self.config

        self.ambient = (
            ambient if ambient is not None else ConstantAmbient(cfg.ambient_celsius)
        )
        self._build_compute(cfg, name, events)
        self.sensor = ThermalSensor(self.package, params=cfg.sensor, rng=rng)

        # Out-of-band path: i2c bus -> ADT7467 -> motor -> aero.
        self.bus = I2cBus(name=f"{name}.i2c")
        self.fan_chip = ADT7467(cfg.fan_chip)
        self.bus.attach(self.fan_chip)
        self.fan_motor = FanMotor(
            cfg.motor, initial_duty=self.fan_chip.commanded_duty
        )
        self.fan_aero = cfg.aero

        from ..cluster.power_meter import PowerMeter

        self.meter = PowerMeter(name=f"{name}.meter")
        self._cpu_power = 0.0
        self._wall_power = 0.0
        self._events = events
        self._prochot = False
        self._shutdown = False

    # -- wiring -----------------------------------------------------------

    def _build_compute(self, cfg: NodeConfig, name: str, events) -> None:
        """Construct the package/DVFS/core/power-model quartet.

        The single-core reference wiring; subclasses (the multicore
        node) override this to build their own compute complex while
        inheriting the fan, sensor and protection wiring unchanged.
        """
        self.package = CpuPackage(
            params=cfg.package,
            convection=cfg.convection,
            ambient=self.ambient,
            name=f"{name}.pkg",
        )
        self.dvfs = Dvfs(
            table=cfg.pstates,
            transition_latency=cfg.dvfs_latency,
            events=events,
            name=f"{name}.dvfs",
        )
        self.core = CpuCore(self.dvfs, name=f"{name}.core")
        self.power_model = CpuPowerModel(cfg.power)

    def bind_rank(self, rank: RankInterface) -> None:
        """Attach this node's share of a parallel job."""
        self.core.bind_rank(rank)

    def make_fan_driver(self, max_duty: float = 1.0, **kwargs) -> FanDriver:
        """Construct the host-side fan driver governors use."""
        return FanDriver(
            self.bus, self.fan_chip.address, max_duty=max_duty, **kwargs
        )

    # -- observables -----------------------------------------------------

    @property
    def die_temperature(self) -> float:
        """True die temperature, °C (controllers should use the sensor)."""
        return self.package.die_temperature

    @property
    def cpu_power(self) -> float:
        """CPU power over the last tick, W."""
        return self._cpu_power

    @property
    def wall_power(self) -> float:
        """Wall power over the last tick, W."""
        return self._wall_power

    @property
    def fan_duty(self) -> float:
        """PWM duty currently commanded to the fan motor."""
        return self.fan_motor.duty

    @property
    def fan_rpm(self) -> float:
        """Current fan speed, RPM."""
        return self.fan_motor.rpm

    @property
    def prochot_active(self) -> bool:
        """True while the hardware thermal throttle is asserted."""
        return self._prochot

    @property
    def is_shutdown(self) -> bool:
        """True once THERMTRIP has powered the node off."""
        return self._shutdown

    def fail_fan(self, t: float = 0.0) -> None:
        """Inject a fan failure (rotor seizes, coasts to a stop)."""
        self.fan_motor.fail()
        if self._events is not None:
            self._events.emit(t, "hw.fan_failure", self.name)

    def repair_fan(self, t: float = 0.0) -> None:
        """Hot-swap the failed fan."""
        self.fan_motor.repair()
        if self._events is not None:
            self._events.emit(t, "hw.fan_repair", self.name)

    # -- hardware thermal protection ----------------------------------------

    def _protection(self, t: float) -> None:
        """PROCHOT / THERMTRIP state machine (runs before execution)."""
        cfg = self.config
        if not cfg.hw_protection or self._shutdown:
            return
        die = self.package.die_temperature
        if die >= cfg.shutdown_temp:
            self._shutdown = True
            if self._events is not None:
                self._events.emit(
                    t, "hw.thermtrip", self.name, temperature=round(die, 2)
                )
            return
        if not self._prochot and die >= cfg.prochot_temp:
            self._prochot = True
            self.dvfs.set_index(len(self.dvfs.table) - 1, t)
            if self._events is not None:
                self._events.emit(
                    t, "hw.prochot.assert", self.name, temperature=round(die, 2)
                )
        elif self._prochot and die <= cfg.prochot_temp - cfg.prochot_hysteresis:
            # De-assert: the hardware releases its clamp; whatever
            # governor is running decides the frequency from here.
            self._prochot = False
            if self._events is not None:
                self._events.emit(
                    t, "hw.prochot.deassert", self.name, temperature=round(die, 2)
                )

    # -- dynamics ----------------------------------------------------------

    def step(self, t: float, dt: float) -> None:
        cfg = self.config
        self._protection(t)
        # 1. workload execution at the current frequency
        if self._shutdown:
            # powered off: no execution, no CPU heat; the (possibly
            # failed) fan and the package keep evolving passively.
            self._cpu_power = 0.0
        elif self._prochot:
            # PROCHOT re-clamps every tick (governors cannot out-vote
            # the hardware while it is asserted).
            self.dvfs.set_index(len(self.dvfs.table) - 1, t)
            self.core.step(t, dt)
            self._cpu_power = self.power_model.power(
                self.dvfs.pstate,
                self.core.utilization,
                self.package.die_temperature,
            )
        else:
            self.core.step(t, dt)
            self._cpu_power = self.power_model.power(
                self.dvfs.pstate,
                self.core.utilization,
                self.package.die_temperature,
            )
        # 3. fan chip ingests measurements; auto mode updates its PWM
        self.fan_chip.update(
            remote_temp=self.package.die_temperature,
            local_temp=self.package.ambient_temperature,
            rpm=self.fan_motor.rpm,
        )
        # 4. rotor tracks the chip's PWM output
        self.fan_motor.set_duty(self.fan_chip.commanded_duty)
        self.fan_motor.step(t, dt)
        airflow = self.fan_aero.airflow(self.fan_motor.rpm)
        fan_power = self.fan_aero.power(self.fan_motor.rpm)
        # 5. thermal integration
        self.package.set_power(self._cpu_power)
        self.package.set_airflow(airflow)
        self.package.step(t, dt)
        # 6. wall power (a shut-down node still draws standby power)
        if self._shutdown:
            self._wall_power = 5.0 + fan_power
        else:
            self._wall_power = cfg.baseboard_power + self._cpu_power + fan_power
        self.meter.record(self._wall_power, dt)

    def compiled_step(self):
        """The fused per-tick closure of :mod:`repro.fastpath.node`.

        Byte-identical to :meth:`step` (the equivalence suite pins it);
        the closure pre-binds every sub-model and steps the package's
        RC network through its compiled stepper.
        """
        from ..fastpath.node import compile_node_step

        return compile_node_step(self)
