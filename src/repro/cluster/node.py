"""One cluster node: the full hardware wiring.

Per simulation tick a :class:`Node` advances its parts in physical
dependency order:

1. **CPU core** — runs the bound workload rank at the current DVFS
   frequency; yields utilization.
2. **CPU power** — from P-state, utilization and die temperature.
3. **Fan chip** — the ADT7467 ingests the thermal-diode temperature;
   in auto mode it recomputes its PWM output (hardware static control).
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

from typing import Callable, Optional, Tuple

import numpy as np

from ..config import NodeConfig
from ..cpu.core import CpuCore, RankInterface
from ..cpu.dvfs import Dvfs
from ..cpu.power import CpuPowerModel
from ..fan.adt7467 import ADT7467
from ..fan.driver import FanDriver
from ..fan.motor import FanMotor
from ..i2c.bus import I2cBus
from ..sim.engine import Component
from ..sim.events import EventLog
from ..sim.marker import hotpath
from ..thermal.ambient import AmbientModel, ConstantAmbient
from ..thermal.package import CpuPackage
from ..thermal.sensor import ThermalSensor

__all__ = ["Node"]

_StepFn = Callable[[float, float], None]


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
    def is_shutdown(self) -> bool:
        """True once THERMTRIP has powered the node off."""
        return self._shutdown

    def fail_fan(self, t: float = 0.0) -> None:
        """Inject a fan failure (rotor seizes, coasts to a stop)."""
        self.fan_motor.fail()
        if self._events is not None:
            self._events.emit(t, "hw.fan_failure", self.name)

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

    def _package_io(self) -> Tuple[Callable[[], float], Callable[[bool], None]]:
        """The package-specific slice of :meth:`tick_pair`, hoisted.

        Returns ``(diode, io)``.  ``diode()`` is the remote-diode reading
        protection and the fan chip see: the die's temperature.
        ``io(on)`` sets the CPU power at the die's temperature (0 W when
        off) as ``_cpu_power`` and in the package and its network,
        raising through :meth:`CpuPackage.set_power` if negative or NaN.
        Subclasses override only this."""
        package = self.package
        set_power = package.set_power
        die_node = package._net._nodes[package._die]
        powers = package._net._powers
        die_key = package._die
        power_fn = self.power_model.power
        dvfs = self.dvfs
        core = self.core

        @hotpath
        def diode() -> float:
            return die_node.temperature

        @hotpath
        def io(on: bool) -> None:
            if on:
                cpu_power = power_fn(
                    dvfs.pstate, core._utilization, die_node.temperature
                )
                if not (cpu_power >= 0.0):
                    set_power(cpu_power)  # raises the setter's error
            else:
                cpu_power = 0.0
            self._cpu_power = cpu_power
            package._power = cpu_power
            powers[die_key] = cpu_power

        return diode, io

    def tick_pair(self) -> Tuple[_StepFn, _StepFn]:
        """This node's tick, hoisted, as the halves around the RC step.

        Binds every sub-model once and returns ``(pre, post)``:

        * ``pre(t, dt)`` — protection, execution and CPU power, the fan
          chip, motor and aero, then the package's inputs: heated-node
          powers, convective resistance and ambient temperature,
          written into the live RC network objects.
        * ``post(t, dt)`` — wall power and the energy meter.  It emits
          no events and reads only node-local state.

        Between the halves the caller integrates the package network:
        ``package._net.step(dt)`` (:meth:`compiled_step`), or one
        stacked step for many nodes (:mod:`repro.fastpath.batch`).

        Only the diode reading, the CPU power and its write into the
        network depend on the package; they come from
        :meth:`_package_io`.  The halves skip what the package's public
        setters would re-check: values the models produce in range, a
        convective resistance that did not change (a changed one is
        reported to the network, which rebuilds just its rows).  The one
        reachable failure, a negative or NaN CPU power, still raises
        through the package's setter.  :meth:`_protection` runs only on
        a tick whose diode reading crosses one of its thresholds; on
        every other tick its state machine has nothing to do.

        **Work on change.**  Actuator state moves at control events (a
        PWM1 write, a P-state switch), not every tick, so the halves
        push it only when it changed: the motor's duty is set when the
        chip's PWM1 byte differs from the last byte pushed (the first
        tick always pushes), the core consumes DVFS stall only while a
        switch left some pending, and the fan chip runs its automatic
        curve only in auto mode (in manual mode it stores the reading).

        **The guard rule.**  The device methods the halves call
        (:meth:`ADT7467.update <repro.fan.adt7467.ADT7467.update>`,
        :meth:`FanMotor.step <repro.fan.motor.FanMotor.step>`,
        :meth:`CpuCore.step <repro.cpu.core.CpuCore.step>`, and the
        power, aero, convection and meter models) keep every input
        check as an inline, NaN-safe comparison such as
        ``if not (0.0 <= u <= 1.0):``.  Only its failing branch calls
        the original validator, through :func:`~repro.sim.marker.reject`
        or a ``@coldpath`` helper, so each error keeps its type and text
        and the common branch builds no message.
        """
        cfg = self.config
        baseboard = cfg.baseboard_power
        protect = cfg.hw_protection
        shutdown_temp = cfg.shutdown_temp
        prochot_temp = cfg.prochot_temp
        release_temp = cfg.prochot_temp - cfg.prochot_hysteresis
        protection = self._protection
        core_step = self.core.step
        dvfs = self.dvfs
        last_pstate = len(dvfs.table) - 1
        diode, package_io = self._package_io()
        fan_chip = self.fan_chip
        chip_update = fan_chip.update
        duty_register = fan_chip._r_duty
        # The PWM1 byte last pushed to the motor; -1 pushes on the
        # first tick.
        pushed = -1
        motor = self.fan_motor
        motor_set_duty = motor.set_duty
        motor_step = motor.step
        aero_airflow = self.fan_aero.airflow
        aero_power = self.fan_aero.power
        meter_record = self.meter.record

        package = self.package
        net = package._net
        amb_node = net._nodes[package._amb]
        conv_resistance = package.convection.resistance
        conv_link = package._conv_link
        conv_slot = conv_link._slot
        mark_dirty = net.mark_link_dirty
        ambient = package.ambient
        ambient_temperature = ambient.temperature
        # A ConstantAmbient never changes: its boundary write is a
        # pre-computed float, still written every tick.
        constant_ambient = (
            ambient._celsius if type(ambient) is ConstantAmbient else None
        )

        @hotpath
        def pre(t: float, dt: float) -> None:
            nonlocal pushed
            die = diode()
            if protect and not self._shutdown and (
                die >= shutdown_temp
                or (die <= release_temp if self._prochot else die >= prochot_temp)
            ):
                protection(t)
            # powered off: no execution, no CPU heat; the (possibly
            # failed) fan and the package keep evolving passively.
            on = not self._shutdown
            if on:
                if self._prochot:
                    # PROCHOT re-clamps every tick (governors cannot
                    # out-vote the hardware while it is asserted).
                    dvfs.set_index(last_pstate, t)
                core_step(t, dt)
            package_io(on)
            # the fan chip ingests the diode reading; auto mode updates
            # its PWM, and the rotor tracks a changed PWM1 byte
            chip_update(die)
            duty_byte = duty_register.value
            if duty_byte != pushed:
                pushed = duty_byte
                motor_set_duty(duty_byte / 255.0)
            motor_step(t, dt)
            airflow = aero_airflow(motor._rpm)
            # the package's remaining inputs for this tick's integration
            package._airflow = airflow
            r = conv_resistance(airflow)
            if r != conv_link._resistance:
                conv_link._resistance = r
                mark_dirty(conv_slot)
            if constant_ambient is None:
                amb_node.temperature = float(ambient_temperature(t))
            else:
                amb_node.temperature = constant_ambient

        @hotpath
        def post(t: float, dt: float) -> None:
            # wall power (a shut-down node still draws standby power)
            fan_power = aero_power(motor._rpm)
            if self._shutdown:
                wall = 5.0 + fan_power
            else:
                wall = baseboard + self._cpu_power + fan_power
            self._wall_power = wall
            meter_record(wall, dt)

        return pre, post

    def compiled_step(self) -> _StepFn:
        """:meth:`tick_pair` around the package network's RC step."""
        pre, post = self.tick_pair()
        rc_step = self.package._net.step

        @hotpath
        def step(t: float, dt: float) -> None:
            pre(t, dt)
            rc_step(dt)
            post(t, dt)

        return step

    def step(self, t: float, dt: float) -> None:
        """One tick.  The engine hoists it once per run
        (:meth:`compiled_step`); a direct call hoists it every time."""
        self.compiled_step()(t, dt)
