"""Fused per-tick step for one cluster :class:`~repro.cluster.node.Node`.

:func:`compile_node_step` pre-binds every sub-model the node touches
each tick (core, DVFS, power model, fan chip, motor, aero, package,
meter) and returns a single closure replicating
:meth:`repro.cluster.node.Node.step` — same branch structure, same
sub-model calls, same event emissions — minus the per-tick overhead
the reference path pays: attribute chains, property descriptors and
re-validation of values that are structurally in range.

The thermal package step is fused in-line: instead of routing through
``CpuPackage.step`` → ``ThermalLink.resistance`` (property + validation
+ observer notify) → ``RCNetwork.step``, the closure updates the
convective coefficient only when its value actually changed, writes the
boundary temperature and die power directly, and calls the network's
:class:`~repro.fastpath.rc.CompiledRC` stepper.  Values that the
reference path validates (CPU power, airflow, boundary temperature) are
produced by the same models with the same guarantees, so skipping the
redundant check cannot change behaviour; the one reachable failure
(negative / NaN CPU power) is re-routed through the reference
``CpuPackage.set_power`` so the raised error is identical.

Everything here is guarded by the byte-identical equivalence suite —
any semantic drift from ``Node.step`` fails CI.
"""

from __future__ import annotations

from typing import Callable

from ..cluster.node import Node
from ..thermal.ambient import ConstantAmbient
from ..sim.marker import hotpath
from .rc import compile_network

__all__ = ["compile_node_step", "compile_node_step_split"]


def compile_node_step(node: Node) -> Callable[[float, float], None]:
    """Compile ``node``'s per-tick update into one fused closure."""
    baseboard = node.config.baseboard_power
    protection = node._protection
    core = node.core
    core_step = core.step
    dvfs = node.dvfs
    last_pstate = len(dvfs.table) - 1
    power_fn = node.power_model.power
    fan_chip = node.fan_chip
    chip_update = fan_chip.update
    motor = node.fan_motor
    motor_set_duty = motor.set_duty
    motor_step = motor.step
    aero_airflow = node.fan_aero.airflow
    aero_power = node.fan_aero.power
    meter_record = node.meter.record

    package = node.package
    net = package._net
    crc = compile_network(net)
    crc_step = crc.step
    mark_dirty = crc.mark_link_dirty
    die_node = net._nodes[package._die]
    amb_node = net._nodes[package._amb]
    powers = net._powers
    die_key = package._die
    conv_resistance = package.convection.resistance
    conv_link = package._conv_link
    conv_slot = conv_link._slot
    ambient = package.ambient
    ambient_temperature = ambient.temperature
    # A ConstantAmbient can never change, so its boundary write hoists
    # to a pre-computed float (still written each tick, matching the
    # reference's unconditional set_temperature).
    constant_ambient = (
        ambient._celsius if type(ambient) is ConstantAmbient else None
    )

    @hotpath
    def step(t: float, dt: float) -> None:
        protection(t)
        if node._shutdown:
            # powered off: no execution, no CPU heat; the (possibly
            # failed) fan and the package keep evolving passively.
            cpu_power = 0.0
        else:
            if node._prochot:
                # PROCHOT re-clamps every tick (governors cannot
                # out-vote the hardware while it is asserted).
                dvfs.set_index(last_pstate, t)
            core_step(t, dt)
            cpu_power = power_fn(
                dvfs.pstate, core._utilization, die_node.temperature
            )
        node._cpu_power = cpu_power
        chip_update(die_node.temperature, amb_node.temperature, motor._rpm)
        motor_set_duty(fan_chip.commanded_duty)
        motor_step(t, dt)
        rpm = motor._rpm
        airflow = aero_airflow(rpm)
        fan_power = aero_power(rpm)
        # fused CpuPackage.step
        if not (cpu_power >= 0.0):
            package.set_power(cpu_power)  # raises the reference error
        package._power = cpu_power
        package._airflow = airflow
        r = conv_resistance(airflow)
        if r != conv_link._resistance:
            conv_link._resistance = r
            mark_dirty(conv_slot)
        if constant_ambient is None:
            amb_node.temperature = float(ambient_temperature(t))
        else:
            amb_node.temperature = constant_ambient
        powers[die_key] = cpu_power
        crc_step(dt)
        if node._shutdown:
            wall = 5.0 + fan_power
        else:
            wall = baseboard + cpu_power + fan_power
        node._wall_power = wall
        meter_record(wall, dt)

    return step


def compile_node_step_split(node: Node, index: int, b_die, conv_r, amb_col):
    """Split :func:`compile_node_step` around the RC integration.

    For batched (lockstep multi-run) execution the thermal solve is
    hoisted out of the per-node closure so one stacked stepper
    (:class:`repro.fastpath.batch.PackageBatch`) can integrate every
    node of every run at once.  The per-tick sequence is cut exactly at
    the reference closure's ``crc_step(dt)`` call:

    * ``pre(t, dt)`` — everything before the RC step, statement for
      statement (protection, DVFS/core/power, fan chip/motor/aero, the
      fused ``CpuPackage.step`` prologue).  Instead of stepping the
      network it publishes the three per-tick RC inputs into the
      batch's stacked arrays at ``index``: die power → ``b_die``,
      convective resistance → ``conv_r``, boundary temperature →
      ``amb_col``.  The live objects (``conv_link._resistance``,
      ``amb_node.temperature``, the powers dict) are kept coherent with
      the same writes the fused closure makes, so a fallback to serial
      stepping resumes from identical state.
    * ``post(t, dt)`` — everything after the RC step: wall power and
      the energy meter.  It emits no events and reads only node-local
      state, which is what makes interleaving runs at tick granularity
      order-safe.

    Every floating-point operation, branch and event emission matches
    the unsplit closure; only the integration moved.
    """
    baseboard = node.config.baseboard_power
    protection = node._protection
    core = node.core
    core_step = core.step
    dvfs = node.dvfs
    last_pstate = len(dvfs.table) - 1
    power_fn = node.power_model.power
    fan_chip = node.fan_chip
    chip_update = fan_chip.update
    motor = node.fan_motor
    motor_set_duty = motor.set_duty
    motor_step = motor.step
    aero_airflow = node.fan_aero.airflow
    aero_power = node.fan_aero.power
    meter_record = node.meter.record

    package = node.package
    net = package._net
    die_node = net._nodes[package._die]
    amb_node = net._nodes[package._amb]
    powers = net._powers
    die_key = package._die
    conv_resistance = package.convection.resistance
    conv_link = package._conv_link
    ambient = package.ambient
    ambient_temperature = ambient.temperature
    constant_ambient = (
        ambient._celsius if type(ambient) is ConstantAmbient else None
    )
    # cpu_power / fan_power hand-off from pre to post, written in place.
    box = [0.0, 0.0]

    @hotpath
    def pre(t: float, dt: float) -> None:
        protection(t)
        if node._shutdown:
            cpu_power = 0.0
        else:
            if node._prochot:
                dvfs.set_index(last_pstate, t)
            core_step(t, dt)
            cpu_power = power_fn(
                dvfs.pstate, core._utilization, die_node.temperature
            )
        node._cpu_power = cpu_power
        chip_update(die_node.temperature, amb_node.temperature, motor._rpm)
        motor_set_duty(fan_chip.commanded_duty)
        motor_step(t, dt)
        rpm = motor._rpm
        airflow = aero_airflow(rpm)
        fan_power = aero_power(rpm)
        # fused CpuPackage.step, minus the network integration
        if not (cpu_power >= 0.0):
            package.set_power(cpu_power)  # raises the reference error
        package._power = cpu_power
        package._airflow = airflow
        r = conv_resistance(airflow)
        if r != conv_link._resistance:
            conv_link._resistance = r
        if constant_ambient is None:
            amb = float(ambient_temperature(t))
        else:
            amb = constant_ambient
        amb_node.temperature = amb
        powers[die_key] = cpu_power
        # publish this tick's RC inputs into the batch stacks
        b_die[index] = cpu_power
        conv_r[index] = r
        amb_col[index] = amb
        box[0] = cpu_power
        box[1] = fan_power

    @hotpath
    def post(t: float, dt: float) -> None:
        fan_power = box[1]
        if node._shutdown:
            wall = 5.0 + fan_power
        else:
            wall = baseboard + box[0] + fan_power
        node._wall_power = wall
        meter_record(wall, dt)

    return pre, post
