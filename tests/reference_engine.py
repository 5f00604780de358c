"""The reference oracle: a spec's result, computed one tick at a time.

:func:`reference_result` takes a :class:`~repro.runtime.RunSpec` or a
:class:`~repro.fleet.FleetSpec` and returns the canonical bytes of its
result.  The engine must produce the same bytes, whatever path it takes
to them; a test that compares the two pins the model, not the path.

The oracle shares only model assembly with the engine: a spec built
into its cluster and job (``_build_run``: the registries of
:mod:`repro.experiments.platform`, the
:class:`~repro.cluster.cluster.Cluster` constructor, the rigs), the
fleet's racks, nodes and :class:`~repro.fleet.FleetCoordinator`, and
the result records.  It steps every run with its own loop and its own
plain bodies, and sets no attribute on any class:

* :func:`reference_run` — the engine loop: advance the clock, tick every
  component in registration order, then fire every due task; ``until``
  and ``stop`` after every tick.  A cluster node ticks through
  :func:`reference_node_step` or :func:`reference_multicore_step`.
* :func:`reference_job_result` and :func:`reference_fault_result` — a
  cluster's two run protocols: a job run to its end (then its tail), and
  the fan-fail fault, on the sensor task of :func:`reference_sampler`,
  which records every sample through
  :meth:`TraceSet.record <repro.sim.trace.TraceSet.record>`.
* :func:`reference_rc_step` — the RC network integrated by
  re-assembling ``G``, ``b`` and ``C`` from the node/link graph every
  step, with no cached coefficients.
* :func:`reference_node_step` — one cluster node's tick through the
  public sub-model interfaces and the device oracle, with nothing
  hoisted; :func:`reference_multicore_step` is the same for an N-core
  node: per-core class powers at each core's temperature, the hottest
  core on the fan chip's diode.
* the **device oracle** — each per-tick device method as plain
  validator calls and register accessors, with no cached handles,
  factors or inline guards: :func:`reference_chip_update` (with
  :func:`reference_auto_curve_duty` and
  :func:`reference_commanded_duty`), :func:`reference_motor_step`,
  :func:`reference_core_step`, :func:`reference_power`, the P-state
  looked up from the table on every read (:func:`reference_pstate`),
  and the aero, convection and meter leaf models.
* :func:`reference_fleet` — a fleet's epochs: the coordinator's
  commands, each rack's control steps, and every node's tick on its own
  (:func:`reference_rack_tick`, :func:`reference_rc_step`,
  :func:`reference_observe`), with the rack telemetry a shard records.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from repro.cluster.cluster import Cluster, RunResult
from repro.cluster.multicore_node import MulticoreNode
from repro.cluster.node import Node
from repro.cluster.power_meter import PowerMeter
from repro.cpu.core import CpuCore
from repro.cpu.dvfs import Dvfs
from repro.cpu.power import CpuPowerModel
from repro.cpu.pstate import PState
from repro.errors import ConfigurationError, SimulationError
from repro.fan.adt7467 import (
    ADT7467,
    CONFIG_AUTO_REMOTE1,
    REG_PWM1_CONFIG,
    REG_PWM1_DUTY,
    REG_PWM1_MAX,
    REG_PWM1_MIN,
    REG_REMOTE1_TEMP,
    REG_TMIN,
    REG_TRANGE,
)
from repro.fan.aero import FanAero
from repro.fan.motor import FanMotor
from repro.fleet import (
    FleetCoordinator,
    FleetResult,
    FleetSpec,
    NodeFinal,
    RackFinal,
    RackReport,
)
from repro.fleet.model import (
    FleetNode,
    FleetRack,
    WorkloadProfile,
    build_rack,
    node_band,
)
from repro.runtime.execute import _build_run
from repro.telemetry import MetricsRegistry, TelemetrySnapshot
from repro.thermal.convection import ConvectionModel
from repro.thermal.multicore import MulticorePackage
from repro.thermal.rc import RCNetwork
from repro.units import (
    clamp,
    require_in_range,
    require_non_negative,
    require_positive,
)


def reference_rc_step(net: RCNetwork, dt: float) -> None:
    """One RC step: forward Euler on the freshly assembled system.

    The sub-step is half the stability limit ``min_i C_i / G_ii``, so
    the integration is stable for any (positive-resistance) network.
    """
    require_positive(dt, "dt")
    free, G, b, C = net._assemble()
    if not free:
        return
    diag = np.diag(G)
    with np.errstate(divide="ignore"):
        limits = np.where(diag > 0, C / np.maximum(diag, 1e-300), np.inf)
    h_max = 0.5 * float(np.min(limits))
    if not np.isfinite(h_max) or h_max <= 0:
        h_max = dt
    n_sub = max(1, int(np.ceil(dt / h_max)))
    h = dt / n_sub
    T = np.array([net._nodes[n].temperature for n in free], dtype=np.float64)
    for _ in range(n_sub):
        dTdt = (b - G @ T) / C
        T += h * dTdt
    if not np.all(np.isfinite(T)):
        raise SimulationError("thermal integration diverged (non-finite T)")
    for name, temp in zip(free, T):
        net._nodes[name].temperature = float(temp)


# ------------------------------------------------------------ device oracle
#
# Each device method as a sequence of public validator calls and
# ``read_register``/``poke`` register accesses, with nothing cached
# between calls.


def _temp_to_byte(celsius: float) -> int:
    return int(round(clamp(celsius, -128.0, 127.0))) & 0xFF


def _byte_to_temp(byte: int) -> float:
    return float(byte - 256 if byte >= 128 else byte)


def _duty_to_byte(duty: float) -> int:
    return int(round(clamp(duty, 0.0, 1.0) * 255.0))


def reference_commanded_duty(chip: ADT7467) -> float:
    """``ADT7467.commanded_duty``."""
    return chip.read_register(REG_PWM1_DUTY) / 255.0


def reference_auto_curve_duty(chip: ADT7467, celsius: float) -> float:
    """``ADT7467.auto_curve_duty``: every register read per call."""
    d_min = chip.read_register(REG_PWM1_MIN) / 255.0
    d_max = chip.read_register(REG_PWM1_MAX) / 255.0
    t_min = _byte_to_temp(chip.read_register(REG_TMIN))
    t_range = float(chip.read_register(REG_TRANGE))
    if celsius <= t_min:
        return d_min
    frac = clamp((celsius - t_min) / t_range, 0.0, 1.0)
    return d_min + (d_max - d_min) * frac


def reference_chip_update(chip: ADT7467, remote_temp: float) -> None:
    """``ADT7467.update``: every register write through ``poke``, the
    REMOTE1 byte on every call and in either mode."""
    chip.poke(REG_REMOTE1_TEMP, _temp_to_byte(remote_temp))
    if chip.read_register(REG_PWM1_CONFIG) == CONFIG_AUTO_REMOTE1:
        duty = reference_auto_curve_duty(
            chip, _byte_to_temp(chip.read_register(REG_REMOTE1_TEMP))
        )
        # Auto mode never exceeds the PWM1 max register.
        duty = min(duty, chip.read_register(REG_PWM1_MAX) / 255.0)
        chip.poke(REG_PWM1_DUTY, _duty_to_byte(duty))


def reference_motor_set_duty(motor: FanMotor, duty: float) -> None:
    """``FanMotor.set_duty``."""
    motor._duty = require_in_range(duty, 0.0, 1.0, "duty")


def reference_motor_step(motor: FanMotor, t: float, dt: float) -> None:
    """``FanMotor.step``: the lag factor recomputed every call."""
    require_positive(dt, "dt")
    target = motor.steady_state_rpm(motor._duty)
    p = motor.params
    tau = p.tau_up if target >= motor._rpm else p.tau_down
    alpha = 1.0 - math.exp(-dt / tau)
    motor._rpm += alpha * (target - motor._rpm)


def reference_pstate(dvfs: Dvfs) -> PState:
    """``Dvfs.pstate``: looked up in the table on every read."""
    return dvfs.table[dvfs._index]


def reference_frequency(dvfs: Dvfs) -> float:
    """``Dvfs.frequency``."""
    return reference_pstate(dvfs).frequency


def reference_core_step(core: CpuCore, t: float, dt: float) -> None:
    """``CpuCore.step``: the frequency read at each use, the DVFS stall
    consumed every tick."""
    if dt <= 0:
        raise SimulationError(f"core {core.name!r}: non-positive dt {dt!r}")
    stall = core.dvfs.consume_stall(dt)
    dt_work = dt - stall
    util_work = 0.0
    if dt_work > 0 and not core._rank.finished:
        util_work = require_in_range(
            core._rank.advance(dt_work, reference_frequency(core.dvfs)),
            0.0,
            1.0,
            f"utilization from rank on {core.name!r}",
        )
    # A stalled pipeline reads as busy to the OS (it is not idle),
    # so the stall contributes to utilization but not to progress.
    busy = util_work * dt_work + stall
    core._utilization = busy / dt
    core._busy_seconds += busy
    core._retired_cycles += util_work * dt_work * reference_frequency(core.dvfs)


def reference_power(
    model: CpuPowerModel,
    pstate: PState,
    utilization: float,
    die_temperature: float,
) -> float:
    """``CpuPowerModel.power``: switching power ``u · C_eff · V² · f``
    plus leakage ``leak_ref · V/V_ref · exp(scale · (T − t_ref))``, in
    the engine's operand order, floored at ``idle_floor``."""
    p = model.params
    u = require_in_range(utilization, 0.0, 1.0, "utilization")
    dynamic = u * p.c_eff * pstate.voltage**2 * pstate.frequency
    v_scale = pstate.voltage / p.v_ref
    t_scale = math.exp(p.leak_temp_scale * (die_temperature - p.t_ref))
    return max(dynamic + p.leak_ref * v_scale * t_scale, p.idle_floor)


def reference_airflow(aero: FanAero, rpm: float) -> float:
    """``FanAero.airflow``."""
    require_non_negative(rpm, "rpm")
    return aero.cfm_max * rpm / aero.rpm_max


def reference_fan_power(aero: FanAero, rpm: float) -> float:
    """``FanAero.power``."""
    require_non_negative(rpm, "rpm")
    return aero.power_floor + aero.power_max * (rpm / aero.rpm_max) ** 3


def reference_resistance(model: ConvectionModel, airflow_cfm: float) -> float:
    """``ConvectionModel.resistance``."""
    q = require_non_negative(airflow_cfm, "airflow_cfm")
    span = model.r_still - model.r_max_flow
    return model.r_max_flow + span / (1.0 + (q / model.q_ref) ** model.exponent)


def reference_meter_record(meter: PowerMeter, power_watts: float, dt: float) -> None:
    """``PowerMeter.record``."""
    require_non_negative(power_watts, "power")
    require_positive(dt, "dt")
    meter._energy += power_watts * dt
    meter._elapsed += dt


# ---------------------------------------------------------------- node tick


def _reference_execute(node: Node, t: float, dt: float) -> None:
    """Run the bound rank at the current frequency.  PROCHOT re-clamps
    every tick (governors cannot out-vote the hardware while it is
    asserted); on an N-core node the gang drags every follower class to
    its own floor."""
    if node._prochot:
        node.dvfs.set_index(len(node.dvfs.table) - 1, t)
    reference_core_step(node.core, t, dt)


def _reference_fan_package_meter(node: Node, t: float, dt: float) -> None:
    """The rest of a node's tick, after its CPU power is in the package:
    fan chip, rotor, airflow, thermal integration and wall power."""
    package = node.package
    motor = node.fan_motor
    # the fan chip ingests the diode reading; auto mode updates its PWM
    reference_chip_update(node.fan_chip, package.die_temperature)
    # the rotor tracks the chip's PWM output, pushed every tick
    reference_motor_set_duty(motor, reference_commanded_duty(node.fan_chip))
    reference_motor_step(motor, t, dt)
    airflow = reference_airflow(node.fan_aero, motor._rpm)
    fan_power = reference_fan_power(node.fan_aero, motor._rpm)
    # thermal integration: the package's inputs through its network's
    # public setters, then one RC step
    package.set_airflow(airflow)
    net = package._net
    package._conv_link.resistance = reference_resistance(
        package.convection, airflow
    )
    net.set_temperature(package._amb, package.ambient.temperature(t))
    if isinstance(package, MulticorePackage):
        for core, watts in zip(package._cores, package._powers):
            net.set_power(core, watts)
    else:
        net.set_power(package._die, package._power)
    reference_rc_step(net, dt)
    # wall power (a shut-down node still draws standby power)
    if node._shutdown:
        node._wall_power = 5.0 + fan_power
    else:
        node._wall_power = (
            node.config.baseboard_power + node._cpu_power + fan_power
        )
    reference_meter_record(node.meter, node._wall_power, dt)


def reference_node_step(node: Node, t: float, dt: float) -> None:
    """One tick of a single-core cluster node."""
    node._protection(t)
    if node._shutdown:
        # powered off: no execution, no CPU heat; the (possibly failed)
        # fan and the package keep evolving passively.
        node._cpu_power = 0.0
    else:
        _reference_execute(node, t, dt)
        node._cpu_power = reference_power(
            node.power_model,
            reference_pstate(node.dvfs),
            node.core.utilization,
            node.package.die_temperature,
        )
    node.package.set_power(node._cpu_power)
    _reference_fan_package_meter(node, t, dt)


def reference_multicore_step(node: MulticoreNode, t: float, dt: float) -> None:
    """One tick of an N-core cluster node: each core's power from its
    class's model at that class's P-state and the core's own
    temperature."""
    package = node.package
    node._protection(t)
    if node._shutdown:
        powers = [0.0] * package.n_cores
    else:
        _reference_execute(node, t, dt)
        utilization = node.core.utilization
        temps = package.core_temperatures()
        powers = [
            reference_power(
                node._class_models[k],
                reference_pstate(node.domains[k]),
                utilization,
                temps[i],
            )
            for i, k in enumerate(node._core_class)
        ]
    node._cpu_power = sum(powers)
    for core, watts in enumerate(powers):
        package.set_core_power(core, watts)
    _reference_fan_package_meter(node, t, dt)


def _reference_tick(component, t: float, dt: float) -> None:
    """A cluster node ticks through the oracle; any other component
    through its own ``step``."""
    if isinstance(component, MulticoreNode):
        reference_multicore_step(component, t, dt)
    elif isinstance(component, Node):
        reference_node_step(component, t, dt)
    else:
        component.step(t, dt)


# ----------------------------------------------------------------- run loop


def reference_run(
    engine,
    duration: Optional[float] = None,
    until: Optional[Callable[[], bool]] = None,
    max_ticks: Optional[int] = None,
) -> float:
    """Run ``engine`` one tick at a time: the engine loop's arguments,
    stop rules and errors."""
    if duration is None and until is None and max_ticks is None:
        raise ConfigurationError(
            "run() needs at least one of duration/until/max_ticks"
        )
    if engine._running:
        raise SimulationError("run() is not re-entrant")
    deadline_tick = None
    if duration is not None:
        if duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {duration!r}")
        deadline_tick = engine.clock.ticks + engine.clock.ticks_for(duration)
    engine._running = True
    engine._stop_requested = False
    clock = engine.clock
    # each task fires on the ticks T >= phase with (T - phase) % period == 0
    schedule = [
        (task, round(task.period / clock.dt), round(task.phase / clock.dt))
        for task in engine._tasks
    ]
    ticks_done = 0
    try:
        while True:
            if deadline_tick is not None and clock.ticks >= deadline_tick:
                break
            if max_ticks is not None and ticks_done >= max_ticks:
                if deadline_tick is not None or until is not None:
                    raise SimulationError(
                        f"max_ticks={max_ticks} exhausted before the stop "
                        "condition was reached"
                    )
                break
            t = clock.advance()
            for component in engine._components:
                _reference_tick(component, t, clock.dt)
            for task, period, phase in schedule:
                offset = clock.ticks - phase
                if offset >= 0 and offset % period == 0:
                    task.callback(clock.now)
            ticks_done += 1
            if engine._stop_requested:
                break
            if until is not None and until():
                break
    finally:
        engine._running = False
    return clock.now


# ------------------------------------------------------------ run protocols


def reference_sampler(cluster: Cluster) -> Callable[[float], None]:
    """The cluster's sensor task, recording every sample immediately."""
    traces = cluster.traces
    sensor_rounds = cluster.telemetry.counter("sim.sensor_rounds")
    sensor_samples = cluster.telemetry.counter("sim.samples")
    n_nodes = float(len(cluster.nodes))

    def sample_and_record(t: float) -> None:
        sensor_rounds.inc()
        sensor_samples.inc(n_nodes)
        for node in cluster.nodes:
            temp = node.sensor.sample(t)
            traces.record(f"{node.name}.temp", t, temp)
            traces.record(f"{node.name}.duty", t, node.fan_motor.duty)
            traces.record(f"{node.name}.rpm", t, node.fan_motor._rpm)
            traces.record(
                f"{node.name}.freq_ghz", t, reference_pstate(node.dvfs).frequency_ghz
            )
            traces.record(f"{node.name}.power", t, node._wall_power)
            traces.record(f"{node.name}.util", t, node.core.utilization)
            for governor in cluster._governors[node.name]:
                governor.on_sample(t, temp)

    return sample_and_record


def _reference_wire(cluster: Cluster) -> None:
    """The sensor task, then one task per governor at its own period,
    then every governor started."""
    engine = cluster.engine
    engine.every(cluster.config.node.sensor_period, reference_sampler(cluster))
    governors = [g for node in cluster.nodes for g in cluster._governors[node.name]]
    for governor in governors:
        engine.every(governor.period, governor.on_interval)
    for governor in governors:
        governor.start(engine.clock.now)


def reference_job_result(
    cluster: Cluster, job, timeout: float = 3600.0, tail: float = 0.0
) -> RunResult:
    """The job protocol: bind, wire, reset the meters, run until the job
    finishes (within ``timeout``), then the tail, and summarize."""
    cluster.bind_job(job)
    _reference_wire(cluster)
    for node in cluster.nodes:
        node.meter.reset()
    engine = cluster.engine
    t0 = engine.clock.now
    reference_run(
        engine,
        until=lambda: job.finished,
        max_ticks=engine.clock.ticks_for(timeout),
    )
    if not job.finished:
        raise SimulationError(
            f"job {job.name!r} did not finish within {timeout}s of "
            "simulated time"
        )
    execution_time = engine.clock.now - t0
    if tail > 0:
        reference_run(engine, duration=tail)
    telemetry = cluster.telemetry
    if telemetry.enabled:
        telemetry.gauge("sim.execution_seconds", job=job.name).set(
            execution_time
        )
        telemetry.gauge("sim.final_time_seconds").set(engine.clock.now)
    return cluster.result(job.name, execution_time)


def reference_fault_result(cluster: Cluster, job, fault) -> RunResult:
    """The fan-fail fault protocol: run to ``fault.at``, fail the victim's
    fan, ride out the horizon, and summarize over it."""
    cluster.bind_job(job)
    _reference_wire(cluster)
    engine = cluster.engine
    reference_run(engine, duration=fault.at)
    cluster.node(fault.node).fail_fan(t=engine.clock.now)
    reference_run(engine, duration=fault.horizon - fault.at)
    return cluster.result(job.name, fault.horizon)


# -------------------------------------------------------------------- fleet


def reference_apply_power(
    node: FleetNode, model: CpuPowerModel, dt: float
) -> float:
    """A fleet node's die power into its network; returns watts."""
    package = node.package
    watts = reference_power(
        model, node.table[node.pstate], node.util, package.die_temperature
    )
    package._net.set_power(package._die, watts)
    node.energy_j += watts * dt
    return watts


def reference_observe(node: FleetNode) -> None:
    """Track a fleet node's running die-temperature peak (after a step)."""
    die = node.package.die_temperature
    if die > node.max_die_c:
        node.max_die_c = die


def reference_rack_tick(
    rack: FleetRack, model: CpuPowerModel, dt: float
) -> None:
    """A rack's per-tick power injection and energy accounting (pre-step)."""
    total = 0.0
    for node in rack.nodes:
        total += reference_apply_power(node, model, dt)
    rack.epoch_power_sum += total
    rack.epoch_ticks_done += 1
    rack.fan_energy_j += rack.fan_power_w * dt


def _reference_report(
    rack: FleetRack, registry: MetricsRegistry, reported: list, n_ticks: int
) -> RackReport:
    """A rack's epoch-end report and the telemetry a shard records."""
    throttles = sum(node.throttles for node in rack.nodes)
    delta = throttles - reported[rack.index]
    reported[rack.index] = throttles
    label = f"{rack.index:03d}"
    registry.counter("fleet.shard.node_ticks", rack=label).inc(
        len(rack.nodes) * n_ticks
    )
    if delta:
        registry.counter("fleet.shard.throttles", rack=label).inc(delta)
    registry.gauge("fleet.rack.duty", rack=label).set(rack.duty)
    return RackReport(
        rack=rack.index,
        outlet_c=rack.outlet_c(),
        mean_power_w=rack.mean_power_w(),
        max_die_c=rack.max_die_c(),
        throttles=throttles,
        duty=rack.duty,
    )


def reference_fleet(spec: FleetSpec) -> FleetResult:
    """The whole fleet on one tick counter, every node on its own."""
    racks = [build_rack(spec, r) for r in range(spec.racks)]
    band = node_band(spec)
    model = CpuPowerModel(band[1])
    profile = WorkloadProfile(spec)
    coordinator = FleetCoordinator(spec)
    registry = MetricsRegistry()
    reported = [0] * spec.racks
    nodes = [node for rack in racks for node in rack.nodes]
    dt = spec.dt
    series = []
    tick, total, t = 0, spec.total_ticks(), 0.0
    while tick < total:
        n_ticks = min(spec.epoch_ticks, total - tick)
        inlets, pps = coordinator.begin_epoch(t)
        for rack, inlet, pp in zip(racks, inlets, pps):
            rack.begin_epoch(inlet, pp)
        for _ in range(n_ticks):
            if tick % spec.control_ticks == 0:
                for rack in racks:
                    rack.control_step(profile, tick * dt, band)
            for rack in racks:
                reference_rack_tick(rack, model, dt)
            for node in nodes:
                reference_rc_step(node.package._net, dt)
            for node in nodes:
                reference_observe(node)
            tick += 1
        reports = [_reference_report(r, registry, reported, n_ticks) for r in racks]
        t += n_ticks * dt
        coordinator.end_epoch(t, reports)
        last = coordinator.events[len(coordinator.events) - 1].data
        series.append(
            (t, last["total_power_w"], last["max_die_c"], last["pp_global"])
        )
    return FleetResult(
        spec=spec,
        nodes=tuple(
            NodeFinal(
                rack=node.rack,
                node=node.index,
                final_die_c=node.package.die_temperature,
                final_sink_c=node.package.sink_temperature,
                max_die_c=node.max_die_c,
                energy_j=node.energy_j,
                pstate_index=node.pstate,
                throttles=node.throttles,
            )
            for node in nodes
        ),
        racks=tuple(
            RackFinal(
                rack=rack.index,
                inlet_c=rack.inlet_c,
                duty=rack.duty,
                fan_energy_j=rack.fan_energy_j,
            )
            for rack in racks
        ),
        series=tuple(series),
        events=tuple(coordinator.events),
        telemetry=TelemetrySnapshot.merge(
            coordinator.registry.snapshot(), registry.snapshot()
        ),
    )


# ------------------------------------------------------------------- oracle


@functools.lru_cache(maxsize=None)
def reference_result(spec) -> bytes:
    """The canonical bytes of ``spec``'s result (computed once per
    process): a :class:`~repro.fleet.FleetSpec` through
    :func:`reference_fleet`, a :class:`~repro.runtime.RunSpec` through
    its run protocol."""
    if isinstance(spec, FleetSpec):
        return reference_fleet(spec).canonical_bytes()
    cluster, job = _build_run(spec)
    if spec.fault is None:
        result = reference_job_result(cluster, job, spec.timeout, spec.tail)
    else:
        result = reference_fault_result(cluster, job, spec.fault)
    return result.canonical_bytes()
