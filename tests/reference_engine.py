"""The tick-by-tick reference engine: the equivalence oracle.

The simulator runs every spec on one engine path:
:func:`~repro.sim.engine.run_fused` steps pre-bound component closures
in tick batches between task boundaries,
:meth:`Cluster.run_job <repro.cluster.cluster.Cluster.run_job>` runs
as one lane of :func:`~repro.fastpath.batch.run_jobs_batch` with a
multi-node cluster's packages stacked, :class:`~repro.cluster.cluster.Cluster`
records samples through block writers, and
:class:`~repro.runtime.RunExecutor` runs sweeps as lockstep groups.
This module keeps the plain semantics all of that must reproduce byte
for byte:

* :func:`reference_run` — one tick at a time: advance the clock, call
  every component's ``step`` in registration order, then
  ``PeriodicTask.maybe_fire`` for every task; ``until`` and ``stop``
  after every tick.
* :func:`reference_run_job` — a job run as one :func:`reference_run`
  to its end, then the tail: one spec at a time, every node stepping
  its own network.
* :func:`reference_sampler` — each sample written through
  :meth:`TraceSet.record <repro.sim.trace.TraceSet.record>` from the
  public node properties.
* :func:`reference_rc_step` — the RC network integrated by
  re-assembling ``G``, ``b`` and ``C`` from the node/link graph every
  step, with no cached coefficients.
* :func:`reference_node_step` — one cluster node's tick written out
  through the public sub-model interfaces, with no hoisting.
* :func:`reference_multicore_step` — the same for an N-core node:
  per-core class powers at each core's temperature, the hottest core
  on the fan chip's diode.
* the **device oracle** — the per-tick device methods as plain
  validator calls and register accessors, with no cached handles,
  factors or inline guards: :func:`reference_chip_update` (with
  :func:`reference_auto_curve_duty` and
  :func:`reference_commanded_duty`), :func:`reference_motor_step`,
  :func:`reference_core_step`, :func:`reference_power`, the P-state
  looked up from the table on every read
  (:func:`reference_pstate`), and the aero, convection and meter
  leaf models (:data:`DEVICE_ORACLE` lists every one).
* the **fleet node oracle** — a fleet shard's per-node tick as it ran
  before :class:`~repro.fleet.shard.NodeStack` stacked it:
  :func:`reference_apply_power`, :func:`reference_observe` and
  :func:`reference_rack_tick`, driven by :class:`ReferenceNodeTick`,
  which stands in for a shard's stack.
* :func:`reference_path` — installs all of these (and runs every
  spec an executor maps through ``execute_spec``, so through
  :func:`reference_run_job`, never in lockstep)
  for the duration of a ``with`` block, so whatever runs inside — an
  experiment, a series, a served spec — runs on the reference.
* :class:`UngroupedExecutor` — the engine without grouping: every spec
  runs through ``execute_spec`` on its own (a multi-node spec still
  stacks its own nodes), the one-lane baseline the grouping tests
  compare against.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

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
    REG_LOCAL_TEMP,
    REG_PWM1_CONFIG,
    REG_PWM1_DUTY,
    REG_PWM1_MAX,
    REG_PWM1_MIN,
    REG_REMOTE1_TEMP,
    REG_TACH1_HIGH,
    REG_TACH1_LOW,
    REG_TMIN,
    REG_TRANGE,
    TACH_CLOCK_PER_MINUTE,
)
from repro.fan.aero import FanAero
from repro.fan.motor import FanMotor
from repro.fleet.model import FleetNode, FleetRack
from repro.runtime import RunExecutor, execute_spec
from repro.sim.engine import SimulationEngine
from repro.thermal.convection import ConvectionModel
from repro.thermal.rc import RCNetwork
from repro.units import (
    clamp,
    require_in_range,
    require_non_negative,
    require_positive,
)

__all__ = [
    "DEVICE_ORACLE",
    "ReferenceNodeTick",
    "UngroupedExecutor",
    "reference_airflow",
    "reference_apply_power",
    "reference_auto_curve_duty",
    "reference_chip_update",
    "reference_commanded_duty",
    "reference_core_step",
    "reference_fan_power",
    "reference_frequency",
    "reference_meter_record",
    "reference_motor_set_duty",
    "reference_motor_step",
    "reference_multicore_step",
    "reference_node_step",
    "reference_observe",
    "reference_path",
    "reference_power",
    "reference_pstate",
    "reference_rack_tick",
    "reference_rc_step",
    "reference_resistance",
    "reference_run",
    "reference_run_job",
    "reference_sampler",
]


def reference_rc_step(net: RCNetwork, dt: float) -> None:
    """``net.step(dt)``: forward Euler on the freshly assembled system.

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
# ``peek``/``poke`` register accesses, with nothing cached between calls.


def _temp_to_byte(celsius: float) -> int:
    return int(round(clamp(celsius, -128.0, 127.0))) & 0xFF


def _byte_to_temp(byte: int) -> float:
    return float(byte - 256 if byte >= 128 else byte)


def _duty_to_byte(duty: float) -> int:
    return int(round(clamp(duty, 0.0, 1.0) * 255.0))


def reference_commanded_duty(chip: ADT7467) -> float:
    """``ADT7467.commanded_duty``."""
    return chip.peek(REG_PWM1_DUTY) / 255.0


def reference_auto_curve_duty(chip: ADT7467, celsius: float) -> float:
    """``ADT7467.auto_curve_duty``: every register peeked per call."""
    d_min = chip.peek(REG_PWM1_MIN) / 255.0
    d_max = chip.peek(REG_PWM1_MAX) / 255.0
    t_min = _byte_to_temp(chip.peek(REG_TMIN))
    t_range = float(chip.peek(REG_TRANGE))
    if celsius <= t_min:
        return d_min
    frac = clamp((celsius - t_min) / t_range, 0.0, 1.0)
    return d_min + (d_max - d_min) * frac


def reference_chip_update(
    chip: ADT7467, remote_temp: float, local_temp: float, rpm: float
) -> None:
    """``ADT7467.update``: every register write through ``poke``."""
    chip.poke(REG_REMOTE1_TEMP, _temp_to_byte(remote_temp))
    chip.poke(REG_LOCAL_TEMP, _temp_to_byte(local_temp))
    if rpm <= 0.0:
        count = 0xFFFF  # stalled fan reads as all-ones
    else:
        count = min(0xFFFF, int(round(TACH_CLOCK_PER_MINUTE / rpm)))
    chip.poke(REG_TACH1_LOW, count & 0xFF)
    chip.poke(REG_TACH1_HIGH, (count >> 8) & 0xFF)
    if chip.peek(REG_PWM1_CONFIG) == CONFIG_AUTO_REMOTE1:
        duty = reference_auto_curve_duty(
            chip, _byte_to_temp(chip.peek(REG_REMOTE1_TEMP))
        )
        # Auto mode never exceeds the PWM1 max register.
        duty = min(duty, chip.peek(REG_PWM1_MAX) / 255.0)
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
    return dvfs.pstate.frequency


def reference_core_step(core: CpuCore, t: float, dt: float) -> None:
    """``CpuCore.step``: the frequency read at each use."""
    if dt <= 0:
        raise SimulationError(f"core {core.name!r}: non-positive dt {dt!r}")
    core.dvfs.note_time(t)
    stall = core.dvfs.consume_stall(dt)
    dt_work = (dt - stall) * (1.0 - core._throttle)
    util_work = 0.0
    if dt_work > 0 and not core._rank.finished:
        util_work = require_in_range(
            core._rank.advance(dt_work, core.dvfs.frequency),
            0.0,
            1.0,
            f"utilization from rank on {core.name!r}",
        )
    # A stalled pipeline reads as busy to the OS (it is not idle),
    # so the stall contributes to utilization but not to progress.
    busy = util_work * dt_work + stall
    core._utilization = busy / dt
    core._busy_seconds += busy
    core._elapsed += dt
    core._retired_cycles += util_work * dt_work * core.dvfs.frequency


def reference_power(
    model: CpuPowerModel,
    pstate: PState,
    utilization: float,
    die_temperature: float,
) -> float:
    """``CpuPowerModel.power``: the sum of the two public terms."""
    total = model.dynamic_power(pstate, utilization) + model.leakage_power(
        pstate, die_temperature
    )
    return max(total, model.params.idle_floor)


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
    meter._last_power = power_watts
    meter._peak = max(meter._peak, power_watts)


#: ``(class, attribute, oracle)`` for every device method the oracle
#: replaces inside :func:`reference_path`.
DEVICE_ORACLE = (
    (ADT7467, "update", reference_chip_update),
    (ADT7467, "auto_curve_duty", reference_auto_curve_duty),
    (ADT7467, "commanded_duty", property(reference_commanded_duty)),
    (FanMotor, "set_duty", reference_motor_set_duty),
    (FanMotor, "step", reference_motor_step),
    (Dvfs, "pstate", property(reference_pstate)),
    (Dvfs, "frequency", property(reference_frequency)),
    (CpuCore, "step", reference_core_step),
    (CpuPowerModel, "power", reference_power),
    (FanAero, "airflow", reference_airflow),
    (FanAero, "power", reference_fan_power),
    (ConvectionModel, "resistance", reference_resistance),
    (PowerMeter, "record", reference_meter_record),
)


def reference_node_step(node: Node, t: float, dt: float) -> None:
    """``node.step(t, dt)``: the tick through the sub-model interfaces."""
    cfg = node.config
    node._protection(t)
    # 1. workload execution at the current frequency
    if node._shutdown:
        # powered off: no execution, no CPU heat; the (possibly
        # failed) fan and the package keep evolving passively.
        node._cpu_power = 0.0
    elif node._prochot:
        # PROCHOT re-clamps every tick (governors cannot out-vote
        # the hardware while it is asserted).
        node.dvfs.set_index(len(node.dvfs.table) - 1, t)
        node.core.step(t, dt)
        node._cpu_power = node.power_model.power(
            node.dvfs.pstate,
            node.core.utilization,
            node.package.die_temperature,
        )
    else:
        node.core.step(t, dt)
        node._cpu_power = node.power_model.power(
            node.dvfs.pstate,
            node.core.utilization,
            node.package.die_temperature,
        )
    # 3. fan chip ingests measurements; auto mode updates its PWM
    node.fan_chip.update(
        remote_temp=node.package.die_temperature,
        local_temp=node.package.ambient_temperature,
        rpm=node.fan_motor.rpm,
    )
    # 4. rotor tracks the chip's PWM output
    node.fan_motor.set_duty(node.fan_chip.commanded_duty)
    node.fan_motor.step(t, dt)
    airflow = node.fan_aero.airflow(node.fan_motor.rpm)
    fan_power = node.fan_aero.power(node.fan_motor.rpm)
    # 5. thermal integration
    node.package.set_power(node._cpu_power)
    node.package.set_airflow(airflow)
    node.package.step(t, dt)
    # 6. wall power (a shut-down node still draws standby power)
    if node._shutdown:
        node._wall_power = 5.0 + fan_power
    else:
        node._wall_power = cfg.baseboard_power + node._cpu_power + fan_power
    node.meter.record(node._wall_power, dt)


def reference_multicore_step(node: MulticoreNode, t: float, dt: float) -> None:
    """``node.step(t, dt)`` for an N-core node, through the public
    package interfaces."""
    cfg = node.config
    package = node.package
    node._protection(t)
    # 1. workload execution at the lead frequency; 2. per-core power
    # from each class's model at that core's temperature.
    if node._shutdown:
        powers = [0.0] * package.n_cores
        node._cpu_power = 0.0
    else:
        if node._prochot:
            # PROCHOT re-clamps the lead every tick; the gang drags
            # every follower class to its own floor.
            node.dvfs.set_index(len(node.dvfs.table) - 1, t)
        node.core.step(t, dt)
        utilization = node.core.utilization
        temps = package.core_temperatures()
        powers = [
            node._class_models[k].power(
                node.domains[k].pstate, utilization, temps[i]
            )
            for i, k in enumerate(node._core_class)
        ]
        node._cpu_power = sum(powers)
    # 3. fan chip ingests measurements; auto mode updates its PWM
    node.fan_chip.update(
        remote_temp=package.die_temperature,
        local_temp=package.ambient_temperature,
        rpm=node.fan_motor.rpm,
    )
    # 4. rotor tracks the chip's PWM output
    node.fan_motor.set_duty(node.fan_chip.commanded_duty)
    node.fan_motor.step(t, dt)
    airflow = node.fan_aero.airflow(node.fan_motor.rpm)
    fan_power = node.fan_aero.power(node.fan_motor.rpm)
    # 5. thermal integration across the floorplan
    package.set_powers(powers)
    package.set_airflow(airflow)
    package.step(t, dt)
    # 6. wall power (a shut-down node still draws standby power)
    if node._shutdown:
        node._wall_power = 5.0 + fan_power
    else:
        node._wall_power = cfg.baseboard_power + node._cpu_power + fan_power
    node.meter.record(node._wall_power, dt)


def reference_apply_power(
    node: FleetNode, model: CpuPowerModel, dt: float
) -> float:
    """A fleet node's die power into its network; returns watts."""
    package = node.package
    watts = model.power(
        node.table[node.pstate], node.util, package.die_temperature
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


class ReferenceNodeTick:
    """Stands in for a shard's :class:`~repro.fleet.shard.NodeStack`:
    every node ticked on its own, the accumulators kept on the node and
    rack objects throughout, so loading and storing are no-ops.  It never
    runs on held inputs: the shard's batch steps from the objects every
    tick."""

    def __init__(self, racks, model: CpuPowerModel) -> None:
        self.racks = racks
        self.model = model

    def hold(self, batch) -> bool:
        return False

    def load(self) -> None:
        pass

    def refresh(self) -> None:
        pass

    def inject(self, dt: float) -> None:
        for rack in self.racks:
            reference_rack_tick(rack, self.model, dt)

    def observe(self) -> None:
        for rack in self.racks:
            for node in rack.nodes:
                reference_observe(node)

    def store(self) -> None:
        pass


def _reference_step(engine: SimulationEngine) -> float:
    clock = engine.clock
    t = clock.advance()
    dt = clock.dt
    for component in engine._components:
        component.step(t, dt)
    for task in engine._tasks:
        task.maybe_fire(clock)
    return t


def reference_run(
    engine: SimulationEngine,
    duration: Optional[float] = None,
    until: Optional[Callable[[], bool]] = None,
    max_ticks: Optional[int] = None,
) -> float:
    """``engine.run(...)`` one tick at a time (same arguments, errors)."""
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
    ticks_done = 0
    try:
        while True:
            if deadline_tick is not None and engine.clock.ticks >= deadline_tick:
                break
            if max_ticks is not None and ticks_done >= max_ticks:
                if deadline_tick is not None or until is not None:
                    raise SimulationError(
                        f"max_ticks={max_ticks} exhausted before the stop "
                        "condition was reached"
                    )
                break
            _reference_step(engine)
            ticks_done += 1
            if engine._stop_requested:
                break
            if until is not None and until():
                break
    finally:
        engine._running = False
    return engine.clock.now


def reference_run_job(
    cluster: Cluster, job, timeout: float = 3600.0, tail: float = 0.0
) -> RunResult:
    """``cluster.run_job(...)``: one ``engine.run`` to the job's end,
    then the tail, every node stepping its own network."""
    cluster.bind_job(job)
    cluster._wire_tasks()
    for node in cluster.nodes:
        node.meter.reset()
    engine = cluster.engine
    t0 = engine.clock.now
    try:
        engine.run(
            until=lambda: job.finished,
            max_ticks=engine.clock.ticks_for(timeout),
        )
    finally:
        cluster._flush_traces()
    if not job.finished:
        raise SimulationError(
            f"job {job.name!r} did not finish within {timeout}s of "
            "simulated time"
        )
    execution_time = engine.clock.now - t0
    if tail > 0:
        try:
            engine.run(duration=tail)
        finally:
            cluster._flush_traces()
    telemetry = cluster.telemetry
    if telemetry.enabled:
        telemetry.gauge("sim.execution_seconds", job=job.name).set(
            execution_time
        )
        telemetry.gauge("sim.final_time_seconds").set(engine.clock.now)
    return RunResult(
        execution_time=execution_time,
        traces=cluster.traces,
        events=cluster.events,
        average_power=[n.meter.average_power for n in cluster.nodes],
        energy_joules=[n.meter.energy_joules for n in cluster.nodes],
        job_name=job.name,
        node_shutdown=[n.is_shutdown for n in cluster.nodes],
        retired_cycles=[float(n.core.retired_cycles) for n in cluster.nodes],
        telemetry=telemetry.snapshot() if telemetry.enabled else None,
    )


def reference_sampler(
    cluster: Cluster, sensor_rounds, sensor_samples, n_nodes: float
) -> Callable[[float], None]:
    """The cluster's sensor task, recording every sample immediately."""
    traces = cluster.traces

    def sample_and_record(t: float) -> None:
        sensor_rounds.inc()
        sensor_samples.inc(n_nodes)
        for node in cluster.nodes:
            temp = node.sensor.sample(t)
            traces.record(f"{node.name}.temp", t, temp)
            traces.record(f"{node.name}.duty", t, node.fan_duty)
            traces.record(f"{node.name}.rpm", t, node.fan_rpm)
            traces.record(
                f"{node.name}.freq_ghz", t, node.dvfs.pstate.frequency_ghz
            )
            traces.record(f"{node.name}.power", t, node.wall_power)
            traces.record(f"{node.name}.util", t, node.core.utilization)
            for governor in cluster._governors[node.name]:
                governor.on_sample(t, temp)

    return sample_and_record


class UngroupedExecutor(RunExecutor):
    """A :class:`RunExecutor` that runs every spec on its own, in this
    process, through ``execute_spec`` (wall time is not measured)."""

    def _execute(self, specs):
        return [(execute_spec(spec), 0.0) for spec in specs]


@contextmanager
def reference_path() -> Iterator[None]:
    """Run everything inside the block on the reference semantics."""
    patches = (
        (SimulationEngine, "run", reference_run),
        (Cluster, "run_job", reference_run_job),
        (Cluster, "_compile_sampler", reference_sampler),
        (RunExecutor, "_execute", UngroupedExecutor.__dict__["_execute"]),
        (Node, "step", reference_node_step),
        (RCNetwork, "step", reference_rc_step),
    ) + DEVICE_ORACLE
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, oracle in patches:
        setattr(cls, name, oracle)
    MulticoreNode.step = reference_multicore_step
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
        del MulticoreNode.step
