"""The tick-by-tick reference engine: the equivalence oracle.

The simulator runs every spec on one engine path:
:meth:`SimulationEngine.run <repro.sim.engine.SimulationEngine.run>`
steps pre-bound component closures in tick batches between task
boundaries, :class:`~repro.cluster.cluster.Cluster` records samples
through block writers, and :class:`~repro.runtime.RunExecutor` runs
sweeps as lockstep groups.  This module keeps the plain semantics all
of that must reproduce byte for byte:

* :func:`reference_run` — one tick at a time: advance the clock, call
  every component's ``step`` in registration order, then
  ``PeriodicTask.maybe_fire`` for every task; ``until`` and ``stop``
  after every tick.
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
* :func:`reference_path` — installs all five (and turns lockstep
  grouping off) for the duration of a ``with`` block, so whatever runs
  inside — an experiment, a series, a served spec — runs on the
  reference.
* :class:`UngroupedExecutor` — the engine without lockstep grouping,
  the serial baseline the grouping tests compare against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.multicore_node import MulticoreNode
from repro.cluster.node import Node
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import RunExecutor
from repro.sim.engine import SimulationEngine
from repro.thermal.rc import RCNetwork
from repro.units import require_positive

__all__ = [
    "UngroupedExecutor",
    "reference_multicore_step",
    "reference_node_step",
    "reference_path",
    "reference_rc_step",
    "reference_run",
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
    """A :class:`RunExecutor` that runs every spec on its own."""

    @staticmethod
    def _batch_key(spec):
        return None


@contextmanager
def reference_path() -> Iterator[None]:
    """Run everything inside the block on the reference semantics."""
    saved = (
        SimulationEngine.run,
        Cluster._compile_sampler,
        RunExecutor.__dict__["_batch_key"],
        Node.step,
        RCNetwork.step,
    )
    SimulationEngine.run = reference_run
    Cluster._compile_sampler = reference_sampler
    RunExecutor._batch_key = UngroupedExecutor.__dict__["_batch_key"]
    Node.step = reference_node_step
    MulticoreNode.step = reference_multicore_step
    RCNetwork.step = reference_rc_step
    try:
        yield
    finally:
        (
            SimulationEngine.run,
            Cluster._compile_sampler,
            RunExecutor._batch_key,
            Node.step,
            RCNetwork.step,
        ) = saved
        del MulticoreNode.step
