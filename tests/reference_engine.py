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
* :func:`reference_path` — installs both (and turns lockstep grouping
  off) for the duration of a ``with`` block, so whatever runs inside —
  an experiment, a series, a served spec — runs on the reference.
* :class:`UngroupedExecutor` — the engine without lockstep grouping,
  the serial baseline the grouping tests compare against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import RunExecutor
from repro.sim.engine import SimulationEngine

__all__ = [
    "UngroupedExecutor",
    "reference_path",
    "reference_run",
    "reference_sampler",
]


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
    )
    SimulationEngine.run = reference_run
    Cluster._compile_sampler = reference_sampler
    RunExecutor._batch_key = UngroupedExecutor.__dict__["_batch_key"]
    try:
        yield
    finally:
        (
            SimulationEngine.run,
            Cluster._compile_sampler,
            RunExecutor._batch_key,
        ) = saved
