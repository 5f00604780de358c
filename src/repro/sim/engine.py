"""The fixed-step simulation engine.

The engine owns a :class:`~repro.sim.clock.SimClock`, a list of
:class:`Component` instances and any number of
:class:`~repro.sim.clock.PeriodicTask` callbacks.  Each tick it:

1. advances the clock by ``dt``;
2. calls every component's :meth:`Component.step` in registration
   order (physics first, then sensors, then controllers — the caller
   controls ordering by registration);
3. fires any periodic tasks whose period divides the current tick.

Runs terminate on a time horizon, on a stop predicate (e.g. "workload
finished"), or on an explicit :meth:`SimulationEngine.stop` from inside
a callback — whichever comes first.

One tick loop serves every run: :func:`run_fused` advances a list of
engines on one tick counter.  Each tick it runs

1. the ``pre`` callables;
2. one optional shared ``step(dt)``;
3. the ``post`` callables;
4. each engine's due tasks, in registration order;
5. each engine's ``until`` and stop check.

:meth:`SimulationEngine.run` is the one-engine case: each component
contributes a pre-bound per-tick callable
(:meth:`Component.compiled_step`; cluster nodes hand back their hoisted
tick) to the ``pre`` list, and there is no shared step.  The lanes of
:func:`~repro.fastpath.batch.run_jobs_batch` are the many-engine case:
every node's tick halves are the ``pre`` and ``post`` callables, and one
:class:`~repro.fastpath.batch.PackageBatch` step integrates all their
packages between them.

Each task's next firing tick is computed arithmetically from the
integer period and phase ticks :meth:`~repro.sim.clock.PeriodicTask.bind`
resolves, and the microticks between task boundaries run back to back
with no task scan — tasks fire at ≥ 1 s periods while physics runs at
dt = 0.05 s.  ``until`` and ``stop`` are still evaluated after
**every** tick, and the deadline / ``max_ticks`` checks keep the
one-tick-at-a-time order and error, so tick counts, task
``fire_count`` values and the clock state come out exactly as a
tick-by-tick loop leaves them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
from .clock import PeriodicTask, SimClock
from .events import EventLog
from .marker import coldpath, hotpath
from .trace import TraceSet

__all__ = ["Component", "SimulationEngine", "run_fused", "task_schedule"]

_StepFn = Callable[[float, float], None]


class Component:
    """Base class for anything advanced by the engine every tick.

    Subclasses override :meth:`step`; ``name`` is used in traces, events
    and error messages.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("component name must be non-empty")
        self.name = name

    def step(self, t: float, dt: float) -> None:
        """Advance internal state from ``t - dt`` to ``t``.

        ``t`` is the time *after* this tick; physical models should
        integrate over the interval ``[t - dt, t]``.
        """
        raise NotImplementedError

    def compiled_step(self) -> _StepFn:
        """The per-tick callable :meth:`SimulationEngine.run` invokes.

        Called once per run, before the first tick.  The default is the
        bound :meth:`step`.  A subclass may return a pre-bound closure
        instead, provided it performs exactly the floating-point
        operations, branches and event emissions :meth:`step` would, in
        the same order.
        """
        return self.step

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


def task_schedule(
    tasks: Sequence[PeriodicTask], ticks: int
) -> Tuple[List[int], List[int]]:
    """Next firing tick and period, per task, after tick ``ticks``.

    The next firing tick is the smallest ``T > ticks`` with
    ``T >= phase`` and ``(T - phase) % period == 0``.
    """
    fires: List[int] = []
    periods: List[int] = []
    base = ticks + 1
    for task in tasks:
        period = task._period_ticks
        phase = task._phase_ticks
        k = (base - phase + period - 1) // period if base > phase else 0
        fires.append(phase + k * period)
        periods.append(period)
    return fires, periods


def _raise_budget_exhausted(budget: int) -> None:
    raise SimulationError(
        f"max_ticks={budget} exhausted before the stop condition was reached"
    )


#: The tick ceiling of a run that only its ``until`` or stop can end.
_NO_LIMIT = 1 << 62


@coldpath
def _start(engines: Sequence["SimulationEngine"]) -> tuple:
    """Mark ``engines`` running; their clocks, task schedules and an
    empty list of finished engines."""
    clocks = [engine.clock for engine in engines]
    dt, ticks = clocks[0].dt, clocks[0].ticks
    fires: List[List[int]] = []
    periods: List[List[int]] = []
    for engine in engines:
        if engine._running:
            raise SimulationError("run() is not re-entrant")
        if engine.clock.dt != dt or engine.clock.ticks != ticks:
            raise SimulationError(
                "engines run together must share dt and tick count"
            )
        efires, eperiods = task_schedule(engine._tasks, ticks)
        fires.append(efires)
        periods.append(eperiods)
    for engine in engines:
        engine._running = True
        engine._stop_requested = False
    return clocks, fires, periods, []


@hotpath
def run_fused(
    engines: Sequence["SimulationEngine"],
    pres: Sequence[_StepFn],
    step: Optional[Callable[[float], None]],
    posts: Sequence[_StepFn],
    untils: Sequence[Optional[Callable[[], bool]]],
    limit: int,
) -> List[int]:
    """Advance ``engines`` on one tick counter (see the module docstring).

    Runs until an engine's stop request or ``until`` ends a tick, or
    the counter reaches the absolute tick ``limit``.  Returns the
    indices of the engines that finished on the last tick, in order:
    empty when the run ended at ``limit``.
    """
    clocks, fires, periods, finished = _start(engines)
    dt = clocks[0].dt
    ticks = clocks[0].ticks
    engine_range = range(len(engines))
    try:
        while ticks < limit:
            # Boundary of this batch: the earliest task firing on any
            # engine, or the limit.  Every tick before it runs without
            # a task scan.
            boundary = limit
            for efires in fires:
                for fire in efires:
                    if fire < boundary:
                        boundary = fire
            while ticks < boundary:
                ticks += 1
                for clock in clocks:
                    clock._ticks = ticks
                t = ticks * dt
                for f in pres:
                    f(t, dt)
                if step is not None:
                    step(dt)
                for f in posts:
                    f(t, dt)
                if ticks == boundary:
                    # Due tasks, per engine, in registration order.
                    for e in engine_range:
                        efires = fires[e]
                        tasks = engines[e]._tasks
                        for i in range(len(efires)):
                            if efires[i] == ticks:
                                task = tasks[i]
                                task.callback(t)
                                task.fire_count += 1
                                efires[i] = ticks + periods[e][i]
                for e in engine_range:
                    until = untils[e]
                    if engines[e]._stop_requested or (
                        until is not None and until()
                    ):
                        finished.append(e)
                if finished:
                    return finished
    finally:
        for engine in engines:
            engine._running = False
    return finished


class SimulationEngine:
    """Fixed-step run loop over registered components and periodic tasks.

    Parameters
    ----------
    dt:
        Physics step in seconds.
    traces:
        Optional shared :class:`TraceSet`; created if omitted.
    events:
        Optional shared :class:`EventLog`; created if omitted.
    """

    def __init__(
        self,
        dt: float = 0.05,
        traces: Optional[TraceSet] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.clock = SimClock(dt)
        self.traces = traces if traces is not None else TraceSet()
        self.events = events if events is not None else EventLog()
        self._components: List[Component] = []
        self._tasks: List[PeriodicTask] = []
        self._running = False
        self._stop_requested = False

    # -- wiring --------------------------------------------------------------

    def add_component(self, component: Component) -> Component:
        """Register a component; returns it for chaining.

        Components step in registration order, so register physical
        models before the sensors that read them and sensors before the
        controllers that react to them.
        """
        if self._running:
            raise SimulationError("cannot add components while running")
        if any(c is component for c in self._components):
            raise ConfigurationError(
                f"component {component.name!r} registered twice"
            )
        self._components.append(component)
        return component

    def add_task(self, task: PeriodicTask) -> PeriodicTask:
        """Register a periodic task; binds it to this engine's clock."""
        if self._running:
            raise SimulationError("cannot add tasks while running")
        task.bind(self.clock)
        self._tasks.append(task)
        return task

    def every(
        self, period: float, callback: Callable[[float], None], phase: float = 0.0
    ) -> PeriodicTask:
        """Convenience wrapper: schedule ``callback`` every ``period`` s."""
        return self.add_task(PeriodicTask(period=period, callback=callback, phase=phase))

    # -- running -------------------------------------------------------------

    def stop(self) -> None:
        """Request the run loop to exit after the current tick."""
        self._stop_requested = True

    def step(self) -> float:
        """Advance the simulation by exactly one tick; returns new time."""
        return self.run(max_ticks=1)

    def run(
        self,
        duration: Optional[float] = None,
        until: Optional[Callable[[], bool]] = None,
        max_ticks: Optional[int] = None,
    ) -> float:
        """Run the loop and return the final simulation time.

        Parameters
        ----------
        duration:
            Wall-clock horizon in simulated seconds (from *now*, so a
            second ``run`` continues where the first stopped).
        until:
            Stop predicate evaluated after every tick; the run ends on
            the first tick where it returns ``True``.
        max_ticks:
            Hard tick budget — a guard against accidentally unbounded
            runs when ``until`` never fires.

        Raises
        ------
        ConfigurationError
            If no stopping criterion at all was provided.
        SimulationError
            If ``max_ticks`` elapses before ``duration``/``until``
            stop the run (indicating a stuck stop predicate), or on
            re-entrant ``run`` calls.
        """
        if duration is None and until is None and max_ticks is None:
            raise ConfigurationError(
                "run() needs at least one of duration/until/max_ticks"
            )
        ticks = self.clock.ticks
        limit = _NO_LIMIT
        deadline_tick: Optional[int] = None
        if duration is not None:
            if duration < 0:
                raise ConfigurationError(f"duration must be >= 0, got {duration!r}")
            deadline_tick = limit = ticks + self.clock.ticks_for(duration)
        if max_ticks is not None:
            limit = min(limit, ticks + max_ticks)
        steps = tuple(component.compiled_step() for component in self._components)
        finished = run_fused((self,), steps, None, (), (until,), limit)
        # A run that reached its limit before its deadline spent its
        # budget: an error when a deadline or ``until`` should have
        # ended it.
        if (
            not finished
            and max_ticks is not None
            and (deadline_tick is None or self.clock.ticks < deadline_tick)
            and (deadline_tick is not None or until is not None)
        ):
            _raise_budget_exhausted(max_ticks)
        return self.clock.now
