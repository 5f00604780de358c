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

:meth:`SimulationEngine.run` executes those semantics through a
compiled loop.  Each component contributes a pre-bound per-tick
callable (:meth:`Component.compiled_step`; cluster nodes hand back
their hoisted tick), each task's next firing tick is computed
arithmetically from the same integer tick counts
:meth:`~repro.sim.clock.PeriodicTask.maybe_fire` uses, and the physics
microticks between task boundaries run back to back with no task scan
— tasks fire at ≥ 1 s periods while physics runs at dt = 0.05 s.
``until`` and ``stop`` are still evaluated after **every** tick, and
the deadline / ``max_ticks`` checks keep the one-tick-at-a-time order
and error, so tick counts, task ``fire_count`` values and the clock
state come out exactly as a tick-by-tick loop leaves them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
from .clock import PeriodicTask, SimClock
from .events import EventLog
from .marker import hotpath
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
    ``T >= phase`` and ``(T - phase) % period == 0`` — the same set of
    ticks :meth:`~repro.sim.clock.PeriodicTask.maybe_fire` fires on.
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


def run_fused(
    engine: "SimulationEngine",
    deadline_tick: Optional[int],
    budget: Optional[int],
    until: Optional[Callable[[], bool]],
) -> int:
    """Run ``engine``'s compiled loop; returns the number of ticks executed."""
    steps = tuple(component.compiled_step() for component in engine._components)
    fires, periods = task_schedule(engine._tasks, engine.clock.ticks)
    return _tick_loop(engine, steps, fires, periods, deadline_tick, budget, until)


@hotpath
def _tick_loop(
    engine: "SimulationEngine",
    steps: Tuple[_StepFn, ...],
    fires: List[int],
    periods: List[int],
    deadline_tick: Optional[int],
    budget: Optional[int],
    until: Optional[Callable[[], bool]],
) -> int:
    """Tick batches between task boundaries (see the module docstring)."""
    clock = engine.clock
    dt = clock.dt
    tasks = engine._tasks
    n_tasks = len(tasks)
    no_boundary = 1 << 62
    ticks = clock.ticks
    ticks_done = 0
    while True:
        if deadline_tick is not None and ticks >= deadline_tick:
            break
        if budget is not None and ticks_done >= budget:
            if deadline_tick is not None or until is not None:
                _raise_budget_exhausted(budget)
            break
        # Boundary of this batch: the earliest of the next task firing,
        # the deadline and the tick budget.  Every tick before the
        # boundary runs without a task scan.
        boundary = min(fires) if n_tasks else no_boundary
        if deadline_tick is not None and deadline_tick < boundary:
            boundary = deadline_tick
        if budget is not None and ticks + (budget - ticks_done) < boundary:
            boundary = ticks + (budget - ticks_done)
        last = boundary - 1
        while ticks < last:
            ticks += 1
            clock._ticks = ticks
            t = ticks * dt
            for f in steps:
                f(t, dt)
            ticks_done += 1
            if engine._stop_requested or (until is not None and until()):
                return ticks_done
        # The boundary tick: components, then any due tasks, in
        # registration order.
        ticks += 1
        clock._ticks = ticks
        t = ticks * dt
        for f in steps:
            f(t, dt)
        ticks_done += 1
        for i in range(n_tasks):
            if fires[i] == ticks:
                task = tasks[i]
                task.callback(t)
                task.fire_count += 1
                fires[i] = ticks + periods[i]
        if engine._stop_requested:
            break
        if until is not None and until():
            break
    return ticks_done


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

    def add_components(self, components: Sequence[Component]) -> None:
        """Register several components in order."""
        for c in components:
            self.add_component(c)

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
        if self._running:
            raise SimulationError("run() is not re-entrant")

        deadline_tick: Optional[int] = None
        if duration is not None:
            if duration < 0:
                raise ConfigurationError(f"duration must be >= 0, got {duration!r}")
            deadline_tick = self.clock.ticks + self.clock.ticks_for(duration)

        self._running = True
        self._stop_requested = False
        try:
            run_fused(self, deadline_tick, max_ticks, until)
        finally:
            self._running = False
        return self.clock.now
