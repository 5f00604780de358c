"""Simulation clock and periodic-task scheduling.

The simulation is *fixed step*: the engine advances a
:class:`SimClock` by a constant ``dt`` each tick.  Components that must
run at a coarser cadence (a 4 Hz sensor, a 1 s controller) wrap their
callback in a :class:`PeriodicTask`, which fires whenever its period has
elapsed.  Using integer tick arithmetic (not accumulated floats) keeps
firing times exact over arbitrarily long runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigurationError
from ..units import require_positive

__all__ = ["SimClock", "PeriodicTask"]


class SimClock:
    """Fixed-step simulation clock.

    Parameters
    ----------
    dt:
        Step size in seconds.  Must be strictly positive.

    Notes
    -----
    Time is tracked as an integer tick count; :attr:`now` is derived as
    ``ticks * dt`` so that repeated stepping accumulates no floating
    point drift.
    """

    def __init__(self, dt: float = 0.05) -> None:
        self._dt = require_positive(dt, "dt")
        self._ticks = 0

    @property
    def dt(self) -> float:
        """Step size in seconds."""
        return self._dt

    @property
    def ticks(self) -> int:
        """Number of steps taken since construction (or :meth:`reset`)."""
        return self._ticks

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._ticks * self._dt

    def advance(self) -> float:
        """Advance by one step and return the new time."""
        self._ticks += 1
        return self.now

    def reset(self) -> None:
        """Rewind the clock to time zero."""
        self._ticks = 0

    def ticks_for(self, seconds: float) -> int:
        """Number of whole steps that cover ``seconds`` of simulated time.

        Rounds to the nearest tick, so ``ticks_for(1.0)`` with
        ``dt=0.25`` is exactly 4.
        """
        if seconds < 0:
            raise ConfigurationError(f"duration must be >= 0, got {seconds!r}")
        return round(seconds / self._dt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(dt={self._dt}, now={self.now:.3f}s)"


@dataclass
class PeriodicTask:
    """Invoke a callback every ``period`` seconds of simulation time.

    Parameters
    ----------
    period:
        Firing period in seconds.  Must be an (approximate) integer
        multiple of the engine step; this is validated when the task is
        bound to a clock via :meth:`bind`.
    callback:
        Called with the current simulation time whenever the task fires.
    phase:
        Offset of the first firing in seconds (default 0 fires on the
        first eligible tick *after* time zero).

    Notes
    -----
    Firing is computed from integer tick counts, so a task with a 0.25 s
    period on a 0.05 s clock fires exactly every 5 ticks, forever.
    """

    period: float
    callback: Callable[[float], None]
    phase: float = 0.0
    _period_ticks: int = field(default=0, init=False, repr=False)
    _phase_ticks: int = field(default=0, init=False, repr=False)
    _bound: bool = field(default=False, init=False, repr=False)
    fire_count: int = field(default=0, init=False)

    def bind(self, clock: SimClock) -> None:
        """Resolve the period into ticks of ``clock``.

        Raises
        ------
        ConfigurationError
            If the period is not a positive integer multiple of the
            clock step (within 1e-9 relative tolerance).
        """
        require_positive(self.period, "period")
        ratio = self.period / clock.dt
        ticks = round(ratio)
        if ticks < 1 or abs(ratio - ticks) > 1e-6 * max(1.0, ratio):
            raise ConfigurationError(
                f"period {self.period}s is not a multiple of dt {clock.dt}s"
            )
        self._period_ticks = ticks
        self._phase_ticks = round(self.phase / clock.dt)
        self._bound = True
