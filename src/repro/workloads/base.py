"""Workload primitives: segments, barriers, rank programs, jobs.

A workload is a :class:`Job` of one or more *ranks* (MPI processes,
one per node).  Each rank executes a sequence of :class:`Segment`
objects:

* :class:`ComputeSegment` — a fixed number of CPU cycles; wall time
  scales as ``cycles / frequency``, so DVFS stretches it.  This is the
  in-band performance cost the paper trades against.
* :class:`CommSegment` — fixed wall time at low utilization
  (blocking MPI transfers are interrupt-driven, the core naps).
  Frequency-insensitive.
* :class:`IdleSegment` — fixed wall time at zero utilization.
* :class:`Barrier` (via :meth:`RankProgram`'s barrier handling) —
  synchronization: a rank arriving early waits at low utilization until
  every rank has arrived, so the slowest node gates the job.  This is
  what makes one throttled node slow the whole cluster, the coupling
  that distinguishes cluster-level thermal control from per-box control.

Ranks are advanced tick-by-tick by their :class:`~repro.cpu.core.CpuCore`;
a rank may cross several segment boundaries within one tick.  Barrier
release happens the instant the last rank arrives, so the ordering skew
between ranks stepped earlier/later in the same tick is bounded by one
tick and reads as (realistic) OS noise.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError, WorkloadError
from ..sim.marker import reject
from ..units import require_in_range, require_positive

__all__ = [
    "Segment",
    "ComputeSegment",
    "CommSegment",
    "IdleSegment",
    "Barrier",
    "BarrierSegment",
    "RankProgram",
    "Job",
    "WAIT_UTILIZATION",
]

#: Utilization of a core spinning in an MPI progress loop while waiting.
WAIT_UTILIZATION = 0.12


class Segment:
    """One contiguous piece of a rank's program.

    Subclasses implement :meth:`advance`, returning how much of the
    offered time slice was consumed, how much of it the core was busy,
    and whether the segment completed within the slice.
    """

    def advance(self, dt: float, frequency: float) -> Tuple[float, float, bool]:
        """Advance by up to ``dt`` seconds at ``frequency`` Hz.

        Returns
        -------
        (consumed, busy, done):
            ``consumed`` seconds of wall time used (``<= dt``),
            ``busy`` seconds of that during which the core was busy,
            ``done`` whether the segment finished.
        """
        raise NotImplementedError


class ComputeSegment(Segment):
    """Retire ``cycles`` CPU cycles; wall time = cycles / frequency.

    Parameters
    ----------
    cycles:
        Work to retire.
    utilization:
        Busy fraction while computing (just below 1.0 accounts for
        memory stalls showing as iowait).
    """

    def __init__(self, cycles: float, utilization: float = 0.98) -> None:
        self.remaining = require_positive(cycles, "cycles")
        self.utilization = require_in_range(utilization, 0.0, 1.0, "utilization")

    def advance(self, dt: float, frequency: float) -> Tuple[float, float, bool]:
        if not (frequency > 0.0):
            reject(require_positive, frequency, "frequency")
        time_needed = self.remaining / frequency
        if time_needed <= dt:
            self.remaining = 0.0
            return time_needed, time_needed * self.utilization, True
        self.remaining -= dt * frequency
        return dt, dt * self.utilization, False


class CommSegment(Segment):
    """Blocking communication: fixed wall time, low utilization."""

    def __init__(self, duration: float, utilization: float = 0.15) -> None:
        self.remaining = require_positive(duration, "duration")
        self.utilization = require_in_range(utilization, 0.0, 1.0, "utilization")

    def advance(self, dt: float, frequency: float) -> Tuple[float, float, bool]:
        consumed = min(dt, self.remaining)
        self.remaining -= consumed
        return consumed, consumed * self.utilization, self.remaining <= 1e-12


class IdleSegment(CommSegment):
    """Fixed wall time at zero utilization (job gaps, think time)."""

    def __init__(self, duration: float) -> None:
        super().__init__(duration, utilization=0.0)


class Barrier:
    """A one-shot synchronization point shared by all ranks of a job."""

    def __init__(self, n_ranks: int, label: str = "") -> None:
        if n_ranks < 1:
            raise ConfigurationError(f"barrier needs >= 1 rank, got {n_ranks}")
        self.n_ranks = n_ranks
        self.label = label
        self._arrived = 0

    def arrive(self) -> None:
        """Register one rank's arrival (each rank must arrive exactly once)."""
        if self._arrived >= self.n_ranks:
            raise WorkloadError(
                f"barrier {self.label!r}: more arrivals than ranks"
            )
        self._arrived += 1

    @property
    def released(self) -> bool:
        """True once every rank has arrived."""
        return self._arrived == self.n_ranks


class BarrierSegment(Segment):
    """A rank's participation in a :class:`Barrier`.

    On first advance the rank arrives; until the barrier releases, the
    offered time is consumed waiting at :data:`WAIT_UTILIZATION`.
    """

    def __init__(self, barrier: Barrier) -> None:
        self.barrier = barrier
        self._arrived = False

    def advance(self, dt: float, frequency: float) -> Tuple[float, float, bool]:
        if not self._arrived:
            self.barrier.arrive()
            self._arrived = True
        if self.barrier.released:
            return 0.0, 0.0, True
        return dt, dt * WAIT_UTILIZATION, False


class RankProgram:
    """A rank: a lazy sequence of segments plus completion bookkeeping.

    Implements :class:`repro.cpu.core.RankInterface`.

    Parameters
    ----------
    segments:
        Iterable (may be a generator) of :class:`Segment` objects.
    name:
        Rank identifier, e.g. ``"bt.b.4/rank2"``.
    """

    def __init__(self, segments: Iterable[Segment], name: str = "rank") -> None:
        self._segments: Iterator[Segment] = iter(segments)
        self.name = name
        self._current: Optional[Segment] = None
        self._finished = False
        #: Jobs counting this rank among their unfinished ranks.
        self._jobs: List["Job"] = []
        self._elapsed = 0.0
        self._busy = 0.0

    def _next_segment(self) -> bool:
        """Load the next segment; returns False when the program is over."""
        try:
            self._current = next(self._segments)
            return True
        except StopIteration:
            self._current = None
            self._finished = True
            for job in self._jobs:
                job._open -= 1
            return False

    def advance(self, dt: float, frequency: float) -> float:
        """Advance up to ``dt`` seconds; returns utilization over ``dt``."""
        if self._finished:
            return 0.0
        remaining = dt
        busy_total = 0.0
        # A rank can cross many segment boundaries inside one tick; a
        # zero-time segment (released barrier) must not loop forever, so
        # the loop exits when the program ends or the slice is used up.
        while remaining > 1e-12:
            if self._current is None and not self._next_segment():
                break
            assert self._current is not None
            consumed, busy, done = self._current.advance(remaining, frequency)
            remaining -= consumed
            busy_total += busy
            if done:
                self._current = None
            elif consumed <= 0.0:
                raise WorkloadError(
                    f"rank {self.name!r}: segment "
                    f"{type(self._current).__name__} made no progress"
                )
        if self._current is None and not self._finished:
            # Peek ahead so completion is detected the tick the last
            # segment ends, not one tick later (the pulled segment
            # becomes current for the next tick).
            self._next_segment()
        used = dt - remaining
        self._elapsed += dt
        self._busy += busy_total
        return min(1.0, busy_total / dt) if dt > 0 else 0.0

    @property
    def finished(self) -> bool:
        """True once all segments have completed."""
        return self._finished

    @property
    def elapsed(self) -> float:
        """Wall time this rank has been advanced, seconds."""
        return self._elapsed

    @property
    def busy_seconds(self) -> float:
        """Cumulative busy time, seconds."""
        return self._busy


class Job:
    """A parallel job: one :class:`RankProgram` per node.

    Parameters
    ----------
    ranks:
        The rank programs, index-aligned with cluster nodes.
    name:
        Job identifier (used in events and reports).
    """

    def __init__(self, ranks: List[RankProgram], name: str = "job") -> None:
        if not ranks:
            raise ConfigurationError("a job needs at least one rank")
        self.ranks = list(ranks)
        self.name = name
        # Unfinished ranks; each decrements it as it finishes (once per
        # listing, so a rank listed twice counts twice).
        self._open = 0
        for rank in self.ranks:
            if not rank.finished:
                self._open += 1
                rank._jobs.append(self)

    @property
    def n_ranks(self) -> int:
        """Number of ranks (== nodes the job spans)."""
        return len(self.ranks)

    @property
    def finished(self) -> bool:
        """True when every rank has completed."""
        return not self._open
