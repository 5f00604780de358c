"""Buffered trace recording for the cluster's sensor task.

:meth:`~repro.sim.trace.TraceSet.record` costs an f-string key build,
a dict lookup and two numpy scalar stores per sample.  The cluster
instead resolves each :class:`~repro.sim.trace.Trace` once at wire
time and routes samples through a :class:`TraceBlockWriter` — plain
Python list appends per sample, flushed in blocks through
:meth:`~repro.sim.trace.Trace.extend` at run boundaries.

The values, sample times and trace creation order are those
per-sample recording would produce; only the write batching differs.
Flushing is the cluster's responsibility (it flushes in a ``finally``
around every engine run, so traces are coherent even when a run
raises).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..sim.trace import Trace

__all__ = ["TraceBlockWriter"]


class TraceBlockWriter:
    """Accumulates ``(t, value)`` samples for one trace; flushes in blocks."""

    __slots__ = ("trace", "_t", "_v")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._t: List[float] = []
        self._v: List[float] = []

    def bind(self) -> Tuple[Callable[[float], None], Callable[[float], None]]:
        """The two bound appenders ``(add_time, add_value)`` for hot code."""
        return self._t.append, self._v.append

    def flush(self) -> None:
        """Append all buffered samples to the trace and clear the buffer."""
        if self._t:
            self.trace.extend(self._t, self._v)
            del self._t[:]
            del self._v[:]
