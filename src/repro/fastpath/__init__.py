"""Compiled steppers behind the engine's per-tick hot loop.

Every experiment funnels through the same per-tick work — component
dispatch, RC re-assembly, per-sample trace writes.  This package
compiles that work structurally at run start instead of interpreting
it tick by tick:

* :mod:`repro.fastpath.rc` flattens an :class:`~repro.thermal.rc.RCNetwork`
  into parallel arrays with coefficient caching keyed on link-resistance
  writes, so the common case (only the convective link moved) refreshes
  two matrix rows instead of re-walking the graph.
* :mod:`repro.fastpath.node` fuses one :class:`~repro.cluster.node.Node`'s
  per-tick sequence into a single closure over pre-bound sub-models
  (what :meth:`Node.compiled_step <repro.cluster.node.Node.compiled_step>`
  hands the engine).
* :mod:`repro.fastpath.recording` buffers trace samples and flushes
  them through :meth:`~repro.sim.trace.Trace.extend`.
* :mod:`repro.fastpath.batch` stacks N independent runs into one
  structure-of-arrays stepper advanced in lockstep — one ``(N, m, m)``
  thermal solve per tick across a whole parameter sweep — with each
  run's results still bitwise identical to its own serial execution.
  :class:`~repro.runtime.executor.RunExecutor` groups every sweep this
  way by default.

The contract is **byte-identical equivalence**: the compiled steppers
perform the same IEEE-754 operations in the same order as the plain
``step`` methods, so traces, events and telemetry match bit for bit
(enforced against the tick-by-tick reference oracle in
``tests/reference_engine.py`` by ``tests/test_fastpath_equivalence.py``
and ``tests/test_fastpath_batch.py``).

:mod:`~repro.fastpath.node` and :mod:`~repro.fastpath.batch` are
imported lazily (by :meth:`Node.compiled_step
<repro.cluster.node.Node.compiled_step>` and
:mod:`repro.runtime.execute`) because they reach back into
:mod:`repro.cluster`; import them by submodule path.
"""

from __future__ import annotations

from .rc import CompiledRC, compile_network
from .recording import TraceBlockWriter

__all__ = [
    "CompiledRC",
    "TraceBlockWriter",
    "compile_network",
]
