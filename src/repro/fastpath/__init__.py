"""Trace buffering and lockstep batching behind the engine's hot loop.

The per-tick work itself lives with the models: an
:class:`~repro.thermal.rc.RCNetwork` steps from a flattened, cached
form, and a :class:`~repro.cluster.node.Node` hoists its tick once per
run (:meth:`~repro.cluster.node.Node.tick_pair`).  This package adds
what spans runs and samples:

* :mod:`repro.fastpath.recording` buffers trace samples and flushes
  them through :meth:`~repro.sim.trace.Trace.extend`.
* :mod:`repro.fastpath.batch` stacks N packages of one structure into
  one :class:`~repro.fastpath.batch.PackageBatch` advanced in lockstep
  — one ``(N, m, m)`` thermal solve per tick across a whole parameter
  sweep or fleet shard — with each package's results still bitwise
  identical to its own serial stepping.
  :class:`~repro.runtime.executor.RunExecutor` groups every sweep this
  way by default, and every fleet shard steps its nodes on it.
* :mod:`repro.fastpath.loop` is the historical import path of
  :func:`~repro.sim.engine.run_fused`.

The contract is **byte-identical equivalence** with the tick-by-tick
reference oracle in ``tests/reference_engine.py``, enforced by
``tests/test_fastpath_equivalence.py`` and
``tests/test_fastpath_batch.py``.

:mod:`~repro.fastpath.batch` is imported lazily (by
:mod:`repro.runtime.execute`) because it reaches back into
:mod:`repro.cluster`; import it by submodule path.
"""

from __future__ import annotations

from .recording import TraceBlockWriter

__all__ = ["TraceBlockWriter"]
