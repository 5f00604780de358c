"""Trace buffering and lockstep batching behind the engine's hot loop.

The per-tick work itself lives with the models: an
:class:`~repro.thermal.rc.RCNetwork` steps from a flattened, cached
form, and a :class:`~repro.cluster.node.Node` hoists its tick once per
run (:meth:`~repro.cluster.node.Node.tick_pair`).  This package adds
what spans runs and samples:

* :mod:`repro.fastpath.recording` buffers trace samples and flushes
  them through :meth:`~repro.sim.trace.Trace.extend`.
* :mod:`repro.fastpath.batch` holds
  :class:`~repro.fastpath.batch.PackageBatch`, the physics step of N
  packages — one ``(N, m, m)`` thermal solve per tick across a whole
  parameter sweep or fleet shard when they share a structure, each
  network on its own otherwise — and
  :func:`~repro.fastpath.batch.run_jobs_batch`, the one ``run_job``
  protocol: every lane of a sweep on one tick counter of
  :func:`~repro.sim.engine.run_fused`, with each run's results bitwise
  identical to its own tick-by-tick stepping.
  :meth:`Cluster.run_job <repro.cluster.cluster.Cluster.run_job>` is
  its one-lane call, :class:`~repro.runtime.executor.RunExecutor`
  groups every sweep into lanes by default, and every fleet shard steps
  its nodes on a :class:`~repro.fastpath.batch.PackageBatch`.
* :mod:`repro.fastpath.loop` is the historical import path of
  :func:`~repro.sim.engine.run_fused`, the one tick loop.

The contract is **byte-identical equivalence** with the tick-by-tick
reference oracle in ``tests/reference_engine.py``: a spec's result
bytes are the oracle's, whatever path the engine takes to them.
``tests/test_reference_oracle.py`` compares the two over a seeded
corpus of run and fleet specs, and ``tests/test_package_batch.py`` pins
the stack's own contracts.

:mod:`~repro.fastpath.batch` is imported lazily by
:mod:`repro.cluster.cluster` and :mod:`repro.runtime.execute`: it
reaches back into :mod:`repro.cluster`.  Import it by submodule path.
"""

from __future__ import annotations

from .recording import TraceBlockWriter

__all__ = ["TraceBlockWriter"]
