"""The fused run loop's historical import path.

The compiled loop is :meth:`repro.sim.engine.SimulationEngine.run`
itself; :func:`~repro.sim.engine.run_fused` lives beside it.  This
module re-exports it so ``repro.fastpath.loop.run_fused`` keeps naming
the same function.
"""

from __future__ import annotations

from ..sim.engine import run_fused

__all__ = ["run_fused"]
