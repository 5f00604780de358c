"""The ``@hotpath`` / ``@coldpath`` markers for per-tick code.

Functions that run every physics tick — the engine's microtick loop in
:mod:`repro.sim.engine`, :meth:`RCNetwork.step
<repro.thermal.rc.RCNetwork.step>`, the node's hoisted tick and the
lockstep steppers under :mod:`repro.fastpath` — are decorated with
:func:`hotpath`.  The
decorator is behaviourally inert — it only tags the function — but it
carries a lint contract: RPR009 (``hotpath-allocation``) rejects
per-tick allocation patterns (dict / list / set / str construction,
f-strings, nested function definitions) inside marked functions,
keeping the inner loop allocation free, and RPR010 propagates the same
bans to every helper *reachable* from a marked function through the
program call graph.

:func:`coldpath` is the sanctioned stop for that propagation: it marks
a callee that hot code may invoke but that runs rarely by construction
— coefficient refreshes after invalidation, divergence bailouts,
flushes.  A ``@coldpath`` function may allocate; marking one is an
auditable claim that its call frequency is not per-tick, which is why
the marker exists instead of a lint suppression comment.

:func:`reject` is the one cold callee hot code uses to keep a
validator.  A per-tick method checks its input with an inline,
NaN-safe comparison that fails exactly when the validator would raise
(``if not (0.0 <= u <= 1.0):`` for ``require_in_range(u, 0.0, 1.0,
name)``), and only its failing branch calls ``reject(validator,
*args)``.  The validator then raises its own exception with its own
text, while the common branch builds no message and makes no call.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["coldpath", "hotpath", "reject"]

_F = TypeVar("_F", bound=Callable)


def hotpath(fn: _F) -> _F:
    """Mark ``fn`` as per-tick hot-loop code (see module docstring)."""
    fn.__hotpath__ = True
    return fn


def coldpath(fn: _F) -> _F:
    """Mark ``fn`` as a rarely-run callee of hot code (see module docstring)."""
    fn.__coldpath__ = True
    return fn


@coldpath
def reject(validator: Callable[..., object], *args: object) -> None:
    """Run ``validator(*args)`` for an input an inline guard refused.

    The guard fails exactly when the validator raises, so this raises
    the validator's own error (see module docstring).
    """
    validator(*args)
    raise AssertionError(f"{validator!r} accepted {args!r} an inline guard refused")
