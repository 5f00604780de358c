"""Metrics the paper's evaluation reports.

All functions take the standard traces recorded by
:class:`~repro.cluster.cluster.Cluster` (``node{i}.temp``, ``.duty``,
``.freq_ghz``, ``.power``) and are pure — they never mutate the run.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..sim.trace import Trace

__all__ = ["stabilization_time"]


def stabilization_time(
    trace: Trace,
    band: float = 1.5,
    settle_window: float = 30.0,
) -> float:
    """Earliest time after which the trace stays within ``band`` of its
    final level.

    The final level is the mean of the last ``settle_window`` seconds.
    This is the "time to stabilize the temperature" criterion of the
    paper's Figure 6 discussion.  Returns the last sample time when the
    trace never settles.
    """
    if len(trace) == 0:
        raise ConfigurationError("cannot compute stabilization of empty trace")
    t = trace.times
    v = trace.values
    final = trace.window(float(t[-1]) - settle_window, float(t[-1])).mean()
    inside = np.abs(v - final) <= band
    # Find the earliest index from which `inside` holds to the end.
    outside_idx = np.where(~inside)[0]
    if outside_idx.size == 0:
        return float(t[0])
    last_outside = int(outside_idx[-1])
    if last_outside + 1 >= len(t):
        return float(t[-1])
    return float(t[last_outside + 1])
