"""Thermal-stress and reliability statistics.

The paper's case for thermal control is ultimately reliability:
*"higher temperatures can reduce system reliability and life
expectancy"* (§1).  :func:`degree_seconds_above` quantifies that over
a recorded temperature trace: the ∫max(T−T₀, 0)dt stress integral
(both *how long* and *how far* over).
"""

from __future__ import annotations

import numpy as np

from ..sim.trace import Trace

__all__ = ["degree_seconds_above"]


def _holding_weights(times: np.ndarray) -> np.ndarray:
    """Per-sample holding durations (last sample holds the mean dt)."""
    if times.size == 1:
        return np.ones(1)
    dt = np.diff(times)
    tail = float(np.mean(dt)) if dt.size else 1.0
    return np.concatenate([dt, [tail]])


def degree_seconds_above(trace: Trace, threshold: float) -> float:
    """∫ max(T − threshold, 0) dt in kelvin-seconds."""
    if len(trace) == 0:
        return 0.0
    weights = _holding_weights(np.asarray(trace.times))
    excess = np.maximum(np.asarray(trace.values) - threshold, 0.0)
    return float(np.sum(excess * weights))
