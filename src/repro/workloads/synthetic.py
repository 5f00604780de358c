"""Synthetic Type I/II/III utilization profiles (paper §3.1, Figure 2).

The paper classifies the thermal behaviour of parallel applications
into three types:

* **Type I — sudden**: drastic, *sustained* temperature change from a
  step in CPU utilization.
* **Type II — gradual**: slow, steady drift from sustained CPU-bound
  work charging the heatsink.
* **Type III — jitter**: oscillation around a level from short bursty
  utilization; no sustained trend.

These generators produce utilization-vs-time profiles that, run through
the thermal substrate, reproduce each signature in isolation — the
ground truth against which :mod:`repro.core.classify` and the window
ablations are scored — plus :func:`mixed_thermal_profile`, a Figure-2
style run containing all three.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import clamp, require_in_range, require_positive
from .base import Job, RankProgram, Segment

__all__ = [
    "SyntheticRank",
    "sudden_profile",
    "gradual_profile",
    "jitter_profile",
    "mixed_thermal_profile",
    "UtilizationFn",
]

#: A utilization profile: time (s) -> utilization in [0, 1].
UtilizationFn = Callable[[float], float]


class _ProfileSegment(Segment):
    """A segment that follows a utilization function of elapsed time."""

    def __init__(self, fn: UtilizationFn, duration: float) -> None:
        self.fn = fn
        self.remaining = require_positive(duration, "duration")
        self.elapsed = 0.0

    def advance(self, dt: float, frequency: float) -> Tuple[float, float, bool]:
        consumed = min(dt, self.remaining)
        util = clamp(float(self.fn(self.elapsed)), 0.0, 1.0)
        self.remaining -= consumed
        self.elapsed += consumed
        return consumed, consumed * util, self.remaining <= 1e-12


class SyntheticRank:
    """Single-rank job following an arbitrary utilization function.

    Parameters
    ----------
    fn:
        Utilization as a function of elapsed seconds.
    duration:
        Total profile length, seconds.
    name:
        Job name.
    """

    def __init__(self, fn: UtilizationFn, duration: float, name: str = "synthetic") -> None:
        self.fn = fn
        self.duration = require_positive(duration, "duration")
        self.name = name

    def build(self) -> Job:
        """Construct the single-rank job."""

        def segments() -> Iterator[Segment]:
            yield _ProfileSegment(self.fn, self.duration)

        return Job([RankProgram(segments(), name=self.name)], name=self.name)


def sudden_profile(
    low: float = 0.05,
    high: float = 1.0,
    step_time: float = 60.0,
    duration: float = 180.0,
) -> SyntheticRank:
    """Type I: a sustained utilization step at ``step_time``."""
    require_in_range(low, 0.0, 1.0, "low")
    require_in_range(high, 0.0, 1.0, "high")
    if step_time >= duration:
        raise ConfigurationError("step_time must fall inside the profile")

    def fn(t: float) -> float:
        return high if t >= step_time else low

    return SyntheticRank(fn, duration, name="type1-sudden")


def gradual_profile(
    start: float = 0.2,
    end: float = 1.0,
    duration: float = 300.0,
) -> SyntheticRank:
    """Type II: utilization ramps linearly over the whole profile."""
    require_in_range(start, 0.0, 1.0, "start")
    require_in_range(end, 0.0, 1.0, "end")

    def fn(t: float) -> float:
        return start + (end - start) * (t / duration)

    return SyntheticRank(fn, duration, name="type2-gradual")


def jitter_profile(
    base: float = 0.55,
    amplitude: float = 0.45,
    burst_period: float = 1.5,
    duty: float = 0.5,
    duration: float = 180.0,
    rng: Optional[np.random.Generator] = None,
) -> SyntheticRank:
    """Type III: short bursts around a mean with no sustained trend.

    Bursty on/off utilization with optional random phase wobble; the
    long-run mean stays at ``base`` so the heatsink sees no trend.
    """
    require_in_range(base, 0.0, 1.0, "base")
    require_in_range(duty, 0.05, 0.95, "duty")
    require_positive(burst_period, "burst_period")
    wobble = 0.0 if rng is None else float(rng.uniform(0, burst_period))

    def fn(t: float) -> float:
        phase = ((t + wobble) % burst_period) / burst_period
        return clamp(base + (amplitude if phase < duty else -amplitude), 0.0, 1.0)

    return SyntheticRank(fn, duration, name="type3-jitter")


def mixed_thermal_profile(
    duration: float = 300.0,
    rng: Optional[np.random.Generator] = None,
) -> SyntheticRank:
    """A Figure-2 style profile containing all three types in sequence.

    Layout (fractions of ``duration``):

    * 0–10 %: idle (cool baseline)
    * 10–45 %: **sudden** jump to full load, then sustained full load →
      **gradual** heatsink charge
    * 45–62 %: **sudden** drop back to idle, then gradual decay
    * 62–80 %: **jitter** — bursty utilization with no sustained trend
    * 80–100 %: idle tail
    """

    def fn(t: float) -> float:
        x = t / duration
        if x < 0.10:
            return 0.05
        if x < 0.45:
            return 1.0
        if x < 0.62:
            return 0.05
        if x < 0.80:
            phase = (t % 3.0) / 3.0
            return 1.0 if phase < 0.5 else 0.05
        return 0.05

    return SyntheticRank(fn, duration, name="fig2-mixed")
