"""cpu-burn: the synthetic burner of the paper's §4.2.

``cpu_burn_session`` reproduces the experimental protocol of Figure 5:
three back-to-back cpu-burn instances, each ~5 minutes, separated by
idle gaps.  The starts and stops are the Type-I "sudden" events; within
each burn, short utilization dropouts (scheduler preemptions, the
burner's own restart loop) produce the Type-III "jitter" the dynamic
fan control is designed to ignore.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..units import require_non_negative, require_positive
from .base import ComputeSegment, IdleSegment, Job, RankProgram, Segment

__all__ = ["CpuBurn", "cpu_burn_session"]


class CpuBurn:
    """Builder for cpu-burn rank programs.

    Parameters
    ----------
    duration:
        Nominal burn length in seconds (at ``reference_frequency``).
    reference_frequency:
        Frequency at which ``duration`` is calibrated, Hz.  cpu-burn is
        pure compute, so at a lower frequency the same work takes
        proportionally longer.
    jitter_rate:
        Expected number of short dropouts per second (0 disables).
    jitter_duration:
        Length of each dropout, seconds.
    rng:
        Randomness for dropout placement; ``None`` disables jitter.
    """

    def __init__(
        self,
        duration: float = 300.0,
        reference_frequency: float = 2.4e9,
        jitter_rate: float = 0.4,
        jitter_duration: float = 0.35,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.duration = require_positive(duration, "duration")
        self.reference_frequency = require_positive(
            reference_frequency, "reference_frequency"
        )
        self.jitter_rate = require_non_negative(jitter_rate, "jitter_rate")
        self.jitter_duration = require_positive(jitter_duration, "jitter_duration")
        self.rng = rng

    def _segments(self) -> Iterator[Segment]:
        total_cycles = self.duration * self.reference_frequency
        if self.rng is None or self.jitter_rate <= 0.0:
            yield ComputeSegment(total_cycles, utilization=1.0)
            return
        # Split the burn into bursts separated by brief dropouts.
        n_dropouts = int(self.duration * self.jitter_rate)
        if n_dropouts == 0:
            yield ComputeSegment(total_cycles, utilization=1.0)
            return
        # Dirichlet-ish split: exponential gaps normalized to the burn.
        weights = self.rng.exponential(1.0, n_dropouts + 1)
        weights /= weights.sum()
        for i, w in enumerate(weights):
            cycles = max(1.0, w * total_cycles)
            yield ComputeSegment(cycles, utilization=1.0)
            if i < n_dropouts:
                yield IdleSegment(self.jitter_duration)


def cpu_burn_session(
    instances: int = 3,
    burn_duration: float = 300.0,
    gap_duration: float = 40.0,
    rng: Optional[np.random.Generator] = None,
    warmup: float = 20.0,
) -> Job:
    """The Figure 5 protocol: ``instances`` burns separated by idle gaps.

    Returns a single-rank :class:`~repro.workloads.base.Job` whose
    utilization profile is: warmup idle, then
    ``burn, gap, burn, gap, burn`` — yielding sudden rises at each burn
    start, sudden falls at each stop, gradual drift as the heatsink
    charges, and jitter inside each burn.
    """

    def segments() -> Iterator[Segment]:
        if warmup > 0:
            yield IdleSegment(warmup)
        for i in range(instances):
            burner = CpuBurn(duration=burn_duration, rng=rng)
            yield from burner._segments()
            if i < instances - 1 and gap_duration > 0:
                yield IdleSegment(gap_duration)

    rank = RankProgram(segments(), name="cpu-burn-session")
    return Job([rank], name="cpu-burn-session")
