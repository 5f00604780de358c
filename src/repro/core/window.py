"""The two-level history window (paper §3.2.1, Figure 3).

**Level one** is a small array (paper: 4 entries) of the most recent
temperature samples.  When it fills, the controller computes

.. math::

    \\Delta t_{l1} = \\sum(\\text{second half}) - \\sum(\\text{first half})

— a sum difference, not a mean difference, exactly as the paper words
it.  A large |Δt_l1| marks a *sudden* sustained change; symmetric
jitter inside the window cancels out of the half-sums.  The window is
then cleared for the next round.

**Level two** is a fixed-size FIFO (paper: 5 entries) of level-one
averages.  Once full,

.. math::

    \\Delta t_{l2} = \\text{rear} - \\text{front}

(newest minus oldest average) tracks *gradual* drift across the longer
horizon.  The FIFO is maintained by enqueue/dequeue per round, so the
two deltas advance together: one :class:`WindowUpdate` is emitted per
level-one round.

Sizing guidance from the paper (§3.2.1): a window too small reacts to
jitter as if it were sudden; too large reacts sluggishly.  4 entries at
4 Hz (1 s rounds) was found sufficient — the ablation experiment
reproduces that finding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["WindowUpdate", "TwoLevelWindow"]


@dataclass(frozen=True)
class WindowUpdate:
    """Emitted every time the level-one window completes a round.

    Attributes
    ----------
    t:
        Time of the sample that completed the round, seconds.
    average:
        Mean of this round's level-one samples, °C.
    delta_l1:
        Second-half sum minus first-half sum of the round, K.
    delta_l2:
        Rear-minus-front of the level-two FIFO, K — ``None`` until the
        FIFO has filled.
    l2_average:
        Mean of the FIFO's current contents, °C.
    l2_full:
        Whether the FIFO holds its full complement.
    l2_values:
        FIFO contents, oldest first (front → rear).
    """

    t: float
    average: float
    delta_l1: float
    delta_l2: Optional[float]
    l2_average: float
    l2_full: bool
    l2_values: Tuple[float, ...]


class TwoLevelWindow:
    """The paper's two-level temperature history structure.

    Parameters
    ----------
    l1_size:
        Level-one array size; must be an even integer >= 2 so the
        half-sum split is exact (paper: 4).
    l2_size:
        Level-two FIFO depth, >= 2 (paper: 5).
    """

    def __init__(self, l1_size: int = 4, l2_size: int = 5) -> None:
        if l1_size < 2 or l1_size % 2 != 0:
            raise ConfigurationError(
                f"l1_size must be an even integer >= 2, got {l1_size}"
            )
        if l2_size < 2:
            raise ConfigurationError(f"l2_size must be >= 2, got {l2_size}")
        self.l1_size = l1_size
        self.l2_size = l2_size
        self._l1: List[float] = []
        self._l2: Deque[float] = deque(maxlen=l2_size)
        self._samples = 0

    @property
    def samples(self) -> int:
        """Total samples pushed so far."""
        return self._samples

    @property
    def l2_values(self) -> Tuple[float, ...]:
        """Current FIFO contents, oldest first."""
        return tuple(self._l2)

    def push(self, t: float, sample: float) -> Optional[WindowUpdate]:
        """Add one temperature sample; returns an update on round completion.

        Most pushes return ``None``; every ``l1_size``-th push completes
        a round, computes both deltas, rotates the FIFO, clears level
        one and returns the :class:`WindowUpdate`.
        """
        self._l1.append(float(sample))
        self._samples += 1
        if len(self._l1) < self.l1_size:
            return None

        half = self.l1_size // 2
        first = sum(self._l1[:half])
        second = sum(self._l1[half:])
        delta_l1 = second - first
        average = (first + second) / self.l1_size

        self._l2.append(average)  # deque(maxlen) dequeues the front itself
        l2_full = len(self._l2) == self.l2_size
        delta_l2 = (self._l2[-1] - self._l2[0]) if l2_full else None
        l2_average = sum(self._l2) / len(self._l2)

        self._l1.clear()
        return WindowUpdate(
            t=t,
            average=average,
            delta_l1=delta_l1,
            delta_l2=delta_l2,
            l2_average=l2_average,
            l2_full=l2_full,
            l2_values=tuple(self._l2),
        )

    def reset(self) -> None:
        """Discard all history (both levels)."""
        self._l1.clear()
        self._l2.clear()
