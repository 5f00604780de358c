"""The user control policy: the aggressiveness parameter ``P_p``.

The paper's single knob (§3.2.2): ``P_p ∈ [P_MIN, P_MAX] = [1, 100]``.

* **Small ``P_p``** → temperature-oriented: most of the thermal control
  array is pinned at the most effective mode, and small index motions
  produce large cooling changes.
* **Large ``P_p``** → cost-oriented: the array holds a long, gentle
  ramp of modes and the controller trades temperature for power /
  performance.

The policy also carries the safe operating band ``[t_min, t_max]`` that
scales temperature deltas into index deltas via
``c = (N−1)/(t_max − t_min)`` (§3.2.2).  Defaults match the paper's
platform: 38–82 °C.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PolicyError

__all__ = ["Policy"]


@dataclass(frozen=True)
class Policy:
    """An immutable, validated user control policy.

    Attributes
    ----------
    pp:
        Aggressiveness, integer in ``[p_min, p_max]``.  The paper
        evaluates 25 (aggressive), 50 (moderate) and 75 (weak).
    p_min / p_max:
        Bounds of the ``P_p`` scale (paper: 1 and 100).
    t_min / t_max:
        Safe operating temperature band, °C (paper platform: 38 / 82).
    """

    pp: int = 50
    p_min: int = 1
    p_max: int = 100
    t_min: float = 38.0
    t_max: float = 82.0

    def __post_init__(self) -> None:
        if self.p_min >= self.p_max:
            raise PolicyError(
                f"p_min ({self.p_min}) must be < p_max ({self.p_max})"
            )
        if not isinstance(self.pp, int):
            raise PolicyError(f"P_p must be an integer, got {self.pp!r}")
        if not self.p_min <= self.pp <= self.p_max:
            raise PolicyError(
                f"P_p must be in [{self.p_min}, {self.p_max}], got {self.pp}"
            )
        if not self.t_min < self.t_max:
            raise PolicyError(
                f"t_min ({self.t_min}) must be < t_max ({self.t_max})"
            )

    @property
    def temperature_span(self) -> float:
        """Width of the safe band, K."""
        return self.t_max - self.t_min

    def scale_coefficient(self, array_size: int) -> float:
        """The paper's ``c = (N−1)/(t_max − t_min)`` for an N-slot array."""
        if array_size < 2:
            raise PolicyError(
                f"control array must have >= 2 slots, got {array_size}"
            )
        return (array_size - 1) / self.temperature_span
