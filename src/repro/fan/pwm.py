"""PWM duty-cycle discretization.

The paper's driver "discretize[s] the continuous fan speed into 100
distinct speeds from duty cycle of 1% to 100%" (§4.1).
:class:`DutyCycleLadder` is that discretization: an ascending ladder of
duty fractions that doubles as the *mode set* handed to the thermal
control array (higher duty = more cooling effectiveness).

A ladder may be capped (``max_duty``) to emulate a weaker fan — the
mechanism behind Figure 7's maximum-PWM sweep.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..units import require_in_range

__all__ = ["DutyCycleLadder"]


class DutyCycleLadder:
    """Ascending ladder of discrete PWM duty fractions.

    Parameters
    ----------
    steps:
        Number of distinct duties (paper: 100).
    min_duty:
        Lowest duty fraction (paper: 0.01).
    max_duty:
        Highest duty fraction; values below 1.0 emulate a less powerful
        fan (Figure 7 uses 0.25 / 0.50 / 0.75 / 1.00).
    """

    def __init__(
        self,
        steps: int = 100,
        min_duty: float = 0.01,
        max_duty: float = 1.0,
    ) -> None:
        if steps < 2:
            raise ConfigurationError(f"need at least 2 duty steps, got {steps}")
        require_in_range(min_duty, 0.0, 1.0, "min_duty")
        require_in_range(max_duty, 0.0, 1.0, "max_duty")
        if min_duty >= max_duty:
            raise ConfigurationError(
                f"min_duty ({min_duty}) must be < max_duty ({max_duty})"
            )
        self._duties: List[float] = [
            float(d) for d in np.linspace(min_duty, max_duty, steps)
        ]

    def __len__(self) -> int:
        return len(self._duties)

    def __getitem__(self, index: int) -> float:
        return self._duties[index]

    @property
    def duties(self) -> Sequence[float]:
        """All duties, ascending."""
        return tuple(self._duties)

    @property
    def max_duty(self) -> float:
        """Highest duty in the ladder."""
        return self._duties[-1]

    def quantize(self, duty: float) -> float:
        """Snap an arbitrary duty fraction to the nearest ladder step.

        Values outside the ladder clamp to its ends, which is how a
        driver with a capped fan treats requests above the cap.
        """
        require_in_range(duty, 0.0, 1.0, "duty")
        arr = np.asarray(self._duties)
        return float(arr[int(np.argmin(np.abs(arr - duty)))])
