"""The thermal control array (paper §3.2.2, Eq. 1).

The array is the unifying data structure of the paper: any thermal
control technique is represented as ``N`` slots holding mode values in
non-descending order of cooling effectiveness.  Slot 1 always holds the
least effective mode available, slot N the most effective, and the
slots in between are filled according to the user policy ``P_p``:

.. math::

    n_p = \\lfloor (P_p - P_{MIN})(N-1) / (P_{MAX} - P_{MIN}) \\rfloor + 1

Slots ``[n_p, N]`` (1-based) are pinned to the most effective mode;
slots ``[1, n_p-1]`` hold a subset of the physically available modes,
evenly extracted from the full set.  Consequently:

* small ``P_p`` → small ``n_p`` → most slots are "max cooling" and one
  index step sweeps several physical modes (aggressive);
* large ``P_p`` → long gentle ramp using (nearly) every physical mode
  (cost-oriented).

Duplicated values are permitted; an array in which *all* slots hold one
value represents a technique made insensitive to temperature changes
(the paper's degenerate case).

Internally slots are 0-based; the public accessors use 0-based indices,
and docstrings quote the paper's 1-based convention where relevant.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .policy import Policy

__all__ = ["ThermalControlArray", "DEFAULT_ARRAY_SIZE"]

#: Default slot count.  100 gives every technique the same index
#: geometry as the paper's 100-step fan ladder, so one ``P_p`` has the
#: same meaning across fan and DVFS actuators.
DEFAULT_ARRAY_SIZE = 100


class ThermalControlArray:
    """Eq.-(1)-filled array of thermal control modes.

    Parameters
    ----------
    modes:
        Physically available modes, **ascending in cooling
        effectiveness** (e.g. fan duties low→high, or CPU frequencies
        high→low).  Mode values are opaque to the array.
    policy:
        Supplies ``P_p`` and its bounds.
    size:
        Slot count ``N``.  Defaults to
        ``max(len(modes), DEFAULT_ARRAY_SIZE)`` — the paper allows N to
        be equal to or greater than the number of physical modes.
    """

    def __init__(
        self,
        modes: Sequence[Any],
        policy: Policy,
        size: Optional[int] = None,
    ) -> None:
        if len(modes) < 2:
            raise ConfigurationError(
                f"need at least 2 physical modes, got {len(modes)}"
            )
        self.modes: Tuple[Any, ...] = tuple(modes)
        self.policy = policy
        n = size if size is not None else max(len(modes), DEFAULT_ARRAY_SIZE)
        if n < len(modes):
            raise ConfigurationError(
                f"array size ({n}) must be >= number of physical modes "
                f"({len(modes)})"
            )
        if n < 2:
            raise ConfigurationError(f"array size must be >= 2, got {n}")
        self.size = n
        self.n_p = self._compute_np()
        # _slot_mode_pos[i] = index into self.modes of the value at slot i.
        self._slot_mode_pos: List[int] = self._fill()

    # -- construction ----------------------------------------------------

    def _compute_np(self) -> int:
        """Eq. (1): the pin boundary ``n_p`` (1-based)."""
        p = self.policy
        return (
            int(
                (p.pp - p.p_min) * (self.size - 1) // (p.p_max - p.p_min)
            )
            + 1
        )

    def _fill(self) -> List[int]:
        """Fill the slots per §3.2.2.

        0-based: slots ``[n_p-1, N-1]`` pin the most effective mode;
        slots ``[0, n_p-2]`` evenly extract from the physical set,
        starting at the least effective mode.
        """
        m = len(self.modes)
        top = m - 1
        positions = [top] * self.size
        ramp_len = self.n_p - 1  # number of non-pinned slots
        if ramp_len > 0:
            if ramp_len == 1:
                positions[0] = 0
            else:
                for k in range(ramp_len):
                    # Even extraction: slot k of the ramp maps to mode
                    # round(k * top / ramp_len); k = ramp_len would land
                    # exactly on `top`, which is the first pinned slot.
                    positions[k] = round(k * top / ramp_len)
        return positions

    # -- access ----------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, slot: int) -> Any:
        """Mode value at ``slot`` (0-based)."""
        if not 0 <= slot < self.size:
            raise IndexError(
                f"slot {slot} out of range [0, {self.size - 1}]"
            )
        return self.modes[self._slot_mode_pos[slot]]

    def values(self) -> List[Any]:
        """All slot values, in slot order."""
        return [self.modes[p] for p in self._slot_mode_pos]

    def slot_for_mode(self, mode: Any) -> int:
        """The lowest slot whose value is nearest to ``mode``.

        ``mode`` must be one of the physical modes.  When the exact
        mode was skipped by the even extraction, the slot holding the
        nearest (by position in the physical set) value is returned;
        ties resolve toward less effective.
        """
        try:
            target = self.modes.index(mode)
        except ValueError:
            raise ConfigurationError(
                f"{mode!r} is not one of the physical modes"
            ) from None
        best_slot = 0
        best_dist = abs(self._slot_mode_pos[0] - target)
        for slot in range(1, self.size):
            dist = abs(self._slot_mode_pos[slot] - target)
            if dist < best_dist:
                best_slot, best_dist = slot, dist
                if dist == 0:
                    break
        return best_slot

    def next_distinct_slot(self, slot: int) -> int:
        """Lowest slot above ``slot`` holding a *different* mode.

        Returns ``slot`` itself if no more-effective mode exists above
        it (already at or equivalent to the top).
        """
        if not 0 <= slot < self.size:
            raise IndexError(
                f"slot {slot} out of range [0, {self.size - 1}]"
            )
        current = self._slot_mode_pos[slot]
        for s in range(slot + 1, self.size):
            if self._slot_mode_pos[s] != current:
                return s
        return slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThermalControlArray(N={self.size}, n_p={self.n_p}, "
            f"P_p={self.policy.pp}, modes={len(self.modes)})"
        )
