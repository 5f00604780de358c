"""P-state (frequency/voltage operating point) tables.

A :class:`PStateTable` is an immutable, validated ladder of
:class:`PState` points ordered from the *fastest* (index 0) to the
*slowest* (highest index).  This is the cpufreq convention; note that
the paper's thermal-control-array convention is the opposite (ascending
cooling *effectiveness*, i.e. descending frequency), and the adapter in
:mod:`repro.core.actuator` performs that reversal explicitly.

``ATHLON64_4000`` reproduces the ladder of the paper's testbed
processor: 2.4, 2.2, 2.0, 1.8 and 1.0 GHz, with voltages taken from the
AMD Athlon64 (939) PowerNow! tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..errors import ConfigurationError
from ..units import ghz, require_positive, to_ghz

__all__ = ["PState", "PStateTable", "ATHLON64_4000"]


@dataclass(frozen=True, order=True)
class PState:
    """One DVFS operating point.

    Ordering is by ``(frequency, voltage)`` so sorting a list of
    P-states ascending gives slowest-first.

    Attributes
    ----------
    frequency:
        Core clock in Hz.
    voltage:
        Core supply in volts.
    """

    frequency: float
    voltage: float

    def __post_init__(self) -> None:
        require_positive(self.frequency, "frequency")
        require_positive(self.voltage, "voltage")
        if self.voltage > 2.5:
            raise ConfigurationError(
                f"voltage {self.voltage} V is implausibly high for CMOS"
            )

    @property
    def frequency_ghz(self) -> float:
        """Core clock in GHz."""
        return to_ghz(self.frequency)

    def __str__(self) -> str:
        return f"{self.frequency_ghz:.1f}GHz@{self.voltage:.2f}V"


class PStateTable:
    """Immutable fastest-first ladder of P-states.

    Parameters
    ----------
    pstates:
        Operating points; must be unique in frequency.  Any order is
        accepted; the table sorts fastest-first and requires voltage to
        be non-increasing as frequency decreases (a slower point never
        needs *more* voltage).
    """

    def __init__(self, pstates: Sequence[PState]) -> None:
        if len(pstates) < 2:
            raise ConfigurationError(
                "a DVFS-capable processor needs at least 2 P-states"
            )
        ordered = sorted(pstates, key=lambda p: -p.frequency)
        freqs = [p.frequency for p in ordered]
        if len(set(freqs)) != len(freqs):
            raise ConfigurationError("duplicate P-state frequencies")
        for faster, slower in zip(ordered, ordered[1:]):
            if slower.voltage > faster.voltage:
                raise ConfigurationError(
                    f"P-state {slower} needs more voltage than the faster {faster}"
                )
        self._pstates: List[PState] = ordered

    def __len__(self) -> int:
        return len(self._pstates)

    def __getitem__(self, index: int) -> PState:
        return self._pstates[index]

    def __iter__(self) -> Iterator[PState]:
        return iter(self._pstates)

    def index_of_frequency(self, frequency: float, tol: float = 1e6) -> int:
        """Index of the P-state whose frequency matches within ``tol`` Hz.

        Raises
        ------
        ConfigurationError
            If no P-state matches.
        """
        for i, p in enumerate(self._pstates):
            if abs(p.frequency - frequency) <= tol:
                return i
        raise ConfigurationError(
            f"no P-state at {frequency/1e9:.3f} GHz; ladder is "
            f"{[str(p) for p in self._pstates]}"
        )

    def frequencies_ghz(self) -> List[float]:
        """All frequencies in GHz, fastest first."""
        return [p.frequency_ghz for p in self._pstates]


#: The paper's AMD Athlon64 4000+ (San Diego, socket 939) PowerNow! ladder.
ATHLON64_4000 = PStateTable(
    [
        PState(frequency=ghz(2.4), voltage=1.50),
        PState(frequency=ghz(2.2), voltage=1.45),
        PState(frequency=ghz(2.0), voltage=1.40),
        PState(frequency=ghz(1.8), voltage=1.35),
        PState(frequency=ghz(1.0), voltage=1.10),
    ]
)
