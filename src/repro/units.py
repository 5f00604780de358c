"""Physical units, conversions and small numeric helpers.

The library works internally in SI-ish engineering units:

========================  =======================================
quantity                  unit
========================  =======================================
time                      seconds (``s``)
temperature               degrees Celsius (``°C``)
power                     watts (``W``)
energy                    joules (``J``)
frequency (CPU)           hertz (``Hz``); helpers accept GHz
fan speed                 revolutions per minute (``RPM``)
PWM duty cycle            fraction in ``[0, 1]`` (helpers accept %)
airflow                   cubic feet per minute (``CFM``)
thermal resistance        kelvin per watt (``K/W``)
thermal capacitance       joules per kelvin (``J/K``)
voltage                   volts (``V``)
========================  =======================================

Duty cycles are *fractions* internally; the paper (and the ADT7467
datasheet) quote percentages, so :func:`duty_from_percent` /
:func:`duty_to_percent` are provided for the boundary.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

__all__ = [
    "GHZ",
    "MHZ",
    "KHZ",
    "ghz",
    "to_ghz",
    "duty_from_percent",
    "duty_to_percent",
    "clamp",
    "require_positive",
    "require_non_negative",
    "require_in_range",
]

#: Number of hertz in one gigahertz.
GHZ: float = 1.0e9
#: Number of hertz in one megahertz.
MHZ: float = 1.0e6
#: Number of hertz in one kilohertz.
KHZ: float = 1.0e3

def ghz(value: float) -> float:
    """Convert a frequency given in GHz to Hz.

    >>> ghz(2.4)
    2400000000.0
    """
    return float(value) * GHZ


def to_ghz(hz: float) -> float:
    """Convert a frequency in Hz to GHz.

    >>> to_ghz(2.4e9)
    2.4
    """
    return float(hz) / GHZ


def duty_from_percent(percent: float) -> float:
    """Convert a PWM duty cycle from percent to a fraction.

    Parameters
    ----------
    percent:
        Duty cycle in ``[0, 100]``.

    Raises
    ------
    ConfigurationError
        If ``percent`` is outside ``[0, 100]``.
    """
    if not 0.0 <= percent <= 100.0:
        raise ConfigurationError(
            f"PWM duty cycle must be in [0, 100] percent, got {percent!r}"
        )
    return float(percent) / 100.0


def duty_to_percent(duty: float) -> float:
    """Convert a fractional PWM duty cycle to percent."""
    if not 0.0 <= duty <= 1.0:
        raise ConfigurationError(
            f"PWM duty fraction must be in [0, 1], got {duty!r}"
        )
    return float(duty) * 100.0


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``.

    Raises
    ------
    ConfigurationError
        If ``low > high``.
    """
    if low > high:
        raise ConfigurationError(f"clamp bounds reversed: [{low}, {high}]")
    return max(low, min(high, value))


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not (value > 0.0) or math.isnan(value):
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if not (value >= 0.0) or math.isnan(value):
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Validate that ``value`` lies in ``[low, high]`` and return it."""
    if math.isnan(value) or not (low <= value <= high):
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )
    return float(value)
