"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from runtime simulation
problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ActuatorError",
    "BusError",
    "DeviceError",
    "WorkloadError",
    "PolicyError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with invalid or inconsistent parameters.

    Raised eagerly at construction time so that a mis-specified platform
    fails before a simulation starts, never half-way through one.
    """


class SimulationError(ReproError, RuntimeError):
    """The simulation engine reached an inconsistent state.

    Examples: stepping a finished simulation, registering a component
    after the run loop has started, or a component raising during a step.
    """


class ActuatorError(ReproError, RuntimeError):
    """An actuator (fan, DVFS) rejected a requested mode."""


class BusError(ReproError, RuntimeError):
    """An i2c bus transaction failed (no device at address, NACK, ...)."""


class DeviceError(ReproError, RuntimeError):
    """A device-model register access was invalid (bad register, RO write)."""


class WorkloadError(ReproError, RuntimeError):
    """A workload was driven incorrectly (e.g. stepped after completion)."""


class PolicyError(ConfigurationError):
    """A thermal-control policy parameter (``P_p``, bounds, ...) is invalid."""


class TelemetryError(ConfigurationError):
    """A telemetry instrument was registered or used inconsistently.

    Examples: re-registering ``name`` as a different metric type, or
    two histograms sharing a name but disagreeing on bucket bounds.
    """
