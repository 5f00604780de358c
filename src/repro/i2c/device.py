"""Register-file base class for i2c device models.

Real monitoring chips are byte-addressed register files with a mix of
read-only (measurements, IDs) and read/write (setpoints, configuration)
registers.  :class:`I2cDevice` captures that structure:

* registers are declared with :meth:`I2cDevice.define`,
* the *bus-facing* interface is :meth:`read_register` /
  :meth:`write_register` (these enforce read-only bits and raise
  :class:`~repro.errors.DeviceError` on undefined registers, like a
  NACKing chip),
* the *model-facing* interface is :meth:`poke` (used by the device's
  own physics to update measurement registers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError, DeviceError

__all__ = ["Register", "I2cDevice"]


@dataclass
class Register:
    """One 8-bit register.

    Attributes
    ----------
    address:
        Register index in 0..255.
    name:
        Human-readable name (used in errors and debugging).
    value:
        Current 8-bit contents.
    writable:
        Whether the bus may write it (measurement registers are not).
    on_write:
        Optional hook invoked (with the new value) after a bus write —
        device models use this to react immediately to configuration
        changes.
    """

    address: int
    name: str
    value: int = 0
    writable: bool = False
    on_write: Optional[Callable[[int], None]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.address <= 0xFF:
            raise ConfigurationError(
                f"register address {self.address:#x} out of byte range"
            )
        if not 0 <= self.value <= 0xFF:
            raise ConfigurationError(
                f"register {self.name!r} initial value {self.value:#x} "
                "out of byte range"
            )


class I2cDevice:
    """A byte-addressed register file at a fixed bus address.

    Parameters
    ----------
    address:
        7-bit i2c address (0x08–0x77 per the i2c spec's reserved ranges).
    name:
        Device name for diagnostics.
    """

    def __init__(self, address: int, name: str) -> None:
        if not 0x08 <= address <= 0x77:
            raise ConfigurationError(
                f"i2c address {address:#x} outside the valid 7-bit range "
                "0x08-0x77"
            )
        self.address = address
        self.name = name
        self._registers: Dict[int, Register] = {}

    # -- declaration ------------------------------------------------------

    def define(
        self,
        address: int,
        name: str,
        value: int = 0,
        writable: bool = False,
        on_write: Optional[Callable[[int], None]] = None,
    ) -> Register:
        """Declare a register; addresses must be unique per device."""
        if address in self._registers:
            raise ConfigurationError(
                f"{self.name}: register {address:#x} defined twice"
            )
        reg = Register(address, name, value, writable, on_write)
        self._registers[address] = reg
        return reg

    # -- bus-facing (what the driver sees) ----------------------------------

    def read_register(self, register: int) -> int:
        """SMBus read-byte-data; raises :class:`DeviceError` if undefined."""
        reg = self._registers.get(register)
        if reg is None:
            raise DeviceError(
                f"{self.name}: read of undefined register {register:#04x}"
            )
        return reg.value

    def write_register(self, register: int, value: int) -> None:
        """SMBus write-byte-data; enforces writability and byte range."""
        reg = self._registers.get(register)
        if reg is None:
            raise DeviceError(
                f"{self.name}: write to undefined register {register:#04x}"
            )
        if not reg.writable:
            raise DeviceError(
                f"{self.name}: register {reg.name!r} ({register:#04x}) "
                "is read-only"
            )
        if not 0 <= value <= 0xFF:
            raise DeviceError(
                f"{self.name}: value {value!r} out of byte range for "
                f"{reg.name!r}"
            )
        reg.value = value
        if reg.on_write is not None:
            reg.on_write(value)

    # -- model-facing (what the device physics uses) --------------------------

    def poke(self, register: int, value: int) -> None:
        """Set a register from the device model side (ignores writability)."""
        reg = self._registers.get(register)
        if reg is None:
            raise DeviceError(
                f"{self.name}: poke of undefined register {register:#04x}"
            )
        if not 0 <= value <= 0xFF:
            raise DeviceError(
                f"{self.name}: poke value {value!r} out of byte range"
            )
        reg.value = value
