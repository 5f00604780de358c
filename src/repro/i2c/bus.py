"""The i2c bus master.

Connects :class:`~repro.i2c.device.I2cDevice` models to drivers via
SMBus-style ``read_byte_data`` / ``write_byte_data`` transactions,
mirroring the Linux ``i2c_smbus_*`` kernel API the paper's fan driver
would have used.
"""

from __future__ import annotations

from typing import Dict

from ..errors import BusError, ConfigurationError
from .device import I2cDevice

__all__ = ["I2cBus"]


class I2cBus:
    """A software i2c segment with addressable devices."""

    def __init__(self, name: str = "i2c-0") -> None:
        self.name = name
        self._devices: Dict[int, I2cDevice] = {}

    def attach(self, device: I2cDevice) -> I2cDevice:
        """Attach a device; its address must be free on this segment."""
        if device.address in self._devices:
            raise ConfigurationError(
                f"{self.name}: address {device.address:#04x} already in "
                f"use by {self._devices[device.address].name!r}"
            )
        self._devices[device.address] = device
        return device

    def _device(self, address: int) -> I2cDevice:
        dev = self._devices.get(address)
        if dev is None:
            raise BusError(
                f"{self.name}: no device acknowledges address {address:#04x}"
            )
        return dev

    def read_byte_data(self, address: int, register: int) -> int:
        """SMBus read-byte-data transaction."""
        return self._device(address).read_register(register)

    def write_byte_data(self, address: int, register: int, value: int) -> None:
        """SMBus write-byte-data transaction."""
        self._device(address).write_register(register, value)
