"""Host-side fan driver (the paper's custom Linux driver).

:class:`FanDriver` is the only path governors use to touch the fan: it
speaks SMBus transactions to the :class:`~repro.fan.adt7467.ADT7467`
exactly as a kernel driver would — probe the ID registers, switch the
chip between manual and automatic modes, write duty setpoints, read
back temperature and tach.

The driver owns the **100-step duty discretization** of §4.1 (requests
are snapped to the ladder) and the **maximum-allowed-duty cap** used by
Figures 6–10 ("the maximum allowed fan speed ... is set to 75 %"):
requests above the cap clamp to it.
"""

from __future__ import annotations

from typing import Optional

from ..errors import BusError
from ..i2c.bus import I2cBus
from ..units import clamp, require_in_range
from .adt7467 import (
    COMPANY_ID,
    CONFIG_AUTO_REMOTE1,
    CONFIG_MANUAL,
    DEVICE_ID,
    REG_COMPANY_ID,
    REG_DEVICE_ID,
    REG_PWM1_CONFIG,
    REG_PWM1_DUTY,
    REG_PWM1_MAX,
    REG_PWM1_MIN,
    REG_REMOTE1_TEMP,
    REG_TACH1_HIGH,
    REG_TACH1_LOW,
    REG_TMIN,
    REG_TRANGE,
    TACH_CLOCK_PER_MINUTE,
    T_RANGE_MAX,
    T_RANGE_MIN,
    _byte_to_temp,
    _duty_to_byte,
    _temp_to_byte,
)
from .pwm import DutyCycleLadder

__all__ = ["FanDriver"]


class FanDriver:
    """Governor-facing fan control API over an i2c-attached ADT7467.

    Parameters
    ----------
    bus:
        The i2c segment the chip lives on.
    address:
        The chip's 7-bit address.
    ladder:
        Duty discretization (default: the paper's 100 steps, 1–100 %).
    max_duty:
        Hard duty ceiling (emulates a weaker fan / an admin cap).
    probe:
        When True (default), verify the device and company IDs at
        construction, as a real driver's ``detect`` routine would.
    """

    def __init__(
        self,
        bus: I2cBus,
        address: int,
        ladder: Optional[DutyCycleLadder] = None,
        max_duty: float = 1.0,
        probe: bool = True,
    ) -> None:
        self._bus = bus
        self._address = address
        self.max_duty = require_in_range(max_duty, 0.01, 1.0, "max_duty")
        self.ladder = ladder if ladder is not None else DutyCycleLadder()
        if probe:
            dev = bus.read_byte_data(address, REG_DEVICE_ID)
            comp = bus.read_byte_data(address, REG_COMPANY_ID)
            if dev != DEVICE_ID or comp != COMPANY_ID:
                raise BusError(
                    f"device at {address:#04x} is not an ADT7467 "
                    f"(id={dev:#04x}, company={comp:#04x})"
                )

    # -- mode control ------------------------------------------------------

    def set_manual_mode(self) -> None:
        """Take PWM1 under host control (dynamic governors need this)."""
        self._bus.write_byte_data(self._address, REG_PWM1_CONFIG, CONFIG_MANUAL)

    def set_auto_mode(
        self,
        t_min: Optional[float] = None,
        t_range: Optional[float] = None,
        duty_min: Optional[float] = None,
        duty_max: Optional[float] = None,
    ) -> None:
        """Hand PWM1 to the chip's automatic curve (traditional control).

        Optionally reprograms the curve's corner registers first.
        """
        if t_min is not None:
            self._bus.write_byte_data(self._address, REG_TMIN, _temp_to_byte(t_min))
        if t_range is not None:
            width = int(round(clamp(t_range, T_RANGE_MIN, T_RANGE_MAX)))
            self._bus.write_byte_data(self._address, REG_TRANGE, width)
        if duty_min is not None:
            self._bus.write_byte_data(
                self._address, REG_PWM1_MIN, _duty_to_byte(duty_min)
            )
        if duty_max is not None:
            self._bus.write_byte_data(
                self._address, REG_PWM1_MAX, _duty_to_byte(min(duty_max, self.max_duty))
            )
        self._bus.write_byte_data(self._address, REG_PWM1_CONFIG, CONFIG_AUTO_REMOTE1)

    # -- duty ------------------------------------------------------------

    def set_duty(self, duty: float) -> float:
        """Command a duty fraction; returns the value actually applied.

        The request is clamped to the driver cap, snapped to the duty
        ladder and written to the chip's PWM1 register.
        """
        require_in_range(duty, 0.0, 1.0, "duty")
        applied = self.ladder.quantize(min(duty, self.max_duty))
        applied = min(applied, self.max_duty)
        self._bus.write_byte_data(
            self._address, REG_PWM1_DUTY, _duty_to_byte(applied)
        )
        return applied

    def get_duty(self) -> float:
        """Read back the duty currently on the PWM1 output."""
        return self._bus.read_byte_data(self._address, REG_PWM1_DUTY) / 255.0

    # -- sensors -----------------------------------------------------------

    def read_temperature(self) -> float:
        """Remote (CPU diode) temperature in °C as the chip reports it."""
        return _byte_to_temp(
            self._bus.read_byte_data(self._address, REG_REMOTE1_TEMP)
        )

    def read_rpm(self) -> float:
        """Fan speed in RPM decoded from the tach registers (0 if stalled)."""
        low = self._bus.read_byte_data(self._address, REG_TACH1_LOW)
        high = self._bus.read_byte_data(self._address, REG_TACH1_HIGH)
        count = (high << 8) | low
        if count in (0, 0xFFFF):
            return 0.0
        return TACH_CLOCK_PER_MINUTE / count
