"""Register-level model of the Analog Devices ADT7467 dBCool controller.

The paper's platform attaches an ADT7467 remote thermal monitor / fan
controller and drives it from a custom Linux driver over i2c (§4.1).
This module models the subset of the chip the paper exercises:

* a remote temperature channel fed by the CPU's thermal diode,
* a PWM output with an 8-bit duty register,
* the hardware **automatic fan control** mode, which implements exactly
  the static PWM(T) ramp of the paper's Figure 1: duty is ``PWM_min``
  up to ``T_min`` and rises linearly to ``PWM_max`` at
  ``T_min + T_range`` (the paper's ``T_max``).

The register map is an abridged, self-consistent subset of the ADT746x
family layout (device/company ID registers included so drivers can
probe).  Temperatures are stored as two's-complement °C in one-degree
steps and duty as 0–255, matching the real part's conventions.  The
local-temperature and tachometer registers are not modelled: the
paper's driver talks only to the PWM registers.

The chip is a *device model*: the host side talks to it only through
:class:`~repro.i2c.bus.I2cBus` transactions, while the node physics
feeds the diode reading in through :meth:`ADT7467.update`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, DeviceError
from ..i2c.device import I2cDevice
from ..sim.marker import hotpath, reject
from ..units import clamp, require_in_range

__all__ = [
    "Adt7467Config",
    "ADT7467",
    "REG_REMOTE1_TEMP",
    "REG_PWM1_DUTY",
    "REG_PWM1_MAX",
    "REG_DEVICE_ID",
    "REG_COMPANY_ID",
    "REG_PWM1_CONFIG",
    "REG_PWM1_MIN",
    "REG_TMIN",
    "REG_TRANGE",
    "DEVICE_ID",
    "COMPANY_ID",
    "CONFIG_MANUAL",
    "CONFIG_AUTO_REMOTE1",
    "T_RANGE_MIN",
    "T_RANGE_MAX",
]

# -- register addresses (abridged ADT746x-style map) -------------------------
REG_REMOTE1_TEMP = 0x25
REG_PWM1_DUTY = 0x30
REG_PWM1_MAX = 0x38
REG_DEVICE_ID = 0x3D
REG_COMPANY_ID = 0x3E
REG_PWM1_CONFIG = 0x5C
REG_PWM1_MIN = 0x64
REG_TMIN = 0x67
REG_TRANGE = 0x68

#: Value of :data:`REG_DEVICE_ID` (the real part reports 0x68).
DEVICE_ID = 0x68
#: Value of :data:`REG_COMPANY_ID` (0x41 = Analog Devices).
COMPANY_ID = 0x41

#: PWM1 behaviour field values (config register).
CONFIG_MANUAL = 0xE0
CONFIG_AUTO_REMOTE1 = 0xA0

#: Range of the T_RANGE register (ramp width, K) the chip accepts.
T_RANGE_MIN = 1
T_RANGE_MAX = 120


@dataclass(frozen=True)
class Adt7467Config:
    """Power-on configuration of the chip.

    Defaults reproduce the paper's platform constants:
    ``PWM_min = 10 %``, ``T_min = 38 °C``, ``T_max = 82 °C``
    (so ``T_range = 44 K``).

    Attributes
    ----------
    address:
        7-bit i2c address (0x2E is the part's usual strap).
    t_min:
        Start of the automatic ramp, °C.
    t_range:
        Width of the automatic ramp, K.
    pwm_min_duty:
        Duty fraction at/below ``t_min`` in auto mode.
    pwm_max_duty:
        Duty ceiling in auto mode.
    auto:
        Whether the chip powers on in automatic fan control mode.
    """

    address: int = 0x2E
    t_min: float = 38.0
    t_range: float = 44.0
    pwm_min_duty: float = 0.10
    pwm_max_duty: float = 1.0
    auto: bool = True

    def __post_init__(self) -> None:
        require_in_range(self.t_min, -40.0, 120.0, "t_min")
        require_in_range(self.t_range, 1.0, 120.0, "t_range")
        require_in_range(self.pwm_min_duty, 0.0, 1.0, "pwm_min_duty")
        require_in_range(self.pwm_max_duty, 0.0, 1.0, "pwm_max_duty")
        if self.pwm_min_duty >= self.pwm_max_duty:
            raise ConfigurationError(
                f"pwm_min_duty ({self.pwm_min_duty}) must be < pwm_max_duty "
                f"({self.pwm_max_duty})"
            )


def _temp_to_byte(celsius: float) -> int:
    """Two's-complement °C encoding clamped to the chip's range."""
    value = int(round(clamp(celsius, -128.0, 127.0)))
    return value & 0xFF


def _byte_to_temp(byte: int) -> float:
    """Inverse of :func:`_temp_to_byte`."""
    return float(byte - 256 if byte >= 128 else byte)


def _duty_to_byte(duty: float) -> int:
    """Duty fraction → 8-bit register value."""
    return int(round(clamp(duty, 0.0, 1.0) * 255.0))


class ADT7467(I2cDevice):
    """The dBCool monitor/fan-controller device model.

    Parameters
    ----------
    config:
        Power-on configuration.
    """

    def __init__(self, config: Adt7467Config | None = None) -> None:
        cfg = config if config is not None else Adt7467Config()
        super().__init__(address=cfg.address, name="ADT7467")
        self.config = cfg

        # The register handles: the device-model side reads and writes
        # ``reg.value`` directly, so the bus and the model share state.
        # REMOTE1 is the exception: the chip keeps the last diode
        # reading in °C and encodes it when the register is read.
        self._remote_celsius = 25.0
        self.define(REG_REMOTE1_TEMP, "remote1_temp", value=_temp_to_byte(25.0))
        self._r_duty = self.define(
            REG_PWM1_DUTY,
            "pwm1_duty",
            value=_duty_to_byte(cfg.pwm_min_duty),
            writable=True,
        )
        self._r_max = self.define(
            REG_PWM1_MAX,
            "pwm1_max",
            value=_duty_to_byte(cfg.pwm_max_duty),
            writable=True,
        )
        self.define(REG_DEVICE_ID, "device_id", value=DEVICE_ID)
        self.define(REG_COMPANY_ID, "company_id", value=COMPANY_ID)
        self._r_config = self.define(
            REG_PWM1_CONFIG,
            "pwm1_config",
            value=CONFIG_AUTO_REMOTE1 if cfg.auto else CONFIG_MANUAL,
            writable=True,
        )
        self._r_min = self.define(
            REG_PWM1_MIN,
            "pwm1_min",
            value=_duty_to_byte(cfg.pwm_min_duty),
            writable=True,
        )
        self._r_tmin = self.define(
            REG_TMIN, "tmin", value=_temp_to_byte(cfg.t_min), writable=True
        )
        self._r_trange = self.define(
            REG_TRANGE,
            "trange",
            value=int(round(clamp(cfg.t_range, T_RANGE_MIN, T_RANGE_MAX))),
            writable=True,
        )

    def write_register(self, register: int, value: int) -> None:
        """SMBus write-byte-data; T_RANGE also refuses ``[1, 120]`` misses.

        A zero ramp width would divide by zero in the automatic curve, so
        the chip NACKs it (and any width past the ramp's range) and the
        register keeps its value.
        """
        if register == REG_TRANGE and not (T_RANGE_MIN <= value <= T_RANGE_MAX):
            raise DeviceError(
                f"{self.name}: T_RANGE value {value!r} outside "
                f"[{T_RANGE_MIN}, {T_RANGE_MAX}] K"
            )
        super().write_register(register, value)

    def read_register(self, register: int) -> int:
        """SMBus read-byte-data; REMOTE1 encodes the last diode reading
        (clamped to ``[-128, 127]`` °C, rounded, two's complement)."""
        if register == REG_REMOTE1_TEMP:
            return _temp_to_byte(self._remote_celsius)
        return super().read_register(register)

    def poke(self, register: int, value: int) -> None:
        """Model-side register write; a REMOTE1 byte becomes the stored
        reading, so a read returns it unchanged."""
        super().poke(register, value)
        if register == REG_REMOTE1_TEMP:
            self._remote_celsius = _byte_to_temp(value)

    # -- device-model side -----------------------------------------------

    @property
    def commanded_duty(self) -> float:
        """Duty fraction currently on the PWM1 output (what the motor sees)."""
        return self._r_duty.value / 255.0

    @hotpath
    def auto_curve_duty(self, celsius: float) -> float:
        """The hardware automatic ramp — the paper's Figure 1.

        ``PWM_min`` below ``T_min``; linear to the PWM1-max register
        value at ``T_min + T_range``; clamped there above.  Every
        register is read on every call, so a host write between two
        calls takes effect on the next.
        """
        d_min = self._r_min.value / 255.0
        t_min = _byte_to_temp(self._r_tmin.value)
        if celsius <= t_min:
            return d_min
        d_max = self._r_max.value / 255.0
        frac = max(0.0, min(1.0, (celsius - t_min) / float(self._r_trange.value)))
        return d_min + (d_max - d_min) * frac

    @hotpath
    def update(self, remote_temp: float) -> None:
        """Feed one thermal-diode reading into the chip.

        Called by the node wiring every tick.  The chip stores the
        reading; a bus read of REMOTE1 encodes it
        (:meth:`read_register`).  In auto mode it also encodes the
        reading to the register byte and recomputes the PWM1 duty from
        the automatic curve at that byte's temperature; in manual mode
        the duty is the host's, and there is nothing else to do.  The
        duty write keeps :meth:`poke`'s byte-range check as an inline
        guard; the failing branch raises through :meth:`poke` itself
        (:func:`~repro.sim.marker.reject`).
        """
        self._remote_celsius = remote_temp
        if self._r_config.value == CONFIG_AUTO_REMOTE1:
            remote = int(round(max(-128.0, min(127.0, remote_temp)))) & 0xFF
            duty = self.auto_curve_duty(_byte_to_temp(remote))
            # Auto mode never exceeds the PWM1 max register.
            duty = min(duty, self._r_max.value / 255.0)
            byte = int(round(max(0.0, min(1.0, duty)) * 255.0))
            if not (0 <= byte <= 0xFF):
                reject(self.poke, REG_PWM1_DUTY, byte)
            self._r_duty.value = byte
