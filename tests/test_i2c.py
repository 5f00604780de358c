"""i2c substrate: bus transactions, register files, failure modes."""

import pytest

from repro.errors import BusError, ConfigurationError, DeviceError
from repro.i2c.bus import I2cBus
from repro.i2c.device import I2cDevice, Register


def make_device(address=0x2E) -> I2cDevice:
    dev = I2cDevice(address, "dev")
    dev.define(0x10, "status", value=0xAB)
    dev.define(0x20, "setpoint", value=0x00, writable=True)
    return dev


class TestRegister:
    def test_bad_address(self):
        with pytest.raises(ConfigurationError):
            Register(0x100, "r")

    def test_bad_initial_value(self):
        with pytest.raises(ConfigurationError):
            Register(0x10, "r", value=0x1FF)


class TestDevice:
    def test_address_range_enforced(self):
        with pytest.raises(ConfigurationError):
            I2cDevice(0x00, "bad")  # reserved
        with pytest.raises(ConfigurationError):
            I2cDevice(0x78, "bad")  # above 7-bit usable range

    def test_duplicate_register_rejected(self):
        dev = make_device()
        with pytest.raises(ConfigurationError):
            dev.define(0x10, "again")

    def test_read_defined(self):
        assert make_device().read_register(0x10) == 0xAB

    def test_read_undefined_nacks(self):
        with pytest.raises(DeviceError):
            make_device().read_register(0x77)

    def test_write_writable(self):
        dev = make_device()
        dev.write_register(0x20, 0x55)
        assert dev.read_register(0x20) == 0x55

    def test_write_read_only_rejected(self):
        with pytest.raises(DeviceError):
            make_device().write_register(0x10, 0x00)

    def test_write_out_of_byte_range(self):
        with pytest.raises(DeviceError):
            make_device().write_register(0x20, 0x1FF)

    def test_write_undefined(self):
        with pytest.raises(DeviceError):
            make_device().write_register(0x99, 0x00)

    def test_on_write_hook(self):
        dev = I2cDevice(0x2E, "dev")
        seen = []
        dev.define(0x30, "pwm", writable=True, on_write=seen.append)
        dev.write_register(0x30, 0x7F)
        assert seen == [0x7F]

    def test_poke_ignores_writability(self):
        dev = make_device()
        dev.poke(0x10, 0xCD)  # status is read-only to the bus
        assert dev.read_register(0x10) == 0xCD

    def test_poke_undefined(self):
        with pytest.raises(DeviceError):
            make_device().poke(0x99, 0x00)

    def test_poke_range(self):
        with pytest.raises(DeviceError):
            make_device().poke(0x10, 300)


class TestBus:
    def test_attach_and_scan(self):
        bus = I2cBus()
        bus.attach(make_device(0x2E))
        bus.attach(make_device(0x4C))
        for address in (0x2E, 0x4C):
            bus.write_byte_data(address, 0x20, address)
            assert bus.read_byte_data(address, 0x20) == address

    def test_address_conflict(self):
        bus = I2cBus()
        bus.attach(make_device(0x2E))
        with pytest.raises(ConfigurationError):
            bus.attach(make_device(0x2E))

    def test_read_write_roundtrip(self):
        bus = I2cBus()
        bus.attach(make_device(0x2E))
        bus.write_byte_data(0x2E, 0x20, 0x42)
        assert bus.read_byte_data(0x2E, 0x20) == 0x42

    def test_no_device_at_address(self):
        bus = I2cBus()
        with pytest.raises(BusError):
            bus.read_byte_data(0x2E, 0x10)
