"""ADT7467 device model and the host-side fan driver."""

import pytest

from repro.errors import BusError, ConfigurationError, DeviceError
from repro.fan.adt7467 import (
    ADT7467,
    CONFIG_AUTO_REMOTE1,
    CONFIG_MANUAL,
    COMPANY_ID,
    DEVICE_ID,
    REG_COMPANY_ID,
    REG_DEVICE_ID,
    REG_PWM1_CONFIG,
    REG_PWM1_DUTY,
    REG_PWM1_MAX,
    REG_PWM1_MIN,
    REG_REMOTE1_TEMP,
    REG_TMIN,
    REG_TRANGE,
    Adt7467Config,
)
from repro.fan.driver import FanDriver
from repro.fan.pwm import DutyCycleLadder
from repro.i2c.bus import I2cBus
from repro.i2c.device import I2cDevice


def auto_mode(chip: ADT7467) -> bool:
    """Whether PWM1 follows the hardware automatic curve."""
    return chip.read_register(REG_PWM1_CONFIG) == CONFIG_AUTO_REMOTE1


class TestChipIdentity:
    def test_id_registers(self, fan_bus):
        bus, chip = fan_bus
        assert bus.read_byte_data(chip.address, REG_DEVICE_ID) == DEVICE_ID
        assert bus.read_byte_data(chip.address, REG_COMPANY_ID) == COMPANY_ID

    def test_default_address(self):
        assert ADT7467().address == 0x2E

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Adt7467Config(pwm_min_duty=0.8, pwm_max_duty=0.5)


class TestMeasurementPath:
    def test_temperature_encoding(self, fan_bus):
        bus, chip = fan_bus
        chip.update(remote_temp=55.4)
        assert bus.read_byte_data(chip.address, REG_REMOTE1_TEMP) == 55

    def test_negative_temperature_twos_complement(self, fan_bus):
        bus, chip = fan_bus
        chip.update(remote_temp=-10.0)
        raw = bus.read_byte_data(chip.address, REG_REMOTE1_TEMP)
        assert raw == (-10) & 0xFF


class TestAutoMode:
    def test_powers_on_in_auto(self, fan_bus):
        _, chip = fan_bus
        assert auto_mode(chip)

    def test_auto_curve_below_tmin(self, fan_bus):
        _, chip = fan_bus
        assert chip.auto_curve_duty(30.0) == pytest.approx(0.10, abs=0.01)

    def test_auto_curve_at_tmax(self, fan_bus):
        _, chip = fan_bus
        # t_min=38, t_range=44 -> full PWM1-max at 82 degC
        assert chip.auto_curve_duty(82.0) == pytest.approx(1.0, abs=0.01)

    def test_auto_curve_midpoint_linear(self, fan_bus):
        _, chip = fan_bus
        duty = chip.auto_curve_duty(60.0)
        expected = 0.10 + (60.0 - 38.0) / 44.0 * (1.0 - 0.10)
        assert duty == pytest.approx(expected, abs=0.02)

    def test_auto_updates_pwm_register(self, fan_bus):
        bus, chip = fan_bus
        chip.update(remote_temp=70.0)
        hot_duty = chip.commanded_duty
        chip.update(remote_temp=40.0)
        cool_duty = chip.commanded_duty
        assert hot_duty > cool_duty

    def test_auto_respects_pwm_max_register(self):
        chip = ADT7467(Adt7467Config(pwm_max_duty=0.25))
        chip.update(remote_temp=82.0)
        # within one 8-bit register quantum of the cap
        assert chip.commanded_duty <= 0.25 + 1.0 / 255.0


class TestManualMode:
    def test_manual_write_sticks(self, fan_bus):
        bus, chip = fan_bus
        bus.write_byte_data(chip.address, REG_PWM1_CONFIG, CONFIG_MANUAL)
        bus.write_byte_data(chip.address, REG_PWM1_DUTY, 128)
        chip.update(remote_temp=80.0)
        # auto logic must NOT overwrite the host's setpoint
        assert chip.commanded_duty == pytest.approx(128 / 255)


class TestRegisterLiveness:
    """Host bus writes between two ``update``s take effect on the next."""

    def test_config_auto_manual_auto(self, fan_bus):
        bus, chip = fan_bus
        addr = chip.address
        chip.update(remote_temp=70.0)
        auto_duty = bus.read_byte_data(addr, REG_PWM1_DUTY)
        bus.write_byte_data(addr, REG_PWM1_CONFIG, CONFIG_MANUAL)
        bus.write_byte_data(addr, REG_PWM1_DUTY, 17)
        chip.update(remote_temp=70.0)
        assert bus.read_byte_data(addr, REG_PWM1_DUTY) == 17
        bus.write_byte_data(addr, REG_PWM1_CONFIG, CONFIG_AUTO_REMOTE1)
        chip.update(remote_temp=70.0)
        assert bus.read_byte_data(addr, REG_PWM1_DUTY) == auto_duty != 17

    def _duty_byte_after(self, bus, chip, register, value, remote=60.0):
        chip.update(remote_temp=remote)
        before = bus.read_byte_data(chip.address, REG_PWM1_DUTY)
        bus.write_byte_data(chip.address, register, value)
        chip.update(remote_temp=remote)
        return before, bus.read_byte_data(chip.address, REG_PWM1_DUTY)

    def test_pwm_min(self, fan_bus):
        bus, chip = fan_bus
        # below T_min the duty is PWM1_MIN itself
        before, after = self._duty_byte_after(bus, chip, REG_PWM1_MIN, 64, 30.0)
        assert (before, after) == (26, 64)

    def test_pwm_max(self, fan_bus):
        bus, chip = fan_bus
        # 90 degC is past T_min + T_range: the duty sits at PWM1_MAX
        before, after = self._duty_byte_after(bus, chip, REG_PWM1_MAX, 128, 90.0)
        assert (before, after) == (255, 128)

    def test_tmin(self, fan_bus):
        bus, chip = fan_bus
        # T_min 38 -> 60: a 60 degC diode drops to the ramp's floor
        before, after = self._duty_byte_after(bus, chip, REG_TMIN, 60)
        assert before > 26 and after == 26

    def test_trange(self, fan_bus):
        bus, chip = fan_bus
        # T_range 44 -> 11 K: 60 degC is past the ramp's top
        before, after = self._duty_byte_after(bus, chip, REG_TRANGE, 11)
        assert before < 255 and after == 255


class TestTRangeRegister:
    """A T_RANGE outside [1, 120] K is refused on the bus; a zero ramp
    width used to crash the next auto-mode update by dividing by zero."""

    @pytest.mark.parametrize("value", [0, 121, 255])
    def test_bus_write_outside_range_refused(self, fan_bus, value):
        bus, chip = fan_bus
        with pytest.raises(DeviceError, match="T_RANGE"):
            bus.write_byte_data(chip.address, REG_TRANGE, value)
        assert chip.read_register(REG_TRANGE) == 44
        chip.update(remote_temp=60.0)
        assert 0.1 < chip.commanded_duty < 1.0

    @pytest.mark.parametrize("value", [1, 44, 120])
    def test_bus_write_inside_range_accepted(self, fan_bus, value):
        bus, chip = fan_bus
        bus.write_byte_data(chip.address, REG_TRANGE, value)
        assert chip.read_register(REG_TRANGE) == value
        chip.update(remote_temp=60.0)

    def test_other_registers_keep_the_byte_range(self, fan_bus):
        _, chip = fan_bus
        chip.write_register(REG_PWM1_MIN, 0)
        with pytest.raises(DeviceError, match="byte range"):
            chip.write_register(REG_PWM1_MIN, 256)


class TestFanDriver:
    def test_probe_accepts_real_chip(self, fan_bus):
        bus, chip = fan_bus
        FanDriver(bus, chip.address)  # should not raise

    def test_probe_rejects_imposter(self):
        bus = I2cBus()
        imposter = I2cDevice(0x2E, "imposter")
        imposter.define(REG_DEVICE_ID, "id", value=0x11)
        imposter.define(REG_COMPANY_ID, "cid", value=0x22)
        bus.attach(imposter)
        with pytest.raises(BusError):
            FanDriver(bus, 0x2E)

    def test_set_duty_quantizes_to_ladder(self, fan_driver):
        fan_driver.set_manual_mode()
        applied = fan_driver.set_duty(0.503)
        assert applied == pytest.approx(fan_driver.ladder.quantize(0.503))

    def test_set_duty_respects_cap(self, fan_bus):
        bus, chip = fan_bus
        driver = FanDriver(bus, chip.address, max_duty=0.25)
        driver.set_manual_mode()
        applied = driver.set_duty(0.90)
        assert applied <= 0.25 + 1e-9

    def test_get_duty_roundtrip(self, fan_driver):
        fan_driver.set_manual_mode()
        fan_driver.set_duty(0.5)
        assert fan_driver.get_duty() == pytest.approx(0.5, abs=0.01)

    def test_set_auto_mode_programs_curve(self, fan_bus):
        bus, chip = fan_bus
        driver = FanDriver(bus, chip.address)
        driver.set_auto_mode(t_min=40.0, t_range=40.0, duty_min=0.2, duty_max=0.8)
        assert auto_mode(chip)
        assert chip.auto_curve_duty(39.0) == pytest.approx(0.2, abs=0.01)
        assert chip.auto_curve_duty(80.0) == pytest.approx(0.8, abs=0.01)

    def test_manual_then_auto_switch(self, fan_driver, fan_bus):
        _, chip = fan_bus
        fan_driver.set_manual_mode()
        assert not auto_mode(chip)
        fan_driver.set_auto_mode()
        assert auto_mode(chip)

    def test_custom_ladder(self, fan_bus):
        bus, chip = fan_bus
        ladder = DutyCycleLadder(steps=4, min_duty=0.25, max_duty=1.0)
        driver = FanDriver(bus, chip.address, ladder=ladder)
        driver.set_manual_mode()
        assert driver.set_duty(0.4) == pytest.approx(0.5)
