"""Wall-power meter: integration and averaging."""

import pytest

from repro.cluster.power_meter import PowerMeter
from repro.errors import ConfigurationError, SimulationError


class TestPowerMeter:
    def test_average_before_any_record_raises(self):
        with pytest.raises(SimulationError):
            _ = PowerMeter().average_power

    def test_constant_power(self):
        meter = PowerMeter()
        for _ in range(100):
            meter.record(100.0, 0.05)
        assert meter.average_power == pytest.approx(100.0)
        assert meter.energy_joules == pytest.approx(500.0)
        assert meter.elapsed == pytest.approx(5.0)

    def test_average_weighted_by_time(self):
        meter = PowerMeter()
        meter.record(100.0, 9.0)
        meter.record(200.0, 1.0)
        assert meter.average_power == pytest.approx(110.0)

    def test_reset(self):
        meter = PowerMeter()
        meter.record(100.0, 1.0)
        meter.reset()
        assert meter.energy_joules == 0.0
        assert meter.elapsed == 0.0
        with pytest.raises(SimulationError):
            _ = meter.average_power

    def test_rejects_negative_power(self):
        with pytest.raises(ConfigurationError):
            PowerMeter().record(-1.0, 1.0)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ConfigurationError):
            PowerMeter().record(10.0, 0.0)

    def test_average_insensitive_to_tick_rate(self):
        coarse = PowerMeter()
        fine = PowerMeter()
        for _ in range(10):
            coarse.record(100.0, 0.1)
        for _ in range(100):
            fine.record(100.0, 0.01)
        assert coarse.average_power == pytest.approx(fine.average_power)
