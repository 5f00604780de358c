"""Thermal sensor: quantization, noise, offset, lag, bookkeeping."""

import numpy as np
import pytest

from repro.thermal.sensor import SensorParams, ThermalSensor


class FakeSource:
    """A controllable temperature source."""

    def __init__(self, temp=50.0):
        self.die_temperature = temp


class TestQuantization:
    def test_quantum_snaps(self):
        sensor = ThermalSensor(FakeSource(50.13), SensorParams(quantum=0.25, noise_sigma=0.0))
        assert sensor.sample(0.0) == pytest.approx(50.25)

    def test_quantum_exact_multiple(self):
        sensor = ThermalSensor(FakeSource(50.25), SensorParams(quantum=0.25, noise_sigma=0.0))
        assert sensor.sample(0.0) == pytest.approx(50.25)

    def test_quantum_disabled(self):
        sensor = ThermalSensor(FakeSource(50.13), SensorParams(quantum=0.0, noise_sigma=0.0))
        assert sensor.sample(0.0) == pytest.approx(50.13)

    def test_coarse_quantum(self):
        sensor = ThermalSensor(FakeSource(50.6), SensorParams(quantum=1.0, noise_sigma=0.0))
        assert sensor.sample(0.0) == pytest.approx(51.0)


class TestNoise:
    def test_no_rng_means_no_noise(self):
        sensor = ThermalSensor(
            FakeSource(50.0), SensorParams(quantum=0.0, noise_sigma=5.0), rng=None
        )
        samples = {sensor.sample(i * 0.25) for i in range(20)}
        assert samples == {50.0}

    def test_noise_statistics(self):
        rng = np.random.default_rng(0)
        sensor = ThermalSensor(
            FakeSource(50.0), SensorParams(quantum=0.0, noise_sigma=0.5), rng=rng
        )
        samples = np.array([sensor.sample(i * 0.25) for i in range(4000)])
        assert samples.mean() == pytest.approx(50.0, abs=0.05)
        assert samples.std() == pytest.approx(0.5, abs=0.05)

    def test_noise_is_reproducible_per_seed(self):
        def take(seed):
            rng = np.random.default_rng(seed)
            s = ThermalSensor(FakeSource(), SensorParams(), rng=rng)
            return [s.sample(i * 0.25) for i in range(10)]

        assert take(3) == take(3)
        assert take(3) != take(4)


class TestOffsetAndLag:
    def test_offset(self):
        sensor = ThermalSensor(
            FakeSource(50.0), SensorParams(quantum=0.0, noise_sigma=0.0, offset=1.5)
        )
        assert sensor.sample(0.0) == pytest.approx(51.5)

    def test_lag_smooths_step(self):
        source = FakeSource(30.0)
        sensor = ThermalSensor(
            source, SensorParams(quantum=0.0, noise_sigma=0.0, lag=2.0)
        )
        sensor.sample(0.0)
        source.die_temperature = 60.0
        first_after = sensor.sample(0.25)
        assert 30.0 < first_after < 40.0  # far from the true 60

    def test_lag_converges(self):
        source = FakeSource(30.0)
        sensor = ThermalSensor(
            source, SensorParams(quantum=0.0, noise_sigma=0.0, lag=1.0)
        )
        sensor.sample(0.0)
        source.die_temperature = 60.0
        value = 0.0
        for i in range(1, 100):
            value = sensor.sample(i * 0.25)
        assert value == pytest.approx(60.0, abs=0.1)

    def test_zero_lag_tracks_immediately(self):
        source = FakeSource(30.0)
        sensor = ThermalSensor(source, SensorParams(quantum=0.0, noise_sigma=0.0))
        sensor.sample(0.0)
        source.die_temperature = 60.0
        assert sensor.sample(0.25) == pytest.approx(60.0)
