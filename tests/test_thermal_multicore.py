"""Multi-core package: hotspots, spreading, sensor semantics."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal.multicore import MulticorePackage
from repro.thermal.sensor import SensorParams, ThermalSensor


def settle(pkg: MulticorePackage, seconds=3000.0, dt=0.1):
    for i in range(int(seconds / dt)):
        pkg.step(i * dt, dt)


def set_powers(pkg: MulticorePackage, watts) -> None:
    for core, w in enumerate(watts):
        pkg.set_core_power(core, w)


def spread(pkg: MulticorePackage) -> float:
    """Hottest minus coolest core, K: the on-chip gradient."""
    temps = pkg.core_temperatures()
    return max(temps) - min(temps)


class TestConstruction:
    def test_needs_two_cores(self):
        with pytest.raises(ConfigurationError):
            MulticorePackage(n_cores=1)

    def test_two_core_package_has_no_duplicate_links(self):
        pkg = MulticorePackage(n_cores=2)  # would raise on dup links
        pkg.step(0.1, 0.1)

    def test_power_index_bounds(self):
        pkg = MulticorePackage(n_cores=4)
        with pytest.raises(ConfigurationError):
            pkg.set_core_power(4, 10.0)
        with pytest.raises(ConfigurationError):
            pkg.set_core_power(-1, 10.0)


class TestPhysics:
    def test_uniform_load_uniform_temps(self):
        pkg = MulticorePackage(n_cores=4)
        set_powers(pkg, [12.0] * 4)
        pkg.set_airflow(20.0)
        settle(pkg)
        assert spread(pkg) < 0.01

    def test_single_hot_core_creates_hotspot(self):
        pkg = MulticorePackage(n_cores=4)
        set_powers(pkg, [40.0, 2.0, 2.0, 2.0])
        pkg.set_airflow(20.0)
        settle(pkg)
        temps = pkg.core_temperatures()
        assert temps[0] == max(temps)
        assert spread(pkg) > 3.0

    def test_lateral_conduction_spreads_heat(self):
        tight = MulticorePackage(n_cores=4, r_core_core=0.3)
        loose = MulticorePackage(n_cores=4, r_core_core=5.0)
        for pkg in (tight, loose):
            set_powers(pkg, [40.0, 2.0, 2.0, 2.0])
            pkg.set_airflow(20.0)
            settle(pkg)
        assert spread(tight) < spread(loose)

    def test_die_temperature_is_hottest_core(self):
        pkg = MulticorePackage(n_cores=4)
        set_powers(pkg, [5.0, 30.0, 5.0, 5.0])
        pkg.set_airflow(15.0)
        settle(pkg)
        assert pkg.die_temperature == pytest.approx(pkg.core_temperatures()[1])

    def test_airflow_cools_all_cores(self):
        def end_temps(q):
            pkg = MulticorePackage(n_cores=4)
            set_powers(pkg, [15.0] * 4)
            pkg.set_airflow(q)
            settle(pkg)
            return pkg.core_temperatures()

        weak = end_temps(6.0)
        strong = end_temps(28.0)
        assert all(s < w - 2.0 for s, w in zip(strong, weak))

    def test_dynamics_converge_to_steady_state(self):
        pkg = MulticorePackage(n_cores=3)
        set_powers(pkg, [20.0, 10.0, 5.0])
        pkg.set_airflow(15.0)
        settle(pkg)
        settled = pkg.core_temperatures()
        settle(pkg, seconds=1000.0)  # a fixed point: nothing moves
        assert pkg.core_temperatures() == pytest.approx(settled, abs=1e-6)

    def test_total_power_conservation_at_equilibrium(self):
        """At steady state, sink-to-ambient flux equals total power."""
        pkg = MulticorePackage(n_cores=4)
        set_powers(pkg, [10.0, 20.0, 5.0, 15.0])
        pkg.set_airflow(18.0)
        settle(pkg, seconds=6000.0)
        r_conv = pkg.convection.resistance(18.0)
        flux = (pkg.sink_temperature - pkg.ambient.temperature(0.0)) / r_conv
        assert flux == pytest.approx(50.0, rel=0.02)


class TestSensorIntegration:
    def test_drops_into_thermal_sensor(self):
        pkg = MulticorePackage(n_cores=4)
        set_powers(pkg, [30.0, 2.0, 2.0, 2.0])
        pkg.set_airflow(15.0)
        settle(pkg, seconds=200.0)
        sensor = ThermalSensor(
            pkg, SensorParams(quantum=0.25, noise_sigma=0.0)
        )
        reading = sensor.sample(0.0)
        assert reading == pytest.approx(pkg.die_temperature, abs=0.25)
