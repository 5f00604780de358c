"""CPU package model: equilibria, time scales, fan coupling."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal.ambient import ConstantAmbient
from repro.thermal.package import CpuPackage, PackageParams

from .conftest import settle_package


def steady_die(pkg: CpuPackage, ambient: float, power: float, airflow: float) -> float:
    """The analytic equilibrium ``T_amb + P·(R_jhs + R_conv(Q))``."""
    r_total = pkg.params.r_junction_sink + pkg.convection.resistance(airflow)
    return ambient + power * r_total


class TestValidation:
    def test_default_params(self):
        pkg = CpuPackage()
        assert pkg.die_temperature == pkg.params.initial_temperature

    def test_bad_capacitance(self):
        with pytest.raises(ConfigurationError):
            PackageParams(c_die=0.0)

    def test_bad_initial_temperature(self):
        with pytest.raises(ConfigurationError):
            PackageParams(initial_temperature=500.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuPackage().set_power(-1.0)

    def test_negative_airflow_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuPackage().set_airflow(-1.0)


class TestEquilibria:
    def test_settles_to_steady_state_oracle(self):
        pkg = CpuPackage()
        final = settle_package(pkg, power=55.0, airflow=15.0)
        assert final == pytest.approx(
            steady_die(pkg, pkg.ambient.temperature(0.0), 55.0, 15.0), abs=0.05
        )

    def test_steady_state_formula(self):
        pkg = CpuPackage(ambient=ConstantAmbient(28.0))
        final = settle_package(pkg, power=50.0, airflow=20.0)
        assert final == pytest.approx(steady_die(pkg, 28.0, 50.0, 20.0), abs=0.05)

    def test_more_airflow_cooler(self):
        t_low = settle_package(CpuPackage(), power=55.0, airflow=8.0)
        t_high = settle_package(CpuPackage(), power=55.0, airflow=28.0)
        assert t_high < t_low - 3.0

    def test_more_power_hotter(self):
        t_low = settle_package(CpuPackage(), power=20.0, airflow=15.0)
        t_high = settle_package(CpuPackage(), power=60.0, airflow=15.0)
        assert t_high > t_low + 10.0

    def test_zero_power_settles_to_ambient(self):
        pkg = CpuPackage(ambient=ConstantAmbient(28.0))
        final = settle_package(pkg, power=0.0, airflow=10.0)
        assert final == pytest.approx(28.0, abs=0.1)

    def test_die_hotter_than_sink_under_load(self):
        pkg = CpuPackage()
        settle_package(pkg, power=50.0, airflow=15.0)
        assert pkg.die_temperature > pkg.sink_temperature
        # And the die-sink gap equals P * R_jhs at equilibrium.
        gap = pkg.die_temperature - pkg.sink_temperature
        assert gap == pytest.approx(50.0 * pkg.params.r_junction_sink, abs=0.1)


class TestTimeScales:
    def test_die_responds_within_seconds(self):
        """Type-I detection requires visible motion at a 4 Hz sensor."""
        pkg = CpuPackage()
        settle_package(pkg, power=5.0, airflow=15.0)
        t0 = pkg.die_temperature
        pkg.set_power(60.0)
        for i in range(20):  # one second
            pkg.step(i * 0.05, 0.05)
        assert pkg.die_temperature - t0 > 0.8

    def test_sink_charges_over_tens_of_seconds(self):
        """Type-II behaviour: the sink keeps drifting long after the die
        jump."""
        pkg = CpuPackage()
        settle_package(pkg, power=5.0, airflow=15.0)
        pkg.set_power(60.0)
        for i in range(int(10 / 0.05)):
            pkg.step(i * 0.05, 0.05)
        t_10s = pkg.die_temperature
        for i in range(int(100 / 0.05)):
            pkg.step(i * 0.05, 0.05)
        t_110s = pkg.die_temperature
        assert t_110s - t_10s > 3.0  # still far from settled at 10 s


class TestCoupling:
    def test_airflow_change_mid_run(self):
        pkg = CpuPackage()
        settle_package(pkg, power=55.0, airflow=8.0)
        hot = pkg.die_temperature
        pkg.set_airflow(28.0)
        for i in range(int(600 / 0.05)):
            pkg.step(i * 0.05, 0.05)
        assert pkg.die_temperature < hot - 3.0

    def test_ambient_model_followed(self):
        class Ramp(ConstantAmbient):
            def temperature(self, t):
                return 28.0 + 0.01 * t

        pkg = CpuPackage(ambient=Ramp())
        flat = CpuPackage(ambient=ConstantAmbient(28.0))
        for package in (pkg, flat):
            settle_package(package, power=40.0, airflow=15.0, seconds=1000.0)
        # ambient rose by ~10 K during the settle; die tracks it.
        assert pkg.die_temperature > flat.die_temperature + 8.0

    def test_reset(self):
        pkg = CpuPackage()
        settle_package(pkg, power=55.0, airflow=10.0)
        pkg.reset()
        assert pkg.die_temperature == pkg.params.initial_temperature
        assert pkg.sink_temperature == pkg.params.initial_temperature

    def test_reset_to_explicit_temperature(self):
        pkg = CpuPackage()
        pkg.reset(55.0)
        assert pkg.die_temperature == 55.0

    def test_convective_resistance_tracks_airflow(self):
        """At equilibrium the sink sits ``P · R_conv(Q)`` above ambient."""
        pkg = CpuPackage(ambient=ConstantAmbient(28.0))
        settle_package(pkg, power=40.0, airflow=25.0)
        assert pkg.sink_temperature == pytest.approx(
            28.0 + 40.0 * pkg.convection.resistance(25.0), abs=0.05
        )
