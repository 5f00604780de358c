"""Fan substrate: duty ladder, motor dynamics, aerodynamics."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.fan.aero import FanAero
from repro.fan.motor import FanMotor, MotorParams
from repro.fan.pwm import DutyCycleLadder


class TestDutyCycleLadder:
    def test_paper_default_100_steps(self):
        ladder = DutyCycleLadder()
        assert len(ladder) == 100
        assert ladder.min_duty == pytest.approx(0.01)
        assert ladder.max_duty == pytest.approx(1.0)

    def test_ascending(self):
        duties = DutyCycleLadder().duties
        assert all(a < b for a, b in zip(duties, duties[1:]))

    def test_quantize_snaps_to_nearest(self):
        ladder = DutyCycleLadder(steps=100)
        assert ladder.quantize(0.503) == pytest.approx(0.50, abs=0.006)

    def test_quantize_clamps_to_ends(self):
        ladder = DutyCycleLadder()
        assert ladder.quantize(0.0) == ladder.min_duty
        assert ladder.quantize(1.0) == ladder.max_duty

    def test_index_of(self):
        ladder = DutyCycleLadder()
        assert ladder.index_of(ladder.min_duty) == 0
        assert ladder.index_of(ladder.max_duty) == len(ladder) - 1

    def test_capped_keeps_step_count(self):
        capped = DutyCycleLadder().capped(0.25)
        assert len(capped) == 100
        assert capped.max_duty == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DutyCycleLadder(steps=1)
        with pytest.raises(ConfigurationError):
            DutyCycleLadder(min_duty=0.5, max_duty=0.5)

    def test_getitem(self):
        ladder = DutyCycleLadder(steps=3, min_duty=0.0, max_duty=1.0)
        assert ladder[1] == pytest.approx(0.5)


class TestFanMotor:
    def test_initial_state_matches_duty(self):
        motor = FanMotor(initial_duty=0.5)
        assert motor.rpm == pytest.approx(motor.steady_state_rpm(0.5))

    def test_steady_state_map(self):
        motor = FanMotor(MotorParams(rpm_max=4300.0, k0=0.12))
        assert motor.steady_state_rpm(1.0) == pytest.approx(4300.0)
        assert motor.steady_state_rpm(0.0) == 0.0
        mid = motor.steady_state_rpm(0.5)
        assert mid == pytest.approx(4300.0 * (0.12 + 0.88 * 0.5))

    def test_monotone_in_duty(self):
        motor = FanMotor()
        speeds = [motor.steady_state_rpm(d / 10) for d in range(1, 11)]
        assert all(a < b for a, b in zip(speeds, speeds[1:]))

    def test_spin_up_first_order(self):
        import math

        params = MotorParams(tau_up=1.0, tau_down=2.0)
        motor = FanMotor(params, initial_duty=0.1)
        start = motor.rpm
        motor.set_duty(1.0)
        motor.step(0.0, 1.0)  # exactly one tau
        target = motor.steady_state_rpm(1.0)
        expected = start + (target - start) * (1 - math.exp(-1.0))
        assert motor.rpm == pytest.approx(expected, rel=0.01)

    def test_coast_down_slower_than_spin_up(self):
        params = MotorParams(tau_up=1.0, tau_down=4.0)
        up = FanMotor(params, initial_duty=0.1)
        up.set_duty(1.0)
        up.step(0.0, 1.0)
        up_progress = (up.rpm - up.steady_state_rpm(0.1)) / (
            up.steady_state_rpm(1.0) - up.steady_state_rpm(0.1)
        )
        down = FanMotor(params, initial_duty=1.0)
        down.set_duty(0.1)
        down.step(0.0, 1.0)
        down_progress = (down.steady_state_rpm(1.0) - down.rpm) / (
            down.steady_state_rpm(1.0) - down.steady_state_rpm(0.1)
        )
        assert down_progress < up_progress

    def test_convergence(self):
        motor = FanMotor(initial_duty=0.1)
        motor.set_duty(0.8)
        for i in range(1000):
            motor.step(i * 0.05, 0.05)
        assert motor.rpm == pytest.approx(motor.steady_state_rpm(0.8), rel=1e-4)

    def test_tau_down_must_exceed_tau_up(self):
        with pytest.raises(ConfigurationError):
            MotorParams(tau_up=3.0, tau_down=1.0)

    def test_large_dt_stable(self):
        motor = FanMotor(initial_duty=0.1)
        motor.set_duty(1.0)
        motor.step(0.0, 1000.0)
        assert motor.rpm == pytest.approx(motor.steady_state_rpm(1.0), rel=1e-6)

    def test_lag_factors_follow_dt(self):
        """After a change of ``dt`` (or of the motor constants) the cached
        lag factors are ``1 - exp(-dt/tau)`` for the new values, bitwise,
        and a spin-up step uses them."""
        motor = FanMotor(initial_duty=0.1)
        for dt in (0.05, 0.05, 0.25, 2.0, 0.05):
            target = motor.steady_state_rpm(1.0)
            rpm = motor.rpm
            motor.set_duty(1.0)
            motor.step(0.0, dt)
            p = motor.params
            assert motor._alpha_up == 1.0 - math.exp(-dt / p.tau_up)
            assert motor._alpha_down == 1.0 - math.exp(-dt / p.tau_down)
            assert motor.rpm == rpm + (1.0 - math.exp(-dt / p.tau_up)) * (
                target - rpm
            )
            motor.set_duty(0.1)
            motor.step(0.0, dt)  # coast-down keeps the same pair
            assert motor._alpha_down == 1.0 - math.exp(-dt / p.tau_down)
        motor.params = MotorParams(tau_up=0.5, tau_down=4.0)
        motor.step(0.0, 0.05)
        assert motor._alpha_up == 1.0 - math.exp(-0.05 / 0.5)
        assert motor._alpha_down == 1.0 - math.exp(-0.05 / 4.0)


class TestFanAero:
    def test_flow_linear_in_rpm(self):
        aero = FanAero(rpm_max=4300.0, cfm_max=28.0)
        assert aero.airflow(4300.0) == pytest.approx(28.0)
        assert aero.airflow(2150.0) == pytest.approx(14.0)
        assert aero.airflow(0.0) == 0.0

    def test_power_cubic(self):
        aero = FanAero(rpm_max=4000.0, power_max=8.0, power_floor=0.0)
        assert aero.power(4000.0) == pytest.approx(8.0)
        assert aero.power(2000.0) == pytest.approx(1.0)  # (1/2)^3 * 8

    def test_power_floor(self):
        aero = FanAero(power_floor=0.3)
        assert aero.power(0.0) == pytest.approx(0.3)

    def test_negative_rpm_rejected(self):
        with pytest.raises(ConfigurationError):
            FanAero().airflow(-1.0)

    def test_doubling_speed_costs_8x(self):
        aero = FanAero(power_floor=0.0)
        assert aero.power(4000.0) / aero.power(2000.0) == pytest.approx(8.0)
