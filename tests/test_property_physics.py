"""Property-based tests on the physical substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.power import CpuPowerModel
from repro.cpu.pstate import ATHLON64_4000
from repro.fan.motor import FanMotor, MotorParams
from repro.thermal.convection import ConvectionModel
from repro.thermal.rc import RCNetwork, ThermalLink, ThermalNode

powers = st.floats(min_value=0.0, max_value=150.0, allow_nan=False)
resistances = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)
capacitances = st.floats(min_value=1.0, max_value=500.0, allow_nan=False)
ambients = st.floats(min_value=10.0, max_value=45.0, allow_nan=False)
utils = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
temps = st.floats(min_value=20.0, max_value=100.0, allow_nan=False)
duties = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
flows = st.floats(min_value=0.0, max_value=80.0, allow_nan=False)


@given(p=powers, r=resistances, c=capacitances, amb=ambients)
@settings(max_examples=100)
def test_rc_never_overshoots_steady_state_from_below(p, r, c, amb):
    """A single-mass network heated from ambient approaches, and never
    exceeds, its steady state (first-order systems are monotone)."""
    net = RCNetwork()
    net.add_node(ThermalNode("die", c, amb))
    net.add_node(ThermalNode("amb", None, amb))
    net.add_link(ThermalLink("l", "die", "amb", r))
    net.set_power("die", p)
    target = amb + p * r
    previous = amb
    for _ in range(300):
        net.step(0.5)
        now = net.temperature("die")
        assert now <= target + 1e-6
        assert now >= previous - 1e-9  # monotone rise
        previous = now


@given(p=powers, r=resistances, amb=ambients)
@settings(max_examples=100)
def test_rc_steady_state_is_linear_in_power(p, r, amb):
    net = RCNetwork()
    net.add_node(ThermalNode("die", 10.0, amb))
    net.add_node(ThermalNode("amb", None, amb))
    net.add_link(ThermalLink("l", "die", "amb", r))
    net.set_power("die", p)
    for _ in range(200):  # 1000 s: at least 50 time constants
        net.step(5.0)
    assert np.isclose(net.temperature("die"), amb + p * r)


@given(q1=flows, q2=flows)
@settings(max_examples=200)
def test_convection_monotone(q1, q2):
    model = ConvectionModel()
    lo, hi = sorted((q1, q2))
    assert model.resistance(hi) <= model.resistance(lo) + 1e-12


@given(u=utils, t=temps)
@settings(max_examples=200)
def test_power_monotone_down_the_ladder(u, t):
    """At any utilization and temperature, a slower P-state never draws
    more power — the invariant DVFS control relies on."""
    model = CpuPowerModel()
    powers_ladder = [model.power(p, u, t) for p in ATHLON64_4000]
    for faster, slower in zip(powers_ladder, powers_ladder[1:]):
        assert slower <= faster + 1e-9


@given(u1=utils, u2=utils, t=temps)
@settings(max_examples=200)
def test_power_monotone_in_utilization(u1, u2, t):
    model = CpuPowerModel()
    lo, hi = sorted((u1, u2))
    top = ATHLON64_4000[0]
    assert model.power(top, lo, t) <= model.power(top, hi, t) + 1e-9


@given(d=duties)
@settings(max_examples=100)
def test_motor_converges_to_steady_state(d):
    motor = FanMotor(MotorParams(), initial_duty=0.5)
    motor.set_duty(d)
    for i in range(2000):
        motor.step(i * 0.05, 0.05)
    assert np.isclose(motor._rpm, motor.steady_state_rpm(d), rtol=1e-3, atol=1.0)


@given(d1=duties, d2=duties)
@settings(max_examples=200)
def test_motor_steady_state_monotone(d1, d2):
    motor = FanMotor()
    lo, hi = sorted((d1, d2))
    assert motor.steady_state_rpm(lo) <= motor.steady_state_rpm(hi) + 1e-9
