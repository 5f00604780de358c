"""Lumped RC thermal network: topology, integration, steady state."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.thermal.rc import RCNetwork, ThermalLink, ThermalNode


def two_node_network(r=0.5, c=10.0, ambient=25.0, t0=25.0) -> RCNetwork:
    net = RCNetwork()
    net.add_node(ThermalNode("die", c, t0))
    net.add_node(ThermalNode("amb", None, ambient))
    net.add_link(ThermalLink("conv", "die", "amb", r))
    return net


def settle(net: RCNetwork) -> None:
    """Integrate long enough (hundreds of time constants) to reach the
    equilibrium to well within ``pytest.approx``'s tolerance."""
    for _ in range(2000):
        net.step(1.0)


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = RCNetwork()
        net.add_node(ThermalNode("a", 1.0, 0.0))
        with pytest.raises(ConfigurationError):
            net.add_node(ThermalNode("a", 2.0, 0.0))

    def test_link_to_unknown_node_rejected(self):
        net = RCNetwork()
        net.add_node(ThermalNode("a", 1.0, 0.0))
        with pytest.raises(ConfigurationError):
            net.add_link(ThermalLink("l", "a", "ghost", 1.0))

    def test_self_link_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalLink("l", "a", "a", 1.0)

    def test_non_positive_resistance_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalLink("l", "a", "b", 0.0)

    def test_non_positive_capacitance_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalNode("a", -1.0, 0.0)

    def test_boundary_node(self):
        node = ThermalNode("amb", None, 25.0)
        assert node.is_boundary

    def test_unknown_node_lookup(self):
        net = RCNetwork()
        with pytest.raises(ConfigurationError):
            net.node("missing")

    def test_duplicate_link_rejected(self):
        net = two_node_network()
        with pytest.raises(ConfigurationError):
            net.add_link(ThermalLink("conv", "die", "amb", 1.0))


class TestPowersAndTemps:
    def test_set_power_unknown_node(self):
        net = two_node_network()
        with pytest.raises(ConfigurationError):
            net.set_power("ghost", 1.0)

    def test_nan_power_rejected(self):
        net = two_node_network()
        with pytest.raises(ConfigurationError):
            net.set_power("die", float("nan"))

    def test_power_readback(self):
        net = two_node_network()
        net.set_power("die", 42.0)
        assert net.power("die") == 42.0

    def test_temperatures_mapping(self):
        net = two_node_network(ambient=30.0, t0=20.0)
        assert (net.temperature("die"), net.temperature("amb")) == (20.0, 30.0)


class TestDynamics:
    def test_relaxation_to_ambient(self):
        net = two_node_network(r=0.5, c=10.0, ambient=25.0, t0=60.0)
        for _ in range(int(200 / 0.1)):
            net.step(0.1)
        assert net.temperature("die") == pytest.approx(25.0, abs=0.05)

    def test_heating_matches_analytic_exponential(self):
        # C dT/dt = P - (T - Ta)/R; T(t) = Ta + PR(1 - e^{-t/RC}).
        r, c, p, ta = 0.5, 10.0, 40.0, 25.0
        net = two_node_network(r=r, c=c, ambient=ta, t0=ta)
        net.set_power("die", p)
        t_total = 5.0
        for _ in range(int(t_total / 0.01)):
            net.step(0.01)
        expected = ta + p * r * (1 - np.exp(-t_total / (r * c)))
        assert net.temperature("die") == pytest.approx(expected, abs=0.1)

    def test_steady_state_analytic(self):
        net = two_node_network(r=0.5, ambient=25.0)
        net.set_power("die", 40.0)
        settle(net)
        assert net.temperature("die") == pytest.approx(25.0 + 40.0 * 0.5)
        assert net.temperature("amb") == 25.0

    def test_dynamics_converge_to_steady_state(self):
        net = two_node_network(r=0.4, c=8.0, ambient=30.0, t0=30.0)
        net.set_power("die", 50.0)
        for _ in range(int(100 / 0.05)):
            net.step(0.05)
        assert net.temperature("die") == pytest.approx(30.0 + 50.0 * 0.4, abs=0.05)

    def test_three_node_chain_steady_state(self):
        net = RCNetwork()
        net.add_node(ThermalNode("die", 10.0, 25.0))
        net.add_node(ThermalNode("sink", 100.0, 25.0))
        net.add_node(ThermalNode("amb", None, 25.0))
        net.add_link(ThermalLink("jhs", "die", "sink", 0.15))
        net.add_link(ThermalLink("conv", "sink", "amb", 0.35))
        net.set_power("die", 50.0)
        settle(net)
        assert net.temperature("sink") == pytest.approx(25.0 + 50.0 * 0.35)
        assert net.temperature("die") == pytest.approx(25.0 + 50.0 * (0.35 + 0.15))

    def test_stability_with_large_dt(self):
        # dt far beyond the explicit stability limit must still converge
        # thanks to automatic sub-stepping.
        net = two_node_network(r=0.1, c=1.0, ambient=25.0, t0=80.0)
        for _ in range(100):
            net.step(5.0)  # tau = 0.1 s, dt = 5 s
        assert net.temperature("die") == pytest.approx(25.0, abs=0.01)

    def test_negative_power_cools(self):
        net = two_node_network(ambient=25.0, t0=25.0)
        net.set_power("die", -20.0)
        for _ in range(5000):
            net.step(0.05)
        assert net.temperature("die") < 25.0

    def test_adiabatic_energy_conservation(self):
        # Two masses exchanging heat with no boundary: total stored
        # energy is invariant.
        net = RCNetwork()
        net.add_node(ThermalNode("a", 5.0, 20.0))
        net.add_node(ThermalNode("b", 15.0, 60.0))
        net.add_link(ThermalLink("l", "a", "b", 0.5))
        def stored() -> float:
            return 5.0 * net.temperature("a") + 15.0 * net.temperature("b")

        before = stored()
        for _ in range(1000):
            net.step(0.05)
        after = stored()
        assert after == pytest.approx(before, rel=1e-9)
        # And they equilibrate to the capacitance-weighted mean.
        t_eq = (5.0 * 20.0 + 15.0 * 60.0) / 20.0
        assert net.temperature("a") == pytest.approx(t_eq, abs=0.1)

    def test_mutable_link_resistance(self):
        net = two_node_network(r=0.5)
        net.set_power("die", 40.0)
        net._links["conv"].resistance = 0.25
        settle(net)
        assert net.temperature("die") == pytest.approx(25.0 + 40.0 * 0.25)

    def test_resistance_setter_validates(self):
        link = ThermalLink("conv", "die", "amb", 0.5)
        with pytest.raises(ConfigurationError):
            link.resistance = -1.0

    def test_step_rejects_non_positive_dt(self):
        net = two_node_network()
        with pytest.raises(ConfigurationError):
            net.step(0.0)

    def test_conductance(self):
        link = ThermalLink("l", "a", "b", 0.25)
        assert link.conductance == pytest.approx(4.0)

    def test_boundary_holds_under_flux(self):
        net = two_node_network(ambient=25.0, t0=90.0)
        for _ in range(100):
            net.step(0.1)
        assert net.temperature("amb") == 25.0
