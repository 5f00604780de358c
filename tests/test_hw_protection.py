"""Hardware thermal protection (PROCHOT / THERMTRIP) and fan failure."""

import pytest

from repro.cluster.node import Node
from repro.config import NodeConfig
from repro.errors import ConfigurationError
from repro.sim.events import EventLog
from repro.workloads.base import ComputeSegment, RankProgram


def burn_rank(seconds=600.0):
    return RankProgram([ComputeSegment(2.4e9 * seconds)], name="burn")


def run_node(node, seconds, dt=0.05):
    steps = int(seconds / dt)
    for i in range(1, steps + 1):
        node.step(i * dt, dt)


def hot_config(**kwargs) -> NodeConfig:
    """A config that heats quickly when the fan dies."""
    return NodeConfig(**kwargs)


class TestConfigValidation:
    def test_prochot_below_shutdown(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(prochot_temp=98.0, shutdown_temp=97.0)

    def test_defaults_sane(self):
        cfg = NodeConfig()
        assert cfg.prochot_temp < cfg.shutdown_temp
        assert cfg.hw_protection


class TestFanFailure:
    def test_failed_fan_coasts_to_zero(self):
        events = EventLog()
        node = Node("n0", events=events)
        run_node(node, 5.0)
        assert node.fan_motor._rpm > 100.0
        node.fail_fan(t=5.0)
        run_node(node, 30.0)
        assert node.fan_motor._rpm < 10.0
        assert events.count("hw.fan_failure") == 1

    def test_failed_fan_ignores_pwm(self):
        node = Node("n0")
        node.fail_fan()
        driver = node.make_fan_driver()
        driver.set_manual_mode()
        driver.set_duty(1.0)
        run_node(node, 30.0)
        assert node.fan_motor._rpm < 10.0

    def test_dead_fan_heats_the_node(self):
        cool = Node("n0")
        cool.bind_rank(burn_rank())
        run_node(cool, 120.0)

        hot = Node("n1")
        hot.fail_fan()
        hot.bind_rank(burn_rank())
        run_node(hot, 120.0)
        assert hot.die_temperature > cool.die_temperature + 5.0


class TestProchot:
    def test_asserts_at_threshold_and_clamps_frequency(self):
        events = EventLog()
        node = Node(
            "n0",
            config=hot_config(prochot_temp=55.0, shutdown_temp=97.0),
            events=events,
        )
        node.fail_fan()
        node.bind_rank(burn_rank())
        run_node(node, 240.0)
        assert events.count("hw.prochot.assert", source="n0") >= 1
        # while (or after) asserting, the clamp forced the slowest state
        assert node.dvfs.pstate.frequency_ghz == pytest.approx(1.0)

    def test_deasserts_after_hysteresis(self):
        events = EventLog()
        node = Node(
            "n0",
            config=hot_config(
                prochot_temp=55.0, prochot_hysteresis=5.0, shutdown_temp=97.0
            ),
            events=events,
        )
        node.fail_fan()
        node.bind_rank(burn_rank(seconds=600.0))
        run_node(node, 500.0)
        # at 1.0 GHz with a dead fan the plant cools below 50: deassert
        assert events.count("hw.prochot.deassert", source="n0") >= 1
        assert not node._prochot

    def test_governors_cannot_out_vote_prochot(self):
        node = Node(
            "n0", config=hot_config(prochot_temp=55.0, shutdown_temp=97.0)
        )
        node.fail_fan()
        node.bind_rank(burn_rank())
        run_node(node, 200.0)
        if node._prochot:
            node.dvfs.set_index(0, 0.0)  # a governor trying to snap to max
            node.step(200.05, 0.05)
            assert node.dvfs.index == len(node.dvfs.table) - 1

    def test_disabled_protection_never_asserts(self):
        events = EventLog()
        node = Node(
            "n0",
            config=hot_config(
                prochot_temp=55.0, shutdown_temp=97.0, hw_protection=False
            ),
            events=events,
        )
        node.fail_fan()
        node.bind_rank(burn_rank())
        run_node(node, 200.0)
        assert events.count("hw.prochot") == 0


class TestThermtrip:
    def make_tripping_node(self, events):
        # Thresholds low enough that even the PROCHOT-clamped 1.0 GHz
        # equilibrium (~47.5 degC with a dead fan) crosses the trip
        # point — the clamp alone cannot save this node.
        return Node(
            "n0",
            config=hot_config(prochot_temp=40.0, shutdown_temp=46.0),
            events=events,
        )

    def test_shutdown_fires_and_latches(self):
        events = EventLog()
        node = self.make_tripping_node(events)
        node.fail_fan()
        node.bind_rank(burn_rank())
        # PROCHOT clamps to 1.0 GHz, but the clamped equilibrium still
        # exceeds the trip point — the node crosses it and powers off.
        run_node(node, 400.0)
        assert node.is_shutdown
        assert events.count("hw.thermtrip", source="n0") == 1

    def test_shutdown_stops_execution_and_heat(self):
        events = EventLog()
        node = self.make_tripping_node(events)
        node.fail_fan()
        node.bind_rank(burn_rank())
        run_node(node, 400.0)
        assert node.is_shutdown
        cycles_at_trip = node.core.retired_cycles
        run_node(node, 50.0)
        assert node.core.retired_cycles == cycles_at_trip
        assert node._cpu_power == 0.0

    def test_shutdown_node_draws_standby_power(self):
        events = EventLog()
        node = self.make_tripping_node(events)
        node.fail_fan()
        node.bind_rank(burn_rank())
        run_node(node, 400.0)
        node.step(400.05, 0.05)
        assert node._wall_power < 10.0

    def test_temperature_decays_after_trip(self):
        events = EventLog()
        node = self.make_tripping_node(events)
        node.fail_fan()
        node.bind_rank(burn_rank())
        run_node(node, 400.0)
        at_trip = node.die_temperature
        run_node(node, 300.0)
        assert node.die_temperature < at_trip - 3.0


class TestRetiredCycles:
    def test_counts_work_not_wall_time(self):
        fast = Node("n0")
        fast.bind_rank(burn_rank())
        run_node(fast, 10.0)

        slow = Node("n1")
        slow.dvfs.set_index(4, 0.0)  # 1.0 GHz
        slow.dvfs.consume_stall(1.0)
        slow.bind_rank(burn_rank())
        run_node(slow, 10.0)
        ratio = fast.core.retired_cycles / slow.core.retired_cycles
        assert ratio == pytest.approx(2.4, rel=0.05)
