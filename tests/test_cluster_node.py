"""Node wiring: the full per-tick chain from workload to wall power."""

import pytest

from repro.cluster.node import Node
from repro.config import NodeConfig
from repro.sim.events import EventLog
from repro.workloads.base import ComputeSegment, RankProgram


def run_node(node: Node, seconds: float, dt: float = 0.05) -> None:
    steps = int(seconds / dt)
    for i in range(steps):
        node.step((i + 1) * dt, dt)


class TestIdleNode:
    def test_idle_power_is_baseboard_plus_floor(self):
        node = Node("n0")
        run_node(node, 5.0)
        # baseboard + CPU idle floor-ish + fan electronics
        assert 46.0 < node._wall_power < 75.0

    def test_idle_cools_toward_ambient(self):
        node = Node("n0")
        run_node(node, 2000.0, dt=0.25)
        # idle leakage keeps it a bit above ambient
        assert node.die_temperature < 40.0


class TestLoadedNode:
    def test_load_raises_power_and_temperature(self):
        node = Node("n0")
        idle_temp = node.die_temperature
        node.bind_rank(
            RankProgram([ComputeSegment(2.4e9 * 60)], name="burn")
        )
        run_node(node, 30.0)
        assert node._cpu_power > 50.0
        assert node._wall_power > 95.0
        assert node.die_temperature > idle_temp + 5.0

    def test_auto_fan_reacts_to_heat(self):
        node = Node("n0")  # chip powers on in auto mode
        duty_cold = node.fan_motor.duty
        node.bind_rank(RankProgram([ComputeSegment(2.4e9 * 600)], name="burn"))
        run_node(node, 120.0)
        assert node.fan_motor.duty > duty_cold + 0.05

    def test_fan_rpm_follows_duty(self):
        node = Node("n0")
        node.bind_rank(RankProgram([ComputeSegment(2.4e9 * 600)], name="burn"))
        run_node(node, 120.0)
        expected = node.fan_motor.steady_state_rpm(node.fan_motor.duty)
        assert node.fan_motor._rpm == pytest.approx(expected, rel=0.1)

    def test_meter_integrates(self):
        node = Node("n0")
        run_node(node, 10.0)
        assert node.meter.elapsed == pytest.approx(10.0)
        assert node.meter.average_power == pytest.approx(node._wall_power, rel=0.2)


class TestDvfsPath:
    def test_dvfs_change_emits_event(self):
        events = EventLog()
        node = Node("n0", events=events)
        node.dvfs.set_index(2, t=1.0)
        assert events.count("dvfs.change", source="n0.dvfs") == 1

    def test_lower_frequency_lowers_power(self):
        def power_at(index):
            node = Node("n0")
            node.dvfs.set_index(index, 0.0)
            node.bind_rank(
                RankProgram([ComputeSegment(2.4e9 * 600)], name="burn")
            )
            run_node(node, 20.0)
            return node._cpu_power

        assert power_at(4) < power_at(0) - 20.0


class TestFanDriverIntegration:
    def test_make_fan_driver_probes_own_chip(self):
        node = Node("n0")
        driver = node.make_fan_driver(max_duty=0.5)
        driver.set_manual_mode()
        applied = driver.set_duty(0.9)
        assert applied <= 0.5

    def test_manual_duty_reaches_motor(self):
        node = Node("n0")
        driver = node.make_fan_driver()
        driver.set_manual_mode()
        driver.set_duty(0.8)
        run_node(node, 10.0)
        assert node.fan_motor.duty == pytest.approx(0.8, abs=0.01)
        assert node.fan_motor._rpm == pytest.approx(
            node.fan_motor.steady_state_rpm(0.8), rel=0.05
        )


class TestConfigPropagation:
    def test_custom_baseboard_power(self):
        node = Node("n0", config=NodeConfig(baseboard_power=10.0))
        run_node(node, 1.0)
        assert node._wall_power < 40.0

    def test_mismatched_rpm_constants_rejected(self):
        from repro.errors import ConfigurationError
        from repro.fan.aero import FanAero

        with pytest.raises(ConfigurationError):
            NodeConfig(aero=FanAero(rpm_max=3000.0))
