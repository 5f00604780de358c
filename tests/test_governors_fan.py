"""Fan governors: traditional, constant, dynamic."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.policy import Policy
from repro.fan.adt7467 import CONFIG_AUTO_REMOTE1, REG_PWM1_CONFIG
from repro.governors.fan_constant import ConstantFanControl
from repro.governors.fan_dynamic import DynamicFanControl
from repro.governors.fan_traditional import TraditionalFanControl
from repro.workloads.base import ComputeSegment, Job, RankProgram


def burn_job(seconds=60.0) -> Job:
    return Job(
        [RankProgram([ComputeSegment(2.4e9 * seconds)], name="burn")],
        name="burn",
    )


def one_node(seed=42) -> Cluster:
    return Cluster(ClusterConfig(n_nodes=1, seed=seed))


def auto_mode(node) -> bool:
    """Whether the node's fan chip follows its hardware curve."""
    return node.fan_chip.read_register(REG_PWM1_CONFIG) == CONFIG_AUTO_REMOTE1


class TestTraditional:
    def test_programs_chip_auto_mode(self):
        cluster = one_node()
        node = cluster.nodes[0]
        gov = TraditionalFanControl(node.make_fan_driver())
        cluster.add_governor(node, gov)
        cluster.run_job(burn_job(1.0))
        assert auto_mode(node)

    def test_expected_duty_curve(self):
        """Starting the governor programs the chip's Figure-1 curve
        (within one 8-bit register quantum)."""
        node = one_node().nodes[0]
        chip = node.fan_chip
        gov = TraditionalFanControl(
            node.make_fan_driver(), t_min=38.0, t_max=82.0, duty_min=0.10, duty_max=1.0
        )
        gov.start(0.0)
        quantum = 1.0 / 255.0
        assert chip.auto_curve_duty(30.0) == pytest.approx(0.10, abs=quantum)
        assert chip.auto_curve_duty(82.0) == pytest.approx(1.0, abs=quantum)
        assert chip.auto_curve_duty(60.0) == pytest.approx(
            0.10 + (60 - 38) / 44 * 0.90, abs=quantum
        )

    def test_duty_max_respects_driver_cap(self):
        node = one_node().nodes[0]
        gov = TraditionalFanControl(
            node.make_fan_driver(max_duty=0.25), duty_max=0.9
        )
        assert gov.duty_max == pytest.approx(0.25)

    def test_fan_follows_absolute_temperature(self):
        cluster = one_node()
        node = cluster.nodes[0]
        cluster.add_governor(node, TraditionalFanControl(node.make_fan_driver()))
        result = cluster.run_job(burn_job(90.0), timeout=3600)
        duty = result.traces["node0.duty"]
        temp = result.traces["node0.temp"]
        # duty tracks the chip curve of the measured temperature
        late_duty = duty.values[-1]
        assert late_duty == pytest.approx(
            node.fan_chip.auto_curve_duty(temp.values[-1]), abs=0.05
        )


class TestConstant:
    def test_pins_duty(self):
        cluster = one_node()
        node = cluster.nodes[0]
        cluster.add_governor(
            node, ConstantFanControl(node.make_fan_driver(), duty=0.75)
        )
        result = cluster.run_job(burn_job(30.0), timeout=3600)
        duty = result.traces["node0.duty"]
        assert duty.min() == pytest.approx(0.75, abs=0.02)
        assert duty.max() == pytest.approx(0.75, abs=0.02)

    def test_duty_validated(self):
        node = one_node().nodes[0]
        with pytest.raises(Exception):
            ConstantFanControl(node.make_fan_driver(), duty=1.5)


class TestDynamic:
    def run_with(self, pp, seconds=120.0, seed=42, max_duty=1.0):
        cluster = Cluster(ClusterConfig(n_nodes=1, seed=seed))
        node = cluster.nodes[0]
        gov = DynamicFanControl(
            node.make_fan_driver(max_duty=max_duty),
            Policy(pp=pp),
            events=cluster.events,
        )
        cluster.add_governor(node, gov)
        result = cluster.run_job(burn_job(seconds), timeout=3600)
        return result, gov

    def test_takes_manual_control(self):
        cluster = one_node()
        node = cluster.nodes[0]
        gov = DynamicFanControl(node.make_fan_driver(), Policy(pp=50))
        cluster.add_governor(node, gov)
        cluster.run_job(burn_job(1.0))
        assert not auto_mode(node)

    def test_responds_to_load(self):
        result, gov = self.run_with(pp=50)
        duty = result.traces["node0.duty"]
        assert duty.values[-1] > duty.values[0] + 0.1

    def test_smaller_pp_cools_more(self):
        res_25, _ = self.run_with(pp=25)
        res_75, _ = self.run_with(pp=75)
        mean_25 = res_25.traces["node0.temp"].mean()
        mean_75 = res_75.traces["node0.temp"].mean()
        assert mean_25 < mean_75

    def test_smaller_pp_spends_more_fan(self):
        res_25, _ = self.run_with(pp=25)
        res_75, _ = self.run_with(pp=75)
        assert (
            res_25.traces["node0.duty"].mean()
            > res_75.traces["node0.duty"].mean()
        )

    def test_cap_is_never_exceeded(self):
        result, _ = self.run_with(pp=25, max_duty=0.25)
        # within one 8-bit PWM register quantum of the cap
        assert result.traces["node0.duty"].max() <= 0.25 + 1.0 / 255.0
