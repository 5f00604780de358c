"""Cross-checks of the simulated physics against analytic expectations.

These are the "is the simulator lying to us" tests: each one computes a
quantity two independent ways (dynamic simulation vs closed-form
solution, or two different accountings of the same energy) and demands
agreement.
"""

import math

import pytest

from repro.cluster.node import Node
from repro.thermal.ambient import ConstantAmbient
from repro.thermal.package import CpuPackage
from repro.workloads.base import ComputeSegment, RankProgram


def run_node(node, seconds, dt=0.05):
    steps = int(seconds / dt)
    for i in range(1, steps + 1):
        node.step(i * dt, dt)


class TestPackageEnergyBalance:
    def test_heat_in_equals_heat_out_at_equilibrium(self):
        pkg = CpuPackage(ambient=ConstantAmbient(28.0))
        pkg.set_power(50.0)
        pkg.set_airflow(18.0)
        for i in range(int(4000 / 0.1)):
            pkg.step(i * 0.1, 0.1)
        # at equilibrium, the sink-to-air flux carries all 50 W
        flux = (
            pkg.sink_temperature - 28.0
        ) / pkg.convection.resistance(18.0)
        assert flux == pytest.approx(50.0, rel=0.01)
        # and the die-to-sink flux does too
        conduction = (
            pkg.die_temperature - pkg.sink_temperature
        ) / pkg.params.r_junction_sink
        assert conduction == pytest.approx(50.0, rel=0.01)

    def test_transient_energy_bookkeeping(self):
        """Over a heating transient, energy in = energy stored + energy
        convected (integrated step by step)."""
        pkg = CpuPackage(ambient=ConstantAmbient(28.0))
        pkg.reset(28.0)
        pkg.set_power(50.0)
        pkg.set_airflow(18.0)
        dt = 0.05
        convected = 0.0
        for i in range(int(300 / dt)):
            convected += (
                (pkg.sink_temperature - 28.0)
                / pkg.convection.resistance(18.0)
                * dt
            )
            pkg.step(i * dt, dt)
        stored = pkg.params.c_die * (pkg.die_temperature - 28.0) + (
            pkg.params.c_sink * (pkg.sink_temperature - 28.0)
        )
        energy_in = 50.0 * 300.0
        assert stored + convected == pytest.approx(energy_in, rel=0.02)


class TestThermalTimeConstants:
    def test_sink_dominant_time_constant(self):
        """The *sink's* heating transient matches its single-mass
        estimate C_sink·R_conv (the die is a fast small mass riding on
        top, so the sink sees ~the full power from t=0)."""
        pkg = CpuPackage(ambient=ConstantAmbient(28.0))
        pkg.reset(28.0)
        pkg.set_power(50.0)
        pkg.set_airflow(18.0)
        r_conv = pkg.convection.resistance(18.0)
        sink_target = 28.0 + 50.0 * r_conv
        goal = 28.0 + (sink_target - 28.0) * (1 - math.exp(-1.0))
        t, dt = 0.0, 0.1
        while pkg.sink_temperature < goal and t < 2000:
            pkg.step(t, dt)
            t += dt
        tau_estimate = pkg.params.c_sink * r_conv
        assert t == pytest.approx(tau_estimate, rel=0.25)


class TestWallPowerAccounting:
    def test_wall_power_is_sum_of_parts(self):
        node = Node("n0")
        node.bind_rank(
            RankProgram([ComputeSegment(2.4e9 * 600)], name="burn")
        )
        run_node(node, 20.0)
        fan_power = node.fan_aero.power(node.fan_motor._rpm)
        expected = (
            node.config.baseboard_power + node._cpu_power + fan_power
        )
        assert node._wall_power == pytest.approx(expected, rel=1e-9)

    def test_meter_energy_equals_power_integral(self):
        node = Node("n0")
        node.bind_rank(
            RankProgram([ComputeSegment(2.4e9 * 600)], name="burn")
        )
        dt = 0.05
        integral = 0.0
        for i in range(1, int(30.0 / dt) + 1):
            node.step(i * dt, dt)
            integral += node._wall_power * dt
        assert node.meter.energy_joules == pytest.approx(integral, rel=1e-9)


class TestExecutionAccounting:
    def test_retired_cycles_match_compute_work(self):
        """A pure compute rank retires exactly its cycle budget (times
        the utilization discount)."""
        node = Node("n0")
        cycles = 2.4e9 * 10  # 10 s at full speed
        rank = RankProgram([ComputeSegment(cycles)], name="r")
        node.bind_rank(rank)
        run_node(node, 15.0)
        assert rank.finished
        # ComputeSegment reports 0.98 utilization; retirement tracks it
        assert node.core.retired_cycles == pytest.approx(
            cycles * 0.98, rel=0.01
        )

    def test_dvfs_energy_saving_is_real(self):
        """Running the same work at 1.8 GHz uses measurably less CPU
        energy than at 2.4 GHz despite the longer runtime (the V² win)."""

        def cpu_energy(index):
            node = Node("n0")
            node.dvfs.set_index(index)
            node.dvfs.consume_stall(1.0)
            rank = RankProgram([ComputeSegment(2.4e9 * 30)], name="r")
            node.bind_rank(rank)
            dt = 0.05
            energy = 0.0
            t = 0.0
            while not rank.finished and t < 200.0:
                t += dt
                node.step(t, dt)
                energy += node._cpu_power * dt
            assert rank.finished
            return energy

        assert cpu_energy(3) < cpu_energy(0) * 0.85
