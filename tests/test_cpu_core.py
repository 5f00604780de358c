"""CPU core: rank execution, utilization accounting, throttling."""

import pytest

from repro.cpu.core import CpuCore
from repro.cpu.dvfs import Dvfs
from repro.cpu.pstate import ATHLON64_4000
from repro.errors import SimulationError
from repro.workloads.base import ComputeSegment, RankProgram


def make_core() -> CpuCore:
    return CpuCore(Dvfs(ATHLON64_4000), name="c0")


class FixedUtilRank:
    """Rank that reports a fixed utilization forever."""

    def __init__(self, util):
        self.util = util
        self.finished = False

    def advance(self, dt, frequency):
        return self.util


class TestIdle:
    def test_unbound_core_idles(self):
        core = make_core()
        core.step(0.05, 0.05)
        assert core.utilization == 0.0
        assert core.busy_seconds == 0.0


class TestExecution:
    def test_utilization_reported(self):
        core = make_core()
        core.bind_rank(FixedUtilRank(0.7))
        core.step(0.05, 0.05)
        assert core.utilization == pytest.approx(0.7)

    def test_busy_seconds_accumulate(self):
        core = make_core()
        core.bind_rank(FixedUtilRank(0.5))
        for i in range(20):
            core.step((i + 1) * 0.05, 0.05)
        assert core.busy_seconds == pytest.approx(0.5)

    def test_compute_rank_finishes_on_schedule(self):
        # 2.4e9 cycles at 2.4 GHz = exactly 1 second of work.
        rank = RankProgram([ComputeSegment(2.4e9)], name="r")
        core = make_core()
        core.bind_rank(rank)
        steps = 0
        while not rank.finished and steps < 100:
            core.step((steps + 1) * 0.05, 0.05)
            steps += 1
        assert steps == 20  # 1 second at dt=0.05

    def test_lower_frequency_slows_completion(self):
        def run_at(index):
            core = make_core()
            core.dvfs.set_index(index)
            core.dvfs.consume_stall(1.0)  # discard the switch stall
            rank = RankProgram([ComputeSegment(2.4e9)], name="r")
            core.bind_rank(rank)
            steps = 0
            while not rank.finished and steps < 500:
                core.step((steps + 1) * 0.05, 0.05)
                steps += 1
            return steps

        assert run_at(0) == 20          # 2.4 GHz
        assert run_at(4) == 48          # 1.0 GHz: 2.4x slower

    def test_invalid_utilization_from_rank_rejected(self):
        core = make_core()
        core.bind_rank(FixedUtilRank(1.5))
        with pytest.raises(Exception):
            core.step(0.05, 0.05)

    def test_non_positive_dt_rejected(self):
        core = make_core()
        with pytest.raises(SimulationError):
            core.step(0.0, 0.0)


class TestStallInteraction:
    def test_transition_stall_counts_busy_but_not_progress(self):
        core = make_core()
        core.bind_rank(RankProgram([ComputeSegment(2.4e9)], name="r"))
        # Switch frequencies right before the step: stall = 1e-4 s.
        core.dvfs.set_index(1)
        core.dvfs.set_index(0)
        core.step(0.05, 0.05)
        # Utilization includes the stall time (pipeline busy).
        assert core.utilization == pytest.approx(
            (0.98 * (0.05 - 2e-4) + 2e-4) / 0.05, rel=1e-6
        )
