"""CPUSPEED baseline daemon behaviour."""

import pytest

from repro.cpu.core import CpuCore
from repro.cpu.dvfs import Dvfs
from repro.cpu.pstate import ATHLON64_4000
from repro.errors import ConfigurationError
from repro.governors.cpuspeed import CpuSpeed, CpuSpeedParams
from repro.sim.events import EventLog


class ScriptedRank:
    """Rank whose utilization follows a scripted schedule."""

    def __init__(self, schedule):
        self.schedule = schedule  # list of utilizations per tick
        self.i = 0
        self.finished = False

    def advance(self, dt, frequency):
        util = self.schedule[min(self.i, len(self.schedule) - 1)]
        self.i += 1
        return util


def make(schedule, params=None, events=None):
    dvfs = Dvfs(ATHLON64_4000, events=events)
    core = CpuCore(dvfs, name="c0")
    core.bind_rank(ScriptedRank(schedule))
    gov = CpuSpeed(core, params=params)
    gov.start(0.0)
    return gov, core, dvfs


def run(gov, core, seconds, dt=0.05):
    """Advance core+governor; time continues across calls (tracked on
    the governor object so repeated calls do not rewind the clock)."""
    t = getattr(gov, "_test_clock", 0.0)
    steps = int(seconds / dt)
    interval_ticks = round(gov.period / dt)
    base = getattr(gov, "_test_ticks", 0)
    for i in range(1, steps + 1):
        t += dt
        core.step(t, dt)
        if (base + i) % interval_ticks == 0:
            gov.on_interval(t)
    gov._test_clock = t
    gov._test_ticks = base + steps


class TestParams:
    def test_defaults(self):
        params = CpuSpeedParams()
        assert params.interval == 0.25
        assert params.up_threshold > params.down_threshold

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            CpuSpeedParams(up_threshold=0.3, down_threshold=0.5)

    def test_interval_positive(self):
        with pytest.raises(ConfigurationError):
            CpuSpeedParams(interval=0.0)


class TestUtilizationGoverning:
    def test_busy_snaps_to_max(self):
        gov, core, dvfs = make([1.0] * 1000)
        dvfs.set_index(3, 0.0)
        dvfs.consume_stall(1.0)
        run(gov, core, 2.0)
        assert dvfs.index == 0

    def test_idle_steps_down_one_at_a_time(self):
        gov, core, dvfs = make([0.0] * 1000)
        run(gov, core, 0.3)  # one interval
        assert dvfs.index == 1
        run(gov, core, 0.25)
        assert dvfs.index == 2

    def test_idle_eventually_reaches_bottom(self):
        gov, core, dvfs = make([0.0] * 10000)
        run(gov, core, 5.0)
        assert dvfs.index == len(ATHLON64_4000) - 1

    def test_mid_utilization_holds(self):
        events = EventLog()
        gov, core, dvfs = make([0.6] * 1000, events=events)
        run(gov, core, 2.0)
        assert dvfs.index == 0
        assert events.count("dvfs.change") == 0

    def test_oscillating_load_flaps(self):
        """The Table-1 pathology: alternating busy/idle intervals make
        the daemon flap continuously."""
        # one 0.25 s interval busy, one idle, at dt=0.05 -> 5 ticks each
        pattern = ([1.0] * 5 + [0.0] * 5) * 200
        events = EventLog()
        gov, core, dvfs = make(pattern, events=events)
        run(gov, core, 10.0)
        assert events.count("dvfs.change") >= 15

    def test_utilization_measured_per_interval(self):
        gov, core, dvfs = make([1.0] * 10 + [0.0] * 1000)
        run(gov, core, 0.5)
        # first interval saw full utilization; second saw zero
        assert gov.interval_utilization(0.5) == pytest.approx(0.0, abs=0.05)


class TestTemperatureLimit:
    def test_hot_forces_down_despite_full_load(self):
        gov, core, dvfs = make([1.0] * 1000, CpuSpeedParams(max_temp=60.0))
        gov.on_sample(0.0, 65.0)
        run(gov, core, 0.3)
        assert dvfs.index == 1

    def test_upscale_blocked_until_hysteresis_clears(self):
        gov, core, dvfs = make(
            [1.0] * 1000, CpuSpeedParams(max_temp=60.0, hysteresis=3.0)
        )
        gov.on_sample(0.0, 65.0)
        run(gov, core, 0.3)  # stepped down
        gov.on_sample(0.3, 58.5)  # below max, inside hysteresis band
        run(gov, core, 0.25)
        assert dvfs.index >= 1  # still held down
        gov.on_sample(0.55, 56.0)  # below max - hysteresis
        run(gov, core, 0.25)
        assert dvfs.index == 0

    def test_disabled_limit_ignores_temperature(self):
        gov, core, dvfs = make([1.0] * 1000, CpuSpeedParams(max_temp=None))
        gov.on_sample(0.0, 90.0)
        run(gov, core, 1.0)
        assert dvfs.index == 0
