"""The ondemand governor baseline."""

import pytest

from repro.cpu.core import CpuCore
from repro.cpu.dvfs import Dvfs
from repro.cpu.pstate import ATHLON64_4000
from repro.errors import ConfigurationError
from repro.governors.ondemand import Ondemand, OndemandParams
from repro.sim.events import EventLog


class ScriptedRank:
    def __init__(self, schedule):
        self.schedule = schedule
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
    gov = Ondemand(core, params=params)
    gov.start(0.0)
    return gov, core, dvfs


def run(gov, core, seconds, dt=0.02):
    t = getattr(gov, "_clk", 0.0)
    base = getattr(gov, "_tick", 0)
    steps = int(seconds / dt)
    interval = round(gov.period / dt)
    for i in range(1, steps + 1):
        t += dt
        core.step(t, dt)
        if (base + i) % interval == 0:
            gov.on_interval(t)
    gov._clk = t
    gov._tick = base + steps


class TestParams:
    def test_defaults(self):
        params = OndemandParams()
        assert params.sampling_period < 0.25  # faster than CPUSPEED

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OndemandParams(sampling_period=0.0)
        with pytest.raises(ConfigurationError):
            OndemandParams(up_threshold=1.5)


class TestBehaviour:
    def test_busy_snaps_to_max(self):
        gov, core, dvfs = make([1.0] * 100000)
        dvfs.set_index(4, 0.0)
        dvfs.consume_stall(1.0)
        run(gov, core, 0.5)
        assert dvfs.index == 0

    def test_idle_goes_to_bottom_in_one_decision(self):
        """Unlike CPUSPEED's one-step walk, ondemand jumps straight to
        the proportional target."""
        gov, core, dvfs = make([0.0] * 100000)
        run(gov, core, 0.2)
        assert dvfs.index == len(ATHLON64_4000) - 1

    def test_proportional_target(self):
        # 50% util at 2.4 GHz with threshold 0.8 -> demand 1.5 GHz ->
        # lowest frequency >= 1.5 is 1.8 GHz (index 3)
        gov, core, dvfs = make([0.5] * 100000)
        run(gov, core, 0.2)
        assert dvfs.pstate.frequency_ghz == pytest.approx(1.8)

    def test_steady_mid_load_stops_changing(self):
        events = EventLog()
        gov, core, dvfs = make([0.5] * 100000, events=events)
        run(gov, core, 0.5)
        changes_early = events.count("dvfs.change")
        run(gov, core, 1.0)
        assert events.count("dvfs.change") == changes_early  # settled

    def test_no_temperature_input(self):
        """ondemand has no thermometer: on_sample is the base no-op."""
        gov, core, dvfs = make([1.0] * 1000)
        gov.on_sample(0.0, 95.0)  # scorching — must be ignored
        run(gov, core, 0.5)
        assert dvfs.index == 0

    def test_square_wave_load_flaps_between_extremes(self):
        """On an on/off load, ondemand jumps max↔min directly — it never
        walks the intermediate P-states the way CPUSPEED's one-step
        policy does.  (It still flaps: nothing utilization-driven can
        avoid that, which is the paper's point.)"""
        events = EventLog()
        dvfs = Dvfs(ATHLON64_4000, events=events)
        core = CpuCore(dvfs, name="c0")
        pattern = ([1.0] * 12 + [0.0] * 13) * 400
        core.bind_rank(ScriptedRank(pattern))
        gov = Ondemand(core, events=events)
        gov.start(0.0)
        t = 0.0
        for i in range(1, int(10.0 / 0.02) + 1):
            t = i * 0.02
            core.step(t, 0.02)
            if i % round(gov.period / 0.02) == 0:
                gov.on_interval(t)
        changes = events.filter(category="dvfs.change")
        assert changes  # it flaps ...
        targets = [e.data["new_index"] for e in changes]
        bottom = len(ATHLON64_4000) - 1
        # ... mostly straight between the extremes (boundary-straddling
        # intervals may target the proportional mid-point), never the
        # one-step-down walk through index 1
        extreme = sum(1 for i in targets if i in (0, bottom))
        assert extreme / len(targets) > 0.6
        assert 1 not in targets
