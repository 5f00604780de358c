"""tDVFS: the threshold-triggered, history-based DVFS daemon."""

import pytest

from repro.core.policy import Policy
from repro.cpu.dvfs import Dvfs
from repro.cpu.pstate import ATHLON64_4000
from repro.governors.tdvfs import TDvfs, TDvfsParams
from repro.sim.events import EventLog


def make_tdvfs(pp=50, **params):
    events = EventLog()
    dvfs = Dvfs(ATHLON64_4000, events=events, name="dvfs")
    gov = TDvfs(dvfs, Policy(pp=pp), params=TDvfsParams(**params), events=events)
    gov.start(0.0)
    return gov, dvfs, events


def feed(gov, samples, t0=0.0, rate=4.0):
    t = t0
    for s in samples:
        gov.on_sample(t, s)
        t += 1.0 / rate
    return t


class TestTriggering:
    def test_no_action_below_threshold(self):
        gov, dvfs, events = make_tdvfs()
        feed(gov, [48.0] * 40)
        assert dvfs.index == 0
        assert events.count("dvfs.change") == 0

    def test_consistently_above_triggers(self):
        gov, dvfs, events = make_tdvfs()
        feed(gov, [53.0] * 40)  # 10 rounds, FIFO full after 5
        assert dvfs.index > 0
        assert events.count("tdvfs.trigger") == 1

    def test_single_spike_ignored(self):
        """The Figure-8 red circle: one hot round inside a cool stream
        must not trigger."""
        gov, dvfs, _ = make_tdvfs()
        samples = [48.0] * 20 + [54.0] * 4 + [48.0] * 20
        feed(gov, samples)
        assert dvfs.index == 0

    def test_requires_full_fifo(self):
        gov, dvfs, _ = make_tdvfs()
        feed(gov, [55.0] * 16)  # only 4 rounds < l2_size=5
        assert dvfs.index == 0

    def test_min_of_fifo_must_exceed_threshold(self):
        """One sub-threshold round inside the FIFO blocks the trigger —
        'consistently above'."""
        gov, dvfs, _ = make_tdvfs()
        pattern = ([53.0] * 4 + [53.0] * 4 + [49.0] * 4 + [53.0] * 4) * 4
        feed(gov, pattern)
        assert dvfs.index == 0

    def test_cooldown_blocks_rapid_retrigger(self):
        gov, dvfs, events = make_tdvfs(cooldown=30.0)
        feed(gov, [55.0] * 60)  # 15 s of consistently hot
        # only one trigger can fit inside the 30 s cooldown
        assert events.count("dvfs.change") == 1

    def test_zero_cooldown_allows_cascade(self):
        gov, dvfs, _ = make_tdvfs(cooldown=0.0, escalate_threshold=False)
        feed(gov, [60.0] * 200)
        assert dvfs.index == len(ATHLON64_4000) - 1  # chased to the bottom


class TestEscalation:
    def test_escalated_threshold_plateaus(self):
        """After one trigger the effective threshold rises, so a mild
        plateau above the nominal threshold holds steady — Figure 9."""
        gov, dvfs, _ = make_tdvfs(cooldown=5.0)
        feed(gov, [52.5] * 400)  # 100 s just above nominal 51
        assert dvfs.index == 1  # one step, then stable
        assert gov.effective_threshold > 51.0

    def test_fixed_threshold_chases(self):
        gov, dvfs, _ = make_tdvfs(cooldown=5.0, escalate_threshold=False)
        feed(gov, [52.5] * 400)
        assert dvfs.index > 1

    def test_effective_threshold_at_depth_zero(self):
        gov, _, _ = make_tdvfs()
        assert gov.effective_threshold == pytest.approx(51.0)


class TestRestore:
    def test_restores_original_when_consistently_cool(self):
        gov, dvfs, events = make_tdvfs(cooldown=5.0)
        t = feed(gov, [55.0] * 40)  # trigger down
        assert dvfs.index > 0
        feed(gov, [44.0] * 60, t0=t)  # well below threshold - margin
        assert dvfs.index == 0
        assert events.count("tdvfs.restore") == 1

    def test_hysteresis_gap_blocks_restore(self):
        """Temperatures between (threshold - margin) and threshold keep
        the reduced frequency — no limit cycling."""
        gov, dvfs, _ = make_tdvfs(cooldown=5.0, restore_margin=2.5)
        t = feed(gov, [55.0] * 40)
        index_after_trigger = dvfs.index
        feed(gov, [49.5] * 100, t0=t)  # above 51-2.5=48.5
        assert dvfs.index == index_after_trigger

    def test_no_restore_when_already_original(self):
        gov, dvfs, events = make_tdvfs()
        feed(gov, [40.0] * 60)
        assert events.count("tdvfs.restore") == 0

    def test_restore_returns_to_original_not_one_step(self):
        """The paper: 'scales up frequency to its original value' —
        a one-shot restore, not a gradual climb."""
        gov, dvfs, _ = make_tdvfs(cooldown=0.0, trigger_depth_bias=8.0)
        t = feed(gov, [58.0] * 40)
        assert dvfs.index >= 2  # deep
        feed(gov, [40.0] * 24, t0=t)
        assert dvfs.index == 0  # straight back


class TestDepthAndPolicy:
    def test_depth_bias_reaches_deeper_for_small_pp(self):
        """The same thermal history scales deeper under P_p=25 than
        P_p=75 — Figure 10's annotated 2.4->2.0 jump."""
        def depth(pp):
            gov, dvfs, _ = make_tdvfs(pp=pp)
            feed(gov, [53.0] * 40)
            return dvfs.index

        assert depth(25) > depth(75)

    def test_events_carry_frequency(self):
        gov, dvfs, events = make_tdvfs()
        feed(gov, [55.0] * 40)
        trigger = events.filter(category="tdvfs.trigger")[0]
        assert trigger.data["new_ghz"] < 2.4

    def test_trigger_counts_tracked(self):
        gov, dvfs, _ = make_tdvfs()
        feed(gov, [55.0] * 40)
        assert gov.trigger_count == 1
        assert gov.restore_count == 0

    def test_emergency_independent_of_window(self):
        """tDVFS itself has no emergency path (the fan controller's
        t_max override covers it), so even extreme samples need the
        full consistency horizon."""
        gov, dvfs, _ = make_tdvfs()
        feed(gov, [90.0] * 8)  # 2 rounds only
        assert dvfs.index == 0
