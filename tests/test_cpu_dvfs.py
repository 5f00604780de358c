"""DVFS actuator: transitions, counting, stall accounting."""

import pytest

from repro.cpu.dvfs import Dvfs
from repro.cpu.pstate import ATHLON64_4000
from repro.errors import ActuatorError
from repro.sim.events import EventLog
from repro.units import ghz


@pytest.fixture
def dvfs():
    return Dvfs(ATHLON64_4000, transition_latency=1e-4)


def counted():
    """A DVFS actuator and the event log its transitions go to."""
    events = EventLog()
    return Dvfs(ATHLON64_4000, events=events), events


class TestTransitions:
    def test_starts_fastest(self, dvfs):
        assert dvfs.index == 0
        assert dvfs.pstate.frequency_ghz == pytest.approx(2.4)

    def test_set_index(self, dvfs):
        assert dvfs.set_index(2) is True
        assert dvfs.frequency == pytest.approx(ghz(2.0))

    def test_same_index_is_noop(self):
        dvfs, events = counted()
        assert dvfs.set_index(0) is False
        assert events.count("dvfs.change") == 0

    def test_out_of_range(self, dvfs):
        with pytest.raises(ActuatorError):
            dvfs.set_index(5)
        with pytest.raises(ActuatorError):
            dvfs.set_index(-1)

    def test_step_down(self, dvfs):
        assert dvfs.step_down() is True
        assert dvfs.index == 1
        assert dvfs.step_down() is True
        assert dvfs.index == 2

    def test_step_down_at_bottom_noop(self, dvfs):
        dvfs.set_index(4)
        assert dvfs.step_down() is False


class TestAccounting:
    def test_change_count(self):
        dvfs, events = counted()
        dvfs.set_index(1)
        dvfs.set_index(2)
        dvfs.set_index(2)  # no-op
        dvfs.set_index(0)
        assert events.count("dvfs.change") == 3

    def test_events_emitted(self):
        events = EventLog()
        dvfs = Dvfs(ATHLON64_4000, events=events, name="n0.dvfs")
        dvfs.set_index(1, t=5.0)
        assert events.count("dvfs.change") == 1
        event = events[0]
        assert event.time == 5.0
        assert event.data["old_ghz"] == pytest.approx(2.4)
        assert event.data["new_ghz"] == pytest.approx(2.2)

    def test_note_time_used_when_t_omitted(self):
        events = EventLog()
        dvfs = Dvfs(ATHLON64_4000, events=events)
        dvfs.note_time(7.5)
        dvfs.set_index(1)
        assert events[0].time == 7.5


class TestStall:
    def test_transition_adds_stall(self, dvfs):
        dvfs.set_index(1)
        assert dvfs.consume_stall(1.0) == pytest.approx(1e-4)

    def test_stall_accumulates(self, dvfs):
        dvfs.set_index(1)
        dvfs.set_index(2)
        assert dvfs.consume_stall(1.0) == pytest.approx(2e-4)

    def test_consume_stall_partial(self, dvfs):
        dvfs.set_index(1)
        consumed = dvfs.consume_stall(5e-5)
        assert consumed == pytest.approx(5e-5)
        assert dvfs.consume_stall(1.0) == pytest.approx(5e-5)

    def test_consume_stall_bounded_by_pending(self, dvfs):
        dvfs.set_index(1)
        consumed = dvfs.consume_stall(1.0)
        assert consumed == pytest.approx(1e-4)
        assert dvfs.consume_stall(1.0) == 0.0

    def test_no_stall_without_transition(self, dvfs):
        assert dvfs.consume_stall(1.0) == 0.0

    def test_zero_latency(self):
        dvfs = Dvfs(ATHLON64_4000, transition_latency=0.0)
        dvfs.set_index(1)
        assert dvfs.consume_stall(1.0) == 0.0
