"""Event log: emission, filtering, counting."""

from repro.sim.events import Event, EventLog


class TestEvent:
    def test_str_contains_fields(self):
        event = Event(time=1.5, category="dvfs.change", source="node0", data={"ghz": 2.2})
        text = str(event)
        assert "dvfs.change" in text
        assert "node0" in text
        assert "ghz=2.2" in text

    def test_frozen(self):
        import dataclasses

        import pytest

        event = Event(time=0.0, category="c", source="s")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 1.0  # type: ignore[misc]


class TestEventLog:
    def _log(self) -> EventLog:
        log = EventLog()
        log.emit(1.0, "dvfs.change", "node0.dvfs", new_ghz=2.2)
        log.emit(2.0, "dvfs.change", "node1.dvfs", new_ghz=2.0)
        log.emit(3.0, "fan.mode", "node0.fan", duty=0.5)
        log.emit(4.0, "dvfs.clamp", "node0.dvfs")
        return log

    def test_emit_returns_event(self):
        log = EventLog()
        event = log.emit(1.0, "x", "y", a=1)
        assert event.time == 1.0
        assert event.data == {"a": 1}

    def test_len(self):
        assert len(self._log()) == 4

    def test_indexing(self):
        log = self._log()
        assert log[0].category == "dvfs.change"
        assert log[-1].category == "dvfs.clamp"

    def test_filter_by_category_prefix(self):
        log = self._log()
        assert len(log.filter(category="dvfs")) == 3
        assert len(log.filter(category="dvfs.change")) == 2

    def test_filter_by_source_prefix(self):
        log = self._log()
        assert len(log.filter(source="node0")) == 3

    def test_filter_by_time_range(self):
        log = self._log()
        assert len(log.filter(t0=1.5, t1=3.5)) == 2

    def test_filter_combined(self):
        log = self._log()
        events = log.filter(category="dvfs", source="node0", t1=2.0)
        assert len(events) == 1
        assert events[0].time == 1.0

    def test_count(self):
        log = self._log()
        assert log.count("dvfs.change") == 2
        assert log.count("dvfs.change", source="node1") == 1

    def test_iteration_order(self):
        times = [e.time for e in self._log()]
        assert times == [1.0, 2.0, 3.0, 4.0]
