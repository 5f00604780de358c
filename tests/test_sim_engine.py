"""Simulation engine: registration, stepping, stop conditions."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Component, SimulationEngine


class Counter(Component):
    """Records every (t, dt) it is stepped with."""

    def __init__(self, name="counter"):
        super().__init__(name)
        self.calls = []

    def step(self, t, dt):
        self.calls.append((t, dt))


class TestRegistration:
    def test_add_component(self):
        engine = SimulationEngine(dt=0.1)
        comp = Counter()
        assert engine.add_component(comp) is comp

    def test_duplicate_component_rejected(self):
        engine = SimulationEngine(dt=0.1)
        comp = Counter()
        engine.add_component(comp)
        with pytest.raises(ConfigurationError):
            engine.add_component(comp)

    def test_component_requires_name(self):
        with pytest.raises(ConfigurationError):
            Counter(name="")

    def test_add_components_order(self):
        engine = SimulationEngine(dt=0.1)
        order = []

        class Probe(Component):
            def step(self, t, dt):
                order.append(self.name)

        for name in ("a", "b", "c"):
            engine.add_component(Probe(name))
        engine.step()
        assert order == ["a", "b", "c"]

    def test_base_step_not_implemented(self):
        engine = SimulationEngine(dt=0.1)
        engine.add_component(Component("raw"))
        with pytest.raises(NotImplementedError):
            engine.step()


class TestStepping:
    def test_step_advances_clock_then_calls(self):
        engine = SimulationEngine(dt=0.5)
        comp = Counter()
        engine.add_component(comp)
        engine.step()
        assert comp.calls == [(0.5, 0.5)]

    def test_run_for_duration(self):
        engine = SimulationEngine(dt=0.1)
        comp = Counter()
        engine.add_component(comp)
        end = engine.run(duration=1.0)
        assert end == pytest.approx(1.0)
        assert len(comp.calls) == 10

    def test_run_twice_continues(self):
        engine = SimulationEngine(dt=0.1)
        engine.run(duration=1.0)
        end = engine.run(duration=0.5)
        assert end == pytest.approx(1.5)

    def test_run_until_predicate(self):
        engine = SimulationEngine(dt=0.1)
        comp = Counter()
        engine.add_component(comp)
        engine.run(until=lambda: len(comp.calls) >= 3, max_ticks=100)
        assert len(comp.calls) == 3

    def test_stop_from_inside_callback(self):
        engine = SimulationEngine(dt=0.1)
        engine.every(0.3, lambda t: engine.stop())
        end = engine.run(duration=100.0)
        assert end == pytest.approx(0.3)

    def test_run_requires_some_criterion(self):
        with pytest.raises(ConfigurationError):
            SimulationEngine(dt=0.1).run()

    def test_max_ticks_exhaustion_with_until_raises(self):
        engine = SimulationEngine(dt=0.1)
        with pytest.raises(SimulationError):
            engine.run(until=lambda: False, max_ticks=5)

    def test_max_ticks_alone_is_a_budget(self):
        engine = SimulationEngine(dt=0.1)
        end = engine.run(max_ticks=7)
        assert end == pytest.approx(0.7)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationEngine(dt=0.1).run(duration=-1.0)


class TestTasks:
    def test_every_fires_on_schedule(self):
        engine = SimulationEngine(dt=0.05)
        fired = []
        engine.every(0.25, fired.append)
        engine.run(duration=1.0)
        assert fired == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_tasks_fire_after_components(self):
        engine = SimulationEngine(dt=0.25)
        order = []

        class Probe(Component):
            def step(self, t, dt):
                order.append("component")

        engine.add_component(Probe("p"))
        engine.every(0.25, lambda t: order.append("task"))
        engine.step()
        assert order == ["component", "task"]

    def test_cannot_add_while_running(self):
        engine = SimulationEngine(dt=0.1)
        failures = []

        def sabotage(t):
            try:
                engine.add_component(Counter("late"))
            except SimulationError:
                failures.append("component")
            try:
                engine.every(0.1, lambda t: None)
            except SimulationError:
                failures.append("task")
            engine.stop()

        engine.every(0.1, sabotage)
        engine.run(duration=10.0)
        assert failures == ["component", "task"]

    def test_traces_and_events_shared(self):
        engine = SimulationEngine(dt=0.1)
        engine.traces.record("x", 0.0, 1.0)
        engine.events.emit(0.0, "cat", "src")
        assert "x" in engine.traces
        assert len(engine.events) == 1
