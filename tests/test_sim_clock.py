"""Simulation clock and periodic tasks."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import PeriodicTask, SimClock
from repro.sim.engine import SimulationEngine


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock(0.05)
        assert clock.now == 0.0
        assert clock.ticks == 0

    def test_advance(self):
        clock = SimClock(0.05)
        assert clock.advance() == pytest.approx(0.05)
        assert clock.ticks == 1

    def test_no_float_drift_over_long_runs(self):
        clock = SimClock(0.05)
        for _ in range(1_000_000):
            clock.advance()
        # 1e6 * 0.05 = 50_000 exactly (integer-tick arithmetic).
        assert clock.now == pytest.approx(50_000.0, abs=1e-6)

    def test_reset(self):
        clock = SimClock(0.1)
        clock.advance()
        clock.reset()
        assert clock.now == 0.0

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ConfigurationError):
            SimClock(0.0)
        with pytest.raises(ConfigurationError):
            SimClock(-1.0)

    def test_ticks_for_exact(self):
        clock = SimClock(0.25)
        assert clock.ticks_for(1.0) == 4

    def test_ticks_for_rounds(self):
        clock = SimClock(0.25)
        assert clock.ticks_for(1.1) == 4
        assert clock.ticks_for(1.2) == 5

    def test_ticks_for_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            SimClock(0.1).ticks_for(-1.0)


def fired(dt: float, period: float, ticks: int, phase: float = 0.0):
    """Firing times over ``ticks`` ticks of an engine."""
    engine = SimulationEngine(dt=dt)
    times = []
    engine.every(period, times.append, phase=phase)
    engine.run(max_ticks=ticks)
    return times


class TestPeriodicTask:
    def test_fires_at_period_multiples(self):
        times = fired(0.05, 0.25, 20)
        assert times == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_fire_count(self):
        times = fired(0.1, 0.2, 10)
        assert len(times) == 5

    def test_phase_offsets_first_fire(self):
        times = fired(0.05, 0.25, 20, phase=0.1)
        # first fire at the phase offset itself, then every period
        assert times[:3] == pytest.approx([0.1, 0.35, 0.6])

    def test_non_multiple_period_rejected(self):
        clock = SimClock(0.3)
        task = PeriodicTask(period=0.25, callback=lambda t: None)
        with pytest.raises(ConfigurationError):
            task.bind(clock)

    def test_zero_period_rejected(self):
        clock = SimClock(0.05)
        task = PeriodicTask(period=0.0, callback=lambda t: None)
        with pytest.raises(ConfigurationError):
            task.bind(clock)

    def test_period_equal_to_dt_fires_every_tick(self):
        times = fired(0.05, 0.05, 7)
        assert len(times) == 7

    def test_long_run_exactness(self):
        # A 4 Hz sensor on a 0.05 s clock fires exactly 4 times/second
        # over an hour, never drifting.
        times = fired(0.05, 0.25, SimClock(0.05).ticks_for(3600.0))
        assert len(times) == 4 * 3600
