"""The two-level history window (§3.2.1)."""

import pytest

from repro.core.window import TwoLevelWindow
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_paper_values(self):
        window = TwoLevelWindow()
        assert window.l1_size == 4
        assert window.l2_size == 5

    def test_l1_must_be_even(self):
        with pytest.raises(ConfigurationError):
            TwoLevelWindow(l1_size=3)

    def test_l1_minimum(self):
        with pytest.raises(ConfigurationError):
            TwoLevelWindow(l1_size=0)

    def test_l2_minimum(self):
        with pytest.raises(ConfigurationError):
            TwoLevelWindow(l2_size=1)


class TestLevelOne:
    def test_no_update_until_full(self):
        window = TwoLevelWindow(l1_size=4)
        assert window.push(0.00, 50.0) is None
        assert window.push(0.25, 50.0) is None
        assert window.push(0.50, 50.0) is None
        assert window.push(0.75, 50.0) is not None

    def test_half_sum_difference(self):
        window = TwoLevelWindow(l1_size=4)
        for t, v in zip((0, 0.25, 0.5, 0.75), (50.0, 51.0, 52.0, 53.0)):
            update = window.push(t, v)
        # (52+53) - (50+51) = 4
        assert update.delta_l1 == pytest.approx(4.0)

    def test_average(self):
        window = TwoLevelWindow(l1_size=4)
        for t, v in zip((0, 0.25, 0.5, 0.75), (50.0, 51.0, 52.0, 53.0)):
            update = window.push(t, v)
        assert update.average == pytest.approx(51.5)

    def test_symmetric_jitter_cancels(self):
        """The paper's jitter-nullifying property: an alternating
        pattern symmetric across the halves produces Δt_l1 = 0."""
        window = TwoLevelWindow(l1_size=4)
        for t, v in zip((0, 0.25, 0.5, 0.75), (49.0, 51.0, 49.0, 51.0)):
            update = window.push(t, v)
        assert update.delta_l1 == pytest.approx(0.0)

    def test_window_cleared_between_rounds(self):
        window = TwoLevelWindow(l1_size=2)
        window.push(0.0, 10.0)
        window.push(0.25, 20.0)  # round 1: delta 10
        window.push(0.50, 20.0)
        update = window.push(0.75, 20.0)  # round 2: flat
        assert update.delta_l1 == pytest.approx(0.0)

    def test_rounds_counter(self):
        window = TwoLevelWindow(l1_size=2)
        updates = [window.push(i * 0.25, 50.0) for i in range(10)]
        assert sum(u is not None for u in updates) == 5
        assert window.samples == 10

    def test_l1_fill_tracks_partial(self):
        window = TwoLevelWindow(l1_size=4)
        assert window.push(0.0, 50.0) is None
        assert window.push(0.25, 50.0) is None
        assert window.samples == 2

    def test_larger_window_integrates_more_signal(self):
        """For a constant ramp, Δt_l1 grows quadratically with window
        size — why a 4-entry window beats a 2-entry one at detecting
        sustained change."""

        def delta_for(size):
            window = TwoLevelWindow(l1_size=size)
            update = None
            for i in range(size):
                update = window.push(i * 0.25, 50.0 + 0.25 * i)
            return update.delta_l1

        assert delta_for(4) == pytest.approx(4 * delta_for(2))


class TestLevelTwo:
    def fill_rounds(self, window, averages):
        """Push synthetic rounds whose L1 averages equal ``averages``."""
        update = None
        t = 0.0
        for avg in averages:
            for _ in range(window.l1_size):
                update = window.push(t, avg)
                t += 0.25
        return update

    def test_delta_l2_none_until_full(self):
        window = TwoLevelWindow(l1_size=2, l2_size=3)
        update = self.fill_rounds(window, [50.0, 51.0])
        assert update.delta_l2 is None
        assert not update.l2_full

    def test_delta_l2_rear_minus_front(self):
        window = TwoLevelWindow(l1_size=2, l2_size=3)
        update = self.fill_rounds(window, [50.0, 51.0, 53.0])
        assert update.l2_full
        assert update.delta_l2 == pytest.approx(3.0)

    def test_fifo_rotation(self):
        window = TwoLevelWindow(l1_size=2, l2_size=3)
        update = self.fill_rounds(window, [50.0, 51.0, 53.0, 56.0])
        # front is now 51, rear 56
        assert update.delta_l2 == pytest.approx(5.0)
        assert update.l2_values == pytest.approx((51.0, 53.0, 56.0))

    def test_l2_average(self):
        window = TwoLevelWindow(l1_size=2, l2_size=3)
        update = self.fill_rounds(window, [50.0, 52.0, 54.0])
        assert update.l2_average == pytest.approx(52.0)

    def test_gradual_visible_in_l2_invisible_in_l1(self):
        """A slow drift below L1's resolution accumulates in Δt_l2 —
        the mechanism §3.2.1 describes."""
        window = TwoLevelWindow(l1_size=4, l2_size=5)
        update = None
        rate = 0.1  # K/s: Δt_l1 = 0.1 per round
        for i in range(20):
            update = window.push(i * 0.25, 50.0 + rate * i * 0.25)
        assert abs(update.delta_l1) < 0.2
        assert update.delta_l2 == pytest.approx(rate * 4.0, abs=0.05)

    def test_reset(self):
        window = TwoLevelWindow()
        for i in range(12):
            window.push(i * 0.25, 50.0)
        window.reset()
        assert window.l2_values == ()
        # a fresh level-one round: the first update after l1_size pushes
        updates = [window.push(3.0 + i * 0.25, 50.0) for i in range(4)]
        assert updates[:3] == [None] * 3 and updates[3] is not None
