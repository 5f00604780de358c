"""Mode actuators and the unified controller."""

import pytest

from repro.core.actuator import DvfsModeActuator, FanModeActuator
from repro.core.controller import UnifiedThermalController
from repro.core.coordinator import Coordinator
from repro.core.policy import Policy
from repro.cpu.dvfs import Dvfs
from repro.cpu.pstate import ATHLON64_4000
from repro.errors import ActuatorError, ConfigurationError
from repro.fan.adt7467 import ADT7467
from repro.fan.driver import FanDriver
from repro.i2c.bus import I2cBus
from repro.sim.events import EventLog


def make_fan_driver(max_duty=1.0) -> FanDriver:
    bus = I2cBus()
    chip = ADT7467()
    bus.attach(chip)
    driver = FanDriver(bus, chip.address, max_duty=max_duty)
    driver.set_manual_mode()
    return driver


class TestFanModeActuator:
    def test_modes_ascending_effectiveness(self):
        actuator = FanModeActuator(make_fan_driver())
        modes = list(actuator.modes)
        assert modes == sorted(modes)
        assert len(modes) == 100

    def test_cap_shrinks_mode_set(self):
        actuator = FanModeActuator(make_fan_driver(max_duty=0.25))
        assert max(actuator.modes) <= 0.25 + 1e-9
        assert len(actuator.modes) < 100

    def test_apply_and_read_back(self):
        driver = make_fan_driver()
        actuator = FanModeActuator(driver)
        actuator.apply(0.5, t=0.0)
        assert actuator.current_mode() == pytest.approx(0.5, abs=0.01)

    def test_overcapped_driver_rejected(self):
        with pytest.raises(ActuatorError):
            FanModeActuator(make_fan_driver(max_duty=0.011))


class TestDvfsModeActuator:
    def test_modes_are_pstate_indices(self):
        actuator = DvfsModeActuator(Dvfs(ATHLON64_4000))
        assert list(actuator.modes) == [0, 1, 2, 3, 4]

    def test_higher_mode_is_slower_frequency(self):
        """The order reversal: mode 4 (most effective cooling) is the
        SLOWEST P-state."""
        dvfs = Dvfs(ATHLON64_4000)
        actuator = DvfsModeActuator(dvfs)
        actuator.apply(4, t=0.0)
        assert dvfs.pstate.frequency_ghz == pytest.approx(1.0)

    def test_current_mode(self):
        dvfs = Dvfs(ATHLON64_4000)
        dvfs.set_index(2)
        assert DvfsModeActuator(dvfs).current_mode() == 2


class TestUnifiedController:
    def make(self, pp=50, max_duty=1.0, events=None, **kwargs):
        driver = make_fan_driver(max_duty)
        ctrl = UnifiedThermalController(
            FanModeActuator(driver), Policy(pp=pp), events=events, **kwargs
        )
        return ctrl, driver

    def feed(self, ctrl, samples, t0=0.0):
        t = t0
        for s in samples:
            ctrl.push_sample(t, s)
            t += 0.25
        return t

    def test_initial_slot_matches_current_mode(self):
        ctrl, driver = self.make()
        assert ctrl.array[ctrl.state.slot] == pytest.approx(
            driver.get_duty(), abs=0.02
        )

    def test_rising_temperature_raises_fan(self):
        ctrl, driver = self.make()
        before = driver.get_duty()
        self.feed(ctrl, [45.0, 46.0, 47.0, 48.0])
        assert driver.get_duty() > before

    def test_falling_temperature_lowers_fan(self):
        ctrl, driver = self.make()
        self.feed(ctrl, [55.0, 56.0, 57.0, 58.0])  # push up first
        high = driver.get_duty()
        self.feed(ctrl, [50.0, 48.5, 47.0, 45.5], t0=1.0)
        assert driver.get_duty() < high

    def test_jitter_produces_no_change(self):
        ctrl, driver = self.make()
        before = ctrl.state.slot
        self.feed(ctrl, [50.0, 51.0, 50.0, 51.0])  # symmetric in halves
        assert ctrl.state.slot == before

    def test_gradual_tracked_via_l2(self):
        ctrl, driver = self.make()
        before = ctrl.state.slot
        # 0.05 K/sample drift: L1-silent, L2 accumulates over 5 rounds
        samples = [45.0 + 0.05 * i for i in range(24)]
        self.feed(ctrl, samples)
        assert ctrl.state.slot > before

    def test_l2_disabled_misses_gradual(self):
        ctrl, _ = self.make(l2_when_l1_silent=False)
        before = ctrl.state.slot
        samples = [45.0 + 0.05 * i for i in range(24)]
        self.feed(ctrl, samples)
        assert ctrl.state.slot == before

    def test_emergency_override(self):
        events = EventLog()
        ctrl, driver = self.make(events=events)
        ctrl.push_sample(0.0, 85.0)  # above t_max=82
        assert ctrl.state.slot == len(ctrl.array) - 1
        assert driver.get_duty() == pytest.approx(1.0, abs=0.01)
        assert ctrl.state.emergencies == 1
        assert events.count("ctrl.emergency") == 1

    def test_mode_change_events(self):
        events = EventLog()
        ctrl, _ = self.make(events=events)
        self.feed(ctrl, [45.0, 47.0, 49.0, 51.0])
        assert events.count("ctrl.mode.fan") >= 1

    def test_slot_memory_within_pinned_region(self):
        """Index motion inside the pinned region is remembered: two
        up-moves then one equal down-move keep the mode pinned."""
        ctrl, driver = self.make(pp=1)  # fully pinned array
        assert ctrl.current_mode == pytest.approx(1.0)

    def test_aggressive_policy_cools_harder(self):
        samples = [45.0 + 0.5 * i for i in range(12)]
        ctrl_a, drv_a = self.make(pp=25)
        ctrl_b, drv_b = self.make(pp=75)
        self.feed(ctrl_a, samples)
        self.feed(ctrl_b, samples)
        assert drv_a.get_duty() >= drv_b.get_duty()


class TestCoordinator:
    def test_samples_fan_out_in_cost_order(self):
        calls = []
        coord = Coordinator(Policy())
        coord.register("dvfs", lambda t, v: calls.append("dvfs"), cost_rank=1)
        coord.register("fan", lambda t, v: calls.append("fan"), cost_rank=0)
        coord.on_sample(0.0, 50.0)
        assert calls == ["fan", "dvfs"]

    def test_duplicate_label_rejected(self):
        coord = Coordinator(Policy())
        coord.register("fan", lambda t, v: None, cost_rank=0)
        with pytest.raises(ConfigurationError):
            coord.register("fan", lambda t, v: None, cost_rank=1)

    def test_techniques_listing(self):
        coord = Coordinator(Policy())
        coord.register("dvfs", lambda t, v: None, cost_rank=1)
        coord.register("fan", lambda t, v: None, cost_rank=0)
        assert len(coord) == 2
