"""The thermal control array: the paper's Eq. (1) and §3.2.2 fill rule."""

import pytest

from repro.core.control_array import DEFAULT_ARRAY_SIZE, ThermalControlArray
from repro.core.policy import Policy
from repro.errors import ConfigurationError

DUTIES = tuple(d / 100 for d in range(1, 101))  # 100 fan duties
#: 5 P-state indices (ascending effectiveness): each mode is its own
#: position in the mode set.
FREQS = (0, 1, 2, 3, 4)


def array(pp: int, modes=FREQS, size=None) -> ThermalControlArray:
    return ThermalControlArray(modes, Policy(pp=pp), size=size)


class TestEquationOne:
    """n_p = floor((P_p - P_MIN)(N-1)/(P_MAX - P_MIN)) + 1."""

    def test_np_at_minimum_pp(self):
        assert array(1).n_p == 1

    def test_np_at_maximum_pp(self):
        assert array(100, size=100).n_p == 100

    def test_np_midpoint(self):
        # (50-1)*99/99 + 1 = 50
        assert array(50, size=100).n_p == 50

    def test_np_pp25(self):
        # floor(24*99/99)+1 = 25
        assert array(25, size=100).n_p == 25

    def test_np_pp75(self):
        assert array(75, size=100).n_p == 75

    def test_np_monotone_in_pp(self):
        nps = [array(pp).n_p for pp in range(1, 101)]
        assert all(a <= b for a, b in zip(nps, nps[1:]))


class TestFillRule:
    def test_slots_above_np_pinned_to_most_effective(self):
        arr = array(25, size=100)
        for slot in range(arr.n_p - 1, 100):
            assert arr[slot] == FREQS[-1]

    def test_first_slot_least_effective_when_ramp_exists(self):
        for pp in (10, 25, 50, 75, 100):
            arr = array(pp, size=100)
            if arr.n_p > 1:
                assert arr[0] == FREQS[0]

    def test_fully_aggressive_all_pinned(self):
        arr = array(1)
        assert all(v == FREQS[-1] for v in arr.values())
        assert arr.n_p == 1

    def test_last_slot_always_most_effective(self):
        for pp in (1, 25, 50, 75, 100):
            assert array(pp)[len(array(pp)) - 1] == FREQS[-1]

    def test_monotone_non_descending(self):
        for pp in (1, 10, 25, 50, 75, 90, 100):
            values = array(pp).values()
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_small_pp_compresses_ramp(self):
        """The same slot index reaches deeper modes under small P_p —
        the aggressiveness mechanism."""
        slot = 10
        aggressive = array(25, size=100)[slot]
        lazy = array(75, size=100)[slot]
        assert aggressive > lazy

    def test_duplicates_allowed(self):
        # 5 modes into a 99-slot ramp necessarily duplicates
        arr = array(100, size=100)
        values = arr.values()
        assert len(set(values)) == len(FREQS)
        assert len(values) == 100

    def test_even_extraction_covers_full_set_when_room(self):
        arr = array(100, size=100)
        assert set(arr.values()) == set(FREQS)

    def test_subset_when_ramp_shorter_than_modes(self):
        # 100 fan duties into a P_p=25 array: ramp of 24 slots must skip
        # some physical modes.
        arr = ThermalControlArray(DUTIES, Policy(pp=25), size=100)
        ramp_values = {arr[s] for s in range(arr.n_p - 1)}
        assert len(ramp_values) < len(DUTIES)
        assert arr[0] == DUTIES[0]


class TestValidation:
    def test_needs_two_modes(self):
        with pytest.raises(ConfigurationError):
            ThermalControlArray((1,), Policy())

    def test_size_must_cover_modes(self):
        with pytest.raises(ConfigurationError):
            ThermalControlArray(DUTIES, Policy(), size=50)

    def test_default_size(self):
        assert len(ThermalControlArray(FREQS, Policy())) == DEFAULT_ARRAY_SIZE
        assert len(ThermalControlArray(DUTIES, Policy())) == 100

    def test_default_size_grows_with_modes(self):
        many = tuple(range(150))
        assert len(ThermalControlArray(many, Policy())) == 150

    def test_index_bounds(self):
        arr = array(50)
        with pytest.raises(IndexError):
            arr[len(arr)]
        with pytest.raises(IndexError):
            arr[-1]


class TestSlotLookup:
    def test_slot_for_least_effective(self):
        arr = array(50, size=100)
        assert arr.slot_for_mode(FREQS[0]) == 0

    def test_slot_for_most_effective_prefers_lowest_slot(self):
        arr = array(50, size=100)
        slot = arr.slot_for_mode(FREQS[-1])
        assert arr[slot] == FREQS[-1]
        assert slot > 0
        assert arr[slot - 1] != FREQS[-1]

    def test_slot_for_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            array(50).slot_for_mode(99)

    def test_skipped_mode_maps_to_nearest(self):
        arr = ThermalControlArray(DUTIES, Policy(pp=25), size=100)
        # mode 0.37 probably skipped by the 24-slot ramp; nearest wins
        slot = arr.slot_for_mode(DUTIES[36])
        pos = DUTIES.index(arr[slot])
        assert abs(pos - 36) <= 3

    def test_next_distinct_slot(self):
        arr = array(50, size=100)
        nxt = arr.next_distinct_slot(0)
        assert arr[nxt] != arr[0]
        assert all(arr[s] == arr[0] for s in range(0, nxt))

    def test_next_distinct_at_top_is_identity(self):
        arr = array(50, size=100)
        top = len(arr) - 1
        assert arr.next_distinct_slot(top) == top


class TestPaperScenarios:
    """Concrete geometry checks used by the tDVFS depth analysis."""

    def test_pp50_dvfs_ramp_density(self):
        arr = array(50, size=100)  # ramp = 49 slots over 5 modes
        # ~10 slots per mode step
        transitions = [
            s
            for s in range(1, arr.n_p - 1)
            if arr[s] != arr[s - 1]
        ]
        gaps = [b - a for a, b in zip(transitions, transitions[1:])]
        assert all(8 <= g <= 16 for g in gaps)

    def test_pp25_vs_pp75_depth_at_same_advance(self):
        """A 9-slot advance from the start reaches a deeper frequency at
        P_p=25 than at P_p=75 — Figure 10's depth effect."""
        deep = array(25, size=100)[9]
        shallow = array(75, size=100)[9]
        assert deep > shallow
