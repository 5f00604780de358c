"""Property-based tests of the thermal control array (Eq. 1 invariants).

These verify, for *every* valid (P_p, mode-set size, array size)
combination hypothesis can find, the structural guarantees §3.2.2
states in prose.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_array import ThermalControlArray
from repro.core.policy import Policy

mode_counts = st.integers(min_value=2, max_value=120)
pps = st.integers(min_value=1, max_value=100)
extra_size = st.integers(min_value=0, max_value=150)


def build(pp: int, n_modes: int, extra: int) -> ThermalControlArray:
    """An array over modes ``0..n_modes-1``: each mode is its own
    position in the mode set."""
    modes = tuple(range(n_modes))
    size = n_modes + extra
    return ThermalControlArray(modes, Policy(pp=pp), size=max(size, 2))


@given(pp=pps, n_modes=mode_counts, extra=extra_size)
@settings(max_examples=200)
def test_monotone_non_descending(pp, n_modes, extra):
    """Slot values never decrease in effectiveness along the array."""
    values = build(pp, n_modes, extra).values()
    assert all(a <= b for a, b in zip(values, values[1:]))


@given(pp=pps, n_modes=mode_counts, extra=extra_size)
@settings(max_examples=200)
def test_last_slot_is_most_effective(pp, n_modes, extra):
    arr = build(pp, n_modes, extra)
    assert arr[len(arr) - 1] == n_modes - 1


@given(pp=pps, n_modes=mode_counts, extra=extra_size)
@settings(max_examples=200)
def test_np_within_bounds(pp, n_modes, extra):
    """Eq. 1 always lands n_p in [1, N]."""
    arr = build(pp, n_modes, extra)
    assert 1 <= arr.n_p <= len(arr)


@given(pp=pps, n_modes=mode_counts, extra=extra_size)
@settings(max_examples=200)
def test_pinned_region_holds_top_mode(pp, n_modes, extra):
    arr = build(pp, n_modes, extra)
    for slot in range(arr.n_p - 1, len(arr)):
        assert arr[slot] == n_modes - 1


@given(pp=pps, n_modes=mode_counts, extra=extra_size)
@settings(max_examples=200)
def test_first_slot_least_effective_when_ramp_exists(pp, n_modes, extra):
    arr = build(pp, n_modes, extra)
    if arr.n_p > 1:
        assert arr[0] == 0


@given(n_modes=mode_counts, extra=extra_size, pp_lo=pps, pp_hi=pps)
@settings(max_examples=200)
def test_smaller_pp_never_less_aggressive(n_modes, extra, pp_lo, pp_hi):
    """At every slot, a smaller P_p selects an equal-or-more effective
    mode — the knob is monotone."""
    lo, hi = sorted((pp_lo, pp_hi))
    aggressive = build(lo, n_modes, extra)
    lazy = build(hi, n_modes, extra)
    for slot in range(len(aggressive)):
        assert aggressive[slot] >= lazy[slot]


@given(pp=pps, n_modes=mode_counts, extra=extra_size)
@settings(max_examples=100)
def test_slot_for_mode_total(pp, n_modes, extra):
    """Every physical mode maps to some slot, and the slot's value is
    among the physical modes (nearest-position semantics)."""
    arr = build(pp, n_modes, extra)
    for mode in range(n_modes):
        slot = arr.slot_for_mode(mode)
        assert 0 <= slot < len(arr)


@given(pp=pps, n_modes=mode_counts, extra=extra_size)
@settings(max_examples=100)
def test_next_distinct_slot_progresses_or_stays(pp, n_modes, extra):
    arr = build(pp, n_modes, extra)
    for slot in range(0, len(arr), max(1, len(arr) // 7)):
        nxt = arr.next_distinct_slot(slot)
        assert nxt >= slot
        if nxt > slot:
            assert arr[nxt] > arr[slot]
