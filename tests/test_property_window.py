"""Property-based tests of the two-level window."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import TwoLevelWindow

temps = st.floats(min_value=-20.0, max_value=120.0, allow_nan=False)
temp_lists = st.lists(temps, min_size=1, max_size=200)
l1_sizes = st.sampled_from([2, 4, 6, 8])
l2_sizes = st.integers(min_value=2, max_value=8)


@given(samples=temp_lists, l1=l1_sizes, l2=l2_sizes)
@settings(max_examples=200)
def test_update_cadence(samples, l1, l2):
    """Exactly one update per l1 pushes; never otherwise."""
    window = TwoLevelWindow(l1_size=l1, l2_size=l2)
    updates = 0
    for i, s in enumerate(samples):
        update = window.push(i * 0.25, s)
        if (i + 1) % l1 == 0:
            assert update is not None
            updates += 1
        else:
            assert update is None
    assert updates == len(samples) // l1


@given(samples=temp_lists, l1=l1_sizes)
@settings(max_examples=200)
def test_average_is_round_mean(samples, l1):
    window = TwoLevelWindow(l1_size=l1)
    buffer = []
    for i, s in enumerate(samples):
        buffer.append(s)
        update = window.push(i * 0.25, s)
        if update is not None:
            assert np.isclose(update.average, np.mean(buffer[-l1:]), atol=1e-9)
            buffer.clear()


@given(samples=temp_lists, l1=l1_sizes)
@settings(max_examples=200)
def test_delta_l1_is_half_sum_difference(samples, l1):
    window = TwoLevelWindow(l1_size=l1)
    buffer = []
    for i, s in enumerate(samples):
        buffer.append(s)
        update = window.push(i * 0.25, s)
        if update is not None:
            chunk = buffer[-l1:]
            expected = sum(chunk[l1 // 2:]) - sum(chunk[: l1 // 2])
            assert np.isclose(update.delta_l1, expected)
            buffer.clear()


@given(
    base=temps,
    amplitude=st.floats(0.0, 10.0, allow_nan=False),
    l1=st.sampled_from([4, 8]),
)
@settings(max_examples=200)
def test_period2_jitter_cancels_when_halves_hold_full_periods(
    base, amplitude, l1
):
    """Alternating ±amplitude jitter yields Δt_l1 == 0 whenever each
    half-window contains whole periods (l1 % 4 == 0) — exactly why the
    paper's 4-entry window nullifies jitter while a 2-entry window
    would mistake it for a sudden change."""
    window = TwoLevelWindow(l1_size=l1)
    for i in range(l1):
        update = window.push(i * 0.25, base + (amplitude if i % 2 else -amplitude))
    assert update is not None
    assert abs(update.delta_l1) < 1e-9


@given(base=temps, amplitude=st.floats(0.5, 10.0, allow_nan=False))
@settings(max_examples=100)
def test_period2_jitter_fools_a_2_entry_window(base, amplitude):
    """The converse: with l1=2 the same jitter reads as a sustained
    change — the paper's 'too small reacts to jitter' claim."""
    window = TwoLevelWindow(l1_size=2)
    update = None
    for i in range(2):
        update = window.push(i * 0.25, base + (amplitude if i % 2 else -amplitude))
    assert update is not None
    assert np.isclose(abs(update.delta_l1), 2 * amplitude, atol=1e-9)


@given(
    start=temps,
    rate=st.floats(-5.0, 5.0, allow_nan=False).filter(
        lambda r: r == 0.0 or abs(r) > 1e-3
    ),
    l1=l1_sizes,
    l2=l2_sizes,
)
@settings(max_examples=200)
def test_linear_ramp_deltas_have_ramp_sign(start, rate, l1, l2):
    """On a pure ramp, both deltas carry the ramp's sign (or zero)."""
    window = TwoLevelWindow(l1_size=l1, l2_size=l2)
    update = None
    for i in range(l1 * (l2 + 2)):
        update = window.push(i * 0.25, start + rate * i)
    assert update is not None
    if rate > 0:
        assert update.delta_l1 > 0
        assert update.delta_l2 is not None and update.delta_l2 > 0
    elif rate < 0:
        assert update.delta_l1 < 0
        assert update.delta_l2 is not None and update.delta_l2 < 0
    else:
        assert update.delta_l1 == 0


@given(samples=temp_lists, l1=l1_sizes, l2=l2_sizes)
@settings(max_examples=200)
def test_l2_values_bounded_by_sample_range(samples, l1, l2):
    """FIFO entries are averages, so they stay within the sample hull."""
    window = TwoLevelWindow(l1_size=l1, l2_size=l2)
    lo, hi = min(samples), max(samples)
    for i, s in enumerate(samples):
        window.push(i * 0.25, s)
    for value in window.l2_values:
        assert lo - 1e-9 <= value <= hi + 1e-9
