"""Trace recording and summary statistics."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.trace import Trace, TraceSet


class TestTraceBasics:
    def test_empty(self):
        trace = Trace("t")
        assert len(trace) == 0
        assert np.isnan(trace.mean())
        assert np.isnan(trace.min())

    def test_append_and_read(self):
        trace = Trace("t")
        trace.append(0.0, 1.0)
        trace.append(1.0, 3.0)
        assert len(trace) == 2
        assert trace.values.tolist() == [1.0, 3.0]
        assert trace.times.tolist() == [0.0, 1.0]

    def test_name_required(self):
        with pytest.raises(ConfigurationError):
            Trace("")

    def test_growth_beyond_initial_capacity(self):
        trace = Trace("t")
        for i in range(10_000):
            trace.append(float(i), float(i) * 2)
        assert len(trace) == 10_000
        assert trace.values[-1] == pytest.approx(19_998.0)
        assert trace.times[5_000] == pytest.approx(5_000.0)

    def test_time_must_not_go_backwards(self):
        trace = Trace("t")
        trace.append(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            trace.append(0.5, 0.0)

    def test_equal_times_allowed(self):
        trace = Trace("t")
        trace.append(1.0, 0.0)
        trace.append(1.0, 1.0)  # same timestamp is fine
        assert len(trace) == 2

    def test_views_are_read_only(self):
        trace = Trace("t")
        trace.append(0.0, 1.0)
        with pytest.raises(ValueError):
            trace.values[0] = 5.0


class TestTraceStats:
    def _ramp(self) -> Trace:
        trace = Trace("ramp")
        for i in range(11):
            trace.append(i * 1.0, float(i))
        return trace

    def test_mean(self):
        assert self._ramp().mean() == pytest.approx(5.0)

    def test_min_max_last(self):
        trace = self._ramp()
        assert trace.min() == 0.0
        assert trace.max() == 10.0
        assert trace.values[-1] == 10.0

    def test_integrate_ramp(self):
        # Integral of t over [0, 10] = 50.
        assert self._ramp().integrate() == pytest.approx(50.0)

    def test_integrate_short_trace_is_zero(self):
        trace = Trace("t")
        trace.append(0.0, 5.0)
        assert trace.integrate() == 0.0


class TestTraceWindowing:
    def test_window_selects_range(self):
        trace = Trace("t")
        for i in range(10):
            trace.append(float(i), float(i))
        sub = trace.window(3.0, 6.0)
        assert sub.times.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_window_reversed_bounds(self):
        trace = Trace("t")
        with pytest.raises(ConfigurationError):
            trace.window(5.0, 3.0)

    def test_iteration(self):
        trace = Trace("t")
        trace.append(0.0, 1.0)
        trace.append(1.0, 2.0)
        assert list(trace) == [(0.0, 1.0), (1.0, 2.0)]


class TestTraceExtend:
    def test_extend_equals_appends(self):
        a, b = Trace("t"), Trace("t")
        times = [0.0, 0.5, 0.5, 1.5]
        values = [1.0, 2.0, 3.0, 4.0]
        for t, v in zip(times, values):
            a.append(t, v)
        b.extend(times, values)
        assert a.times.tolist() == b.times.tolist()
        assert a.values.tolist() == b.values.tolist()

    def test_extend_grows_beyond_capacity(self):
        trace = Trace("t")
        block_t = np.arange(10_000, dtype=np.float64)
        block_v = block_t * 2.0
        trace.extend(block_t, block_v)
        assert len(trace) == 10_000
        assert trace.times[-1] == 9_999.0
        assert trace.values[-1] == 19_998.0

    def test_extend_accepts_lists(self):
        trace = Trace("t")
        trace.extend([0.0, 1.0], [5.0, 6.0])
        assert trace.values.tolist() == [5.0, 6.0]

    def test_empty_block_is_noop(self):
        trace = Trace("t")
        trace.append(2.0, 0.0)
        trace.extend([], [])
        assert len(trace) == 1
        trace.append(2.0, 1.0)  # last timestamp unchanged by the no-op

    def test_block_must_not_go_back_before_last_sample(self):
        trace = Trace("t")
        trace.append(1.0, 0.0)
        with pytest.raises(ConfigurationError, match="backwards"):
            trace.extend([0.5, 2.0], [0.0, 0.0])

    def test_block_must_be_internally_monotone(self):
        trace = Trace("t")
        with pytest.raises(ConfigurationError, match="backwards"):
            trace.extend([0.0, 2.0, 1.0], [0.0, 0.0, 0.0])
        assert len(trace) == 0  # failed extend appends nothing

    def test_block_shape_mismatch(self):
        trace = Trace("t")
        with pytest.raises(ConfigurationError, match="equal length"):
            trace.extend([0.0, 1.0], [0.0])
        with pytest.raises(ConfigurationError, match="1-d"):
            trace.extend([[0.0]], [[0.0]])

    def test_interleaved_append_and_extend(self):
        trace = Trace("t")
        trace.append(0.0, 0.0)
        trace.extend([1.0, 2.0], [1.0, 2.0])
        trace.append(2.0, 3.0)
        with pytest.raises(ConfigurationError):
            trace.append(1.5, 9.0)
        assert trace.times.tolist() == [0.0, 1.0, 2.0, 2.0]

    def test_pickle_round_trip_preserves_monotonicity_state(self):
        trace = Trace("t")
        trace.extend([0.0, 1.0, 4.0], [1.0, 2.0, 3.0])
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.name == "t"
        assert clone.times.tolist() == [0.0, 1.0, 4.0]
        assert clone.values.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ConfigurationError):
            clone.append(3.0, 0.0)  # last timestamp (4.0) survived pickling
        clone.extend([4.0, 5.0], [4.0, 5.0])
        assert len(clone) == 5

    def test_pickle_round_trip_empty(self):
        clone = pickle.loads(pickle.dumps(Trace("t")))
        clone.append(-10.0, 0.0)  # fresh trace accepts any first time
        assert len(clone) == 1


class TestTraceSet:
    def test_trace_handle_get_or_create(self):
        ts = TraceSet()
        handle = ts.trace("a")
        handle.append(0.0, 1.0)
        assert ts.trace("a") is handle
        assert ts["a"] is handle


    def test_auto_create_on_record(self):
        ts = TraceSet()
        ts.record("a", 0.0, 1.0)
        assert "a" in ts
        assert len(ts["a"]) == 1

    def test_missing_name_raises_with_inventory(self):
        ts = TraceSet()
        ts.record("present", 0.0, 1.0)
        with pytest.raises(KeyError, match="present"):
            ts["absent"]

    def test_names_sorted(self):
        ts = TraceSet()
        ts.record("b", 0.0, 1.0)
        ts.record("a", 0.0, 1.0)
        assert ts.names() == ["a", "b"]

    def test_len_and_iter(self):
        ts = TraceSet()
        ts.record("x", 0.0, 0.0)
        ts.record("y", 0.0, 0.0)
        assert len(ts) == 2
        assert sorted(ts) == ["x", "y"]
