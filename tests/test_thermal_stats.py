"""Thermal-stress statistics: the degree-seconds integral."""

import pytest

from repro.analysis.thermal_stats import degree_seconds_above
from repro.sim.trace import Trace


def make_trace(values, dt=1.0):
    trace = Trace("temp")
    for i, v in enumerate(values):
        trace.append(i * dt, v)
    return trace


class TestDegreeSeconds:
    def test_constant_excess(self):
        trace = make_trace([55.0] * 10)  # 5 K over for 10 s
        assert degree_seconds_above(trace, 50.0) == pytest.approx(50.0)

    def test_below_contributes_nothing(self):
        trace = make_trace([45.0] * 5 + [55.0] * 5)
        assert degree_seconds_above(trace, 50.0) == pytest.approx(25.0)

    def test_scales_with_excess(self):
        mild = degree_seconds_above(make_trace([52.0] * 10), 50.0)
        harsh = degree_seconds_above(make_trace([58.0] * 10), 50.0)
        assert harsh == pytest.approx(4 * mild)
