"""Analysis utilities: stabilization time and tables."""

import pytest

from repro.analysis.metrics import stabilization_time
from repro.analysis.tables import Table
from repro.errors import ConfigurationError
from repro.sim.trace import Trace


class TestStabilizationTime:
    def _trace(self, values):
        trace = Trace("t")
        for i, v in enumerate(values):
            trace.append(i * 1.0, v)
        return trace

    def test_flat_stabilizes_immediately(self):
        trace = self._trace([50.0] * 100)
        assert stabilization_time(trace) == 0.0

    def test_step_then_flat(self):
        trace = self._trace([30.0] * 50 + [50.0] * 100)
        t = stabilization_time(trace, band=1.5)
        assert t == pytest.approx(50.0, abs=2.0)

    def test_never_settles_returns_end(self):
        trace = self._trace([float(i) for i in range(100)])
        assert stabilization_time(trace, band=0.5) >= 98.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            stabilization_time(Trace("t"))


class TestTable:
    def test_render_contains_headers_and_rows(self):
        table = Table(["name", "value"], formats=[None, ".1f"], title="T")
        table.add_row("a", 1.234)
        text = table.render()
        assert "T" in text
        assert "name" in text
        assert "1.2" in text

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row("only-one")

    def test_formats_arity_checked(self):
        with pytest.raises(ConfigurationError):
            Table(["a", "b"], formats=[".1f"])

    def test_needs_columns(self):
        with pytest.raises(ConfigurationError):
            Table([])

    def test_column_alignment(self):
        table = Table(["x"], formats=["d"])
        table.add_row(5)
        table.add_row(12345)
        lines = table.render().splitlines()
        assert len(set(len(line) for line in lines)) == 1

    def test_n_rows(self):
        table = Table(["x"])
        table.add_row(1)
        assert table.n_rows == 1

    def test_non_numeric_cells_with_format(self):
        table = Table(["x"], formats=[".1f"])
        table.add_row("n/a")  # strings pass through
        assert "n/a" in table.render()
