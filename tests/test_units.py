"""Unit helpers: conversions, clamping, validation."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.units import (
    clamp,
    duty_from_percent,
    duty_to_percent,
    ghz,
    require_in_range,
    require_non_negative,
    require_positive,
    to_ghz,
)


class TestFrequency:
    def test_ghz_roundtrip(self):
        assert to_ghz(ghz(2.4)) == pytest.approx(2.4)

    def test_ghz_value(self):
        assert ghz(1.0) == 1.0e9

    def test_to_ghz(self):
        assert to_ghz(2.2e9) == pytest.approx(2.2)


class TestDuty:
    def test_from_percent(self):
        assert duty_from_percent(75.0) == pytest.approx(0.75)

    def test_to_percent(self):
        assert duty_to_percent(0.1) == pytest.approx(10.0)

    def test_roundtrip(self):
        assert duty_to_percent(duty_from_percent(33.0)) == pytest.approx(33.0)

    def test_from_percent_rejects_over_100(self):
        with pytest.raises(ConfigurationError):
            duty_from_percent(101.0)

    def test_from_percent_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            duty_from_percent(-1.0)

    def test_to_percent_rejects_over_1(self):
        with pytest.raises(ConfigurationError):
            duty_to_percent(1.5)


class TestClamp:
    def test_clamp_inside(self):
        assert clamp(5.0, 0.0, 10.0) == 5.0

    def test_clamp_low(self):
        assert clamp(-1.0, 0.0, 10.0) == 0.0

    def test_clamp_high(self):
        assert clamp(11.0, 0.0, 10.0) == 10.0

    def test_clamp_reversed_bounds(self):
        with pytest.raises(ConfigurationError):
            clamp(5.0, 10.0, 0.0)

class TestValidators:
    def test_require_positive_accepts(self):
        assert require_positive(0.1, "x") == 0.1

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive(0.0, "x")

    def test_require_positive_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            require_positive(math.nan, "x")

    def test_require_positive_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="frobnicator"):
            require_positive(-1.0, "frobnicator")

    def test_require_non_negative_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    def test_require_non_negative_rejects(self):
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.001, "x")

    def test_require_in_range(self):
        assert require_in_range(0.5, 0.0, 1.0, "x") == 0.5

    def test_require_in_range_boundary(self):
        assert require_in_range(1.0, 0.0, 1.0, "x") == 1.0

    def test_require_in_range_rejects(self):
        with pytest.raises(ConfigurationError):
            require_in_range(1.01, 0.0, 1.0, "x")

    def test_require_in_range_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            require_in_range(math.nan, 0.0, 1.0, "x")
