"""The constant ambient model."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal.ambient import ConstantAmbient


class TestConstantAmbient:
    def test_value(self):
        assert ConstantAmbient(26.0).temperature(1000.0) == 26.0

    def test_implausible_value_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantAmbient(200.0)

    def test_time_invariant(self):
        amb = ConstantAmbient(28.0)
        assert amb.temperature(0.0) == amb.temperature(9999.0)
