"""Policy: the P_p knob and safe band."""

import pytest

from repro.core.policy import Policy
from repro.errors import PolicyError


class TestValidation:
    def test_defaults(self):
        policy = Policy()
        assert policy.pp == 50
        assert policy.p_min == 1
        assert policy.p_max == 100
        assert policy.t_min == 38.0
        assert policy.t_max == 82.0

    def test_pp_bounds(self):
        Policy(pp=1)
        Policy(pp=100)
        with pytest.raises(PolicyError):
            Policy(pp=0)
        with pytest.raises(PolicyError):
            Policy(pp=101)

    def test_pp_must_be_int(self):
        with pytest.raises(PolicyError):
            Policy(pp=50.0)  # type: ignore[arg-type]

    def test_p_bounds_ordering(self):
        with pytest.raises(PolicyError):
            Policy(pp=5, p_min=10, p_max=10)

    def test_t_bounds_ordering(self):
        with pytest.raises(PolicyError):
            Policy(t_min=82.0, t_max=38.0)


class TestDerived:
    def test_temperature_span(self):
        assert Policy().temperature_span == pytest.approx(44.0)

    def test_scale_coefficient_formula(self):
        # c = (N-1)/(t_max - t_min)
        assert Policy().scale_coefficient(100) == pytest.approx(99.0 / 44.0)

    def test_scale_coefficient_small_array_rejected(self):
        with pytest.raises(PolicyError):
            Policy().scale_coefficient(1)

    def test_immutability(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            Policy().pp = 10  # type: ignore[misc]

    def test_equality(self):
        assert Policy(pp=50) == Policy(pp=50)
        assert Policy(pp=50) != Policy(pp=25)
