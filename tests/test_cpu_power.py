"""CPU power model: scaling laws, leakage, bounds."""

import dataclasses

import pytest

from repro.cpu.power import CpuPowerModel, PowerParams
from repro.cpu.pstate import ATHLON64_4000
from repro.errors import ConfigurationError

TOP = ATHLON64_4000[0]
BOTTOM = ATHLON64_4000[-1]


def dynamic(model: CpuPowerModel, pstate, utilization: float) -> float:
    """The switching term of :meth:`CpuPowerModel.power`."""
    return model.pstate_terms(pstate, utilization)[0]


def leakage(model: CpuPowerModel, pstate, die_temperature: float) -> float:
    """The leakage term: the power of an idle core with no floor."""
    unfloored = dataclasses.replace(model.params, idle_floor=0.0)
    return CpuPowerModel(unfloored).power(pstate, 0.0, die_temperature)


class TestDynamicPower:
    def test_scales_linearly_with_utilization(self):
        model = CpuPowerModel()
        full = dynamic(model, TOP, 1.0)
        half = dynamic(model, TOP, 0.5)
        assert half == pytest.approx(full / 2)

    def test_zero_utilization_zero_dynamic(self):
        assert dynamic(CpuPowerModel(), TOP, 0.0) == 0.0

    def test_cvf2_formula(self):
        params = PowerParams()
        model = CpuPowerModel(params)
        expected = params.c_eff * TOP.voltage**2 * TOP.frequency
        assert dynamic(model, TOP, 1.0) == pytest.approx(expected)

    def test_cubic_ish_scaling_down_ladder(self):
        """The paper's premise: frequency scaling reduces power roughly
        cubically because voltage falls with frequency."""
        model = CpuPowerModel()
        top = dynamic(model, TOP, 1.0)
        bottom = dynamic(model, BOTTOM, 1.0)
        freq_ratio = BOTTOM.frequency / TOP.frequency  # 1/2.4
        # pure linear would give top*freq_ratio; V^2 drags it well below
        assert bottom < top * freq_ratio * 0.6

    def test_utilization_out_of_range(self):
        with pytest.raises(ConfigurationError):
            dynamic(CpuPowerModel(), TOP, 1.1)

    def test_magnitude_near_athlon_envelope(self):
        """Full-load draw sits inside the Athlon64 4000+ envelope
        (TDP 89 W) and well above idle."""
        model = CpuPowerModel()
        p = model.power(TOP, 1.0, 55.0)
        assert 45.0 < p < 89.0


class TestLeakage:
    def test_reference_point(self):
        params = PowerParams()
        model = CpuPowerModel(params)
        leak = leakage(model, TOP, params.t_ref)
        assert leak == pytest.approx(params.leak_ref * TOP.voltage / params.v_ref)

    def test_grows_with_temperature(self):
        model = CpuPowerModel()
        assert leakage(model, TOP, 80.0) > leakage(model, TOP, 40.0)

    def test_roughly_doubles_per_23K(self):
        model = CpuPowerModel(PowerParams(leak_temp_scale=0.03))
        ratio = leakage(model, TOP, 73.0) / leakage(model, TOP, 50.0)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_scales_with_voltage(self):
        model = CpuPowerModel()
        assert leakage(model, BOTTOM, 50.0) < leakage(model, TOP, 50.0)


class TestTotalPower:
    def test_sum_of_parts(self):
        model = CpuPowerModel()
        total = model.power(TOP, 0.7, 55.0)
        assert total == pytest.approx(
            dynamic(model, TOP, 0.7) + leakage(model, TOP, 55.0)
        )

    def test_idle_floor(self):
        params = PowerParams(leak_ref=0.0, idle_floor=3.0)
        model = CpuPowerModel(params)
        assert model.power(BOTTOM, 0.0, 20.0) == 3.0

    def test_monotone_in_pstate(self):
        model = CpuPowerModel()
        powers = [model.power(p, 0.9, 55.0) for p in ATHLON64_4000]
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            PowerParams(c_eff=-1.0)
        with pytest.raises(ConfigurationError):
            PowerParams(v_ref=0.0)
