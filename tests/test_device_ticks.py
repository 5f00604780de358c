"""The per-tick device methods against the device oracle.

The fan chip, motor, core, CPU power model and the aero, convection and
meter leaf models check their inputs with inline, NaN-safe guards and
cache what does not change between ticks (register handles, lag
factors, the current P-state).  ``tests/reference_engine.py`` keeps each
method as plain validator calls and ``read_register``/``poke`` register
accesses.
Here every guarded input is fed to both: a rejected input must raise the
same exception type with the same text, and an accepted one must leave
bitwise-identical state.  (Whole runs are compared by
``tests/test_reference_oracle.py``, whose oracle ticks every node
through these functions.)
"""

from __future__ import annotations

import math
from dataclasses import is_dataclass

import pytest

from repro.cluster.multicore_node import MulticoreNode
from repro.cluster.node import Node
from repro.cluster.power_meter import PowerMeter
from repro.config import NodeConfig
from repro.cpu.core import CpuCore
from repro.cpu.dvfs import Dvfs, GangedDvfs
from repro.cpu.power import CpuPowerModel
from repro.cpu.pstate import ATHLON64_4000
from repro.fan.adt7467 import ADT7467, Adt7467Config
from repro.fan.aero import FanAero
from repro.fan.motor import FanMotor
from repro.platform import resolve_platform
from repro.sim.marker import reject
from repro.thermal.convection import ConvectionModel
from repro.units import require_in_range, require_positive
from repro.workloads.base import ComputeSegment
from tests.reference_engine import (
    reference_airflow,
    reference_auto_curve_duty,
    reference_chip_update,
    reference_commanded_duty,
    reference_core_step,
    reference_fan_power,
    reference_frequency,
    reference_meter_record,
    reference_motor_set_duty,
    reference_motor_step,
    reference_node_step,
    reference_power,
    reference_pstate,
    reference_resistance,
)

NAN = float("nan")
INF = float("inf")


def _value(v):
    if isinstance(v, (bool, int, float, str, type(None))) or is_dataclass(v):
        return repr(v)  # a float's repr round-trips: bitwise, NaN-safe
    if isinstance(v, dict):
        return sorted((k, _value(x)) for k, x in v.items())
    if isinstance(v, Dvfs):
        return _state(v)
    return type(v).__name__  # a collaborator: compared on its own


#: Caches the oracle does not keep (it recomputes them every call).
CACHES = frozenset({"_alpha_dt", "_alpha_params", "_alpha_up", "_alpha_down"})


def _state(obj) -> str:
    """Every instance attribute of ``obj`` but caches, bitwise."""
    return repr(
        sorted((k, _value(v)) for k, v in vars(obj).items() if k not in CACHES)
    )


def _outcome(call):
    """``("ok", result)`` or ``("raise", type, message)``."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return ("raise", type(exc), str(exc))
    return ("ok", repr(result))


def _assert_parity(make, new, ref):
    """``new`` and ``ref`` on fresh twins: same outcome, same state."""
    a, b = make(), make()
    got, want = _outcome(lambda: new(a)), _outcome(lambda: ref(b))
    assert got == want
    assert _state(a) == _state(b)
    return got


class _Rank:
    """A rank that reports a fixed utilization."""

    def __init__(self, utilization: float) -> None:
        self.utilization = utilization

    def advance(self, dt: float, frequency: float) -> float:
        return self.utilization

    @property
    def finished(self) -> bool:
        return False


def _core(utilization: float = 0.5) -> CpuCore:
    core = CpuCore(Dvfs(ATHLON64_4000), name="c0")
    core.bind_rank(_Rank(utilization))
    return core


# ------------------------------------------------------- rejected inputs

BAD_DUTIES = (-0.1, NAN, 1.5, INF, -INF)
BAD_DTS = (0.0, -0.05, NAN, -INF)
BAD_NON_NEGATIVE = (-1.0, -1e-300, NAN, -INF)
BAD_UTILIZATIONS = (-0.1, 1.01, NAN, INF)


@pytest.mark.parametrize("duty", BAD_DUTIES)
def test_motor_set_duty_guard(duty):
    got = _assert_parity(
        FanMotor,
        lambda m: m.set_duty(duty),
        lambda m: reference_motor_set_duty(m, duty),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize("dt", BAD_DTS)
def test_motor_step_dt_guard(dt):
    got = _assert_parity(
        FanMotor,
        lambda m: m.step(0.0, dt),
        lambda m: reference_motor_step(m, 0.0, dt),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize("duty", BAD_DUTIES)
def test_motor_step_duty_guard(duty):
    def make():
        motor = FanMotor()
        motor._duty = duty  # past set_duty: the step re-checks it
        return motor

    got = _assert_parity(
        make,
        lambda m: m.step(0.0, 0.05),
        lambda m: reference_motor_step(m, 0.0, 0.05),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize("dt", (0.0, -1.0, -INF, NAN))
def test_core_step_dt_guard(dt):
    """``dt <= 0`` raises; a NaN ``dt`` passes the core's check (as it
    always has) and must leave the same state."""
    got = _assert_parity(
        _core,
        lambda c: c.step(0.0, dt),
        lambda c: reference_core_step(c, 0.0, dt),
    )
    assert got[0] == ("ok" if math.isnan(dt) else "raise")


@pytest.mark.parametrize("util", BAD_UTILIZATIONS)
def test_core_step_rank_utilization_guard(util):
    got = _assert_parity(
        lambda: _core(util),
        lambda c: c.step(0.05, 0.05),
        lambda c: reference_core_step(c, 0.05, 0.05),
    )
    assert got[0] == "raise"
    assert "on 'c0'" in got[2]


@pytest.mark.parametrize("util", BAD_UTILIZATIONS)
def test_power_utilization_guard(util):
    pstate = ATHLON64_4000[0]
    got = _assert_parity(
        CpuPowerModel,
        lambda m: m.power(pstate, util, 55.0),
        lambda m: reference_power(m, pstate, util, 55.0),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize("frequency", (0.0, -1.0, NAN))
def test_compute_segment_frequency_guard(frequency):
    got = _assert_parity(
        lambda: ComputeSegment(1e9),
        lambda s: s.advance(0.05, frequency),
        lambda s: require_positive(frequency, "frequency"),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize("rpm", BAD_NON_NEGATIVE)
@pytest.mark.parametrize(
    "method, oracle",
    [("airflow", reference_airflow), ("power", reference_fan_power)],
)
def test_aero_rpm_guard(rpm, method, oracle):
    got = _assert_parity(
        FanAero,
        lambda a: getattr(a, method)(rpm),
        lambda a: oracle(a, rpm),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize("airflow", BAD_NON_NEGATIVE)
def test_convection_airflow_guard(airflow):
    got = _assert_parity(
        ConvectionModel,
        lambda m: m.resistance(airflow),
        lambda m: reference_resistance(m, airflow),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize(
    "power, dt",
    [(p, 0.05) for p in BAD_NON_NEGATIVE] + [(30.0, dt) for dt in BAD_DTS],
)
def test_meter_record_guards(power, dt):
    got = _assert_parity(
        PowerMeter,
        lambda m: m.record(power, dt),
        lambda m: reference_meter_record(m, power, dt),
    )
    assert got[0] == "raise"


@pytest.mark.parametrize(
    # a NaN diode clamps to the register top; an infinite one cannot round
    "remote", (50.0, NAN, 500.0, -300.0, INF, -INF)
)
@pytest.mark.parametrize("auto", (True, False))
def test_chip_update_edges(remote, auto):
    config = Adt7467Config(auto=auto)
    _assert_parity(
        lambda: ADT7467(config),
        lambda c: c.update(remote),
        lambda c: reference_chip_update(c, remote),
    )


def test_reject_refuses_a_guard_its_validator_accepts():
    """A guard that disagrees with its validator fails loudly."""
    with pytest.raises(AssertionError, match="inline guard refused"):
        reject(require_in_range, 0.5, 0.0, 1.0, "duty")


# ------------------------------------------------------- accepted inputs


DUTIES = (0.0, 1e-12, 0.1, 0.37, 0.5, 0.999, 1.0)
RPMS = (0.0, 1e-9, 1.0, 517.3, 2150.0, 4300.0, 9000.0)


def test_motor_matches_oracle_over_duty_and_dt_changes():
    """Duty steps up and down, a failure, and ``dt`` changes: the
    cached lag factors give the oracle's bits every tick."""
    new, ref = FanMotor(), FanMotor()
    t = 0.0
    for i, (duty, dt) in enumerate(
        [(d, dt) for dt in (0.05, 0.25, 0.05, 2.0) for d in DUTIES + DUTIES[::-1]]
    ):
        if i == 20:
            new.fail()
            ref.fail()
        t += dt
        new.set_duty(duty)
        reference_motor_set_duty(ref, duty)
        new.step(t, dt)
        reference_motor_step(ref, t, dt)
        assert new._rpm == ref._rpm


def test_chip_matches_oracle_over_a_sweep():
    new, ref = ADT7467(), ADT7467()
    temperatures = (-200.0, -0.5, 0.5, 37.5, 38.0, 38.49, 52.5, 81.7, 82.0, 300.0)
    for remote in temperatures:
        new.update(remote)
        reference_chip_update(ref, remote)
        assert _state(new) == _state(ref)
        assert new.commanded_duty == reference_commanded_duty(ref)
        assert new.auto_curve_duty(remote) == reference_auto_curve_duty(
            ref, remote
        )
    assert sorted(new._registers) == sorted(ref._registers)
    for address, reg in new._registers.items():
        assert reg.value == ref._registers[address].value, hex(address)


@pytest.mark.parametrize("util", (0.0, 1e-9, 0.25, 0.5, 1.0))
def test_core_and_power_match_oracle_across_pstates(util):
    """Stall and every P-state change (plain and ganged DVFS):
    core state, ``pstate``, ``frequency`` and power match the oracle."""
    for make_dvfs in (
        lambda: Dvfs(ATHLON64_4000),
        lambda: GangedDvfs(ATHLON64_4000, followers=[Dvfs(ATHLON64_4000)]),
    ):
        new, ref = CpuCore(make_dvfs(), "c"), CpuCore(make_dvfs(), "c")
        new.bind_rank(_Rank(util))
        ref.bind_rank(_Rank(util))
        model = CpuPowerModel()
        for tick, index in enumerate((0, 3, 3, 1, 4, 4, 0, 2)):
            t = 0.05 * (tick + 1)
            new.dvfs.set_index(index, t)
            ref.dvfs.set_index(index, t)
            new.step(t, 0.05)
            reference_core_step(ref, t, 0.05)
            assert _state(new) == _state(ref)
            assert new.dvfs.pstate is reference_pstate(ref.dvfs)
            assert new.dvfs.frequency == reference_frequency(ref.dvfs)
            for die in (-40.0, 35.0, 61.7, 110.0):
                assert model.power(
                    new.dvfs.pstate, new.utilization, die
                ) == reference_power(model, ref.dvfs.pstate, ref.utilization, die)


def _multicore():
    """A big.LITTLE node (two core classes) and its bound power ``io``."""
    node = MulticoreNode(
        "n0", config=resolve_platform("biglittle_4p4e").node_config()
    )
    _diode, io = node._package_io()
    return node, io


def _set_core_temperatures(node, temperatures):
    package = node.package
    for key, celsius in zip(package._cores, temperatures):
        package._net.set_temperature(key, celsius)


def _per_core_powers(node):
    """One ``CpuPowerModel.power`` call per core (the oracle's pass)."""
    utilization = node.core._utilization
    temperatures = node.package.core_temperatures()
    return [
        node._class_models[k].power(
            node.domains[k].pstate, utilization, temperatures[i]
        )
        for i, k in enumerate(node._core_class)
    ]


def _written(node):
    """Core powers as ``io`` left them: package, network and sum."""
    package = node.package
    net = [package._net._powers[key] for key in package._cores]
    return repr((list(package._powers), net, node._cpu_power))


@pytest.mark.parametrize("util", (0.0, 1e-9, 0.25, 0.5, 1.0))
def test_multicore_io_matches_per_core_power(util):
    """Each class's P-state terms taken once per tick give every core the
    bits of a per-core ``power`` call, across lead-index changes through
    the gang, core temperatures from -40 to 110 °C and the idle floor."""
    node, io = _multicore()
    node.core._utilization = util
    n = node.package.n_cores
    spread = [-40.0 + 150.0 * i / (n - 1) for i in range(n)]
    floors = [node._class_models[k].params.idle_floor for k in node._core_class]
    floored = 0
    last = len(node.dvfs.table) - 1
    for tick, index in enumerate((0, last, 3, 5, 1, last - 1, 2, 4, 0)):
        node.dvfs.set_index(index, 0.05 * (tick + 1))
        for shift in range(n):
            _set_core_temperatures(node, spread[shift:] + spread[:shift])
            want = _per_core_powers(node)
            io(True)
            assert _written(node) == repr((want, want, sum(want)))
            floored += sum(p == f for p, f in zip(want, floors))
    if util == 0.0:
        assert floored > 0  # the floor branch ran


@pytest.mark.parametrize("util", (NAN, -0.1, 1.5))
def test_multicore_io_utilization_guard(util):
    """A bad utilization raises the per-core call's error before any
    core power is written."""
    node, io = _multicore()
    io(True)
    before = _written(node)
    node.core._utilization = util
    want = _outcome(lambda: _per_core_powers(node))
    assert want[0] == "raise"
    assert _outcome(lambda: io(True)) == want
    assert _written(node) == before


def test_multicore_io_nan_core_temperature_raises_through_the_setter():
    node, io = _multicore()
    node.core._utilization = 0.5
    _set_core_temperatures(node, [45.0, 50.0, NAN] + [40.0] * 5)
    power = _per_core_powers(node)[2]
    want = _outcome(lambda: node.package.set_core_power(2, power))
    assert want[0] == "raise"
    assert _outcome(lambda: io(True)) == want


def test_multicore_io_off_writes_zero_power():
    node, io = _multicore()
    node.core._utilization = 1.0
    io(True)
    assert node._cpu_power > 0.0
    io(False)
    zeros = [0.0] * node.package.n_cores
    assert _written(node) == repr((zeros, zeros, 0.0))


def test_leaf_models_match_oracle():
    aero, conv, meter, ref_meter = (
        FanAero(), ConvectionModel(), PowerMeter(), PowerMeter()
    )
    for rpm in RPMS:
        assert aero.airflow(rpm) == reference_airflow(aero, rpm)
        assert aero.power(rpm) == reference_fan_power(aero, rpm)
        airflow = aero.airflow(rpm)
        assert conv.resistance(airflow) == reference_resistance(conv, airflow)
        assert type(conv.resistance(0)) is float
        meter.record(airflow, 0.05)
        reference_meter_record(ref_meter, airflow, 0.05)
        assert _state(meter) == _state(ref_meter)


def _protection_states(step, temperatures) -> list:
    """A node ticked once by ``step(node, t, dt)`` from each die
    temperature in turn."""
    config = NodeConfig(
        prochot_temp=60.0, prochot_hysteresis=5.0, shutdown_temp=90.0
    )
    node = Node("n0", config=config)
    states = []
    for i, celsius in enumerate(temperatures):
        node.package._net.set_temperature(node.package._die, celsius)
        step(node, 0.05 * (i + 1), 0.05)
        states.append((node._prochot, node.is_shutdown, node.dvfs.index))
    return states


@pytest.mark.parametrize(
    "temperatures",
    [
        (59.999, 60.0, 55.001, 55.0, 60.0, 89.999, 90.0),  # exact thresholds
        (58.0, 61.0, 56.0, 54.0, 95.0),
    ],
)
def test_protection_transitions_at_exact_thresholds(temperatures):
    """The tick runs the PROCHOT/THERMTRIP state machine only on a
    threshold crossing; at each threshold exactly it still fires where
    the oracle (which runs it every tick) does."""
    states = _protection_states(Node.step, temperatures)
    assert states == _protection_states(reference_node_step, temperatures)
    assert any(s[0] for s in states) and states[-1][1]
