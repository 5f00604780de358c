"""A fleet shard's node tick: its guards, teardown and profile checks.

A :class:`~repro.fleet.ShardRunner` computes every node's die power,
energy, rack power sum and running peak in one stacked pass per tick.
``tests/test_reference_oracle.py`` holds whole fleets on that pass to
the reference oracle, which ticks every node on its own.  Here the
pass keeps the per-node guards: a NaN power and a utilization outside
[0, 1] raise what the oracle's node tick raises, type and text.  A
finished shard frees its packages without the cycle collector, and
:class:`~repro.fleet.FleetSpec` validates each workload profile's
parameters when it is built.
"""

import gc
import json
import math

import pytest

from repro.cpu.power import CpuPowerModel
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import FleetSpec, ShardRunner
from repro.fleet.model import WorkloadProfile, build_rack, node_band
from tests.reference_engine import reference_rack_tick


def node_spec(**overrides) -> FleetSpec:
    """Two racks of nine nodes on a 1 s tick: heats up in a few epochs."""
    base = dict(
        racks=2,
        nodes_per_rack=9,
        workload="wave",
        dt=1.0,
        horizon=400.0,
        epoch_ticks=40,
        control_ticks=5,
        quick=True,
    )
    base.update(overrides)
    return FleetSpec(**base)


def test_a_finished_shard_is_freed_without_the_cycle_collector():
    """``finish`` breaks each link ↔ network cycle, so a spent shard's
    packages go with the runner, not at a later full collection."""
    spec = node_spec(horizon=10.0)
    gc.collect()
    gc.disable()
    try:
        runner = ShardRunner(spec, 0, spec.racks)
        runner.run_epoch((40.0, 40.0), (100.0, 100.0), 10)
        runner.finish()
        with pytest.raises(SimulationError, match="already finished"):
            runner.run_epoch((40.0, 40.0), (100.0, 100.0), 10)
        del runner
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# guards: the oracle's errors, type and text
# ---------------------------------------------------------------------------


def _error(runner, inlets=(40.0, 40.0), pps=(100.0, 100.0)):
    with pytest.raises(Exception) as info:
        runner.run_epoch(inlets, pps, 10)
    return type(info.value), str(info.value)


def _oracle_error(spec, index, prepare):
    """What the oracle's tick of rack ``index`` raises once ``prepare``
    ran on it."""
    rack = build_rack(spec, index)
    prepare(rack)
    model = CpuPowerModel(node_band(spec)[1])
    with pytest.raises(Exception) as info:
        reference_rack_tick(rack, model, spec.dt)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("dt", [1.0, 2.0])
def test_nan_power_raises_the_set_power_error(dt):
    spec = node_spec(dt=dt)
    runner = ShardRunner(spec, 0, spec.racks)
    runner.run_epoch((40.0, 40.0), (100.0, 100.0), 3)

    def nan_die(rack):
        package = rack.nodes[4].package
        package._net.set_temperature(package._die, math.nan)

    nan_die(runner.racks[1])
    error = _error(runner)
    assert error == _oracle_error(spec, 1, nan_die)
    assert error == (ConfigurationError, "power into 'r1n4.die' is NaN")


@pytest.mark.parametrize("u", [1.5, -0.25, math.nan])
def test_utilization_outside_the_unit_interval_raises_require_in_range(
    monkeypatch, u
):
    spec = node_spec()
    real = WorkloadProfile.utilization

    def skewed(self, rack, node, t):
        return u if (rack, node) == (1, 2) else real(self, rack, node, t)

    monkeypatch.setattr(WorkloadProfile, "utilization", skewed)
    error = _error(ShardRunner(spec, 0, spec.racks))

    def skew(rack):
        rack.nodes[2].util = u

    assert error == _oracle_error(spec, 1, skew)
    assert error == (
        ConfigurationError,
        f"utilization must be in [0.0, 1.0], got {u!r}",
    )


# ---------------------------------------------------------------------------
# FleetSpec: workload profile parameters are checked when a spec is built
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload, params, needle",
    [
        ("wave", {"period": 0.0}, "'period' must be > 0"),
        ("wave", {"period": -3.0}, "'period' must be > 0"),
        ("imbalance", {"u_hot": "abc"}, "'u_hot' must be a number"),
        ("imbalance", {"u_ht": 0.9}, "no parameter(s) ['u_ht']"),
        ("uniform", {"u_hot": 0.9}, "no parameter(s) ['u_hot']"),
        ("imbalance", {"hot_racks": 2.5}, "'hot_racks' must be an int"),
        ("imbalance", {"hot_racks": True}, "'hot_racks' must be an int"),
        ("imbalance", {"hot_racks": -1}, "'hot_racks' must be >= 0"),
        ("imbalance", {"hot_racks": 5}, "'hot_racks' must be <= racks"),
        ("wave", {"u_amp": [0.1]}, "'u_amp' must be a number"),
        ("uniform", {"u": None}, "'u' must be a number"),
    ],
)
def test_bad_workload_params_are_configuration_errors(
    workload, params, needle
):
    with pytest.raises(ConfigurationError) as info:
        FleetSpec.of(racks=4, workload=workload, params=params)
    assert needle in str(info.value)
    wire = json.loads(FleetSpec(racks=4, workload=workload).to_json())
    wire["workload_params"] = params
    with pytest.raises(ConfigurationError) as info:
        FleetSpec.from_json(json.dumps(wire))
    assert needle in str(info.value)


def test_valid_workload_params_parse_to_the_same_floats():
    spec = FleetSpec.of(
        racks=4, workload="wave", params={"period": 7, "u_mid": 0.5}
    )
    assert spec.profile() == {"period": 7.0, "u_mid": 0.5, "u_amp": 0.35}
    assert FleetSpec(racks=5).profile() == {
        "hot_racks": 3, "u_hot": 0.95, "u_cold": 0.30,
    }
    assert FleetSpec.of(
        racks=4, params={"hot_racks": 4, "u_cold": 0}
    ).profile() == {"hot_racks": 4, "u_hot": 0.95, "u_cold": 0.0}
