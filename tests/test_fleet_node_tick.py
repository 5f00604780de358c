"""The fleet shard's stacked node tick against the per-node oracle.

A :class:`~repro.fleet.ShardRunner` computes every node's die power,
energy, rack power sum and running peak in one
:class:`~repro.fleet.shard.NodeStack` pass per tick.  These tests drive
one runner on that pass and one on
:class:`~tests.reference_engine.ReferenceNodeTick` (each node ticked on
its own through ``CpuPowerModel.power`` and ``RCNetwork.set_power``),
and require bitwise-equal rack reports and final results.  The
schedules move the fan-wall duty, the inlets and the P-states; racks
hold nine nodes, so a rack sum taken pairwise (as ``np.sum`` does from
eight terms up) rounds differently from the serial one.

Also here: the stacked pass keeps the per-node guards (a NaN power and
a utilization outside [0, 1] raise the oracle's errors, text and all),
and :class:`~repro.fleet.FleetSpec` validates each workload profile's
parameters when it is built.
"""

import gc
import json
import math

import pytest

from repro.cpu.power import CpuPowerModel
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import FleetSpec, ShardRunner
from repro.fleet.model import WorkloadProfile, node_band
from tests.reference_engine import ReferenceNodeTick


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


def runner_pair(spec):
    """A shard on the stacked pass and the same shard on the oracle."""
    stacked = ShardRunner(spec, 0, spec.racks)
    oracle = ShardRunner(spec, 0, spec.racks)
    oracle._nodes = ReferenceNodeTick(
        oracle.racks, CpuPowerModel(node_band(spec)[1])
    )
    return stacked, oracle


#: ``(inlets, pps)`` per epoch: hot inlets at a full budget push the fan
#: wall up, a low budget throttles, cool inlets let the nodes recover.
SCHEDULE = (
    ((90.0, 86.0), (100.0, 100.0)),
    ((90.0, 86.0), (100.0, 100.0)),
    ((72.0, 70.0), (30.0, 60.0)),
    ((72.0, 70.0), (30.0, 60.0)),
    ((40.0, 38.0), (100.0, 100.0)),
    ((40.0, 38.0), (100.0, 100.0)),
)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"workload": "imbalance"},
        # a cooler platform: longer epochs reach its fan-wall target
        {
            "platform": "biglittle_4p4e",
            "epoch_ticks": 150,
            "control_ticks": 10,
        },
        # past the 1.875 s stability limit: the shard steps each network
        # on its own after the first tick
        {"dt": 2.0, "epoch_ticks": 20, "control_ticks": 2},
    ],
    ids=["wave", "imbalance", "biglittle", "fallback-dt2"],
)
def test_stacked_node_tick_matches_the_oracle_bitwise(overrides):
    spec = node_spec(**overrides)
    stacked, oracle = runner_pair(spec)
    duties = set()
    for inlets, pps in SCHEDULE:
        reports = stacked.run_epoch(inlets, pps, spec.epoch_ticks)
        expected = oracle.run_epoch(inlets, pps, spec.epoch_ticks)
        assert repr(reports) == repr(expected)
        duties.update(report.duty for report in reports)
    assert len(duties) > 2
    assert sum(report.throttles for report in reports) > 0
    assert stacked._batch._stacked == (spec.dt != 2.0)
    result = stacked.finish()
    assert repr(result) == repr(oracle.finish())
    # the peaks were tracked: every node cooled below its hottest tick
    assert all(node.max_die_c > node.final_die_c for node in result.nodes)


def test_epochs_that_do_not_start_on_a_control_tick_match():
    spec = node_spec(epoch_ticks=7, control_ticks=3)
    stacked, oracle = runner_pair(spec)
    for inlets, pps in SCHEDULE:
        assert repr(stacked.run_epoch(inlets, pps, 7)) == repr(
            oracle.run_epoch(inlets, pps, 7)
        )
    assert repr(stacked.finish()) == repr(oracle.finish())


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


@pytest.mark.parametrize("dt", [1.0, 2.0])
def test_nan_power_raises_the_set_power_error(dt):
    spec = node_spec(dt=dt)
    errors = []
    for runner in runner_pair(spec):
        runner.run_epoch((40.0, 40.0), (100.0, 100.0), 3)
        package = runner.racks[1].nodes[4].package
        package._net.set_temperature(package._die, math.nan)
        errors.append(_error(runner))
    assert errors[0] == errors[1]
    assert errors[0] == (ConfigurationError, "power into 'r1n4.die' is NaN")


@pytest.mark.parametrize("u", [1.5, -0.25, math.nan])
def test_utilization_outside_the_unit_interval_raises_require_in_range(
    monkeypatch, u
):
    spec = node_spec()
    stacked, oracle = runner_pair(spec)
    real = WorkloadProfile.utilization

    def skewed(self, rack, node, t):
        return u if (rack, node) == (1, 2) else real(self, rack, node, t)

    monkeypatch.setattr(WorkloadProfile, "utilization", skewed)
    errors = [_error(stacked), _error(oracle)]
    assert errors[0] == errors[1]
    assert errors[0] == (
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
