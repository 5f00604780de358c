"""End-to-end contracts of the platform dimension.

The tentpole's acceptance story in executable form: registered
platforms run the same governor/controller stack the Athlon testbed
does, the per-package sensor tracks the hottest core of an N-core
floorplan, the ganged DVFS maps heterogeneous ladders onto the paper's
single-ladder actuation model, and every performance path (the
compiled engine, lockstep grouping, process fan-out) stays bitwise
identical to the serial reference on platform-bearing specs, the
N-core floorplans stacked in lockstep groups included.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.multicore_node import MulticoreNode
from repro.cluster.node import Node
from repro.config import ClusterConfig, NodeConfig
from repro.core.control_array import DEFAULT_ARRAY_SIZE, ThermalControlArray
from repro.cpu.dvfs import Dvfs, GangedDvfs
from repro.cpu.pstate import PState, PStateTable
from repro.errors import ConfigurationError
from repro.experiments import REGISTRY
from repro.experiments.platform import (
    WORKLOAD_REGISTRY,
    attach_hybrid,
    platform_policy,
    standard_cluster,
)
from repro.fastpath.batch import run_jobs_batch
from repro.platform import PLATFORM_REGISTRY, resolve_platform
from repro.runtime import RunExecutor, RunSpec
from repro.runtime.execute import execute_spec
from tests.reference_engine import UngroupedExecutor, reference_path


def assert_results_equal(a, b) -> None:
    """Field-wise bitwise identity of two RunResults (traces, events,
    summaries) — the executor-suite comparison, restated here because
    test modules are not importable from one another."""
    assert a.job_name == b.job_name
    assert a.execution_time == b.execution_time
    assert a.average_power == b.average_power
    assert a.energy_joules == b.energy_joules
    assert a.node_shutdown == b.node_shutdown
    assert a.retired_cycles == b.retired_cycles
    assert a.traces.names() == b.traces.names()
    for name in a.traces.names():
        ta, tb = a.traces[name], b.traces[name]
        assert (ta.times == tb.times).all(), name
        assert (ta.values == tb.values).all(), name
    assert len(a.events) == len(b.events)
    for ea, eb in zip(a.events, b.events):
        assert str(ea) == str(eb)


MULTICORE_PLATFORMS = sorted(
    name for name, spec in PLATFORM_REGISTRY.items() if spec.is_multicore
)


def platform_spec_of(name: str, **overrides) -> RunSpec:
    kwargs = dict(
        params={"iterations": 40},
        rigs=[("hybrid", {"pp": 50})],
        quick=True,
        platform=name,
    )
    kwargs.update(overrides)
    return RunSpec.of("bt_b_4", **kwargs)


def ladder(points) -> PStateTable:
    return PStateTable([PState(frequency=f, voltage=v) for f, v in points])


# -- node construction ---------------------------------------------------


def test_multicore_node_requires_floorplan() -> None:
    with pytest.raises(ConfigurationError, match="floorplan"):
        MulticoreNode("node0", NodeConfig())


def test_cluster_picks_node_class_from_floorplan() -> None:
    classic = standard_cluster(n_nodes=1)
    assert type(classic.nodes[0]) is Node
    assert classic.platform is None
    multi = standard_cluster(n_nodes=1, platform="multicore_8c_45nm")
    node = multi.nodes[0]
    assert type(node) is MulticoreNode
    assert node.package.n_cores == 8
    assert multi.platform is resolve_platform("multicore_8c_45nm")


def test_heterogeneous_node_wires_one_domain_per_class() -> None:
    cluster = standard_cluster(n_nodes=1, platform="biglittle_4p4e")
    node = cluster.nodes[0]
    spec = resolve_platform("biglittle_4p4e")
    assert isinstance(node.dvfs, GangedDvfs)
    assert len(node.domains) == len(spec.core_classes)
    assert [len(d.table) for d in node.domains] == [
        len(c.pstates) for c in spec.core_classes
    ]
    assert node.dvfs.followers[0].name == "node0.dvfs.eff"


# -- satellite: sensor sees the hottest core, control loop converges -----


def test_package_sensor_reports_hottest_core() -> None:
    """A per-package diode reports max over cores; the node's noiseless
    sensor must agree with it through the whole stack."""
    cluster = standard_cluster(n_nodes=1, platform="multicore_8c_45nm")
    node = cluster.nodes[0]
    # Heat core 5 hard, everything else lightly: an on-chip hotspot.
    powers = [2.0] * node.package.n_cores
    powers[5] = 30.0
    node.package.set_powers(powers)
    node.package.set_airflow(10.0)
    for tick in range(200):
        node.package.step(tick * 0.05, 0.05)
    temps = node.package.core_temperatures()
    assert max(temps) == temps[5]
    assert node.package.hotspot_spread > 0.5
    assert node.die_temperature == max(temps)
    # config.sensor noise defaults off under rng=None -> exact readback.
    assert node.sensor.sample(10.0) == pytest.approx(max(temps), abs=0.26)


@pytest.mark.parametrize("name", MULTICORE_PLATFORMS)
def test_control_loop_converges_on_platform(name) -> None:
    """The full hybrid stack holds every registered N-core part inside
    its own safe band on the quick BT run: no THERMTRIP, no PROCHOT,
    die settles at or below the platform's t_max."""
    cluster = standard_cluster(n_nodes=4, platform=name)
    attach_hybrid(cluster, pp=50)
    job = WORKLOAD_REGISTRY["bt_b_4"](cluster, iterations=40)
    result = cluster.run_job(job)
    assert not any(result.node_shutdown)
    spec = resolve_platform(name)
    policy = platform_policy(cluster, pp=50)
    assert (policy.t_min, policy.t_max) == (spec.t_min, spec.t_max)
    for node in cluster.nodes:
        assert not node.prochot_active
        assert node.die_temperature <= spec.t_max + 1.0


# -- ganged DVFS ---------------------------------------------------------


def test_ganged_dvfs_maps_ladders_proportionally() -> None:
    lead_table = ladder(
        [(3.2e9 - 0.3e9 * i, 1.0 - 0.04 * i) for i in range(8)]
    )
    follower = Dvfs(ladder([(2.0e9, 0.85), (1.6e9, 0.80), (0.8e9, 0.65)]))
    gang = GangedDvfs(lead_table, followers=[follower])
    for i in range(8):
        gang.set_index(i)
        assert follower.index == round(i * 2 / 7)
    # Endpoints: fastest -> fastest, slowest -> slowest.
    gang.set_index(0)
    assert follower.index == 0
    gang.set_index(7)
    assert follower.index == len(follower.table) - 1


def test_ganged_dvfs_propagates_only_real_changes() -> None:
    follower = Dvfs(ladder([(2.0e9, 0.85), (0.8e9, 0.65)]))
    gang = GangedDvfs(ladder([(2.4e9, 1.5), (1.0e9, 1.1)]), followers=[follower])
    assert gang.set_index(1) is True
    count = follower.change_count
    assert gang.set_index(1) is False  # no-op must not re-actuate
    assert follower.change_count == count


def test_prochot_slams_every_class_to_its_floor() -> None:
    cluster = standard_cluster(n_nodes=1, platform="biglittle_4p4e")
    node = cluster.nodes[0]
    node.dvfs.set_index(len(node.dvfs.table) - 1, 0.0)
    for domain in node.domains:
        assert domain.index == len(domain.table) - 1


def test_follower_events_do_not_pollute_lead_source() -> None:
    """Table-1 change counts filter on source ``node<i>.dvfs``; the
    per-class follower domains must emit under their own names."""
    cluster = standard_cluster(n_nodes=1, platform="biglittle_4p4e")
    node = cluster.nodes[0]
    node.dvfs.set_index(3, 1.0)
    sources = {
        e.source for e in cluster.events if e.category == "dvfs.change"
    }
    assert sources == {"node0.dvfs", "node0.dvfs.eff"}


# -- control array over long ladders -------------------------------------


def test_control_array_accepts_any_ladder_length() -> None:
    """The array geometry is ladder-length agnostic: the biglittle
    8-point lead ladder fills the same 100-slot array the 5-point
    Athlon ladder does."""
    spec = resolve_platform("biglittle_4p4e")
    modes = tuple(range(len(spec.lead_class.pstates)))
    array = ThermalControlArray(modes, spec.policy(pp=50))
    assert len(array.modes) == 8
    assert array.size == DEFAULT_ARRAY_SIZE


# -- exactness of every performance path ---------------------------------


@pytest.mark.parametrize("name", MULTICORE_PLATFORMS)
def test_fastpath_bitwise_identical_on_platform(name) -> None:
    """The engine (N-core RC network on its cached stepper) equals the
    reference."""
    spec = platform_spec_of(name)
    with reference_path():
        reference = RunExecutor().run(spec)
    assert_results_equal(reference, RunExecutor().run(spec))


GROUPED_FIGURES = ("fig7", "table1", "fig10")


def grouped_figure_specs():
    specs = []
    for figure in GROUPED_FIGURES:
        module, _ = REGISTRY[figure]
        specs.extend(module.specs(seed=7, quick=True))
    return specs


@pytest.fixture(scope="module")
def ungrouped_figures():
    """Each platform's figure specs run one by one: the serial bytes."""
    specs = grouped_figure_specs()
    return {
        name: UngroupedExecutor(platform=name).map(specs)
        for name in ("biglittle_4p4e", "multicore_8c_45nm")
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", ["biglittle_4p4e", "multicore_8c_45nm"])
def test_multicore_specs_group_and_match_ungrouped(
    name, jobs, ungrouped_figures, monkeypatch
) -> None:
    """fig7/table1/fig10 on N-core floorplans form lockstep groups and
    come out byte for byte as they do one spec at a time."""
    from repro.serve.payloads import summary_bytes

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs = grouped_figure_specs()
    with RunExecutor(jobs=jobs, platform=name) as executor:
        grouped = executor.map(specs)
        snapshot = executor.registry.snapshot()
    assert snapshot.value("host.exec.batch_groups") > 0.0
    serial = ungrouped_figures[name]
    filled = [dataclasses.replace(spec, platform=name) for spec in specs]
    for spec, a, b in zip(filled, serial, grouped):
        assert summary_bytes(spec, b) == summary_bytes(spec, a)
        assert_results_equal(a, b)


def prochot_lanes():
    """Three multicore clusters whose PROCHOT thresholds sit inside
    their operating range, so every lane asserts and de-asserts the
    throttle, and the lanes finish at different ticks."""
    spec = resolve_platform("multicore_8c_45nm")
    lanes = []
    for prochot in (39.0, 40.0, 40.5):
        node = dataclasses.replace(
            spec.node_config(), prochot_temp=prochot, prochot_hysteresis=1.0
        )
        cluster = Cluster(
            ClusterConfig(n_nodes=4, seed=3, node=node), platform=spec
        )
        attach_hybrid(cluster, pp=50)
        lanes.append(
            (cluster, WORKLOAD_REGISTRY["bt_b_4"](cluster, iterations=60))
        )
    return lanes


def test_run_jobs_batch_steps_multicore_lanes_in_lockstep() -> None:
    """No serial fallback to hide behind: run_jobs_batch stacks the
    floorplans through PROCHOT assert/deassert and equals serial runs."""
    lanes = prochot_lanes()
    batched = run_jobs_batch(
        [cluster for cluster, _ in lanes],
        [job for _, job in lanes],
        [3600.0] * len(lanes),
        [0.0] * len(lanes),
    )
    serial = [
        cluster.run_job(job, timeout=3600.0) for cluster, job in prochot_lanes()
    ]
    for a, b in zip(serial, batched):
        assert_results_equal(a, b)
        categories = [event.category for event in b.events]
        assert "hw.prochot.assert" in categories
        assert "hw.prochot.deassert" in categories
    assert len({result.execution_time for result in batched}) == len(lanes)


def test_parallel_jobs_identical_with_platform_specs() -> None:
    specs = [
        platform_spec_of("multicore_8c_45nm"),
        platform_spec_of("multicore_8c_45nm", params={"iterations": 30}),
    ]
    serial = RunExecutor(jobs=1).map(specs)
    parallel = RunExecutor(jobs=2).map(specs)
    for a, b in zip(serial, parallel):
        assert_results_equal(a, b)


# -- executor platform semantics -----------------------------------------


def test_executor_fills_platform_only_when_unset() -> None:
    bare = platform_spec_of(None, params={"iterations": 20})
    explicit = platform_spec_of("athlon64_4000", params={"iterations": 20})
    executor = RunExecutor(platform="multicore_8c_45nm")
    filled, kept = executor.map([bare, explicit])
    assert_results_equal(
        filled,
        execute_spec(
            platform_spec_of("multicore_8c_45nm", params={"iterations": 20})
        ),
    )
    # An explicit spec platform wins over the executor-level default.
    assert_results_equal(kept, execute_spec(explicit))


def test_explicit_default_platform_matches_historical_path() -> None:
    """Routing the Athlon through the registry build path must
    reproduce the historical direct construction exactly."""
    bare = platform_spec_of(None)
    named = platform_spec_of("athlon64_4000")
    assert_results_equal(execute_spec(bare), execute_spec(named))
