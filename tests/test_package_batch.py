"""Lockstep grouping: the package stack and the executor's groups.

Two layers of the batch stack:

* :class:`repro.fastpath.batch.PackageBatch` against the reference
  RC step, on the die/sink package and an N-core floorplan — power
  writes into any free node and public-setter writes to the convective
  link honoured on the next tick; a write to any other link, mixed
  structures and a lone package stepped network by network, with the
  release contract; held inputs declined with the pre-tick
  temperatures after a trap or a non-finite step;
* :func:`repro.runtime.execute.execute_specs_batch` and the grouping
  :class:`~repro.runtime.RunExecutor` — groups against one-spec-at-a-time
  runs, at ``jobs=1`` and dealt over a ``jobs=2`` pool, for sweeps and
  for one group whose lanes differ in everything but the platform; the
  lockstep counters; the fault protocol kept out of lockstep; and a
  stack that declines a tick mid-run (a frozen link written, a refusal
  after ``k`` steps) stepping on network by network to the reference
  oracle's results.

Every quick experiment spec, grouped as in production, is held to the
reference oracle by ``tests/test_reference_oracle.py``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import REGISTRY
from repro.fastpath.batch import PackageBatch, run_jobs_batch
from repro.runtime import RunExecutor, RunSpec
from repro.runtime.spec import FaultSpec
from repro.runtime.execute import _build_run, execute_spec, execute_specs_batch
from repro.serve.payloads import summary_bytes
from repro.thermal.multicore import MulticorePackage
from repro.thermal.package import CpuPackage
from repro.thermal.rc import RCNetwork, ThermalLink, ThermalNode
from tests.reference_engine import (
    reference_job_result,
    reference_rc_step,
    reference_result,
)
from tests.test_runtime_executor import stats

SEED = 7


# ---------------------------------------------------------- PackageBatch


def assert_networks_equal(expected_nets, actual_nets) -> None:
    for k, (enet, anet) in enumerate(zip(expected_nets, actual_nets)):
        for name in enet._order:
            a = enet.temperature(name)
            b = anet.temperature(name)
            assert a == b and np.float64(a).tobytes() == np.float64(
                b
            ).tobytes(), f"member {k}, node {name}: {a!r} != {b!r}"


def mirror_network(net: RCNetwork) -> RCNetwork:
    """A fresh network with ``net``'s nodes, links and powers."""
    twin = RCNetwork()
    for name in net._order:
        node = net.node(name)
        twin.add_node(ThermalNode(name, node.capacitance, node.temperature))
        twin.set_power(name, net.power(name))
    for link in net._links.values():
        twin.add_link(ThermalLink(link.name, link.a, link.b, link.resistance))
    return twin


def heated_packages(kind: str, n: int = 2) -> list:
    """``n`` packages of one structure, under unequal heat, each stepped
    once so its network holds cached coefficients with none dirty."""
    if kind == "cpu":
        packages = [CpuPackage(name=f"p{k}") for k in range(n)]
    else:
        packages = [MulticorePackage(n_cores=4, name=f"p{k}") for k in range(n)]
    for k, package in enumerate(packages):
        net = package._net
        free = [n for n in net._order if not net.node(n).is_boundary]
        for j, name in enumerate(free[:-1]):  # all but the sink
            net.set_power(name, 10.0 + 5.0 * k + 3.0 * j)
        net.step(0.05)
    return packages


def step_both(pack, nets, mirrors) -> None:
    pack.step(0.05)
    for twin in mirrors:
        reference_rc_step(twin, 0.05)
    assert_networks_equal(mirrors, nets)


def test_package_batch_traps_public_writes_and_releases() -> None:
    """Boundary links are live: a convective write through the public
    setter is honoured on the next tick, bit for bit.  Every other link
    is frozen: a junction, core–sink or lateral write makes the stack
    decline the next tick before any temperature is written, and the
    batch releases every link and steps each network on its own from
    that tick on."""
    for kind, frozen in (
        ("cpu", "jhs"),
        ("multicore", "core1.cs"),
        ("multicore", "core2.lat"),
    ):
        packages = heated_packages(kind)
        nets = [package._net for package in packages]
        mirrors = [mirror_network(net) for net in nets]
        pack = PackageBatch(packages)
        assert pack._stacked

        step_both(pack, nets, mirrors)
        packages[1]._conv_link.resistance = 0.4
        mirrors[1]._links["p1.conv"].resistance = 0.4
        step_both(pack, nets, mirrors)
        step_both(pack, nets, mirrors)
        assert pack._stacked

        for net in (packages[0]._net, mirrors[0]):
            net._links[f"p0.{frozen}"].resistance = 0.2
        step_both(pack, nets, mirrors)
        assert not pack._stacked
        for net in nets:
            for link in net._links.values():
                assert link._observer is net
        step_both(pack, nets, mirrors)
        pack.release()  # released already: nothing left to hand back


def test_package_batch_declines_a_non_finite_tick() -> None:
    """A tick whose stacked result is not finite is declined before any
    temperature is written: each network steps on its own, and the
    diverging one raises the reference error."""
    packages = heated_packages("cpu")
    nets = [package._net for package in packages]
    mirrors = [mirror_network(net) for net in nets]
    pack = PackageBatch(packages)
    step_both(pack, nets, mirrors)
    for net in (nets[1], mirrors[1]):
        net.set_power("p1.die", float("inf"))
    with pytest.raises(SimulationError) as stacked:
        pack.step(0.05)
    reference_rc_step(mirrors[0], 0.05)
    with pytest.raises(SimulationError) as reference:
        reference_rc_step(mirrors[1], 0.05)
    assert str(stacked.value) == str(reference.value)
    assert not pack._stacked
    assert_networks_equal(mirrors, nets)


def test_package_batch_refuses_mixed_structures() -> None:
    """A die/sink package and an N-core floorplan do not stack: the
    batch leaves every observer alone and steps each network on its
    own.  So does a lone package."""
    for packages in (
        [CpuPackage(name="a"), MulticorePackage(n_cores=4, name="b")],
        heated_packages("multicore", n=1),
    ):
        nets = [package._net for package in packages]
        mirrors = [mirror_network(net) for net in nets]
        pack = PackageBatch(packages)
        assert not pack._stacked
        for net in nets:
            for link in net._links.values():
                assert link._observer is net
        for _ in range(3):
            step_both(pack, nets, mirrors)


@pytest.mark.parametrize(
    "kind, node", [("cpu", "sink"), ("multicore", "sink"), ("multicore", "core3")]
)
def test_package_batch_honours_mid_run_power_writes(kind, node) -> None:
    """A power written into any free node mid-batch — not just the
    heated die — enters the next tick exactly as the serial step has
    it."""
    packages = heated_packages(kind)
    nets = [package._net for package in packages]
    mirrors = [mirror_network(net) for net in nets]
    pack = PackageBatch(packages)
    for tick in range(6):
        if tick in (2, 4):
            watts = 7.5 if tick == 2 else 0.0
            for net in (nets[1], mirrors[1]):
                net.set_power(f"p1.{node}", watts)
        step_both(pack, nets, mirrors)
    pack.release()


def temperatures(net: RCNetwork) -> dict:
    return {name: net.temperature(name) for name in net._order}


def held_ticks(pack, nets, mirrors, ticks) -> None:
    """Integrate ``ticks`` held ticks with the die powers written into
    the stack's column, and the mirrors stepped by the reference; the
    objects are not written while the inputs are held."""
    powers, _ = pack.columns(0)
    before = [temperatures(net) for net in nets]
    for tick in range(ticks):
        watts = [20.0 + 3.0 * tick, 35.0 - 2.0 * tick]
        powers[:] = watts
        for k, (twin, w) in enumerate(zip(mirrors, watts)):
            twin.set_power(f"p{k}.die", w)
            reference_rc_step(twin, 0.05)
        assert pack.integrate()
    assert [temperatures(net) for net in nets] == before


def unhold(pack, nets) -> None:
    """What a holder does before it declines: the held die powers go
    into the networks' power dicts."""
    powers, _ = pack.columns(0)
    for k, (net, w) in enumerate(zip(nets, powers.tolist())):
        net.set_power(f"p{k}.die", w)


def test_held_batch_declines_after_a_convective_write_between_gathers() -> None:
    """While the inputs are held, the live convective links carry a trap
    too: a write through the public setter after a gather makes the next
    integration decline, and the declined tick, written back and
    stepped network by network, equals the reference bits.  A node with
    a boundary link has no power column to hold."""
    packages = heated_packages("cpu")
    nets = [package._net for package in packages]
    mirrors = [mirror_network(net) for net in nets]
    pack = PackageBatch(packages)
    assert not pack.integrate()  # nothing is held before the first gather
    assert pack.gather(0.05)
    with pytest.raises(SimulationError, match="couples to a boundary"):
        pack.columns(1)  # the sink
    held_ticks(pack, nets, mirrors, 3)
    pack.writeback()
    assert_networks_equal(mirrors, nets)

    packages[1]._conv_link.resistance = 0.4
    mirrors[1]._links["p1.conv"].resistance = 0.4
    watts = [12.0, 44.0]
    powers, _ = pack.columns(0)
    powers[:] = watts
    assert not pack.integrate()
    unhold(pack, nets)
    pack.decline(0.05)
    for k, (twin, w) in enumerate(zip(mirrors, watts)):
        twin.set_power(f"p{k}.die", w)
        reference_rc_step(twin, 0.05)
    assert not pack._stacked
    assert_networks_equal(mirrors, nets)
    for net in nets:
        for link in net._links.values():
            assert link._observer is net
    step_both(pack, nets, mirrors)


def test_held_batch_declines_a_non_finite_tick_with_pre_tick_temperatures() -> None:
    """A held tick whose stacked result is not finite is declined with
    the stack's temperatures untouched: written back, the objects hold
    the pre-tick temperatures, and each network stepped on its own
    raises the reference error."""
    packages = heated_packages("cpu")
    nets = [package._net for package in packages]
    mirrors = [mirror_network(net) for net in nets]
    pack = PackageBatch(packages)
    assert pack.gather(0.05)
    held_ticks(pack, nets, mirrors, 4)
    powers, _ = pack.columns(0)
    powers[1] = float("inf")
    mirrors[1].set_power("p1.die", float("inf"))
    assert not pack.integrate()
    pack.writeback()
    assert_networks_equal(mirrors, nets)
    unhold(pack, nets)
    with pytest.raises(SimulationError) as stacked:
        pack.decline(0.05)
    reference_rc_step(mirrors[0], 0.05)
    with pytest.raises(SimulationError) as reference:
        reference_rc_step(mirrors[1], 0.05)
    assert str(stacked.value) == str(reference.value)
    assert not pack._stacked
    assert_networks_equal(mirrors, nets)


# ------------------------------------------------- executor grouping


def fig07_specs():
    module, _ = REGISTRY["fig7"]
    return module.specs(seed=SEED, quick=True)


def assert_results_identical(a, b) -> None:
    assert a.canonical_bytes() == b.canonical_bytes()


def test_execute_specs_batch_bitwise_identical_fig07() -> None:
    """The exemplar sweep: every run out of the lockstep batch equals
    its own serial execution down to trace bytes."""
    specs = fig07_specs()
    serial = [execute_spec(spec) for spec in specs]
    batched = execute_specs_batch(specs)
    for a, b in zip(serial, batched):
        assert_results_identical(a, b)


def test_run_jobs_batch_completes_in_lockstep(declines) -> None:
    """The lockstep stepper itself: it finishes the fig07 group without
    declining a tick and matches serial runs."""
    specs = fig07_specs()
    pairs = [_build_run(spec) for spec in specs]
    batched = run_jobs_batch(
        clusters=[cluster for cluster, _ in pairs],
        jobs=[job for _, job in pairs],
        timeouts=[spec.timeout for spec in specs],
        tails=[spec.tail for spec in specs],
    )
    assert declines == []
    for spec, result in zip(specs, batched):
        assert_results_identical(execute_spec(spec), result)


def test_execute_specs_batch_lone_spec_by_node_count(stacks) -> None:
    """A lone spec is a one-lane unit: a 4-node spec stacks its four
    packages, a 1-node spec builds a batch of one, which steps its
    network on its own; both equal ``execute_spec``."""
    for spec in (fig07_specs()[0], small_spec(n_nodes=1)):
        (result,) = execute_specs_batch([spec])
        assert_results_identical(execute_spec(spec), result)
    assert stacks == [4, 4, 1, 1]


def test_batch_executor_counts_groups_and_populates_cache(tmp_path) -> None:
    specs = fig07_specs()
    executor = RunExecutor(cache_dir=tmp_path)
    fresh = executor.map(specs)
    assert stats(executor)["executed"] == len(specs)
    assert stats(executor)["cache_misses"] == len(specs)
    assert executor.registry.counter("host.exec.batch_groups").value == 1.0
    assert executor.registry.counter("host.exec.batched_specs").value == float(
        len(specs)
    )
    # Each spec got its own cache entry, readable spec by spec, with
    # the fresh run's bytes.
    warm = RunExecutor(cache_dir=tmp_path)
    for spec, result in zip(specs, fresh):
        assert warm.run(spec).canonical_bytes() == result.canonical_bytes()
    assert stats(warm)["cache_hits"] == len(specs)


def test_batch_executor_mixed_group_sizes(tmp_path) -> None:
    """A sweep, a different 2-node spec and a fault spec in one map
    call: the first two share a platform, so they form one group."""
    specs = list(fig07_specs())
    singleton = RunSpec.of(
        "mixed_thermal_profile",
        {"duration": 20.0},
        rigs=["dynamic_fan"],
        n_nodes=2,
        seed=SEED,
        timeout=120.0,
    )
    fault = RunSpec.of(
        "mixed_thermal_profile",
        {"duration": 20.0},
        rigs=["dynamic_fan"],
        n_nodes=2,
        seed=SEED,
        timeout=120.0,
        fault=FaultSpec(kind="fan_fail", node=0, at=5.0, horizon=15.0),
    )
    mixed = [specs[0], singleton, specs[1], fault, specs[2], specs[3]]
    grouped_exec = RunExecutor()
    grouped = grouped_exec.map(mixed)
    for spec, result in zip(mixed, grouped):
        assert result.canonical_bytes() == reference_result(spec)
    # The fault spec ran solo; everything else stepped as one group.
    assert (
        grouped_exec.registry.counter("host.exec.batched_specs").value == 5.0
    )
    assert grouped_exec.registry.counter("host.exec.batch_groups").value == 1.0
    assert stats(grouped_exec)["executed"] == len(mixed)


def test_parallel_map_deals_groups_over_the_pool(monkeypatch) -> None:
    """At jobs=2 a fig07 group splits into two lockstep chunks, one per
    worker, and the bytes equal the jobs=1 run's."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs = fig07_specs()
    serial = RunExecutor(jobs=1).map(specs)
    with RunExecutor(jobs=2) as executor:
        parallel = executor.map(specs)
        snapshot = executor.registry.snapshot()
    assert [summary_bytes(s, r) for s, r in zip(specs, parallel)] == [
        summary_bytes(s, r) for s, r in zip(specs, serial)
    ]
    assert snapshot.value("host.exec.batch_groups") == 2.0
    assert snapshot.value("host.exec.batched_specs") == float(len(specs))
    assert snapshot.value("host.exec.pool_batches") == 1.0


def test_units_deal_round_robin() -> None:
    executor = RunExecutor(jobs=1)
    executor.effective_jobs = 3
    specs = fig07_specs()
    fault = RunSpec.of(
        "bt_b_4", fault=FaultSpec(kind="fan_fail", node=0, at=5.0, horizon=15.0)
    )
    units = executor._units([specs[0], fault, specs[1], specs[2], specs[3]])
    assert units == [[0, 4], [1], [2], [3]]


def small_spec(**overrides) -> RunSpec:
    """A cheap 2-node run, for tests that count what ran where."""
    kwargs = dict(rigs=["dynamic_fan"], n_nodes=2, seed=SEED, timeout=120.0)
    kwargs.update(overrides)
    return RunSpec.of("mixed_thermal_profile", {"duration": 20.0}, **kwargs)


@pytest.fixture
def stacks(monkeypatch) -> list:
    """The width of every :class:`PackageBatch` built during the test."""
    built = []
    original = PackageBatch.__init__

    def spy(self, packages):
        built.append(len(packages))
        original(self, packages)

    monkeypatch.setattr(PackageBatch, "__init__", spy)
    return built


@pytest.fixture
def declines(monkeypatch) -> list:
    """The width of the stack, each time one declines a tick."""
    declined = []
    original = PackageBatch._step_stack

    def spy(self, dt):
        taken = original(self, dt)
        if not taken:
            declined.append(len(self._nets))
        return taken

    monkeypatch.setattr(PackageBatch, "_step_stack", spy)
    return declined


def test_lockstep_counters_count_only_what_ran_in_lockstep() -> None:
    """``batched_specs`` and ``batch_groups`` count the units whose
    stack started with two or more packages: a lone multi-node spec and
    two one-node lanes do, a lone one-node spec does not."""
    two = small_spec()
    one = dataclasses.replace(two, n_nodes=1)
    executor = RunExecutor()
    executor.map([two])
    executor.map([one])
    snapshot = executor.registry.snapshot()
    assert snapshot.value("host.exec.batched_specs") == 1.0
    assert snapshot.value("host.exec.batch_groups") == 1.0
    executor.map([dataclasses.replace(one, seed=s) for s in (1, 2)])
    snapshot = executor.registry.snapshot()
    assert snapshot.value("host.exec.batched_specs") == 3.0
    assert snapshot.value("host.exec.batch_groups") == 2.0
    assert stats(executor)["executed"] == 4


def test_fault_specs_never_reach_lockstep(monkeypatch) -> None:
    """A fault spec runs its own protocol, alone or beside specs that
    run as lanes."""
    import repro.fastpath.batch as batch_module

    calls = []
    original = batch_module.run_jobs_batch

    def spy(clusters, jobs, timeouts, tails):
        calls.append(len(clusters))
        return original(clusters, jobs, timeouts, tails)

    monkeypatch.setattr(batch_module, "run_jobs_batch", spy)
    fault = small_spec(
        fault=FaultSpec(kind="fan_fail", node=0, at=5.0, horizon=15.0)
    )
    groupable = [small_spec(), small_spec(seed=SEED + 1)]
    reference = execute_spec(fault)
    (result,) = execute_specs_batch([fault])
    assert_results_identical(reference, result)
    assert sum(calls) == 0
    results = execute_specs_batch([groupable[0], fault])
    assert_results_identical(reference, results[1])
    assert sum(calls) == 1

    mapped = RunExecutor().map([groupable[0], fault, groupable[1]])
    assert 2 in calls and sum(calls) == 3
    assert_results_identical(reference, mapped[1])


# ------------------------------------------- a stack that declines mid-run


def reference_results(specs, prepare=lambda pairs: None):
    """Each spec run on the reference oracle, one at a time."""
    pairs = [_build_run(spec) for spec in specs]
    prepare(pairs)
    return [
        reference_job_result(cluster, job, spec.timeout, spec.tail)
        for spec, (cluster, job) in zip(specs, pairs)
    ]


def lane_results(specs, prepare=lambda pairs: None):
    """The specs run as the lanes of one group."""
    pairs = [_build_run(spec) for spec in specs]
    prepare(pairs)
    return run_jobs_batch(
        [cluster for cluster, _ in pairs],
        [job for _, job in pairs],
        [spec.timeout for spec in specs],
        [spec.tail for spec in specs],
    )


def write_junction_mid_run(pairs) -> None:
    """Rewrite one node's junction resistance at t = 5 s, through the
    public setter, from a task on its engine."""
    cluster = pairs[1][0]
    link = cluster.nodes[1].package._net._links["node1.pkg.jhs"]

    writes = []

    def write(t: float) -> None:
        if not writes:
            writes.append(t)
            link.resistance = link.resistance * 1.5

    cluster.engine.every(5.0, write)


def test_group_steps_on_after_a_frozen_link_write(declines) -> None:
    """A frozen link written mid-run: the stack declines that tick and
    every lane steps its networks on its own to the reference bytes."""
    specs = [small_spec(), small_spec(seed=SEED + 1), small_spec(n_nodes=1)]
    expected = reference_results(specs, write_junction_mid_run)
    grouped = lane_results(specs, write_junction_mid_run)
    assert declines == [5]
    for a, b in zip(expected, grouped):
        assert_results_identical(a, b)


def test_stopped_lane_raises_the_reference_error() -> None:
    """A lane whose engine is stopped before its job finishes raises
    the reference "did not finish" error, type and text."""
    specs = [small_spec(), small_spec(seed=SEED + 1)]

    def stop_at_5s(pairs) -> None:
        engine = pairs[0][0].engine
        engine.every(5.0, lambda t: engine.stop())

    with pytest.raises(SimulationError) as reference:
        reference_results(specs[:1], stop_at_5s)
    with pytest.raises(SimulationError) as grouped:
        lane_results(specs, stop_at_5s)
    assert "did not finish" in str(reference.value)
    assert str(grouped.value) == str(reference.value)


def test_group_steps_on_after_a_refusal_at_tick_k(monkeypatch) -> None:
    """A stack that refuses every tick after its first ``k``: the lanes
    step on network by network to the reference bytes, and the stacks
    built after a lane finishes refuse from their first tick."""
    specs = [small_spec(), small_spec(seed=SEED + 1, n_nodes=1)]
    expected = reference_results(specs)
    taken = []
    original = PackageBatch._step_stack

    def refuse_after_k(self, dt):
        if len(taken) >= 37:
            return False
        taken.append(dt)
        return original(self, dt)

    monkeypatch.setattr(PackageBatch, "_step_stack", refuse_after_k)
    grouped = lane_results(specs)
    assert len(taken) == 37
    for a, b in zip(expected, grouped):
        assert_results_identical(a, b)


# ------------------------------------------------ mixed-lane groups


def mixed_lane_specs():
    """One platform, lanes differing in everything else: workload and
    its parameters, 1/2/4 nodes, rig families, a rack-gradient ambient,
    timeouts, a tail and telemetry on and off."""
    return [
        RunSpec.of(
            "bt_b_4",
            {"iterations": 30},
            rigs=[("dynamic_fan", {"pp": 50, "max_duty": 0.5})],
            seed=SEED,
        ),
        RunSpec.of(
            "mixed_thermal_profile",
            {"duration": 20.0},
            rigs=[("constant_fan", {"duty": 0.45})],
            n_nodes=2,
            seed=SEED,
            timeout=120.0,
            tail=5.0,
            telemetry=True,
        ),
        RunSpec.of(
            "cpu_burn_session",
            {"burn_duration": 10.0, "gap_duration": 5.0, "instances": 1},
            rigs=[("dynamic_fan", {"pp": 75, "max_duty": 1.0})],
            n_nodes=1,
            seed=SEED,
            timeout=600.0,
            telemetry=True,
        ),
        RunSpec.of(
            "bt_weak",
            {"iterations": 20, "n_ranks": 2},
            rigs=[("hybrid", {"pp": 50, "max_duty": 0.5})],
            n_nodes=2,
            seed=SEED,
            ambient=("rack_gradient", {"base": 28.0, "gradient": 5.0}),
        ),
        RunSpec.of(
            "lu_a_4",
            {"iterations": 30},
            rigs=[
                ("traditional_fan", {"max_duty": 0.25}),
                ("tdvfs", {"pp": 50, "threshold": 51.0}),
            ],
            seed=SEED,
            timeout=1800.0,
            telemetry=True,
        ),
        RunSpec.of(
            "bt_b_4",
            {"iterations": 30},
            rigs=[("dynamic_fan", {"pp": 50, "max_duty": 0.25}), "cpuspeed"],
            seed=SEED,
        ),
    ]


@pytest.fixture(scope="module")
def mixed_lanes():
    specs = mixed_lane_specs()
    return specs, [execute_spec(spec) for spec in specs]


def test_mixed_lanes_step_as_one_group(mixed_lanes, stacks) -> None:
    """Every lane of a group that shares only its platform equals its
    own ``execute_spec`` run, trace bytes and telemetry JSONL included,
    and lanes finishing on different ticks re-stack the rest."""
    from repro.telemetry import export_jsonl

    specs, serial = mixed_lanes
    executor = RunExecutor()
    grouped = executor.map(specs)
    assert executor.registry.counter("host.exec.batch_groups").value == 1.0
    assert executor.registry.counter("host.exec.batched_specs").value == 6.0
    for a, b in zip(serial, grouped):
        assert_results_identical(a, b)
    assert [summary_bytes(s, r) for s, r in zip(specs, grouped)] == [
        summary_bytes(s, r) for s, r in zip(specs, serial)
    ]
    telemetry = [i for i, spec in enumerate(specs) if spec.telemetry]
    serial_jsonl = export_jsonl([(specs[i], serial[i]) for i in telemetry])
    assert len(serial_jsonl.splitlines()) > len(telemetry)
    assert export_jsonl([(specs[i], grouped[i]) for i in telemetry]) == (
        serial_jsonl
    )
    # One stack per distinct finishing tick, each narrower than the last.
    finishes = len({result.execution_time for result in serial})
    assert finishes >= 4
    assert len(stacks) == finishes
    assert stacks[0] == sum(spec.n_nodes for spec in specs)
    assert stacks == sorted(stacks, reverse=True)


def test_mixed_lanes_dealt_over_the_pool(mixed_lanes, monkeypatch) -> None:
    """The mixed group dealt round-robin over two workers gives the
    same bytes."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs, serial = mixed_lanes
    with RunExecutor(jobs=2) as executor:
        parallel = executor.map(specs)
        snapshot = executor.registry.snapshot()
    assert [summary_bytes(s, r) for s, r in zip(specs, parallel)] == [
        summary_bytes(s, r) for s, r in zip(specs, serial)
    ]
    assert snapshot.value("host.exec.batch_groups") == 2.0
    assert snapshot.value("host.exec.batched_specs") == float(len(specs))


def test_mixed_lane_timeout_raises_the_serial_error(mixed_lanes) -> None:
    """A lane that exhausts its shorter timeout mid-group raises what
    its serial run raises, type and text."""
    specs, _ = mixed_lanes
    short = dataclasses.replace(specs[0], timeout=10.0)
    with pytest.raises(SimulationError) as serial:
        execute_spec(short)
    with pytest.raises(SimulationError) as grouped:
        RunExecutor().map([specs[1], short, specs[2], specs[4]])
    assert type(grouped.value) is type(serial.value)
    assert str(grouped.value) == str(serial.value)
