"""Lockstep grouping equivalence: grouped runs == serial engine, bitwise.

Three layers of the batch stack, each pinned against its serial
counterpart:

* :class:`repro.fastpath.batch.BatchedRC` against per-network
  :meth:`RCNetwork.step <repro.thermal.rc.RCNetwork.step>` — randomized networks,
  mid-run mutations, heterogeneous ``n_sub`` sub-batching, and the
  release-then-continue-serially contract;
* :func:`repro.runtime.execute.execute_specs_batch` and the grouping
  :class:`~repro.runtime.RunExecutor` against the serial engine — full
  sweep results (tables, curves, traces, cache entries, telemetry
  bytes), at ``jobs=1`` and dealt over a ``jobs=2`` pool;
* the run-loop edge cases the lockstep loop shares semantics with
  (budget landing exactly on a task boundary, zero-task engines, far
  task phases), pinned against the tick-by-tick reference loop.

The serial engine is itself pinned byte-identical to the reference
oracle by ``tests/test_fastpath_equivalence.py``, so equality against
the serial engine here is transitively equality against the reference.
"""

from __future__ import annotations

import hashlib
import os
import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import REGISTRY
from repro.experiments.series import SERIES_REGISTRY
from repro.cluster.node import Node
from repro.fastpath.batch import (
    BatchedRC,
    PackageBatch,
    Unbatchable,
    batch_signature,
    run_jobs_batch,
)
from repro.runtime import RunExecutor, RunSpec
from repro.runtime.spec import FaultSpec
from repro.runtime.execute import _build_run, execute_spec, execute_specs_batch
from repro.sim.engine import Component, SimulationEngine
from repro.thermal.rc import RCNetwork, ThermalLink, ThermalNode
from tests.reference_engine import (
    UngroupedExecutor,
    reference_rc_step,
    reference_run,
)

SEED = 7


# ------------------------------------------------------------- BatchedRC


def build_network(seed: int, c_scale: float = 1.0) -> RCNetwork:
    """A fixed-structure, random-parameter chain with one boundary node.

    All instances share the structure (so they batch) while every
    capacitance, temperature, resistance and power differs per seed —
    the sweep shape the batch stepper exists for.
    """
    rng = random.Random(seed)
    net = RCNetwork()
    names = []
    for i in range(4):
        net.add_node(
            ThermalNode(
                f"m{i}",
                rng.uniform(5.0, 50.0) * c_scale,
                rng.uniform(20.0, 80.0),
            )
        )
        names.append(f"m{i}")
    net.add_node(ThermalNode("amb", None, rng.uniform(15.0, 45.0)))
    for i in range(1, 4):
        net.add_link(
            ThermalLink(
                f"chain{i}", names[i - 1], names[i], rng.uniform(0.05, 0.5)
            )
        )
    net.add_link(ThermalLink("sinklink", "m3", "amb", rng.uniform(0.05, 0.5)))
    for name in names:
        net.set_power(name, rng.uniform(0.0, 30.0))
    return net


def assert_networks_equal(serial_nets, batch_nets) -> None:
    for k, (snet, bnet) in enumerate(zip(serial_nets, batch_nets)):
        for name in snet.node_names:
            a = snet.temperature(name)
            b = bnet.temperature(name)
            assert a == b and np.float64(a).tobytes() == np.float64(
                b
            ).tobytes(), f"member {k}, node {name}: {a!r} != {b!r}"


@pytest.mark.parametrize("case_seed", range(6))
def test_batched_rc_matches_serial_bitwise(case_seed: int) -> None:
    """N stacked networks step bitwise like N networks stepped alone."""
    members = 5
    serial_nets = [build_network(100 * case_seed + k) for k in range(members)]
    batch_nets = [build_network(100 * case_seed + k) for k in range(members)]
    batch = BatchedRC(batch_nets)

    rng = random.Random(1000 + case_seed)
    dt = rng.choice([0.01, 0.05, 0.2])
    for tick in range(200):
        if rng.random() < 0.1:
            # Mutate one member's link mid-run through the public
            # setter — only that member's coefficients may refresh.
            k = rng.randrange(members)
            name = rng.choice(list(serial_nets[k]._links))
            r = rng.uniform(0.05, 0.5)
            serial_nets[k].link(name).resistance = r
            batch_nets[k].link(name).resistance = r
        for net in serial_nets:
            net.step(dt)
        batch.step(dt)
        assert_networks_equal(serial_nets, batch_nets)


def test_batched_rc_groups_heterogeneous_n_sub() -> None:
    """Members with different stability limits sub-batch, not diverge."""
    scales = [1.0, 1e-3, 1.0, 1e-4, 1e-3]
    serial_nets = [build_network(7 + i, s) for i, s in enumerate(scales)]
    batch_nets = [build_network(7 + i, s) for i, s in enumerate(scales)]
    batch = BatchedRC(batch_nets)
    for _ in range(100):
        for net in serial_nets:
            net.step(0.05)
        batch.step(0.05)
        assert_networks_equal(serial_nets, batch_nets)
    # The point of the test: the members really did disagree on n_sub.
    assert len({net._n_sub for net in serial_nets}) > 1


def test_batched_rc_release_continues_serially() -> None:
    """After release(), members step on their own — still bitwise."""
    serial_nets = [build_network(50 + k) for k in range(4)]
    batch_nets = [build_network(50 + k) for k in range(4)]
    batch = BatchedRC(batch_nets)
    for _ in range(60):
        for net in serial_nets:
            net.step(0.05)
        batch.step(0.05)
    batch.release()
    for _ in range(60):
        for serial_net, batch_net in zip(serial_nets, batch_nets):
            serial_net.step(0.05)
            batch_net.step(0.05)
        assert_networks_equal(serial_nets, batch_nets)


def test_batched_rc_rejects_a_member_restructured_mid_batch() -> None:
    nets = [build_network(60 + k) for k in range(3)]
    batch = BatchedRC(nets)
    batch.step(0.05)
    nets[1].add_node(ThermalNode("late", 10.0, 30.0))
    with pytest.raises(SimulationError, match="changed structure"):
        batch.step(0.05)


def test_batched_rc_rejects_structural_mismatch() -> None:
    matching = build_network(1)
    different = RCNetwork()
    different.add_node(ThermalNode("a", 10.0, 30.0))
    different.add_node(ThermalNode("amb", None, 25.0))
    different.add_link(ThermalLink("l", "a", "amb", 0.5))
    assert batch_signature(matching) != batch_signature(different)
    with pytest.raises(SimulationError, match="identical network structure"):
        BatchedRC([matching, different])


# ------------------------------------------------- run-loop edge cases


class Accumulator(Component):
    """Counts steps at each tick time."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.calls = []

    def step(self, t: float, dt: float) -> None:
        self.calls.append(t)


def engines_pair():
    """``(engine, run)`` pairs: the reference loop, then the engine's own."""
    return (
        (SimulationEngine(dt=0.05), reference_run),
        (SimulationEngine(dt=0.05), SimulationEngine.run),
    )


def test_fused_budget_expires_exactly_on_task_boundary() -> None:
    """max_ticks landing on a firing tick: the task fires, then the
    budget error raises — identically on both loops."""
    results = []
    for engine, run in engines_pair():
        comp = engine.add_component(Accumulator("a"))
        fires = []
        engine.every(0.5, fires.append)  # fires every 10 ticks
        with pytest.raises(SimulationError, match="max_ticks=10 exhausted"):
            run(engine, duration=100.0, max_ticks=10)
        results.append(
            (comp.calls, fires, engine.clock.ticks, engine._tasks[0].fire_count)
        )
    assert results[0] == results[1]
    assert results[0][3] == 1  # the boundary tick's firing happened


def test_fused_zero_task_engine_runs_to_deadline() -> None:
    """No tasks: the fused loop's no-boundary sentinel still honors the
    deadline and leaves the clock identical to the reference."""
    results = []
    for engine, run in engines_pair():
        comp = engine.add_component(Accumulator("a"))
        run(engine, duration=2.0)
        results.append((comp.calls, engine.clock.ticks))
    assert results[0] == results[1]
    assert results[0][1] == 40


def test_fused_zero_task_engine_until_only() -> None:
    """No tasks, until-only: both loops stop on the same tick."""
    results = []
    for engine, run in engines_pair():
        comp = engine.add_component(Accumulator("a"))
        run(engine, until=lambda: len(comp.calls) >= 23, max_ticks=1000)
        results.append((comp.calls, engine.clock.ticks))
    assert results[0] == results[1]
    assert results[0][1] == 23


def test_fused_task_phase_beyond_first_batch_boundary() -> None:
    """A phase larger than another task's period: firings interleave
    across batch boundaries identically on both loops."""
    results = []
    for engine, run in engines_pair():
        comp = engine.add_component(Accumulator("a"))
        early, late = [], []
        engine.every(0.25, early.append)  # every 5 ticks
        engine.every(1.0, late.append, phase=2.35)  # first fires at tick 47
        run(engine, duration=5.0)
        results.append(
            (
                comp.calls,
                early,
                late,
                [task.fire_count for task in engine._tasks],
            )
        )
    assert results[0] == results[1]
    assert results[0][2][0] == pytest.approx(2.35)


# ------------------------------------------------- executor grouping


def fig07_specs():
    module, _ = REGISTRY["fig7"]
    return module.specs(seed=SEED, quick=True)


def assert_results_identical(a, b) -> None:
    assert a.execution_time == b.execution_time
    assert a.job_name == b.job_name
    assert a.average_power == b.average_power
    assert a.energy_joules == b.energy_joules
    assert a.node_shutdown == b.node_shutdown
    assert a.retired_cycles == b.retired_cycles
    assert len(a.events) == len(b.events)
    for x, y in zip(a.events, b.events):
        assert str(x) == str(y)
    a_traces, b_traces = a.traces._traces, b.traces._traces
    assert set(a_traces) == set(b_traces)
    for key in a_traces:
        ta, tb = a_traces[key], b_traces[key]
        assert np.asarray(ta.times).tobytes() == np.asarray(tb.times).tobytes()
        assert (
            np.asarray(ta.values).tobytes() == np.asarray(tb.values).tobytes()
        )


def test_execute_specs_batch_bitwise_identical_fig07() -> None:
    """The exemplar sweep: every run out of the lockstep batch equals
    its own serial execution down to trace bytes."""
    specs = fig07_specs()
    serial = [execute_spec(spec) for spec in specs]
    batched = execute_specs_batch(specs)
    for a, b in zip(serial, batched):
        assert_results_identical(a, b)


def test_run_jobs_batch_completes_in_lockstep() -> None:
    """The lockstep stepper itself, with no serial fallback to hide
    behind: it finishes the fig07 group and matches serial runs."""
    specs = fig07_specs()
    pairs = [_build_run(spec) for spec in specs]
    batched = run_jobs_batch(
        clusters=[cluster for cluster, _ in pairs],
        jobs=[job for _, job in pairs],
        timeouts=[spec.timeout for spec in specs],
        tails=[spec.tail for spec in specs],
    )
    for spec, result in zip(specs, batched):
        assert_results_identical(execute_spec(spec), result)


def test_package_batch_traps_public_writes_and_releases() -> None:
    """A resistance written through the public setter mid-batch stops
    the lockstep lane; after release the network honours it serially."""
    nodes = [Node(f"n{k}") for k in range(2)]
    for node in nodes:
        node.package._net.step(0.05)  # coefficients cached, none dirty
    pack = PackageBatch(nodes)
    pack.step(0.05)
    nodes[1].package._conv_link.resistance = 0.4
    with pytest.raises(Unbatchable, match="public setter"):
        pack.step(0.05)
    pack.release()
    reference = RCNetwork()
    net = nodes[1].package._net
    for name in net.node_names:
        node = net.node(name)
        reference.add_node(ThermalNode(name, node.capacitance, node.temperature))
    for link in net._links.values():
        reference.add_link(ThermalLink(link.name, link.a, link.b, link.resistance))
    net.step(0.05)
    reference_rc_step(reference, 0.05)
    assert_networks_equal([reference], [net])


def test_execute_specs_batch_single_spec_falls_back() -> None:
    spec = fig07_specs()[0]
    (result,) = execute_specs_batch([spec])
    assert_results_identical(execute_spec(spec), result)


def test_batch_executor_counts_groups_and_populates_cache(tmp_path) -> None:
    specs = fig07_specs()
    executor = RunExecutor(cache_dir=tmp_path)
    executor.map(specs)
    assert executor.stats.executed == len(specs)
    assert executor.stats.cache_misses == len(specs)
    assert executor.registry.counter("host.exec.batch_groups").value == 1.0
    assert executor.registry.counter("host.exec.batched_specs").value == float(
        len(specs)
    )
    # Each spec got its own cache entry, readable spec by spec — and
    # bitwise equal to a fresh serial run.
    serial = UngroupedExecutor(cache_dir=tmp_path)
    cached = serial.map(specs)
    assert serial.stats.cache_hits == len(specs)
    for a, b in zip(UngroupedExecutor().map(specs), cached):
        assert_results_identical(a, b)


def test_batch_executor_mixed_group_sizes(tmp_path) -> None:
    """Batchable group + a singleton + a fault spec in one map call."""
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
    serial = UngroupedExecutor().map(mixed)
    for a, b in zip(serial, grouped):
        assert_results_identical(a, b)
    # Only the four fig07 specs formed a group; the rest ran solo.
    assert (
        grouped_exec.registry.counter("host.exec.batched_specs").value == 4.0
    )
    assert grouped_exec.stats.executed == len(mixed)


def test_parallel_map_deals_groups_over_the_pool(monkeypatch) -> None:
    """At jobs=2 a fig07 group splits into two lockstep chunks, one per
    worker, and the bytes equal the jobs=1 run's."""
    from repro.serve.payloads import summary_bytes

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


# ------------------------------------- full sweep gates through grouping


@pytest.fixture(scope="module")
def executors():
    return UngroupedExecutor(jobs=1), RunExecutor(jobs=1)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_quick_tables_match_through_batch(name: str, executors) -> None:
    """Every experiment renders the identical quick-mode table whether
    its specs ran one by one or through lockstep groups."""
    serial, grouped = executors
    module, _ = REGISTRY[name]
    serial_table = module.render(
        module.run(seed=SEED, quick=True, executor=serial)
    )
    grouped_table = module.render(
        module.run(seed=SEED, quick=True, executor=grouped)
    )
    assert grouped_table == serial_table


def _curve_hashes(curves) -> dict:
    hashes = {}
    for label, (times, values) in curves.items():
        digest = hashlib.sha256()
        digest.update(np.asarray(times, dtype=np.float64).tobytes())
        digest.update(np.asarray(values, dtype=np.float64).tobytes())
        hashes[label] = digest.hexdigest()
    return hashes


@pytest.mark.parametrize("figure", sorted(SERIES_REGISTRY))
def test_series_curve_hashes_match_through_batch(figure, executors) -> None:
    """Every figure's raw curves hash identically through grouping."""
    serial, grouped = executors
    make = SERIES_REGISTRY[figure]
    serial_hashes = _curve_hashes(make(seed=SEED, quick=True, executor=serial))
    grouped_hashes = _curve_hashes(
        make(seed=SEED, quick=True, executor=grouped)
    )
    assert grouped_hashes == serial_hashes


def test_telemetry_jsonl_byte_identical_through_batch() -> None:
    """Per-run telemetry exported from a grouped sweep is byte-equal to
    the serial export (grouping is not part of the spec)."""
    from repro.telemetry import export_jsonl

    specs = fig07_specs()
    serial = UngroupedExecutor(telemetry=True)
    grouped = RunExecutor(telemetry=True)
    serial.map(specs)
    grouped.map(specs)
    assert grouped.registry.counter("host.exec.batch_groups").value == 1.0
    assert export_jsonl(grouped.collected) == export_jsonl(serial.collected)


def test_unbatchable_is_internal() -> None:
    """Unbatchable is plain control flow, never a user-facing error."""
    assert not issubclass(Unbatchable, SimulationError)
