"""Lockstep grouping equivalence: grouped runs == serial engine, bitwise.

Three layers of the batch stack, each pinned against its serial
counterpart:

* :class:`repro.fastpath.batch.PackageBatch` against the reference
  stepper, on the die/sink package and an N-core floorplan — power
  writes into any free node and public-setter writes to the convective
  link honoured on the next tick, writes to every other link refused,
  mixed structures refused, and the release contract;
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
The fleet's use of :class:`~repro.fastpath.batch.PackageBatch` is
pinned against the same oracle in ``tests/test_fleet.py``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import REGISTRY
from repro.experiments.series import SERIES_REGISTRY
from repro.fastpath.batch import (
    PackageBatch,
    Unbatchable,
    run_jobs_batch,
)
from repro.runtime import RunExecutor, RunSpec
from repro.runtime.spec import FaultSpec
from repro.runtime.execute import _build_run, execute_spec, execute_specs_batch
from repro.sim.engine import Component, SimulationEngine
from repro.thermal.multicore import MulticorePackage
from repro.thermal.package import CpuPackage
from repro.thermal.rc import RCNetwork, ThermalLink, ThermalNode
from tests.reference_engine import (
    UngroupedExecutor,
    reference_rc_step,
    reference_run,
)

SEED = 7


# ---------------------------------------------------------- PackageBatch


def assert_networks_equal(expected_nets, actual_nets) -> None:
    for k, (enet, anet) in enumerate(zip(expected_nets, actual_nets)):
        for name in enet.node_names:
            a = enet.temperature(name)
            b = anet.temperature(name)
            assert a == b and np.float64(a).tobytes() == np.float64(
                b
            ).tobytes(), f"member {k}, node {name}: {a!r} != {b!r}"


def mirror_network(net: RCNetwork) -> RCNetwork:
    """A fresh network with ``net``'s nodes, links and powers."""
    twin = RCNetwork()
    for name in net.node_names:
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
        free = [n for n in net.node_names if not net.node(n).is_boundary]
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
    is frozen: a junction, core–sink or lateral write stops the
    lockstep lane before any temperature is written, and release hands
    every link back."""
    for kind, frozen in (
        ("cpu", "jhs"),
        ("multicore", "core1.cs"),
        ("multicore", "core2.lat"),
    ):
        packages = heated_packages(kind)
        nets = [package._net for package in packages]
        mirrors = [mirror_network(net) for net in nets]
        pack = PackageBatch(packages)

        step_both(pack, nets, mirrors)
        packages[1]._conv_link.resistance = 0.4
        mirrors[1].link("p1.conv").resistance = 0.4
        step_both(pack, nets, mirrors)
        step_both(pack, nets, mirrors)

        packages[0]._net.link(f"p0.{frozen}").resistance = 0.2
        with pytest.raises(Unbatchable, match="frozen"):
            pack.step(0.05)
        # Refused before any temperature write.
        assert_networks_equal(mirrors, nets)

        pack.release()
        for net in nets:
            for link in net._links.values():
                assert link._observer is net
        mirrors[0].link(f"p0.{frozen}").resistance = 0.2
        for net, twin in zip(nets, mirrors):
            net.step(0.05)
            reference_rc_step(twin, 0.05)
        assert_networks_equal(mirrors, nets)


def test_package_batch_refuses_mixed_structures() -> None:
    """A die/sink package and an N-core floorplan do not stack; the
    refusal comes at construction and leaves every observer alone."""
    packages = [CpuPackage(name="a"), MulticorePackage(n_cores=4, name="b")]
    with pytest.raises(Unbatchable, match="structure"):
        PackageBatch(packages)
    for package in packages:
        for link in package._net._links.values():
            assert link._observer is package._net


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
