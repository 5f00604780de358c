"""The engine equivalence gate: engine == reference oracle, byte for byte.

The simulator has one engine path — compiled component closures, tick
batches between task boundaries, block-buffered trace writes — and it
promises *exact* equivalence with the tick-by-tick reference kept in
``tests/reference_engine.py``: the same IEEE-754 operations in the same
order.  Every comparison here is bitwise (``==`` on float arrays),
never approximate:

* randomized RC networks (mixed boundary/interior nodes, link
  resistances, powers and structure edited mid-run), divergence;
* a node stepped directly through PROCHOT, a fan failure and THERMTRIP;
* the run loop's control semantics (task fire counts, ``until``/
  ``stop``/``max_ticks``) against the reference loop;
* every registered experiment's quick-mode table;
* every figure's regenerated series curves, compared by content hash;
* the telemetry JSONL export, byte-identical per ``(spec, seed)``.

Lockstep grouping is held equal to this serial engine by
``tests/test_fastpath_batch.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from contextlib import nullcontext

import numpy as np
import pytest

from repro.cluster.multicore_node import MulticoreNode
from repro.cluster.node import Node
from repro.config import NodeConfig
from repro.errors import SimulationError
from repro.experiments import REGISTRY
from repro.experiments.series import SERIES_REGISTRY
from repro.fan.adt7467 import REG_REMOTE1_TEMP
from repro.platform import resolve_platform
from repro.runtime import RunSpec
from repro.sim.engine import Component, SimulationEngine
from repro.sim.events import EventLog
from repro.thermal.rc import RCNetwork, ThermalLink, ThermalNode
from repro.workloads.base import ComputeSegment, RankProgram
from tests.reference_engine import (
    UngroupedExecutor,
    reference_path,
    reference_rc_step,
    reference_run,
)

SEED = 7


# ------------------------------------------------------- randomized RC nets


def build_random_network(rng: random.Random) -> RCNetwork:
    """A random connected RC network with boundary and interior nodes."""
    net = RCNetwork()
    n_interior = rng.randint(2, 6)
    n_boundary = rng.randint(1, 2)
    names = []
    for i in range(n_interior):
        name = f"m{i}"
        net.add_node(
            ThermalNode(name, rng.uniform(5.0, 400.0), rng.uniform(20.0, 80.0))
        )
        names.append(name)
    for i in range(n_boundary):
        name = f"b{i}"
        net.add_node(ThermalNode(name, None, rng.uniform(15.0, 45.0)))
        names.append(name)
    # A spanning chain keeps the graph connected; extra random links add
    # cycles and parallel paths.
    for i in range(1, len(names)):
        net.add_link(
            ThermalLink(
                f"chain{i}", names[i - 1], names[i], rng.uniform(0.05, 5.0)
            )
        )
    for j in range(rng.randint(0, 4)):
        a, b = rng.sample(names, 2)
        net.add_link(
            ThermalLink(f"extra{j}", a, b, rng.uniform(0.05, 5.0))
        )
    for name in names[: rng.randint(1, n_interior)]:
        net.set_power(name, rng.uniform(0.0, 120.0))
    return net


def assert_same_temperatures(net, reference, where: str) -> None:
    for name in reference.node_names:
        assert net.temperature(name) == reference.temperature(
            name
        ), f"{where}, node {name}"


@pytest.mark.parametrize("case_seed", range(12))
def test_random_networks_step_identically(case_seed: int) -> None:
    """The network and the oracle agree bitwise through mutations."""
    reference = build_random_network(random.Random(case_seed))
    net = build_random_network(random.Random(case_seed))

    rng = random.Random(1000 + case_seed)
    link_names = list(reference._links)
    dt = rng.choice([0.01, 0.05, 0.2])
    for tick in range(60):
        if rng.random() < 0.25:  # mutate a link mid-run (fan-style)
            name = rng.choice(link_names)
            r = rng.uniform(0.05, 5.0)
            reference.link(name).resistance = r
            net.link(name).resistance = r
        if rng.random() < 0.1:  # external power change between ticks
            node = rng.choice(reference.node_names)
            if not reference.node(node).is_boundary:
                p = rng.uniform(0.0, 150.0)
                reference.set_power(node, p)
                net.set_power(node, p)
        if rng.random() < 0.05:  # structural edit mid-run
            k = len(reference.node_names)
            other = rng.choice(reference.node_names)
            for target in (reference, net):
                target.add_node(ThermalNode(f"late{k}", 30.0, 40.0))
                target.add_link(
                    ThermalLink(f"late_link{k}", f"late{k}", other, 0.7)
                )
            link_names.append(f"late_link{k}")
        reference_rc_step(reference, dt)
        net.step(dt)
        assert_same_temperatures(net, reference, f"case {case_seed}, tick {tick}")


def test_structural_edit_mid_run_matches_reference() -> None:
    """A node and a link added between steps join the integration at
    once, and a resistance written before the next step is honoured."""
    reference = build_random_network(random.Random(3))
    net = build_random_network(random.Random(3))
    for step in range(4):
        if step == 2:
            for target in (reference, net):
                target.add_node(ThermalNode("late", 50.0, 30.0))
                target.add_link(ThermalLink("late_link", "late", "m0", 1.0))
                target.set_power("late", 20.0)
                target.link("chain1").resistance = 0.3
        reference_rc_step(reference, 0.05)
        net.step(0.05)
        assert_same_temperatures(net, reference, f"step {step}")
    assert net.temperature("late") != 30.0


def test_dt_change_and_divergence_match_reference() -> None:
    """n_sub revalidates per dt; divergence raises the reference error."""
    reference = build_random_network(random.Random(5))
    net = build_random_network(random.Random(5))
    for dt in (0.05, 0.5, 0.05, 2.0):
        reference_rc_step(reference, dt)
        net.step(dt)
        assert_same_temperatures(net, reference, f"dt {dt}")
    # set_power rejects NaN but not inf: an infinite source diverges.
    errors = []
    for target, step in ((reference, reference_rc_step), (net, RCNetwork.step)):
        target.set_power("m0", float("inf"))
        with pytest.raises(SimulationError) as caught:
            step(target, 0.05)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == "thermal integration diverged (non-finite T)"
    # Neither wrote the non-finite state back.
    assert_same_temperatures(net, reference, "after divergence")


def test_resistance_write_moves_the_sub_step_count() -> None:
    """A resistance write that moves the stability limit re-derives the
    sub-step count at the next step, as the freshly assembled oracle
    does; the parallel die-sink links share one matrix entry."""

    def build() -> RCNetwork:
        net = RCNetwork()
        net.add_node(ThermalNode("die", 1.0, 70.0))
        net.add_node(ThermalNode("sink", 4.0, 50.0))
        net.add_node(ThermalNode("amb", None, 25.0))
        net.add_link(ThermalLink("jhs", "die", "sink", 0.5))
        net.add_link(ThermalLink("jhs2", "sink", "die", 2.0))
        net.add_link(ThermalLink("conv", "sink", "amb", 1.0))
        net.set_power("die", 30.0)
        return net

    reference, net = build(), build()
    counts = []
    for r in (1.0, 0.005, 0.005, 1.0, 0.02):
        for target in (reference, net):
            target.link("conv").resistance = r
        reference_rc_step(reference, 0.2)
        net.step(0.2)
        counts.append(net._n_sub)
        assert_same_temperatures(net, reference, f"conv resistance {r}")
    assert counts[0] == counts[3] == 1
    assert counts[1] == counts[2] > counts[4] > 1


# ------------------------------------------------------------- node tick


def _node_trace(stepped_by_reference: bool, node_type=Node, **config) -> tuple:
    """A node through PROCHOT assert/deassert, a fan failure and
    THERMTRIP, stepped by direct ``step`` calls; per-tick state."""
    events = EventLog()
    base = config.pop("base", NodeConfig())
    node = node_type(
        "n0", config=dataclasses.replace(base, **config), events=events
    )
    node.bind_rank(RankProgram([ComputeSegment(2.4e9 * 900)], name="burn"))
    dt = 0.05
    rows = []
    with reference_path() if stepped_by_reference else nullcontext():
        for i in range(1, 10001):
            t = i * dt
            if i == 2000:
                node.fail_fan(t)
            node.step(t, dt)
            rows.append(
                (
                    node.die_temperature,
                    node.package.sink_temperature,
                    node.cpu_power,
                    node.wall_power,
                    node.fan_rpm,
                    node.dvfs.index,
                    node.fan_chip.peek(REG_REMOTE1_TEMP),
                )
            )
    return rows, [str(event) for event in events], node.meter.energy_joules


def _assert_trace_matches_reference(node_type=Node, **config) -> None:
    rows, events, energy = _node_trace(False, node_type, **config)
    ref_rows, ref_events, ref_energy = _node_trace(True, node_type, **config)
    assert rows == ref_rows
    assert events == ref_events
    assert energy == ref_energy
    kinds = " ".join(events)
    for kind in ("hw.prochot.assert", "hw.prochot.deassert", "hw.fan_failure",
                 "hw.thermtrip"):
        assert kind in kinds, kind


def test_node_step_matches_reference_through_protection() -> None:
    """``Node.step`` called directly equals the oracle's tick bitwise."""
    _assert_trace_matches_reference(
        prochot_temp=44.0, prochot_hysteresis=3.0, shutdown_temp=46.5
    )


def test_multicore_node_step_matches_reference_through_protection() -> None:
    """The same for a heterogeneous N-core floorplan: the inherited tick
    with the multicore power/diode hook equals the oracle's multicore
    tick, shut-down (zero-power) cores included.  The floorplan runs
    cooler, so its thresholds sit lower."""
    _assert_trace_matches_reference(
        MulticoreNode,
        base=resolve_platform("biglittle_4p4e").node_config(),
        prochot_temp=38.5,
        prochot_hysteresis=0.3,
        shutdown_temp=38.8,
    )


def test_multicore_fan_chip_reads_the_hottest_core() -> None:
    """The fan chip's remote diode on an N-core package reads the
    hottest core as it stood when the tick began."""
    node = MulticoreNode(
        "n0", config=resolve_platform("biglittle_4p4e").node_config()
    )
    node.bind_rank(RankProgram([ComputeSegment(2.4e9 * 900)], name="burn"))
    spread = 0.0
    for i in range(1, 2001):
        hottest = node.package.die_temperature
        node.step(i * 0.05, 0.05)
        assert node.fan_chip.peek(REG_REMOTE1_TEMP) == round(hottest)
        spread = max(spread, node.package.hotspot_spread)
    assert spread > 2.0


# ------------------------------------------------------ fused loop semantics


class Accumulator(Component):
    """Counts steps; optionally stops its engine at a given tick."""

    def __init__(self, name: str, engine=None, stop_at=None) -> None:
        super().__init__(name)
        self.calls = []
        self._engine = engine
        self._stop_at = stop_at

    def step(self, t: float, dt: float) -> None:
        self.calls.append(t)
        if self._stop_at is not None and len(self.calls) == self._stop_at:
            self._engine.stop()


def engines_pair():
    """``(engine, run)`` pairs: the reference loop, then the engine's own."""
    return (
        (SimulationEngine(dt=0.05), reference_run),
        (SimulationEngine(dt=0.05), SimulationEngine.run),
    )


def test_fused_duration_run_matches_reference() -> None:
    results = []
    for engine, run in engines_pair():
        comp = engine.add_component(Accumulator("a"))
        fires = []
        engine.every(1.0, fires.append)
        engine.every(0.25, lambda t: None, phase=0.1)
        run(engine, duration=3.0)
        results.append((comp.calls, fires, engine.clock.ticks,
                        [task.fire_count for task in engine._tasks]))
    assert results[0] == results[1]


def test_fused_until_and_second_run_continue_identically() -> None:
    for engine, run in engines_pair():
        comp = engine.add_component(Accumulator("a"))
        run(engine, until=lambda: len(comp.calls) >= 7, max_ticks=100)
        assert len(comp.calls) == 7
        run(engine, duration=0.5)  # continues from the stop tick
        assert engine.clock.ticks == 17


def test_fused_stop_request_mid_batch() -> None:
    for engine, run in engines_pair():
        comp = Accumulator("a", engine=engine, stop_at=5)
        engine.add_component(comp)
        engine.every(10.0, lambda t: None)  # far boundary: stop is mid-batch
        run(engine, duration=100.0)
        assert len(comp.calls) == 5
        assert engine.clock.ticks == 5


def test_fused_budget_exhaustion_raises_reference_error() -> None:
    for engine, run in engines_pair():
        engine.add_component(Accumulator("a"))
        with pytest.raises(SimulationError, match="max_ticks=10 exhausted"):
            run(engine, duration=5.0, max_ticks=10)
        assert engine.clock.ticks == 10


def test_fused_max_ticks_only_run() -> None:
    for engine, run in engines_pair():
        comp = engine.add_component(Accumulator("a"))
        run(engine, max_ticks=37)  # no deadline/until: budget stop is clean
        assert len(comp.calls) == 37


# ------------------------------------------------ experiment / series gates


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_quick_tables_match(name: str) -> None:
    """Every experiment renders the identical quick-mode table."""
    module, _ = REGISTRY[name]
    with reference_path():
        ref_table = module.render(
            module.run(seed=SEED, quick=True, executor=UngroupedExecutor())
        )
    table = module.render(
        module.run(seed=SEED, quick=True, executor=UngroupedExecutor())
    )
    assert table == ref_table


def _curve_hashes(curves) -> dict:
    hashes = {}
    for label, (times, values) in curves.items():
        digest = hashlib.sha256()
        digest.update(np.asarray(times, dtype=np.float64).tobytes())
        digest.update(np.asarray(values, dtype=np.float64).tobytes())
        hashes[label] = digest.hexdigest()
    return hashes


@pytest.mark.parametrize("figure", sorted(SERIES_REGISTRY))
def test_series_curve_hashes_match(figure: str) -> None:
    """Every figure's raw curves hash identically on the engine."""
    make = SERIES_REGISTRY[figure]
    with reference_path():
        ref_hashes = _curve_hashes(
            make(seed=SEED, quick=True, executor=UngroupedExecutor())
        )
    hashes = _curve_hashes(make(seed=SEED, quick=True, executor=UngroupedExecutor()))
    assert hashes == ref_hashes


# -------------------------------------------------- telemetry JSONL bytes


def test_telemetry_jsonl_byte_identical() -> None:
    from repro.telemetry import export_jsonl

    spec = RunSpec.of(
        "mixed_thermal_profile",
        {"duration": 30.0},
        rigs=["dynamic_fan"],
        n_nodes=2,
        seed=SEED,
        timeout=120.0,
    )
    with reference_path():
        reference = UngroupedExecutor(telemetry=True)
        reference.map([spec])
    engine = UngroupedExecutor(telemetry=True)
    engine.map([spec])
    ref_text = export_jsonl(reference.collected)
    assert len(ref_text.splitlines()) > 1
    assert export_jsonl(engine.collected) == ref_text
