"""The engine against the reference oracle, byte for byte.

The oracle (``tests/reference_engine.py``) computes a spec's result one
tick at a time and returns its canonical bytes.  Here the engine's
bytes must equal them over one seeded corpus:

* every distinct quick experiment spec on the default platform, the
  fig6/fig7/table1/fig10 quick specs on ``biglittle_4p4e`` (fig6's
  auto-mode fan reads the hottest core's diode) and the
  fig7/table1/fig10 ones on ``multicore_8c_45nm``: the runs
  ``tests/test_result_pins.py`` pins,
  from one grouped ``RunExecutor.map`` (the ``fan_fail`` fault specs of
  ``emergency`` among them);
* one telemetry-on spec per experiment, and the quick specs of the two
  experiments without a ``specs()`` of their own (ablation,
  robustness) that the pins do not run, grouped the same way;
* the fleet experiment's quick specs, every fleet gate case of
  ``tests/test_fleet.py``, fleets whose epochs
  start off the control grid at ``dt`` 1.0 and 2.0, and the wave,
  imbalance and ``biglittle_4p4e`` fleets with nine-node racks, each run
  at ``shards=1`` and ``shards=2``.  These are sized so the fan walls
  move and nodes throttle.

A failing case means a result bit moved.  Below the corpus, the
oracle's parts are held to the engine's on their own: random RC
networks against :func:`reference_rc_step`, a node ticked through
PROCHOT, a fan failure and THERMTRIP against the oracle's node tick, and
the run loop's control semantics (task fire counts, ``until``, ``stop``,
``max_ticks``, budget errors) against :func:`reference_run`.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.cluster.multicore_node import MulticoreNode
from repro.cluster.node import Node
from repro.config import NodeConfig
from repro.errors import SimulationError
from repro.experiments import ablation, fleet_capping, robustness
from repro.experiments.table1_tdvfs_cpuspeed import specs as table1_specs
from repro.fan.adt7467 import REG_REMOTE1_TEMP
from repro.fleet import FleetFaultSpec, FleetSpec
from repro.platform import resolve_platform
from repro.runtime import DEFAULT_SEED, RunExecutor
from repro.sim.engine import Component, SimulationEngine
from repro.sim.events import EventLog
from repro.thermal.rc import RCNetwork, ThermalLink, ThermalNode
from repro.workloads.base import ComputeSegment, RankProgram
from tests.reference_engine import (
    reference_multicore_step,
    reference_node_step,
    reference_rc_step,
    reference_result,
    reference_run,
)
from tests.test_fleet import GATE_SPECS
from tests.test_result_pins import PLATFORMS, quick_specs

# ------------------------------------------------------------------ corpus

RUN_CASES = [
    (key, label)
    for key, (platform, names, _pins) in sorted(PLATFORMS.items())
    for label in quick_specs(names, platform)
]


@pytest.mark.parametrize("key, label", RUN_CASES)
def test_run_matches_the_oracle(pinned_runs, key, label):
    spec, result, _loaded, _stored = pinned_runs[key][label]
    assert result.canonical_bytes() == reference_result(spec)


def extra_specs() -> dict:
    """Corpus runs beyond the pins: each experiment's first quick spec
    with telemetry on, and the quick specs ablation and robustness map
    that the pins do not run (neither module has a ``specs()``)."""
    pinned = quick_specs()
    specs = {}
    for label, spec in pinned.items():
        name = f"telemetry-{label.split('[')[0]}"
        specs.setdefault(name, dataclasses.replace(spec, telemetry=True))
    seed = DEFAULT_SEED
    mapped = {
        "ablation": ablation._window_specs(seed, ablation._WINDOW_SIZES, True)
        + ablation._l2_specs(seed, True)
        + ablation._escalation_specs(seed, True)
        + ablation._split_specs(seed, True),
        "robustness": [
            spec
            for s in robustness.QUICK_SEEDS
            for spec in table1_specs(seed=s, quick=True)
        ],
    }
    seen = set(pinned.values())
    for name, listed in mapped.items():
        for index, spec in enumerate(listed):
            if spec not in seen:
                seen.add(spec)
                specs[f"{name}[{index}]"] = spec
    return specs


EXTRA_SPECS = extra_specs()


@pytest.fixture(scope="module")
def extra_runs():
    return dict(zip(EXTRA_SPECS, RunExecutor().map(list(EXTRA_SPECS.values()))))


@pytest.mark.parametrize("label", list(EXTRA_SPECS))
def test_extra_run_matches_the_oracle(extra_runs, label):
    spec, result = EXTRA_SPECS[label], extra_runs[label]
    assert (result.telemetry is not None) == spec.telemetry
    assert result.canonical_bytes() == reference_result(spec)


def hot_fleet(**overrides) -> FleetSpec:
    """Two racks of nine nodes on a 1 s tick behind a 55 °C cold aisle,
    half their exhaust recirculating and rack 1's containment breached
    at 120 s.  The dies run hot enough that a last-bit change in a
    node's power reaches the result bytes."""
    base = dict(
        racks=2,
        nodes_per_rack=9,
        workload="wave",
        dt=1.0,
        horizon=400.0,
        epoch_ticks=40,
        control_ticks=5,
        cold_aisle_c=55.0,
        recirculation=0.5,
        fault=FleetFaultSpec(rack=1, at=120.0, factor=3.0),
        quick=True,
    )
    base.update(overrides)
    return FleetSpec(**base)


#: Seven-tick epochs on a three-tick control grid start between control
#: steps; at ``dt=2.0`` (past the package's 1.875 s stability limit)
#: every network steps on its own with Euler sub-steps.
OFF_GRID = dict(
    nodes_per_rack=2, workload="uniform", epoch_ticks=7, control_ticks=3,
    power_budget=200.0,
)

FLEET_CASES = {
    **{f"experiment-{name}": spec for name, spec in fleet_capping.specs(quick=True)},
    **{f"gate-{name}": spec for name, spec in GATE_SPECS.items()},
    "off-grid-dt1": hot_fleet(horizon=224.0, **OFF_GRID),
    "off-grid-dt2": hot_fleet(dt=2.0, horizon=448.0, **OFF_GRID),
    "wave": hot_fleet(power_budget=800.0),
    "imbalance": hot_fleet(workload="imbalance", power_budget=800.0),
    # a cooler platform: a hotter aisle and longer epochs reach its
    # fan-wall target, and a tight budget throttles it
    "biglittle": hot_fleet(
        platform="biglittle_4p4e",
        horizon=900.0,
        epoch_ticks=150,
        control_ticks=10,
        cold_aisle_c=66.0,
        power_budget=110.0,
    ),
}


@pytest.mark.parametrize("case", sorted(FLEET_CASES))
def test_fleet_matches_the_oracle(fleet_bytes, case):
    spec = FLEET_CASES[case]
    expected = reference_result(spec)
    assert fleet_bytes(spec, 1) == expected
    assert fleet_bytes(spec, 2) == expected
    if case.split("-")[0] not in ("experiment", "gate"):
        doc = json.loads(expected)
        assert doc["summary"]["total_throttles"] > 0
        # every fan wall moved off its initial 0.35 duty
        assert all(rack["duty"] != 0.35 for rack in doc["racks"])


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
    for name in reference._order:
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
            reference._links[name].resistance = r
            net._links[name].resistance = r
        if rng.random() < 0.1:  # external power change between ticks
            node = rng.choice(reference._order)
            if not reference.node(node).is_boundary:
                p = rng.uniform(0.0, 150.0)
                reference.set_power(node, p)
                net.set_power(node, p)
        if rng.random() < 0.05:  # structural edit mid-run
            k = len(reference._order)
            other = rng.choice(reference._order)
            for target in (reference, net):
                target.add_node(ThermalNode(f"late{k}", 30.0, 40.0))
                target.add_link(
                    ThermalLink(f"late_link{k}", f"late{k}", other, 0.7)
                )
            link_names.append(f"late_link{k}")
        reference_rc_step(reference, dt)
        net.step(dt)
        assert_same_temperatures(net, reference, f"case {case_seed}, tick {tick}")


@pytest.mark.parametrize("case_seed", range(6))
def test_random_networks_with_sub_steps_step_identically(case_seed: int) -> None:
    """A ``dt`` past the stability limit: each step takes several
    sub-steps (one ``matmul`` each, then the float tail), bitwise equal
    to the oracle's through link mutations."""
    reference = build_random_network(random.Random(case_seed))
    net = build_random_network(random.Random(case_seed))
    rng = random.Random(2000 + case_seed)
    link_names = list(reference._links)
    sub_steps = []
    for tick in range(30):
        if rng.random() < 0.3:
            name = rng.choice(link_names)
            r = rng.uniform(0.05, 5.0)
            reference._links[name].resistance = r
            net._links[name].resistance = r
        reference_rc_step(reference, 300.0)
        net.step(300.0)
        sub_steps.append(net._n_sub)
        assert_same_temperatures(net, reference, f"case {case_seed}, tick {tick}")
    assert min(sub_steps) > 1


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
                target._links["chain1"].resistance = 0.3
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
            target._links["conv"].resistance = r
        reference_rc_step(reference, 0.2)
        net.step(0.2)
        counts.append(net._n_sub)
        assert_same_temperatures(net, reference, f"conv resistance {r}")
    assert counts[0] == counts[3] == 1
    assert counts[1] == counts[2] > counts[4] > 1


# ------------------------------------------------------------- node tick


def _node_trace(step, node_type=Node, **config) -> tuple:
    """A node through PROCHOT assert/deassert, a fan failure and
    THERMTRIP, each tick taken by ``step(node, t, dt)``; per-tick state."""
    events = EventLog()
    base = config.pop("base", NodeConfig())
    node = node_type(
        "n0", config=dataclasses.replace(base, **config), events=events
    )
    node.bind_rank(RankProgram([ComputeSegment(2.4e9 * 900)], name="burn"))
    dt = 0.05
    rows = []
    for i in range(1, 10001):
        t = i * dt
        if i == 2000:
            node.fail_fan(t)
        step(node, t, dt)
        rows.append(
            (
                node.die_temperature,
                node.package.sink_temperature,
                node._cpu_power,
                node._wall_power,
                node.fan_motor._rpm,
                node.dvfs.index,
                node.fan_chip.read_register(REG_REMOTE1_TEMP),
            )
        )
    return rows, [str(event) for event in events], node.meter.energy_joules


def _assert_trace_matches_reference(oracle, node_type=Node, **config) -> None:
    rows, events, energy = _node_trace(node_type.step, node_type, **config)
    ref_rows, ref_events, ref_energy = _node_trace(oracle, node_type, **config)
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
        reference_node_step,
        prochot_temp=44.0,
        prochot_hysteresis=3.0,
        shutdown_temp=46.5,
    )


def test_multicore_node_step_matches_reference_through_protection() -> None:
    """The same for a heterogeneous N-core floorplan: the inherited tick
    with the multicore power/diode hook equals the oracle's multicore
    tick, shut-down (zero-power) cores included.  The floorplan runs
    cooler, so its thresholds sit lower."""
    _assert_trace_matches_reference(
        reference_multicore_step,
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
        assert node.fan_chip.read_register(REG_REMOTE1_TEMP) == round(hottest)
        temps = node.package.core_temperatures()
        spread = max(spread, max(temps) - min(temps))
    assert spread > 2.0


# --------------------------------------------------------- run loop semantics


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
        fires, phased = [], []
        engine.every(1.0, fires.append)
        engine.every(0.25, phased.append, phase=0.1)
        run(engine, duration=3.0)
        results.append((comp.calls, fires, phased, engine.clock.ticks))
    assert results[0] == results[1]
    assert len(results[0][2]) == 12  # 0.1 s, then every 0.25 s to 2.85 s


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
        results.append((comp.calls, fires, engine.clock.ticks))
    assert results[0] == results[1]
    assert len(results[0][1]) == 1  # the boundary tick's firing happened


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
        results.append((comp.calls, early, late))
    assert results[0] == results[1]
    assert results[0][2][0] == pytest.approx(2.35)
