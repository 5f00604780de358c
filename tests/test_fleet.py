"""Fleet engine tests — sharding as a pure execution strategy.

The load-bearing property is the bitwise gate: for any
:class:`~repro.fleet.FleetSpec`, ``run_fleet(spec, shards=1)`` and
``run_fleet(spec, shards=K)`` must produce byte-identical
:meth:`~repro.fleet.FleetResult.canonical_bytes`.  The equivalence
matrix below exercises it across fleet sizes, workloads, the hot-aisle
fault, power capping, a non-default platform and a ``dt`` that needs
Euler sub-steps — every case crosses the real multiprocessing worker
path.

Around the gate: partition/kernel unit tests, a shard's stacked package
stepping against the reference RC step, engine invariants
(series shape, node ordering, telemetry accounting), the
content-addressed result cache (hit, corrupt-entry recovery,
shard-count independence of the key), and worker failure propagation.
"""

import hashlib
import pickle

import pytest

from repro.errors import SimulationError
from repro.fleet import (
    FleetCoordinator,
    FleetFaultSpec,
    FleetSpec,
    ShardRunner,
    partition_racks,
    recirculation_weights,
    run_fleet,
)
from repro.fleet.engine import _ProcessShard
from repro.fleet.shard import RackReport
from tests.reference_engine import reference_rc_step


def small_spec(**overrides) -> FleetSpec:
    """A fleet small enough to simulate in well under a second."""
    base = dict(
        racks=3,
        nodes_per_rack=2,
        horizon=6.0,
        epoch_ticks=30,
        control_ticks=15,
        quick=True,
    )
    base.update(overrides)
    return FleetSpec(**base)


# ---------------------------------------------------------------------------
# partition_racks: contiguous, covering, near-equal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "racks,shards",
    [(1, 1), (4, 2), (5, 2), (7, 3), (8, 4), (9, 4), (16, 5)],
)
def test_partition_is_contiguous_and_covers_every_rack(racks, shards):
    bounds = partition_racks(racks, shards)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == racks
    for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
        assert hi == lo
    sizes = [hi - lo for lo, hi in bounds]
    assert all(size >= 1 for size in sizes)
    assert max(sizes) - min(sizes) <= 1
    # Extras go to the earliest slices, so the layout is deterministic.
    assert sizes == sorted(sizes, reverse=True)


def test_partition_clamps_shards_into_valid_range():
    assert partition_racks(3, 10) == ((0, 1), (1, 2), (2, 3))
    assert partition_racks(5, 0) == ((0, 5),)
    assert partition_racks(5, -2) == ((0, 5),)


# ---------------------------------------------------------------------------
# recirculation_weights: contractive, decaying, exact row sums
# ---------------------------------------------------------------------------


def test_recirculation_rows_sum_to_exactly_the_spec_fraction():
    spec = small_spec(racks=5, recirculation=0.3)
    for row in recirculation_weights(spec):
        total = 0.0
        for value in row:
            total += value
        assert total == pytest.approx(0.3, abs=1e-12)


def test_recirculation_zero_decouples_the_racks():
    weights = recirculation_weights(small_spec(recirculation=0.0))
    assert all(value == 0.0 for row in weights for value in row)


def test_recirculation_self_coupling_dominates_and_decays_with_distance():
    weights = recirculation_weights(small_spec(racks=4, recirculation=0.4))
    for r, row in enumerate(weights):
        assert row[r] == max(row)
        left = [row[s] for s in range(r, -1, -1)]
        assert left == sorted(left, reverse=True)
        right = [row[s] for s in range(r, len(row))]
        assert right == sorted(right, reverse=True)


# ---------------------------------------------------------------------------
# the bitwise gate: shards=1 == shards=K, across the spec surface
# ---------------------------------------------------------------------------

GATE_SPECS = {
    "small-imbalance": small_spec(),
    "uniform-capped": small_spec(
        racks=4, nodes_per_rack=3, workload="uniform", power_budget=300.0
    ),
    "fault": small_spec(
        fault=FleetFaultSpec(rack=1, at=2.0, factor=3.0)
    ),
    "wave-biglittle": small_spec(
        workload="wave", platform="biglittle_4p4e"
    ),
    # dt past the package's 1.875 s stability limit: two Euler sub-steps
    # per tick, so every shard steps its networks one by one.
    "substep": small_spec(
        dt=2.0, horizon=120.0, epoch_ticks=4, control_ticks=2
    ),
}

#: sha256 of ``canonical_bytes()`` for gate cases whose bytes are pinned:
#: the sub-stepped trajectories as a general stacked RC stepper produced
#: them, which the shards' per-network fallback must reproduce.
GATE_PINS = {
    "substep": (
        "c71838c440f9f79842d76aa2929365af39e973a716a63d3b3079c9c6beb72bcb"
    ),
}


@pytest.mark.parametrize("case", sorted(GATE_SPECS))
def test_sharded_run_is_bitwise_identical_to_serial(case):
    spec = GATE_SPECS[case]
    reference = run_fleet(spec, shards=1).canonical_bytes()
    assert run_fleet(spec, shards=2).canonical_bytes() == reference
    if case in GATE_PINS:
        assert hashlib.sha256(reference).hexdigest() == GATE_PINS[case]


def test_gate_holds_at_every_feasible_shard_count():
    spec = small_spec()
    reference = run_fleet(spec, shards=1).canonical_bytes()
    for shards in (2, 3, 7):  # 7 clamps to the 3-rack maximum
        assert run_fleet(spec, shards=shards).canonical_bytes() == reference


# ---------------------------------------------------------------------------
# engine invariants on one representative run
# ---------------------------------------------------------------------------


def test_result_shape_and_ordering():
    spec = small_spec()
    result = run_fleet(spec, shards=2)
    assert len(result.series) == spec.epochs()
    assert len(result.nodes) == spec.total_nodes
    assert [(n.rack, n.node) for n in result.nodes] == [
        (r, n)
        for r in range(spec.racks)
        for n in range(spec.nodes_per_rack)
    ]
    assert [r.rack for r in result.racks] == list(range(spec.racks))
    assert result.series[-1][0] == pytest.approx(spec.horizon)
    assert result.peak_die_c() > spec.cold_aisle_c


def test_pickle_round_trip_preserves_canonical_bytes():
    result = run_fleet(small_spec())
    clone = pickle.loads(pickle.dumps(result))
    assert clone.canonical_bytes() == result.canonical_bytes()


def test_fault_changes_the_trajectory_and_is_logged():
    quiet = small_spec()
    faulted = small_spec(fault=FleetFaultSpec(rack=0, at=2.0, factor=3.0))
    quiet_result = run_fleet(quiet)
    fault_result = run_fleet(faulted)
    assert quiet_result.canonical_bytes() != fault_result.canonical_bytes()
    fault_events = [
        e for e in fault_result.events
        if e.category == "fleet.coordinator.fault"
    ]
    assert len(fault_events) == 1
    assert fault_events[0].data["rack"] == 0
    assert not any(
        e.category == "fleet.coordinator.fault" for e in quiet_result.events
    )
    # The breach raises the victim's inlet relative to the healthy run.
    assert fault_result.racks[0].inlet_c > quiet_result.racks[0].inlet_c


def test_power_budget_pulls_pp_global_down():
    open_loop = run_fleet(small_spec(workload="uniform"))
    tight = run_fleet(
        small_spec(workload="uniform", power_budget=1.0)
    )
    assert all(row[3] == 100.0 for row in open_loop.series)
    assert tight.series[-1][3] < 100.0
    assert tight.total_cpu_energy_j() <= open_loop.total_cpu_energy_j()


def test_merged_telemetry_accounts_for_every_node_tick():
    spec = small_spec()
    result = run_fleet(spec, shards=2)
    assert result.telemetry.total("fleet.shard.node_ticks") == (
        spec.total_nodes * spec.total_ticks()
    )
    assert result.telemetry.value("fleet.coordinator.epochs") == (
        spec.epochs()
    )
    for r in range(spec.racks):
        assert result.telemetry.get(
            "fleet.rack.duty", rack=f"{r:03d}"
        ) is not None


class _ReferenceStepper:
    """Stands in for a shard's batch: the oracle's plain Euler, per net."""

    def __init__(self, nets):
        self.nets = nets

    def step(self, dt):
        for net in self.nets:
            reference_rc_step(net, dt)

    def release(self):
        pass


def test_shard_physics_match_the_reference_stepper():
    """A shard's stacked stepping equals the oracle, node for node.

    The epochs heat the racks past the fan-wall target (so the duty
    moves, through the convective link's public setter) and then cool
    the inlet.
    """
    spec = small_spec(
        racks=2, nodes_per_rack=2, workload="uniform",
        dt=1.0, horizon=400.0, epoch_ticks=40, control_ticks=5,
    )
    runner = ShardRunner(spec, 0, spec.racks)
    oracle = ShardRunner(spec, 0, spec.racks)
    oracle._batch.release()
    oracle._batch = _ReferenceStepper(oracle._nets)
    duties = set()
    for inlets in ((70.0, 68.0),) * 3 + ((40.0, 38.0),) * 2:
        reports = runner.run_epoch(inlets, (100.0, 100.0), 40)
        assert oracle.run_epoch(inlets, (100.0, 100.0), 40) == reports
        duties.update(report.duty for report in reports)
    assert len(duties) > 2
    assert runner._batch is not None  # the batch stepped every tick
    assert runner.finish().nodes == oracle.finish().nodes


# ---------------------------------------------------------------------------
# result cache: content-addressed, shard-count independent, self-healing
# ---------------------------------------------------------------------------


def test_cache_roundtrip_and_shard_count_independence(tmp_path, monkeypatch):
    spec = small_spec()
    first = run_fleet(spec, shards=1, cache_dir=tmp_path)
    entries = list(tmp_path.glob("fleet-*.pickle"))
    assert len(entries) == 1
    assert spec.digest() in entries[0].name

    # A sharded request for the same spec must be served from the cache:
    # forbid worker creation and watch it succeed anyway.
    def _no_workers(*args, **kwargs):
        raise AssertionError("cache hit should not spawn shard workers")

    monkeypatch.setattr(
        "repro.fleet.engine._ProcessShard", _no_workers
    )
    cached = run_fleet(spec, shards=2, cache_dir=tmp_path)
    assert cached.canonical_bytes() == first.canonical_bytes()


#: Cache entries that must read as a miss: garbage, a pickle from an
#: unknown protocol, and a pickle naming a module that does not exist.
CORRUPT_ENTRIES = [
    b"not a pickle",
    b"\x80\x09",
    b"cno_such_module_xyz\nX\n.",
]


@pytest.mark.parametrize(
    "payload", CORRUPT_ENTRIES, ids=["garbage", "protocol-9", "no-module"]
)
def test_cache_recovers_from_a_corrupt_entry(tmp_path, payload):
    spec = small_spec()
    reference = run_fleet(spec, shards=1, cache_dir=tmp_path)
    (entry,) = tmp_path.glob("fleet-*.pickle")
    entry.write_bytes(payload)
    again = run_fleet(spec, shards=1, cache_dir=tmp_path)
    assert again.canonical_bytes() == reference.canonical_bytes()
    # The recomputed result replaced the corrupt payload.
    with open(entry, "rb") as fh:
        fmt, stored = pickle.load(fh)
    assert stored.canonical_bytes() == reference.canonical_bytes()


def test_cache_ignores_an_entry_for_a_different_spec(tmp_path):
    spec_a = small_spec()
    spec_b = small_spec(seed=spec_a.seed + 1)
    run_fleet(spec_a, shards=1, cache_dir=tmp_path)
    (entry_a,) = tmp_path.glob("fleet-*.pickle")
    # Plant spec A's payload at spec B's address; the spec equality
    # check inside the loader must reject it and recompute.
    entry_b = tmp_path / f"fleet-{spec_b.digest()}.pickle"
    entry_b.write_bytes(entry_a.read_bytes())
    result_b = run_fleet(spec_b, shards=1, cache_dir=tmp_path)
    assert result_b.spec == spec_b
    result_a = run_fleet(spec_a, shards=1, cache_dir=tmp_path)
    assert result_b.canonical_bytes() != result_a.canonical_bytes()


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------


def test_shard_runner_rejects_an_out_of_range_rack_window():
    spec = small_spec()
    with pytest.raises(SimulationError, match="rack range"):
        ShardRunner(spec, 0, spec.racks + 1)
    with pytest.raises(SimulationError, match="rack range"):
        ShardRunner(spec, 2, 2)


def test_worker_failure_surfaces_as_a_simulation_error():
    spec = small_spec()
    shard = _ProcessShard(spec, 0, 2)
    try:
        # One inlet for a two-rack shard: the worker-side runner raises,
        # the worker ships ("error", ...), the handle re-raises it here.
        shard.submit_epoch((spec.cold_aisle_c,), (100.0,), 10)
        with pytest.raises(SimulationError, match="failed"):
            shard.collect_reports()
    finally:
        shard.stop()


def test_coordinator_rejects_missing_or_misordered_reports():
    spec = small_spec()
    coordinator = FleetCoordinator(spec)
    coordinator.begin_epoch(0.0)
    report = RackReport(
        rack=1, outlet_c=30.0, mean_power_w=50.0, max_die_c=60.0,
        throttles=0, duty=0.35,
    )
    with pytest.raises(SimulationError, match="expected 3 rack reports"):
        coordinator.end_epoch(1.5, [report])
    with pytest.raises(SimulationError, match="out of order"):
        coordinator.end_epoch(
            1.5,
            [report, report, report],
        )
