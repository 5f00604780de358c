"""Fleet engine tests — sharding as a pure execution strategy.

The load-bearing property is the bitwise gate: for any
:class:`~repro.fleet.FleetSpec`, ``run_fleet(spec, shards=1)`` and
``run_fleet(spec, shards=K)`` must produce byte-identical
:meth:`~repro.fleet.FleetResult.canonical_bytes`.  The equivalence
matrix below exercises it across fleet sizes, workloads, the hot-aisle
fault, power capping, a non-default platform and a ``dt`` that needs
Euler sub-steps — every case crosses the real multiprocessing worker
path.

Around the gate: partition/kernel unit tests, engine invariants
(series shape, node ordering, telemetry accounting), the
content-addressed result cache (hit, corrupt-entry recovery,
shard-count independence of the key), and worker failure propagation.
``tests/test_reference_oracle.py`` holds every gate case, and fleets
sized so the fan walls move and nodes throttle, to the reference
oracle at one and two shards.
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
from repro.fleet.engine import FleetResult, _ProcessShard
from repro.fleet.shard import RackReport
from repro.runtime.store import ResultStore
from tests.test_runtime_executor import HOSTILE_ENTRIES


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

#: sha256 of ``canonical_bytes()`` for every gate case.  ``shards=1 ==
#: shards=K`` cannot see a change that moves both sides; the pins can.
#: The sub-stepped trajectories are the ones a general stacked RC
#: stepper produced, which the shards' per-network fallback must
#: reproduce.
GATE_PINS = {
    "fault": (
        "42c907fc034a82244c4618d64e7ab803acd6c834d0017e853c42a3a595b58ffc"
    ),
    "small-imbalance": (
        "020b304a0cc9049ffab16a5fcf3500b7ebf9a7af467c2a9eaaa2cd671de8599d"
    ),
    "substep": (
        "c71838c440f9f79842d76aa2929365af39e973a716a63d3b3079c9c6beb72bcb"
    ),
    "uniform-capped": (
        "fbc50bce9e679be2773d0db873e4f6f1ac13bba8e59fb26f3f6b14074a6f41d6"
    ),
    "wave-biglittle": (
        "80fe73a166ca1f51300a6a44992fc06328b346855c3ea41a307616f2a029c528"
    ),
}


@pytest.mark.parametrize("case", sorted(GATE_SPECS))
def test_sharded_run_is_bitwise_identical_to_serial(fleet_bytes, case):
    spec = GATE_SPECS[case]
    reference = fleet_bytes(spec, 1)
    assert fleet_bytes(spec, 2) == reference
    assert hashlib.sha256(reference).hexdigest() == GATE_PINS[case]


def test_gate_holds_at_every_feasible_shard_count(fleet_bytes):
    spec = small_spec()
    reference = fleet_bytes(spec, 1)
    for shards in (2, 3, 7):  # 7 clamps to the 3-rack maximum
        assert fleet_bytes(spec, shards) == reference


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


@pytest.mark.parametrize("dt", [1.0, 2.0])
def test_a_shard_holds_its_stack_across_control_steps(dt):
    """A shard gathers after each epoch start and each control step, so
    the fan-wall moves written in a control step never make its stack
    decline: at ``dt=1.0`` the stack takes every tick of epochs that
    start between control steps while the duty moves.  Past the
    package's 1.875 s stability limit it declines its first tick and
    every network steps on its own.  (The bytes are the same either
    way; ``tests/test_reference_oracle.py`` checks those.)"""
    spec = small_spec(
        racks=2, nodes_per_rack=2, workload="uniform",
        dt=dt, horizon=400.0, epoch_ticks=7, control_ticks=3,
    )
    runner = ShardRunner(spec, 0, spec.racks)
    duties = set()
    for inlets in ((70.0, 68.0),) * 24 + ((40.0, 38.0),) * 8:
        reports = runner.run_epoch(inlets, (100.0, 100.0), spec.epoch_ticks)
        duties.update(report.duty for report in reports)
    assert len(duties) > 2
    assert runner._batch._stacked == (dt == 1.0)


# ---------------------------------------------------------------------------
# result cache: content-addressed, shard-count independent, self-healing
# ---------------------------------------------------------------------------


def test_cache_roundtrip_and_shard_count_independence(tmp_path, monkeypatch):
    """A result stored at one shard count is a hit at another, with the
    cold bytes, both ways round."""
    spec = small_spec()
    cold = run_fleet(spec, shards=1).canonical_bytes()
    stores = {}
    for cold_shards in (1, 2):
        stores[cold_shards] = tmp_path / f"cold-at-{cold_shards}"
        first = run_fleet(spec, shards=cold_shards, cache_dir=stores[cold_shards])
        assert first.canonical_bytes() == cold
        entries = [e.name for e in stores[cold_shards].iterdir()]
        assert entries == [f"{spec.digest()}.result"]

    # A request at the other shard count must be served from the store:
    # forbid shard creation and watch it succeed anyway.
    def _no_shards(*args, **kwargs):
        raise AssertionError("cache hit should not run shards")

    monkeypatch.setattr("repro.fleet.engine._ProcessShard", _no_shards)
    monkeypatch.setattr("repro.fleet.engine._LocalShard", _no_shards)
    for cold_shards, warm_shards in ((1, 2), (2, 1)):
        cached = run_fleet(spec, shards=warm_shards, cache_dir=stores[cold_shards])
        assert cached.canonical_bytes() == cold


@pytest.mark.parametrize("make", HOSTILE_ENTRIES.values(), ids=HOSTILE_ENTRIES)
def test_cache_recovers_from_a_corrupt_entry(tmp_path, make):
    """A hostile or broken entry is a miss: the fleet re-runs, the entry
    is rewritten, and no code in the file ever runs."""
    spec = small_spec()
    other = small_spec(seed=spec.seed + 1)
    cache = tmp_path / "cache"
    reference = run_fleet(spec, shards=1, cache_dir=cache)
    run_fleet(other, shards=1, cache_dir=cache)
    entry = cache / f"{spec.digest()}.result"
    foreign = (cache / f"{other.digest()}.result").read_bytes()
    sentinel = tmp_path / "ran"
    entry.write_bytes(make(entry.read_bytes(), foreign, sentinel))
    again = run_fleet(spec, shards=1, cache_dir=cache)
    assert again.canonical_bytes() == reference.canonical_bytes()
    assert not sentinel.exists()
    # The recomputed result replaced the bad entry.
    store = ResultStore(cache)
    body = reference.canonical_bytes()
    header, stored = store.load(
        "fleet",
        spec.digest(),
        lambda header, data: (header, FleetResult.from_canonical(spec, data)),
        spec=spec.canonical(),
    )
    assert stored.canonical_bytes() == body
    assert header["sha256"] == hashlib.sha256(body).hexdigest()
    assert header["summary"] is None


def test_cache_ignores_an_entry_for_a_different_spec(tmp_path):
    spec_a = small_spec()
    spec_b = small_spec(seed=spec_a.seed + 1)
    run_fleet(spec_a, shards=1, cache_dir=tmp_path)
    (entry_a,) = tmp_path.iterdir()
    # Plant spec A's payload at spec B's address; the spec equality
    # check inside the loader must reject it and recompute.
    entry_b = tmp_path / f"{spec_b.digest()}.result"
    entry_b.write_bytes(entry_a.read_bytes())
    result_b = run_fleet(spec_b, shards=1, cache_dir=tmp_path)
    assert result_b.spec == spec_b
    result_a = run_fleet(spec_a, shards=1, cache_dir=tmp_path)
    assert result_b.canonical_bytes() != result_a.canonical_bytes()


def test_cli_prints_the_result_sha256(tmp_path, capsys, monkeypatch):
    """``repro fleet`` prints the sha256 of ``canonical_bytes()``: over
    the fresh bytes without a store, from the entry header with one (a
    warm run never re-encodes the result), the same hash every way."""
    from repro.cli import main

    argv = ["fleet", "--quick", "--racks", "3", "--nodes-per-rack", "2"]
    cache = ["--cache-dir", str(tmp_path)]

    def result_line():
        out = capsys.readouterr().out.splitlines()
        digest = out[1].split()[1]
        (line,) = [ln for ln in out if ln.startswith("result sha256 ")]
        return digest, line.split()[2]

    assert main(argv) == 0
    digest, uncached = result_line()
    assert main(argv + ["--shards", "2"] + cache) == 0
    assert result_line() == (digest, uncached)
    body = ResultStore(tmp_path).load("fleet", digest, lambda _header, data: data)
    assert hashlib.sha256(body).hexdigest() == uncached

    def no_encoding(self):
        raise AssertionError("a warm run reads the hash from the header")

    monkeypatch.setattr(FleetResult, "canonical_bytes", no_encoding)
    assert main(argv + cache) == 0
    assert result_line() == (digest, uncached)


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
