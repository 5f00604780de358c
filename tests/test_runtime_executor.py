"""RunExecutor contracts: parallel == serial, dedup, stats.

The executor's headline guarantee is that ``jobs=N`` is an exact
optimization — every RunResult that comes back from a worker process is
identical to the one the historical in-process path produces.  The
simulator is a pure function of the spec, so these tests compare full
trace sets, events and per-node summaries field by field.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.cluster.cluster import RunResult
from repro.runtime import RunExecutor, RunSpec


def specs_pair():
    """Two distinct, fast specs (one-node synthetic profiles)."""
    return [
        RunSpec.of(
            "mixed_thermal_profile",
            {"duration": 20.0},
            rigs=[("constant_fan", {"duty": duty})],
            n_nodes=1,
            seed=11,
            timeout=120.0,
        )
        for duty in (0.40, 0.60)
    ]


def assert_results_equal(a: RunResult, b: RunResult) -> None:
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


def test_parallel_results_match_serial_exactly() -> None:
    specs = specs_pair()
    serial = RunExecutor(jobs=1).map(specs)
    parallel = RunExecutor(jobs=2).map(specs)
    for s, p in zip(serial, parallel):
        assert_results_equal(s, p)


def test_run_is_map_of_one() -> None:
    spec = specs_pair()[0]
    executor = RunExecutor()
    assert_results_equal(executor.run(spec), executor.map([spec])[0])


def test_duplicate_specs_execute_once() -> None:
    spec = specs_pair()[0]
    executor = RunExecutor()
    first, second = executor.map([spec, spec])
    assert first is second
    assert executor.stats.executed == 1
    assert executor.stats.deduplicated == 1


def test_many_duplicate_specs_stress() -> None:
    """The serving layer's dedup depends on this scaling: N copies of
    one digest in a single map() call execute exactly once, every
    position gets the one result, and the registry counter agrees."""
    spec = specs_pair()[0]
    copies = 25
    executor = RunExecutor()
    results = executor.map([spec] * copies)
    assert len(results) == copies
    assert all(r is results[0] for r in results)
    assert executor.stats.executed == 1
    assert executor.stats.deduplicated == copies - 1
    snapshot = executor.registry.snapshot()
    assert snapshot.value("host.exec.deduplicated") == float(copies - 1)
    assert snapshot.value("host.exec.executed") == 1.0


def test_results_keep_spec_order() -> None:
    specs = specs_pair()
    results = RunExecutor(jobs=2).map(specs)
    expected = [RunExecutor().run(s) for s in specs]
    for got, want in zip(results, expected):
        assert_results_equal(got, want)


def test_stats_track_cache_across_maps(tmp_path) -> None:
    specs = specs_pair()
    executor = RunExecutor(cache_dir=tmp_path, cache_version="v1")
    executor.map(specs)
    assert executor.stats.as_dict() == {
        "executed": 2,
        "cache_hits": 0,
        "cache_misses": 2,
        "deduplicated": 0,
        "jobs_requested": 1,
        "jobs_effective": 1,
    }
    executor.map(specs)
    assert executor.stats.cache_hits == 2
    assert executor.stats.executed == 2  # unchanged: nothing re-ran


def test_cached_result_matches_fresh(tmp_path) -> None:
    spec = specs_pair()[0]
    fresh = RunExecutor().run(spec)
    warm = RunExecutor(cache_dir=tmp_path, cache_version="v1")
    warm.run(spec)  # populate
    assert_results_equal(warm.run(spec), fresh)


@pytest.mark.parametrize(
    "payload",
    [b"not a pickle", b"\x80\x09", b"cno_such_module_xyz\nX\n."],
    ids=["garbage", "protocol-9", "no-module"],
)
def test_cache_recovers_from_a_corrupt_entry(tmp_path, payload) -> None:
    """Garbage, an unknown pickle protocol and a missing module all read
    as a miss: the spec re-runs and its entry is rewritten."""
    spec = specs_pair()[0]
    fresh = RunExecutor().run(spec)
    RunExecutor(cache_dir=tmp_path, cache_version="v1").run(spec)
    (entry,) = tmp_path.glob("*.pkl")
    entry.write_bytes(payload)
    executor = RunExecutor(cache_dir=tmp_path, cache_version="v1")
    assert_results_equal(executor.run(spec), fresh)
    assert executor.stats.cache_misses == 1
    assert executor.stats.executed == 1
    with open(entry, "rb") as handle:
        assert_results_equal(pickle.load(handle), fresh)


# ------------------------------------------------------------- jobs clamp


def _core_stats(executor: RunExecutor) -> dict:
    """Executor stats minus the configuration-dependent jobs gauges."""
    stats = executor.stats.as_dict()
    del stats["jobs_requested"], stats["jobs_effective"]
    return stats


def test_jobs_clamped_to_cpu_count() -> None:
    """Requesting more workers than CPUs clamps the effective fan-out."""
    cpus = os.cpu_count() or 1
    executor = RunExecutor(jobs=cpus + 4)
    assert executor.effective_jobs == cpus
    assert executor.stats.jobs_requested == cpus + 4
    assert executor.stats.jobs_effective == cpus
    assert executor.stats.jobs_clamped is True


def test_jobs_within_cpu_count_not_clamped() -> None:
    executor = RunExecutor(jobs=1)
    assert executor.effective_jobs == 1
    assert executor.stats.jobs_clamped is False


def test_clamped_serial_fallback_matches_serial(monkeypatch) -> None:
    """jobs=4 on a 1-CPU host falls back to the serial path exactly.

    The regression this pins: the pool used to spawn 4 workers on one
    CPU (speedup 0.834 — pure overhead).  With the clamp, the executor
    must take the in-process serial path and produce identical results.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    specs = specs_pair()
    clamped = RunExecutor(jobs=4)
    assert clamped.effective_jobs == 1
    assert clamped.stats.jobs_clamped is True
    serial_results = RunExecutor(jobs=1).map(specs)
    clamped_results = clamped.map(specs)
    for s, c in zip(serial_results, clamped_results):
        assert_results_equal(s, c)
    # The serial fallback never opened a pool.
    assert clamped.telemetry_snapshot().value("host.exec.pool_batches") == 0.0
    assert clamped._pool is None


# ---------------------------------------------------------------- pool reuse


def test_pool_is_reused_across_map_calls(monkeypatch) -> None:
    """Successive parallel map() calls share one worker pool.

    Spin-up (fork + module-tree import per worker) used to be paid on
    every call; now the pool is created lazily on the first parallel
    map and reused, and results stay identical to the serial path.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs = specs_pair()
    serial = RunExecutor(jobs=1).map(specs + specs_pair())
    with RunExecutor(jobs=2) as executor:
        assert executor._pool is None  # lazy: no pool before first map
        first = executor.map(specs)
        pool = executor._pool
        assert pool is not None
        second = executor.map(specs_pair())
        assert executor._pool is pool  # same pool object, no respawn
        snap = executor.telemetry_snapshot()
        assert snap.value("host.exec.pool_batches") == 2.0
        assert snap.value("host.exec.pools_created") == 1.0
        for s, p in zip(serial, first + second):
            assert_results_equal(s, p)
    assert executor._pool is None  # context exit released the workers


def test_close_is_idempotent_and_executor_stays_usable(monkeypatch) -> None:
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    executor = RunExecutor(jobs=2)
    executor.close()  # nothing created yet: a no-op
    first = executor.map(specs_pair())
    executor.close()
    executor.close()
    assert executor._pool is None
    # The executor survives close(): the next map spins a fresh pool.
    second = executor.map(specs_pair())
    assert executor._pool is not None
    for a, b in zip(first, second):
        assert_results_equal(a, b)
    executor.close()


# ---------------------------------------------------------------- telemetry


def test_telemetry_stats_identical_serial_vs_parallel() -> None:
    """Registry-backed stats survive process fan-out unchanged."""
    specs = specs_pair()
    serial = RunExecutor(jobs=1, telemetry=True)
    parallel = RunExecutor(jobs=2, telemetry=True)
    serial_results = serial.map(specs)
    parallel_results = parallel.map(specs)
    expected = {
        "executed": 2,
        "cache_hits": 0,
        "cache_misses": 0,
        "deduplicated": 0,
    }
    assert _core_stats(serial) == expected
    assert _core_stats(parallel) == expected
    for s, p in zip(serial_results, parallel_results):
        assert s.telemetry is not None, "snapshot must survive the pool"
        assert s.telemetry == p.telemetry
    # Sim-side telemetry (everything but host.*) is identical too.
    assert serial.telemetry_snapshot().without(
        "host."
    ) == parallel.telemetry_snapshot().without("host.")


def test_telemetry_stats_with_cache_match_serial(tmp_path) -> None:
    specs = specs_pair()
    serial = RunExecutor(cache_dir=tmp_path / "a", telemetry=True)
    parallel = RunExecutor(jobs=2, cache_dir=tmp_path / "b", telemetry=True)
    for executor in (serial, parallel):
        executor.map(specs)
        executor.map(specs)
    assert _core_stats(serial) == _core_stats(parallel) == {
        "executed": 2,
        "cache_hits": 2,
        "cache_misses": 2,
        "deduplicated": 0,
    }


def test_telemetry_collects_primary_pairs_once() -> None:
    spec = specs_pair()[0]
    executor = RunExecutor(telemetry=True)
    first, second = executor.map([spec, spec])
    assert first is second
    assert len(executor.collected) == 1
    collected_spec, collected_result = executor.collected[0]
    assert collected_spec.telemetry is True
    assert collected_result is first


def test_host_metrics_record_per_spec_wall_time() -> None:
    executor = RunExecutor(telemetry=True)
    executor.map(specs_pair())
    snapshot = executor.telemetry_snapshot()
    wall = snapshot.get("host.spec.wall_seconds")
    assert wall is not None
    assert wall.count == 2
    assert wall.sum > 0.0
    assert snapshot.value("host.exec.executed") == 2.0


def test_default_executor_is_telemetry_free() -> None:
    executor = RunExecutor()
    result = executor.run(specs_pair()[0])
    assert result.telemetry is None
    assert executor.collected == []


# --------------------------------------------- concurrent cache stores


def test_cache_store_tmp_names_never_collide(tmp_path, monkeypatch) -> None:
    """Two executors in one process storing the same digest must write
    through distinct tmp files (a pid-only suffix let their writes
    interleave into one file)."""
    spec = specs_pair()[0]
    result = RunExecutor().run(spec)
    first = RunExecutor(cache_dir=tmp_path, cache_version="v1")
    second = RunExecutor(cache_dir=tmp_path, cache_version="v1")
    tmp_names = []
    real_replace = os.replace

    def recording_replace(src, dst):
        tmp_names.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    first._cache_store(spec, result)
    second._cache_store(spec, result)
    assert len(tmp_names) == 2
    assert tmp_names[0] != tmp_names[1]
    # Both renamed into the same final entry, which loads cleanly.
    assert_results_equal(first._cache_load(spec), result)
    assert not list(tmp_path.glob("*.tmp.*"))  # nothing left behind


def test_concurrent_cache_stores_share_a_dir(tmp_path) -> None:
    """Thread-interleaved stores of the same digest stay uncorrupted."""
    import threading

    spec = specs_pair()[0]
    result = RunExecutor().run(spec)
    executors = [
        RunExecutor(cache_dir=tmp_path, cache_version="v1") for _ in range(2)
    ]

    def hammer(executor):
        for _ in range(25):
            executor._cache_store(spec, result)

    threads = [
        threading.Thread(target=hammer, args=(e,)) for e in executors
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert_results_equal(executors[0]._cache_load(spec), result)
    assert not list(tmp_path.glob("*.tmp.*"))


# ------------------------------------------------- shared registries


def test_shared_registry_keeps_executor_stats_independent() -> None:
    """Two executors on one registry must not clobber each other's
    gauges or cross-contaminate counters (each gets an executor label)."""
    from repro.telemetry.registry import MetricsRegistry

    registry = MetricsRegistry()
    first = RunExecutor(jobs=1, registry=registry)
    second = RunExecutor(jobs=3, registry=registry)
    # The second executor's construction must not overwrite the first's
    # jobs gauges (the historical bug: last writer won).
    assert first.stats.jobs_requested == 1
    assert second.stats.jobs_requested == 3
    first.map(specs_pair())
    assert first.stats.executed == 2
    assert second.stats.executed == 0  # untouched by the other's work


def test_solo_executor_keeps_unlabeled_metrics() -> None:
    """Without an explicit registry the instrument names are unchanged
    (pinned snapshots and stats stay byte-compatible)."""
    executor = RunExecutor()
    executor.map(specs_pair()[:1])
    snapshot = executor.registry.snapshot()
    assert snapshot.get("host.exec.executed") is not None
    assert snapshot.get("host.exec.jobs_requested") is not None
    labels = {s.labels for s in snapshot if s.name.startswith("host.exec.")}
    assert labels == {()}
