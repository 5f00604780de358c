"""RunExecutor contracts: parallel == serial, dedup, stats.

The executor's headline guarantee is that ``jobs=N`` is an exact
optimization — every RunResult that comes back from a worker process is
identical to the one the historical in-process path produces.  The
simulator is a pure function of the spec, so these tests compare whole
results by their canonical bytes (scalars, traces, events, telemetry).
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

import pytest

from repro.cluster.cluster import summary_bytes
from repro.errors import ConfigurationError
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


#: The executor's lifetime counters and the metric each one reads.
_STATS = {
    "executed": "host.exec.executed",
    "cache_hits": "host.cache.hits",
    "cache_misses": "host.cache.misses",
    "deduplicated": "host.exec.deduplicated",
    "jobs_requested": "host.exec.jobs_requested",
    "jobs_effective": "host.exec.jobs_effective",
}


def stats(executor: RunExecutor) -> dict:
    """The executor's lifetime counters, from its telemetry snapshot."""
    snapshot = executor.telemetry_snapshot()
    return {key: int(snapshot.total(name)) for key, name in _STATS.items()}


def test_parallel_results_match_serial_exactly() -> None:
    specs = specs_pair()
    serial = RunExecutor(jobs=1).map(specs)
    parallel = RunExecutor(jobs=2).map(specs)
    for s, p in zip(serial, parallel):
        assert s.canonical_bytes() == p.canonical_bytes()


def test_run_is_map_of_one() -> None:
    spec = specs_pair()[0]
    executor = RunExecutor()
    run, (mapped,) = executor.run(spec), executor.map([spec])
    assert run.canonical_bytes() == mapped.canonical_bytes()


def test_duplicate_specs_execute_once() -> None:
    spec = specs_pair()[0]
    executor = RunExecutor()
    first, second = executor.map([spec, spec])
    assert first is second
    assert stats(executor)["executed"] == 1
    assert stats(executor)["deduplicated"] == 1


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
    assert stats(executor)["executed"] == 1
    assert stats(executor)["deduplicated"] == copies - 1
    snapshot = executor.registry.snapshot()
    assert snapshot.value("host.exec.deduplicated") == float(copies - 1)
    assert snapshot.value("host.exec.executed") == 1.0


def test_results_keep_spec_order() -> None:
    specs = specs_pair()
    results = RunExecutor(jobs=2).map(specs)
    expected = [RunExecutor().run(s) for s in specs]
    for got, want in zip(results, expected):
        assert got.canonical_bytes() == want.canonical_bytes()


def test_stats_track_cache_across_maps(tmp_path) -> None:
    specs = specs_pair()
    executor = RunExecutor(cache_dir=tmp_path)
    executor.map(specs)
    assert stats(executor) == {
        "executed": 2,
        "cache_hits": 0,
        "cache_misses": 2,
        "deduplicated": 0,
        "jobs_requested": 1,
        "jobs_effective": 1,
    }
    executor.map(specs)
    assert stats(executor)["cache_hits"] == 2
    assert stats(executor)["executed"] == 2  # unchanged: nothing re-ran


def test_cached_result_matches_fresh(tmp_path) -> None:
    spec = specs_pair()[0]
    fresh = RunExecutor().run(spec)
    warm = RunExecutor(cache_dir=tmp_path)
    warm.run(spec)  # populate
    assert warm.run(spec).canonical_bytes() == fresh.canonical_bytes()


class PlantedPickle:
    """Unpickling this creates ``sentinel`` — code a loader must never run."""

    def __init__(self, sentinel: Path) -> None:
        self.sentinel = sentinel

    def __reduce__(self):
        return (Path.touch, (self.sentinel,))


#: Hostile or broken entries the store must read as a miss, each built
#: from ``(valid entry bytes, another spec's entry bytes, sentinel)``.
#: Shared with the fleet suite: the policy is the store's, not a type's.
HOSTILE_ENTRIES = {
    "garbage": lambda valid, foreign, sentinel: b"not a pickle",
    "protocol-9": lambda valid, foreign, sentinel: b"\x80\x09",
    "no-module": lambda valid, foreign, sentinel: b"cno_such_module_xyz\nX\n.",
    "planted-pickle": lambda valid, foreign, sentinel: pickle.dumps(
        PlantedPickle(sentinel)
    ),
    "foreign-spec": lambda valid, foreign, sentinel: foreign,
    "truncated": lambda valid, foreign, sentinel: valid[:-8],
    "truncated-header": lambda valid, foreign, sentinel: valid[:40],
    # A flipped byte near the end of the body (a run's last trace).
    "flipped-bit": lambda valid, foreign, sentinel: valid[:-4]
    + bytes([valid[-4] ^ 1])
    + valid[-3:],
    # A flipped byte in the header's stored summary.
    "flipped-summary": lambda valid, foreign, sentinel: flip(
        valid, valid.index(b'"summary":') + 12
    ),
}


def flip(data: bytes, at: int) -> bytes:
    """``data`` with the byte at ``at`` changed."""
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


def test_planted_pickle_is_live(tmp_path) -> None:
    """The planted payload really runs when unpickled, so the
    ``planted-pickle`` cases below prove the store never unpickles."""
    sentinel = tmp_path / "ran"
    pickle.loads(HOSTILE_ENTRIES["planted-pickle"](b"", b"", sentinel))
    assert sentinel.exists()


@pytest.mark.parametrize("make", HOSTILE_ENTRIES.values(), ids=HOSTILE_ENTRIES)
def test_cache_recovers_from_a_corrupt_entry(tmp_path, make) -> None:
    """A hostile or broken entry is a miss for the probe and for ``map``;
    the spec re-runs, its entry is rewritten, and no code in the file
    ever runs."""
    spec, other = specs_pair()
    fresh = RunExecutor().run(spec)
    cache = tmp_path / "cache"
    RunExecutor(cache_dir=cache).map([spec, other])
    entry = cache / f"{spec.digest()}.result"
    foreign = (cache / f"{other.digest()}.result").read_bytes()
    sentinel = tmp_path / "ran"
    entry.write_bytes(make(entry.read_bytes(), foreign, sentinel))
    executor = RunExecutor(cache_dir=cache)
    assert executor.cached(spec) is None
    assert executor.stored(spec.digest()) is None
    assert executor.run(spec).canonical_bytes() == fresh.canonical_bytes()
    assert stats(executor)["cache_misses"] == 1
    assert stats(executor)["executed"] == 1
    assert not sentinel.exists()
    assert executor.cached(spec) == summary_bytes(spec, fresh)


def test_stored_reads_a_result_by_digest(tmp_path) -> None:
    """``stored`` rebuilds the spec from the entry header, so a caller
    holding only the digest gets the spec and its summary back."""
    spec = specs_pair()[0]
    RunExecutor(cache_dir=tmp_path).run(spec)
    found_spec, found = RunExecutor(cache_dir=tmp_path).stored(spec.digest())
    assert found_spec == spec
    assert found == summary_bytes(spec, RunExecutor().run(spec))
    assert RunExecutor(cache_dir=tmp_path).stored("0" * 40) is None


def test_cache_dir_that_cannot_be_a_directory_is_refused(tmp_path) -> None:
    """The store is opened with the executor: a path that cannot be a
    directory is a configuration error before anything runs."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    for path in (blocker, blocker / "below"):
        with pytest.raises(ConfigurationError, match="not a usable directory"):
            RunExecutor(cache_dir=path)


def _replace_fails(cache: Path, monkeypatch) -> None:
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)


def _directory_vanishes(cache: Path, monkeypatch) -> None:
    cache.rmdir()
    cache.write_text("")


@pytest.mark.parametrize(
    "break_store", [_replace_fails, _directory_vanishes],
    ids=["replace-fails", "directory-vanishes"],
)
def test_failed_cache_write_fails_no_run(tmp_path, monkeypatch, break_store) -> None:
    """A write error after the run finished is counted, leaves no tmp
    file, and the run's result still comes back."""
    spec = specs_pair()[0]
    cache = tmp_path / "cache"
    executor = RunExecutor(cache_dir=cache)
    break_store(cache, monkeypatch)
    fresh = RunExecutor().run(spec)
    assert executor.run(spec).canonical_bytes() == fresh.canonical_bytes()
    assert stats(executor)["executed"] == 1
    assert executor.registry.snapshot().value("host.cache.write_errors") == 1.0
    if cache.is_dir():
        assert list(cache.iterdir()) == []


# ------------------------------------------------------------- jobs clamp


def _core_stats(executor: RunExecutor) -> dict:
    """Executor stats minus the configuration-dependent jobs gauges."""
    counts = stats(executor)
    del counts["jobs_requested"], counts["jobs_effective"]
    return counts


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_jobs_clamped_to_cpu_count() -> None:
    """Requesting more workers than CPUs clamps the effective fan-out."""
    cpus = usable_cpus()
    executor = RunExecutor(jobs=cpus + 4)
    assert executor.effective_jobs == cpus
    assert stats(executor)["jobs_requested"] == cpus + 4
    assert stats(executor)["jobs_effective"] == cpus
    assert executor.effective_jobs < executor.jobs


def test_jobs_within_cpu_count_not_clamped() -> None:
    executor = RunExecutor(jobs=1)
    assert executor.effective_jobs == 1
    assert executor.effective_jobs == executor.jobs


def test_jobs_clamped_to_the_affinity_set(monkeypatch) -> None:
    """A ``taskset``- or cpuset-restricted process counts the CPUs it
    may use, not the machine's: one allowed CPU means one worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    executor = RunExecutor(jobs=2)
    assert executor.effective_jobs == 1
    assert executor.effective_jobs < executor.jobs


def test_clamped_serial_fallback_matches_serial(monkeypatch) -> None:
    """jobs=4 on a 1-CPU host falls back to the serial path exactly.

    The regression this pins: the pool used to spawn 4 workers on one
    CPU (speedup 0.834 — pure overhead).  With the clamp, the executor
    must take the in-process serial path and produce identical results.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    specs = specs_pair()
    clamped = RunExecutor(jobs=4)
    assert clamped.effective_jobs == 1
    assert clamped.effective_jobs < clamped.jobs
    serial_results = RunExecutor(jobs=1).map(specs)
    clamped_results = clamped.map(specs)
    for s, c in zip(serial_results, clamped_results):
        assert s.canonical_bytes() == c.canonical_bytes()
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
            assert s.canonical_bytes() == p.canonical_bytes()
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
        assert a.canonical_bytes() == b.canonical_bytes()
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
    first = RunExecutor(cache_dir=tmp_path)
    second = RunExecutor(cache_dir=tmp_path)
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
    assert first._cache_load(spec).canonical_bytes() == result.canonical_bytes()
    # Nothing left behind but the entry itself.
    assert [p.name for p in tmp_path.iterdir()] == [f"{spec.digest()}.result"]


def test_concurrent_cache_stores_share_a_dir(tmp_path) -> None:
    """Thread-interleaved stores of the same digest stay uncorrupted."""
    import threading

    spec = specs_pair()[0]
    result = RunExecutor().run(spec)
    executors = [RunExecutor(cache_dir=tmp_path) for _ in range(2)]

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
    loaded = executors[0]._cache_load(spec)
    assert loaded.canonical_bytes() == result.canonical_bytes()
    assert [p.name for p in tmp_path.iterdir()] == [f"{spec.digest()}.result"]


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
    def by_executor(name: str) -> list:
        """``name``'s values, first executor first (ordinals ascend)."""
        samples = [s for s in registry.snapshot() if s.name == name]
        samples.sort(key=lambda s: int(s.label_dict()["executor"]))
        return [s.value for s in samples]

    assert by_executor("host.exec.jobs_requested") == [1, 3]
    first.map(specs_pair())
    # the second is untouched by the other's work
    assert by_executor("host.exec.executed") == [2, 0]


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
