"""Spec → result mapping with process fan-out and result caching.

:class:`RunExecutor` is how every experiment, benchmark and CLI
invocation runs simulations:

.. code-block:: python

    executor = RunExecutor(jobs=4, cache_dir=".repro-cache")
    results = executor.map(specs)        # order matches specs

Four properties the rest of the repo builds on:

* **Determinism** — a spec's result is identical whether it ran
  serially, in a worker process, or came out of the cache (the
  simulator is a pure function of the spec; see
  :mod:`repro.runtime.execute`).  ``jobs=1`` is the default, so
  tier-1 behaviour is exactly the historical serial path.
* **Fan-out** — with ``jobs=N`` uncached specs are distributed over a
  :class:`~concurrent.futures.ProcessPoolExecutor`; sweeps cost the
  wall-clock of their slowest member, not their sum.  The pool is
  created lazily on the first parallel :meth:`RunExecutor.map` call
  and **reused** across subsequent calls, so a session of successive
  sweeps (the CLI's ``run all``, the serving layer, benchmark phases)
  pays worker spin-up — process fork plus the module-tree import —
  exactly once instead of per call.  :meth:`RunExecutor.close` (or the
  context-manager form) releases the workers; a broken pool is
  disposed and never reused.
* **Caching** — with ``cache_dir`` set, results go to a
  :class:`~repro.runtime.store.ResultStore` under the spec's digest
  (which folds in the package version), so re-running the same
  configuration across the CLI, tests and benchmarks simulates once.
  Off by default.  Version bumps invalidate every entry; a corrupt or
  foreign entry is a miss, and a failed write never fails a run.

* **Lockstep grouping** — uncached specs on one platform advance
  together as the lanes of one
  :func:`~repro.fastpath.batch.run_jobs_batch` call, one stacked
  thermal solve per tick for the whole group, whatever their
  workloads, rigs, node counts, ambients, timeouts, tails or telemetry
  modes (fig07's max-PWM ladder and fig06's three fan policies alike).
  Every run's result, and the per-spec cache entry written from it, is
  bitwise identical to its own serial execution; a tick the stack
  cannot take bitwise steps each package on its own.
  ``host.exec.batch_groups`` and ``host.exec.batched_specs`` count the
  units, and their specs, that started with two or more packages.

Identical specs inside one ``map`` call are also deduplicated: the run
happens once and the same result object is returned at each position.

Every executor owns a host-side
:class:`~repro.telemetry.registry.MetricsRegistry`.  Its lifetime
counters (``host.exec.*`` / ``host.cache.*``) back
:class:`ExecutorStats`, so the numbers are identical whether specs ran
serially or across the pool — workers measure their own wall time and
the parent folds it in (wall-clock reads are **only** legal here, in
``host.*`` metrics; sim-side telemetry is sim-clock-only, see lint rule
RPR008).  With ``telemetry=True`` the executor also switches every
mapped spec's telemetry on and keeps the ``(spec, result)`` pairs in
:attr:`RunExecutor.collected` for the exporters.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.cluster import RunResult, summary_bytes
from ..telemetry.registry import MetricsRegistry, SECONDS_BUCKETS
from ..telemetry.snapshot import TelemetrySnapshot
from .execute import execute_specs_batch
from .spec import RunSpec
from .store import ResultStore

__all__ = ["ExecutorStats", "RunExecutor", "timed_execute_specs"]

#: Distinguishes executors that share one metrics registry: each gets an
#: ``executor=<ordinal>`` label on its host-side instruments so two
#: executors' counters and gauges never collide (process-lifetime
#: ordinals; host metrics are excluded from deterministic exports).
_EXECUTOR_IDS = itertools.count()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS
    exposes one (``taskset``, cpusets), else ``os.cpu_count()``."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def timed_execute_specs(
    specs: Sequence[RunSpec],
) -> Tuple[List[RunResult], float]:
    """:func:`execute_specs_batch` plus the worker-side wall time, s.

    Module-level (picklable) so the measurement happens *inside* the
    worker process — the parent would otherwise attribute pool queueing
    delays to the simulation.
    """
    started = time.perf_counter()
    results = execute_specs_batch(specs)
    return results, time.perf_counter() - started


class ExecutorStats:
    """One executor's lifetime counters (cache efficacy, fan-out).

    A read-only view over the executor's ``host.*`` registry counters;
    because workers report back through the registry, the numbers are
    the same under ``jobs=1`` and ``jobs=N``.
    """

    __slots__ = (
        "_executed",
        "_cache_hits",
        "_cache_misses",
        "_deduplicated",
        "_jobs_requested",
        "_jobs_effective",
    )

    def __init__(self, registry: MetricsRegistry, **labels: object) -> None:
        self._executed = registry.counter("host.exec.executed", **labels)
        self._cache_hits = registry.counter("host.cache.hits", **labels)
        self._cache_misses = registry.counter("host.cache.misses", **labels)
        self._deduplicated = registry.counter(
            "host.exec.deduplicated", **labels
        )
        self._jobs_requested = registry.gauge(
            "host.exec.jobs_requested", **labels
        )
        self._jobs_effective = registry.gauge(
            "host.exec.jobs_effective", **labels
        )

    @property
    def executed(self) -> int:
        """Specs actually simulated (not cached, not deduplicated)."""
        return int(self._executed.value)

    @property
    def cache_hits(self) -> int:
        """Specs satisfied from the on-disk cache."""
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        """Specs simulated and then stored in the cache."""
        return int(self._cache_misses.value)

    @property
    def deduplicated(self) -> int:
        """Duplicate specs that reused an earlier position's result."""
        return int(self._deduplicated.value)

    @property
    def jobs_requested(self) -> int:
        """Worker count the executor was configured with."""
        return int(self._jobs_requested.value)

    @property
    def jobs_effective(self) -> int:
        """Worker count after clamping to the CPUs this process may use."""
        return int(self._jobs_effective.value)

    @property
    def jobs_clamped(self) -> bool:
        """Whether the requested fan-out exceeded the available CPUs."""
        return self.jobs_effective < self.jobs_requested

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for JSON reports)."""
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "deduplicated": self.deduplicated,
            "jobs_requested": self.jobs_requested,
            "jobs_effective": self.jobs_effective,
        }


@dataclass
class RunExecutor:
    """Maps :class:`RunSpec` lists to :class:`RunResult` lists.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs serially in-process,
        preserving the historical execution path exactly.  Requests
        beyond the CPUs this process may use (its affinity set, so
        ``taskset`` and cpusets count) are clamped — oversubscribing
        costs pickling and scheduling overhead without any parallelism
        to pay for it — and a clamp down to one worker falls back to
        the serial path entirely.  The requested and effective counts
        are surfaced through :class:`ExecutorStats`.
    cache_dir:
        Directory of the :class:`~repro.runtime.store.ResultStore`;
        ``None`` (default) disables caching.  Created here, so a path
        that cannot be a directory raises
        :class:`~repro.errors.ConfigurationError` up front.
    telemetry:
        When True, every mapped spec is run with telemetry enabled
        (``dataclasses.replace(spec, telemetry=True)``), results'
        snapshots are folded into the executor registry under a
        ``run=<digest>`` label, and the ``(spec, result)`` pairs are
        kept in :attr:`collected` for the exporters.
    platform:
        Optional platform registry key.  When set, every mapped spec
        that does not already name a platform is retargeted to this
        silicon (``dataclasses.replace(spec, platform=...)``) — the
        ``repro run|series --platform NAME`` path.  Specs that
        explicitly name a platform keep it.  ``None`` (default) leaves
        specs untouched, so historical digests and cache keys are
        unaffected.
    registry:
        The host-side metrics registry.  Supplied automatically; pass
        one explicitly to share a registry across executors — each
        executor then labels its ``host.*`` instruments with a unique
        ``executor=<ordinal>``, so shared-registry stats never
        cross-contaminate (solo executors keep unlabeled names).
    """

    jobs: int = 1
    cache_dir: Optional[Union[str, Path]] = None
    telemetry: bool = False
    platform: Optional[str] = None
    registry: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        self.jobs = max(1, int(self.jobs))
        self.effective_jobs = min(self.jobs, _usable_cpus())
        self.store: Optional[ResultStore] = None
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.store = ResultStore(self.cache_dir)
        shared_registry = self.registry is not None
        if self.registry is None:
            self.registry = MetricsRegistry()
        # Per-executor instrument namespace, but only when the caller
        # opted into sharing: a solo executor keeps the historical
        # unlabeled names (and byte-identical snapshots).
        self._labels: Dict[str, object] = (
            {"executor": next(_EXECUTOR_IDS)} if shared_registry else {}
        )
        self.stats = ExecutorStats(self.registry, **self._labels)
        self.stats._jobs_requested.set(float(self.jobs))
        self.stats._jobs_effective.set(float(self.effective_jobs))
        #: ``(spec, result)`` pairs accumulated across map() calls when
        #: ``telemetry=True`` (primary specs only; duplicates collapse).
        self.collected: List[Tuple[RunSpec, RunResult]] = []
        #: Lazily created, reused across map() calls (None until the
        #: first parallel execution; see :meth:`close`).
        self._pool: Optional[ProcessPoolExecutor] = None
        self._wall_hist = self.registry.histogram(
            "host.spec.wall_seconds", buckets=SECONDS_BUCKETS, **self._labels
        )

    # -- public API ------------------------------------------------------

    def run(self, spec: RunSpec) -> RunResult:
        """Run (or fetch) a single spec."""
        return self.map([spec])[0]

    def cached(self, spec: RunSpec) -> Optional[bytes]:
        """The :func:`~repro.cluster.cluster.summary_bytes` stored for a
        spec, or ``None`` (no cache directory, no entry, or a corrupt
        entry — all indistinguishable by design), read from the entry
        header: no run is decoded, nothing runs.

        A probe is *not* a hit: it does not touch the ``host.cache.*``
        counters, so :class:`ExecutorStats` keeps meaning "what
        :meth:`map` did".  The serving layer answers hot requests with
        it without occupying a queue slot.
        """
        if self.store is None:
            return None
        return self.store.load(
            "run",
            spec.digest(),
            lambda header, _body: header["summary"].encode(),
            spec=spec.canonical(),
        )

    def stored(self, digest: str) -> Optional[Tuple[RunSpec, bytes]]:
        """The spec and summary bytes stored under ``digest``, or
        ``None``: a probe like :meth:`cached`, for callers that hold only
        a digest.  The spec comes from the entry header and must hash to
        ``digest``."""
        if self.store is None:
            return None
        found = self.store.load(
            "run",
            digest,
            lambda header, _body: (
                RunSpec.from_json(header["spec"]),
                header["summary"].encode(),
            ),
        )
        if found is None or found[0].digest() != digest:
            return None
        return found

    def map(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Run every spec, returning results in spec order.

        Cached results are loaded first.  The remaining specs form
        execution units — lockstep groups of specs sharing a
        :meth:`_batch_key`, and singletons — which run serially
        (``jobs=1``) or across the process pool, then populate the
        cache.  Duplicate specs execute once.
        """
        specs = list(specs)
        if self.platform is not None:
            specs = [
                s
                if s.platform is not None
                else dataclasses.replace(s, platform=self.platform)
                for s in specs
            ]
        if self.telemetry:
            specs = [
                s if s.telemetry else dataclasses.replace(s, telemetry=True)
                for s in specs
            ]
        results: List[Optional[RunResult]] = [None] * len(specs)

        # Deduplicate: first index holding each distinct spec runs it.
        primary: Dict[RunSpec, int] = {}
        pending: List[int] = []
        for i, spec in enumerate(specs):
            if spec in primary:
                self.stats._deduplicated.inc()
                continue
            primary[spec] = i
            cached = self._cache_load(spec)
            if cached is not None:
                self.stats._cache_hits.inc()
                results[i] = cached
            else:
                pending.append(i)

        if pending:
            fresh = self._execute([specs[i] for i in pending])
            for i, (result, wall_seconds) in zip(pending, fresh):
                results[i] = result
                self._wall_hist.observe(wall_seconds)
                if self.store is not None:
                    self.stats._cache_misses.inc()
                    self._cache_store(specs[i], result)
            self.stats._executed.inc(len(pending))

        for i, spec in enumerate(specs):
            if results[i] is None:
                results[i] = results[primary[spec]]

        if self.telemetry:
            for spec, position in primary.items():
                result = results[position]
                self.collected.append((spec, result))
                if result.telemetry is not None:
                    self.registry.merge_snapshot(
                        result.telemetry.with_labels(run=spec.digest()[:12])
                    )
        return results

    def telemetry_snapshot(self) -> TelemetrySnapshot:
        """Everything this executor knows: host metrics + merged runs."""
        return self.registry.snapshot()

    def close(self) -> None:
        """Release the worker pool (idempotent; the executor stays usable
        — the next parallel :meth:`map` simply pays spin-up again)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "RunExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    # -- execution -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created on first parallel use.

        Sized to ``effective_jobs`` (not the current call's spec count)
        so one pool serves every subsequent :meth:`map` regardless of
        how many specs each call brings.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.effective_jobs)
            self.registry.counter(
                "host.exec.pools_created", **self._labels
            ).inc()
        return self._pool

    @staticmethod
    def _batch_key(spec: RunSpec):
        """The identity specs must share to run in lockstep, or ``None``.

        The stacked stepper needs only equal package structure, and the
        platform is its cheap stand-in; the lockstep loop fires each
        engine's own tasks and finishes each lane on its own tick, so
        everything else may differ.  Fault specs never group: their
        protocol is not a single ``run_job``.
        """
        if spec.fault is not None:
            return None
        return (spec.platform,)

    def _units(self, specs: Sequence[RunSpec]) -> List[List[int]]:
        """Spec indices split into execution units, in first-index order.

        Specs sharing a :meth:`_batch_key` group together; the rest are
        singletons.  Each group is dealt round-robin into at most
        ``effective_jobs`` chunks, so a parallel map spreads one sweep
        over every worker instead of running it in the parent.
        """
        groups: Dict[tuple, List[int]] = {}
        units: List[List[int]] = []
        for i, spec in enumerate(specs):
            key = self._batch_key(spec)
            if key is None:
                units.append([i])
            else:
                groups.setdefault(key, []).append(i)
        for members in groups.values():
            chunks = min(self.effective_jobs, len(members))
            units.extend(members[k::chunks] for k in range(chunks))
        units.sort()
        return units

    def _execute(self, specs: List[RunSpec]) -> List[Tuple[RunResult, float]]:
        """Run specs unit by unit, serially or across the process pool.

        Per-spec wall time inside a lockstep unit is not individually
        observable (the runs interleave at tick granularity), so each
        member is attributed an equal share of its unit's wall clock —
        the histogram's count stays one observation per executed spec
        and its sum stays the true total.
        """
        units = self._units(specs)
        batches = [[specs[i] for i in unit] for unit in units]
        workers = min(self.effective_jobs, len(units))
        self.registry.gauge("host.exec.workers", **self._labels).set(
            float(workers)
        )
        if workers <= 1:
            outcomes = [timed_execute_specs(batch) for batch in batches]
        else:
            self.registry.counter("host.exec.pool_batches", **self._labels).inc()
            pool = self._ensure_pool()
            try:
                outcomes = list(pool.map(timed_execute_specs, batches))
            except BrokenProcessPool:
                # A dead worker poisons the whole pool; dispose of it so
                # the next map() starts from a fresh one instead of
                # failing forever on the corpse.
                self._pool = None
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        out: List[Optional[Tuple[RunResult, float]]] = [None] * len(specs)
        for unit, batch, (results, seconds) in zip(units, batches, outcomes):
            share = seconds / len(unit)
            for i, result in zip(unit, results):
                out[i] = (result, share)
            # A unit of two or more packages started as one stack.
            if sum(spec.n_nodes for spec in batch if spec.fault is None) > 1:
                self.registry.counter(
                    "host.exec.batch_groups", **self._labels
                ).inc()
                self.registry.counter(
                    "host.exec.batched_specs", **self._labels
                ).inc(len(unit))
        return out

    # -- cache -----------------------------------------------------------

    def _cache_load(self, spec: RunSpec) -> Optional[RunResult]:
        if self.store is None:
            return None
        return self.store.load(
            "run",
            spec.digest(),
            lambda _header, body: RunResult.from_canonical(body),
            spec=spec.canonical(),
        )

    def _cache_store(self, spec: RunSpec, result: RunResult) -> None:
        body, summary = result.canonical_bytes(), summary_bytes(spec, result)
        if not self.store.save("run", spec.digest(), spec.canonical(), body, summary):
            self.registry.counter(
                "host.cache.write_errors", **self._labels
            ).inc()
