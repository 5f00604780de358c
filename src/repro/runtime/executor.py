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
* **Caching** — with ``cache_dir`` set, results are pickled under a
  content hash of (spec, package version), so re-running the same
  configuration across the CLI, tests and benchmarks simulates once.
  Off by default.  Version bumps invalidate every entry.

* **Lockstep grouping** — uncached specs that differ only in seeds and
  rig parameters (fig07's max-PWM ladder is the exemplar) advance
  together through :mod:`repro.fastpath.batch`, one stacked thermal
  solve per tick for the whole group.  Every run's result, and the
  per-spec cache entry written from it, is bitwise identical to its
  own serial execution; anything the lockstep path cannot guarantee
  falls back to per-spec execution.

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
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.cluster import RunResult
from ..telemetry.registry import MetricsRegistry, SECONDS_BUCKETS
from ..telemetry.snapshot import TelemetrySnapshot
from .execute import execute_specs_batch
from .spec import RunSpec

__all__ = ["ExecutorStats", "RunExecutor", "timed_execute_specs"]

#: Distinguishes executors that share one metrics registry: each gets an
#: ``executor=<ordinal>`` label on its host-side instruments so two
#: executors' counters and gauges never collide (process-lifetime
#: ordinals; host metrics are excluded from deterministic exports).
_EXECUTOR_IDS = itertools.count()

#: Makes concurrent cache stores from one process collision-free: the
#: tmp-file name folds in a process-wide sequence number on top of the
#: pid, so two executors (or threads) storing the same digest never
#: interleave writes into one tmp file.
_TMP_IDS = itertools.count()


def timed_execute_specs(specs: Sequence[RunSpec]) -> Tuple[List[RunResult], float]:
    """:func:`execute_specs_batch` plus the worker-side wall time, s.

    One execution unit: a lone spec runs through
    :func:`~repro.runtime.execute.execute_spec`, a larger unit in
    lockstep.  Module-level (picklable) so the measurement happens
    *inside* the worker process — the parent would otherwise attribute
    pool queueing delays to the simulation.
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
        """Worker count after clamping to the machine's CPU count."""
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
        beyond ``os.cpu_count()`` are clamped — oversubscribing a small
        machine costs pickling and scheduling overhead without any
        parallelism to pay for it — and a clamp down to one worker
        falls back to the serial path entirely.  The requested and
        effective counts are surfaced through :class:`ExecutorStats`.
    cache_dir:
        Directory for the content-addressed result cache; ``None``
        (default) disables caching.  Created on first write.
    cache_version:
        Version string folded into cache digests; defaults to the
        installed package version.  Exposed so tests can model a
        version bump without reinstalling.
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
    cache_version: Optional[str] = None
    telemetry: bool = False
    platform: Optional[str] = None
    registry: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        self.jobs = max(1, int(self.jobs))
        self.effective_jobs = min(self.jobs, os.cpu_count() or 1)
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
        if self.cache_version is None:
            from .. import __version__

            self.cache_version = __version__
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

    def cached(self, spec: RunSpec) -> Optional[RunResult]:
        """Probe the on-disk cache for a spec without running anything.

        Returns the cached :class:`RunResult` or ``None`` (no cache
        directory, no entry, or a corrupt entry — all indistinguishable
        by design).  A probe is *not* a hit: it does not touch the
        ``host.cache.*`` counters, so :class:`ExecutorStats` keeps
        meaning "what :meth:`map` did".  The serving layer uses this to
        answer hot requests without occupying a queue slot.
        """
        return self._cache_load(spec)

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
                if self.cache_dir is not None:
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

        Lockstep runs must advance on the same tick schedule with the
        same run protocol — workload shape, node count, rig families,
        ambient model, timeout/tail, telemetry mode and platform — while
        seeds and rig *parameters* are free to differ (that is the whole
        point of a sweep).  Fault specs never group: their protocol is
        not a single ``run_job``.
        """
        if spec.fault is not None:
            return None
        return (
            spec.workload,
            spec.workload_params,
            spec.n_nodes,
            tuple(rig.name for rig in spec.rigs),
            spec.ambient,
            spec.timeout,
            spec.tail,
            spec.telemetry,
            spec.platform,
        )

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
        for unit, (results, seconds) in zip(units, outcomes):
            share = seconds / len(unit)
            for i, result in zip(unit, results):
                out[i] = (result, share)
            if len(unit) > 1:
                self.registry.counter(
                    "host.exec.batch_groups", **self._labels
                ).inc()
                self.registry.counter(
                    "host.exec.batched_specs", **self._labels
                ).inc(len(unit))
        return out

    # -- cache -----------------------------------------------------------

    def _cache_path(self, spec: RunSpec) -> Path:
        return self.cache_dir / f"{spec.digest(version=self.cache_version)}.pkl"

    def _cache_load(self, spec: RunSpec) -> Optional[RunResult]:
        if self.cache_dir is None:
            return None
        path = self._cache_path(spec)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            OSError,
            ValueError,
            ImportError,
        ):
            # A truncated, foreign-protocol or stale entry is a miss,
            # not an error.
            return None

    def _cache_store(self, spec: RunSpec, result: RunResult) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(spec)
        # Write-then-rename so concurrent writers never observe a
        # partial pickle (os.replace is atomic on POSIX and Windows).
        # The tmp name folds in a process-wide sequence number: a
        # pid-only suffix let two executors (or threads) in one process
        # interleave writes into the same tmp file.
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_IDS)}")
        with tmp.open("wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
