"""The job ledger: admission control, in-flight dedup, batch coalescing.

One :class:`JobManager` owns everything between "a spec arrived" and "a
summary exists":

* **Identity.**  Jobs are keyed by the spec's content digest — the same
  digest the runtime cache uses — so *the request path is
  content-addressed end to end*: two requests for the same spec are the
  same job, whether they arrive a microsecond or a day apart.
* **Admission control.**  At most ``queue_depth`` jobs may sit queued
  (accepted, not yet dispatched).  Overflow raises :class:`QueueFull`,
  which the server answers with ``429`` + ``Retry-After`` — the caller
  sheds load instead of the server growing an unbounded backlog.
* **In-flight dedup.**  A request for a digest that is already queued
  or running attaches to the existing job as a *follower*: it awaits
  the leader's future and is never admitted, queued or executed
  separately (so duplicates also cannot trip admission control).
* **Batch coalescing.**  Queued jobs are dispatched in windows: the
  dispatcher sleeps ``batch_window`` seconds after work arrives, then
  takes *everything* queued in one sweep and hands it to one
  :meth:`RunExecutor.map` call, which groups compatible specs (same
  ``_batch_key``) through the lockstep batch stepper — so sweep-shaped
  traffic (fig07's cap ladder POSTed as four requests) executes exactly
  like ``repro run fig7`` runs it.

Determinism: none of this machinery touches result *content*.  Batched,
deduplicated, cached and cold executions of one spec all produce the
same :class:`~repro.cluster.cluster.RunResult` bytes (the executor's
own equivalence gates), so the summary a job stores is independent of
the traffic pattern that produced it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.executor import RunExecutor
from ..runtime.spec import RunSpec
from ..telemetry.registry import MetricsRegistry
from .payloads import summary_bytes

__all__ = ["Job", "JobManager", "QueueFull"]

#: Job lifecycle states (monotonic: queued -> running -> done|failed).
_STATES = ("queued", "running", "done", "failed")


class QueueFull(Exception):
    """Admission control rejected a new job (queue at ``queue_depth``)."""

    def __init__(self, queue_depth: int, retry_after: int) -> None:
        super().__init__(
            f"run queue is full ({queue_depth} jobs queued); retry later"
        )
        self.queue_depth = queue_depth
        self.retry_after = retry_after


@dataclass
class Job:
    """One admitted spec and everything known about its execution."""

    spec: RunSpec
    digest: str
    state: str = "queued"
    #: Canonical result bytes once done (see :mod:`repro.serve.payloads`).
    summary: Optional[bytes] = None
    #: Error text once failed.
    error: Optional[str] = None
    #: Resolved when the job reaches a terminal state.
    future: "asyncio.Future" = field(default_factory=asyncio.Future)
    #: How the result materialized: "executed", "cache", or "" while open.
    source: str = ""

    def finish(self, summary: Optional[bytes], error: Optional[str]) -> None:
        """Move to a terminal state and wake every waiter."""
        if error is None:
            self.state = "done"
            self.summary = summary
        else:
            self.state = "failed"
            self.error = error
        if not self.future.done():
            self.future.set_result(self.state)


class JobManager:
    """Admission, dedup and windowed dispatch over one :class:`RunExecutor`.

    Parameters
    ----------
    executor:
        The runtime executor every job runs through (its cache directory
        and process fan-out are the server's worker pool).
    registry:
        Metrics registry for the ``serve.runs.*`` / ``serve.queue.*``
        instruments (normally shared with the executor, so ``/metrics``
        exports both in one scrape).
    queue_depth:
        Most jobs allowed in the queued state at once.
    batch_window:
        Seconds the dispatcher lingers after work arrives before
        sweeping the queue, so near-simultaneous compatible specs
        coalesce into one lockstep batch group.  ``0`` dispatches
        immediately (whatever is queued by then still groups).
    """

    def __init__(
        self,
        executor: RunExecutor,
        registry: MetricsRegistry,
        queue_depth: int = 64,
        batch_window: float = 0.05,
    ) -> None:
        self.executor = executor
        self.queue_depth = max(1, int(queue_depth))
        self.batch_window = max(0.0, float(batch_window))
        self._jobs: Dict[str, Job] = {}
        self._queued: List[Job] = []
        self._wakeup = asyncio.Event()
        self._task: Optional["asyncio.Task"] = None
        self._submitted = registry.counter("serve.runs.submitted")
        self._completed = registry.counter("serve.runs.completed")
        self._failed = registry.counter("serve.runs.failed")
        self._rejected = registry.counter("serve.runs.rejected")
        self._cache_hits = registry.counter("serve.runs.cache_hits")
        self._followers = registry.counter("serve.runs.dedup_followers")
        self._depth = registry.gauge("serve.queue.depth")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher task (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def stop(self) -> None:
        """Cancel the dispatcher and fail any still-open jobs."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for job in self._jobs.values():
            if job.state in ("queued", "running"):
                job.finish(None, "server shut down before the run completed")
        self._queued.clear()
        self._depth.set(0.0)

    # -- submission ------------------------------------------------------

    def get(self, digest: str) -> Optional[Job]:
        """The job for a digest, or ``None`` if never admitted."""
        return self._jobs.get(digest)

    def submit(self, spec: RunSpec) -> Tuple[Job, str]:
        """Admit a spec (or attach to its existing job).

        Returns ``(job, disposition)`` where disposition is one of
        ``"queued"`` (newly admitted), ``"follower"`` (attached to an
        in-flight duplicate), ``"done"``/``"failed"`` (already
        terminal), or ``"cache"`` (satisfied from the result cache
        without executing).  Raises :class:`QueueFull` when admission
        control rejects a genuinely new job.
        """
        digest = spec.digest(version=self.executor.cache_version)
        job = self._jobs.get(digest)
        if job is not None:
            if job.state in ("queued", "running"):
                self._followers.inc()
                return job, "follower"
            return job, job.state

        cached = self.executor.cached(spec)
        if cached is not None:
            self._cache_hits.inc()
            job = Job(spec=spec, digest=digest, state="done", source="cache")
            job.finish(summary_bytes(spec, cached), None)
            self._jobs[digest] = job
            return job, "cache"

        if len(self._queued) >= self.queue_depth:
            self._rejected.inc()
            raise QueueFull(
                self.queue_depth, retry_after=max(1, round(self.batch_window) + 1)
            )
        self._submitted.inc()
        job = Job(spec=spec, digest=digest)
        self._jobs[digest] = job
        self._queued.append(job)
        self._depth.set(float(len(self._queued)))
        self._wakeup.set()
        return job, "queued"

    @property
    def queued_count(self) -> int:
        """Jobs currently awaiting dispatch."""
        return len(self._queued)

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Sweep the queue in coalescing windows, forever."""
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            if not self._queued:
                continue
            window, self._queued = self._queued, []
            self._depth.set(0.0)
            for job in window:
                job.state = "running"
            outcomes = await asyncio.to_thread(
                self._run_window, [job.spec for job in window]
            )
            for job, (summary, error) in zip(window, outcomes):
                job.source = "executed"
                job.finish(summary, error)
                (self._completed if error is None else self._failed).inc()

    def _run_window(
        self, specs: Sequence[RunSpec]
    ) -> List[Tuple[Optional[bytes], Optional[str]]]:
        """Execute one swept window on the executor (worker thread).

        The whole window is one :meth:`RunExecutor.map` call, so
        compatible specs group through the lockstep stepper.  A failing
        spec only fails itself: on a window-level error the window
        re-runs spec by spec so errors attribute precisely.
        """
        try:
            results = self.executor.map(specs)
        except Exception:
            results = None
        if results is not None:
            return [
                (summary_bytes(spec, result), None)
                for spec, result in zip(specs, results)
            ]
        out: List[Tuple[Optional[bytes], Optional[str]]] = []
        for spec in specs:
            try:
                result = self.executor.run(spec)
            except Exception as exc:  # surface per-spec, keep serving
                out.append((None, f"{type(exc).__name__}: {exc}"))
            else:
                out.append((summary_bytes(spec, result), None))
        return out
