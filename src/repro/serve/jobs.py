"""The job ledger: admission control, in-flight dedup, dispatch.

One :class:`JobManager` owns everything between "a spec arrived" and "a
summary exists":

* **Identity.**  Jobs are keyed by the spec's content digest — the same
  digest the result store uses — so *the request path is
  content-addressed end to end*: two requests for the same spec are the
  same job while it is open, and the same stored result after.
* **A ledger that forgets.**  The ledger holds open (queued or running)
  jobs and at most ``queue_depth`` failed ones, oldest dropped first,
  so a poller can still read an error.  A done job leaves the ledger as
  soon as its waiters are answered: its result is in the store, and a
  repeat request or a ``GET`` by digest reads the summary stored in
  the entry's header.
* **Admission control.**  At most ``queue_depth`` jobs may sit queued
  (accepted, not yet dispatched).  Overflow raises :class:`QueueFull`,
  which the server answers with ``429`` + ``Retry-After`` — the caller
  sheds load instead of the server growing an unbounded backlog.
* **In-flight dedup.**  A request for a digest that is already queued
  or running attaches to the existing job as a *follower*: it awaits
  the leader's future and is never admitted, queued or executed
  separately (so duplicates also cannot trip admission control).
* **Work-conserving dispatch.**  When the executor is idle, a newly
  queued spec is dispatched as soon as the event loop gets to it; no
  timer holds it back.  Specs that arrive while a window is running
  queue up and become the next window: the dispatcher takes
  *everything* queued in one sweep and hands it to one
  :meth:`RunExecutor.map` call, which groups the specs of each platform
  (the executor's ``_batch_key``) through the lockstep batch stepper.
  So coalescing comes from load, not from a timer: a fig07 cap ladder
  POSTed as four back-to-back requests runs its first spec alone and
  the three that arrive while it runs as one window, with the same
  bytes as ``repro run fig7``.

Determinism: none of this machinery touches result *content*.  Batched,
deduplicated, cached and cold executions of one spec all produce the
same :class:`~repro.cluster.cluster.RunResult` bytes (the executor's
own equivalence gates), so the summary a job stores is independent of
the traffic pattern that produced it.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..runtime.executor import RunExecutor
from ..runtime.spec import RunSpec
from ..telemetry.registry import MetricsRegistry
from .payloads import summary_bytes

__all__ = ["Job", "JobManager", "QueueFull"]

#: Job lifecycle states (monotonic: queued -> running -> done|failed).
_STATES = ("queued", "running", "done", "failed")


class QueueFull(Exception):
    """Admission control rejected a new job (queue at ``queue_depth``)."""

    #: Seconds the caller is told to wait (``Retry-After``).
    retry_after = 1

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"run queue is full ({queue_depth} jobs queued); retry later"
        )
        self.queue_depth = queue_depth


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
    """Admission, dedup and dispatch over one :class:`RunExecutor`.

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
        Most jobs allowed in the queued state at once (running jobs do
        not count); also the most failed jobs the ledger keeps.

    The dispatcher runs one window at a time: the whole queue as it
    stands when the previous window finishes (or, when idle, as soon as
    a spec arrives).  Nothing on that path waits on wall-clock time.
    """

    def __init__(
        self,
        executor: RunExecutor,
        registry: MetricsRegistry,
        queue_depth: int = 64,
    ) -> None:
        self.executor = executor
        self.queue_depth = max(1, int(queue_depth))
        self._jobs: Dict[str, Job] = {}
        #: Digests of the failed jobs still in the ledger, oldest first.
        self._failed_fifo: Deque[str] = deque()
        self._queued: List[Job] = []
        self._wakeup = asyncio.Event()
        self._task: Optional["asyncio.Task"] = None
        #: The executor thread of the running window (it cannot be
        #: cancelled; :meth:`stop` waits for it).
        self._window: Optional["asyncio.Future"] = None
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
        """Cancel the dispatcher, wait out a running window (its results
        still reach the store) and fail any still-open jobs."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._window is not None:
            await asyncio.wait([self._window])
        for job in self._jobs.values():
            if job.state in ("queued", "running"):
                job.finish(None, "server shut down before the run completed")
        self._queued.clear()
        self._depth.set(0.0)

    # -- submission ------------------------------------------------------

    def get(self, digest: str) -> Optional[Job]:
        """The job for a digest: from the ledger, else a done job read
        from the result store, else ``None``."""
        job = self._jobs.get(digest)
        if job is not None:
            return job
        stored = self.executor.stored(digest)
        if stored is None:
            return None
        return self._cached_job(stored[0], digest, stored[1])

    @staticmethod
    def _cached_job(spec: RunSpec, digest: str, summary: bytes) -> Job:
        """A done job answered from the stored summary (never enters
        the ledger)."""
        job = Job(spec=spec, digest=digest, source="cache")
        job.finish(summary, None)
        return job

    def submit(self, spec: RunSpec) -> Tuple[Job, str]:
        """Admit a spec (or attach to its existing job).

        Returns ``(job, disposition)`` where disposition is one of
        ``"queued"`` (newly admitted), ``"follower"`` (attached to an
        in-flight duplicate), ``"failed"`` (a failed job still in the
        ledger), or ``"cache"`` (answered from the result store without
        executing — every repeat of a done spec).  Raises
        :class:`QueueFull` when admission control rejects a genuinely
        new job.
        """
        digest = spec.digest()
        job = self._jobs.get(digest)
        if job is not None:
            if job.state in ("queued", "running"):
                self._followers.inc()
                return job, "follower"
            return job, job.state

        cached = self.executor.cached(spec)
        if cached is not None:
            self._cache_hits.inc()
            return self._cached_job(spec, digest, cached), "cache"

        if len(self._queued) >= self.queue_depth:
            self._rejected.inc()
            raise QueueFull(self.queue_depth)
        self._submitted.inc()
        job = Job(spec=spec, digest=digest)
        self._jobs[digest] = job
        self._queued.append(job)
        self._depth.set(float(len(self._queued)))
        self._wakeup.set()
        return job, "queued"

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Run the whole queue as one window whenever the executor frees."""
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._queued:
                continue
            window, self._queued = self._queued, []
            self._depth.set(0.0)
            for job in window:
                job.state = "running"
            self._window = asyncio.get_running_loop().run_in_executor(
                None, self._run_window, [job.spec for job in window]
            )
            outcomes = await asyncio.shield(self._window)
            for job, (summary, error) in zip(window, outcomes):
                job.source = "executed"
                job.finish(summary, error)
                if error is None:
                    self._completed.inc()
                    del self._jobs[job.digest]
                    continue
                # Keep the last queue_depth failures for pollers.
                self._failed.inc()
                self._failed_fifo.append(job.digest)
                if len(self._failed_fifo) > self.queue_depth:
                    del self._jobs[self._failed_fifo.popleft()]

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
