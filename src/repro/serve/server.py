"""``repro.serve`` — the simulation-as-a-service HTTP surface.

Endpoints (all JSON unless noted):

* ``POST /v1/runs`` — body is a :class:`RunSpec` JSON document (the
  :meth:`RunSpec.to_json` canonical form; :meth:`RunSpec.from_json` is
  the validation seam).  Responses: ``200`` with the full envelope when
  the digest is already terminal or satisfied from the result cache,
  ``202`` with a status envelope when queued (or attached to an
  in-flight duplicate as a follower), ``429`` + ``Retry-After`` when
  admission control sheds the request, ``400`` on a malformed spec.
  ``?wait=1`` blocks until the run is terminal and returns ``200``.
* ``GET /v1/runs/<digest>`` — status envelope (``404`` unknown digest).
* ``GET /v1/runs/<digest>/result`` — **exactly** the canonical summary
  bytes (:func:`~repro.serve.payloads.summary_bytes`); ``409`` while
  the job is still open.  This is the byte-identity surface the
  determinism contract is pinned on.
* ``GET /metrics`` — Prometheus text format 0.0.4 over the server's
  registry: ``serve.http.*`` request counters and latency histograms,
  ``serve.runs.*`` / ``serve.queue.*`` job-ledger instruments, the
  executor's ``host.exec.*`` / ``host.cache.*`` counters, and any
  worker :class:`TelemetrySnapshot` merged from telemetry-enabled runs.
* ``GET /healthz`` — liveness for CI and load balancers.

The server owns one :class:`MetricsRegistry` shared with its
:class:`RunExecutor`, so a single scrape sees the whole request path —
HTTP front, queue, cache, batch groups, process pool.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..errors import ConfigurationError
from ..runtime.executor import RunExecutor
from ..runtime.spec import RunSpec
from ..telemetry.exporters import export_prometheus
from ..telemetry.registry import MetricsRegistry
from . import clockshim
from .http import (
    DEFAULT_MAX_BODY,
    HttpError,
    HttpRequest,
    read_request,
    render_response,
)
from .jobs import Job, JobManager, QueueFull
from .payloads import canonical_json_bytes, error_body

__all__ = ["ServeConfig", "ReproServer", "serve_forever"]

#: Latency histogram bounds, seconds: request handling spans ~100 µs
#: (memory hit) to multi-second cold simulations.
_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to stand up a server.

    Attributes
    ----------
    host / port:
        Bind address; port ``0`` picks an ephemeral port (tests).
    jobs:
        Worker processes for the underlying :class:`RunExecutor`
        (clamped to the CPU count exactly as ``repro run --jobs`` is).
    cache_dir:
        Content-addressed result cache directory; ``None`` serves
        without a cache (every distinct digest executes).
    queue_depth:
        Admission-control bound on jobs awaiting dispatch.
    batch_window:
        Coalescing window, seconds (see :class:`JobManager`).
    max_body:
        Largest request body accepted, bytes.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int = 1
    cache_dir: Optional[str] = None
    queue_depth: int = 64
    batch_window: float = 0.05
    max_body: int = DEFAULT_MAX_BODY


class ReproServer:
    """The assembled service: HTTP front, job ledger, executor, metrics."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.executor = RunExecutor(
            jobs=config.jobs,
            cache_dir=config.cache_dir,
            registry=self.registry,
        )
        self.jobs = JobManager(
            executor=self.executor,
            registry=self.registry,
            queue_depth=config.queue_depth,
            batch_window=config.batch_window,
        )
        self._server: Optional["asyncio.base_events.Server"] = None
        self._requests = self.registry.counter
        self._latency = self.registry.histogram(
            "serve.http.latency_seconds", buckets=_LATENCY_BUCKETS
        )

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        self.jobs.start()
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.config.host, port=self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the socket and tear down the dispatcher."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.jobs.stop()

    # -- connection handling ---------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: requests in sequence until close."""
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body
                    )
                except HttpError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            error_body(exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                started = clockshim.perf_counter()
                status, body, content_type, extra = await self._dispatch(
                    request
                )
                self._observe(request, status, started)
                writer.write(
                    render_response(
                        status,
                        body,
                        content_type=content_type,
                        extra_headers=extra,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _observe(
        self, request: HttpRequest, status: int, started: float
    ) -> None:
        """Fold one handled request into the serve.http.* instruments."""
        route = request.path
        if route.startswith("/v1/runs/"):
            route = "/v1/runs/{digest}"
            if request.path.endswith("/result"):
                route += "/result"
        self._requests(
            "serve.http.requests",
            route=route,
            method=request.method,
            status=str(status),
        ).inc()
        self._latency.observe(clockshim.perf_counter() - started)

    # -- routing ---------------------------------------------------------

    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        """Route one request; returns (status, body, content type, headers)."""
        path, method = request.path, request.method
        try:
            if path == "/healthz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                from .. import __version__

                return (
                    200,
                    canonical_json_bytes(
                        {"status": "ok", "version": __version__}
                    ),
                    "application/json",
                    (),
                )
            if path == "/metrics":
                if method != "GET":
                    return self._method_not_allowed("GET")
                text = export_prometheus(self.registry.snapshot())
                return (
                    200,
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                    (),
                )
            if path == "/v1/runs":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return await self._post_run(request)
            if path.startswith("/v1/runs/"):
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._get_run(path[len("/v1/runs/"):])
            return 404, error_body(f"no such route {path!r}"), "application/json", ()
        except Exception as exc:  # one request must never kill the server
            return (
                500,
                error_body(f"internal error: {type(exc).__name__}: {exc}"),
                "application/json",
                (),
            )

    @staticmethod
    def _method_not_allowed(
        allowed: str,
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        return (
            405,
            error_body(f"method not allowed; use {allowed}"),
            "application/json",
            (("Allow", allowed),),
        )

    # -- run endpoints ---------------------------------------------------

    def _envelope(self, job: Job, extra_status: str = "") -> bytes:
        """The status envelope for one job (result inlined when done)."""
        document: dict = {
            "digest": job.digest,
            "status": job.state,
            "location": f"/v1/runs/{job.digest}",
        }
        if extra_status:
            document["disposition"] = extra_status
        if job.source:
            document["source"] = job.source
        if job.state == "done" and job.summary is not None:
            document["result"] = json.loads(job.summary)
            document["result_location"] = f"/v1/runs/{job.digest}/result"
        if job.state == "failed" and job.error is not None:
            document["error"] = job.error
        return canonical_json_bytes(document)

    async def _post_run(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        try:
            spec = RunSpec.from_json(request.body.decode("utf-8", "replace"))
        except ConfigurationError as exc:
            return 400, error_body(str(exc)), "application/json", ()
        try:
            job, disposition = self.jobs.submit(spec)
        except QueueFull as exc:
            return (
                429,
                error_body(str(exc), retry_after=exc.retry_after),
                "application/json",
                (("Retry-After", str(exc.retry_after)),),
            )
        if request.query.get("wait") in ("1", "true", "yes"):
            await asyncio.shield(job.future)
            return 200, self._envelope(job, disposition), "application/json", ()
        status = 200 if job.state in ("done", "failed") else 202
        return status, self._envelope(job, disposition), "application/json", ()

    def _get_run(
        self, tail: str
    ) -> Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]:
        want_result = tail.endswith("/result")
        digest = tail[: -len("/result")] if want_result else tail
        job = self.jobs.get(digest)
        if job is None:
            return (
                404,
                error_body(f"unknown run digest {digest!r}"),
                "application/json",
                (),
            )
        if not want_result:
            return 200, self._envelope(job), "application/json", ()
        if job.state != "done" or job.summary is None:
            return (
                409,
                error_body(
                    f"run {digest!r} is {job.state}; no result bytes yet"
                ),
                "application/json",
                (),
            )
        return 200, job.summary, "application/json", ()


async def serve_forever(config: ServeConfig) -> None:
    """Stand up a server and run until cancelled (the CLI entry point)."""
    server = ReproServer(config)
    await server.start()
    sock = server.port
    print(f"repro.serve listening on http://{config.host}:{sock}")
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()
