"""The serving determinism contract, pinned over a real socket.

Every test here drives a full :class:`ReproServer` — listening socket,
HTTP parser, job ledger, executor — through the stdlib client, because
the contract under test is end to end: the bytes ``GET
/v1/runs/<digest>/result`` returns must equal
``summary_bytes(spec, execute_spec(spec))`` no matter how the run
materialized (cold execution, cache hit, dedup follower, lockstep batch
group).  Admission control and in-flight dedup are behavioural
contracts of the same surface, so they are pinned here too.

Tests that need a job to stay open hold it with :class:`ExecutorGate`
(the executor thread blocks on a :class:`threading.Event` the test
releases), never with a timer, so queue states are deterministic.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.cluster.cluster import RunResult
from repro.errors import ConfigurationError
from repro.experiments import fig07_max_pwm
from repro.runtime import RunExecutor
from repro.runtime.execute import execute_spec
from repro.runtime.spec import RigSpec, RunSpec
from repro.serve import (
    ClientSession,
    ReproServer,
    ServeConfig,
    summary_bytes,
)
from repro.serve.payloads import canonical_json_bytes
from tests.test_runtime_executor import flip
from tests.test_runtime_spec import HOSTILE_RUN_PAYLOADS
from tests.test_telemetry_exporters import check_prometheus_text

HOST = "127.0.0.1"


def cheap_spec(**overrides) -> RunSpec:
    """A spec that simulates in well under a second."""
    kwargs = dict(
        params={"duration": 20.0},
        rigs=[("constant_fan", {"duty": 0.45})],
        n_nodes=1,
        seed=11,
        timeout=120.0,
    )
    kwargs.update(overrides)
    return RunSpec.of("mixed_thermal_profile", **kwargs)


def quick_fig07_spec() -> RunSpec:
    """The first spec of the quick Figure-7 sweep (the acceptance spec)."""
    return fig07_max_pwm.specs(quick=True)[0]


def run_with_server(config: ServeConfig, scenario):
    """Stand up a server, run ``scenario(server, client)``, tear down."""

    async def main():
        server = ReproServer(config)
        await server.start()
        client = ClientSession(HOST, server.port)
        try:
            return await scenario(server, client)
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(main())


async def poll_until_terminal(
    client: ClientSession, digest: str, timeout: float = 60.0
) -> dict:
    """Poll ``GET /v1/runs/<digest>`` until done/failed; return envelope."""
    for _ in range(int(timeout / 0.02)):
        response = await client.request("GET", f"/v1/runs/{digest}")
        assert response.status == 200, response.body
        envelope = response.json_body()
        if envelope["status"] in ("done", "failed"):
            return envelope
        await asyncio.sleep(0.02)
    raise AssertionError(f"run {digest} never reached a terminal state")


def post_body(spec: RunSpec) -> bytes:
    return spec.to_json().encode("utf-8")


class ExecutorGate:
    """Hold every dispatched window inside ``RunExecutor.map`` until
    :meth:`open` is called; records each window's specs in order."""

    def __init__(self, server: ReproServer) -> None:
        self.windows = []
        self._released = threading.Event()
        inner = server.executor.map

        def gated_map(specs, *args, **kwargs):
            self.windows.append(list(specs))
            self._released.wait(timeout=60.0)
            return inner(specs, *args, **kwargs)

        server.executor.map = gated_map

    def open(self) -> None:
        self._released.set()

    def window_digests(self):
        return [[spec.digest() for spec in window] for window in self.windows]


def run_gated(config: ServeConfig, scenario):
    """:func:`run_with_server` with an :class:`ExecutorGate` installed;
    ``scenario(server, client, gate)``.  The gate opens on teardown so
    a held window never outlives the test."""

    async def gated(server, client):
        gate = ExecutorGate(server)
        try:
            return await scenario(server, client, gate)
        finally:
            gate.open()

    return run_with_server(config, gated)


async def served_results(client: ClientSession, digests) -> dict:
    """Each digest's result bytes, once its run is terminal."""
    out = {}
    for digest in digests:
        await poll_until_terminal(client, digest)
        result = await client.request("GET", f"/v1/runs/{digest}/result")
        assert result.status == 200, result.body
        out[digest] = result.body
    return out


async def yield_until(predicate, yields: int = 50) -> None:
    """Give the event loop up to ``yields`` zero-delay turns for
    ``predicate()`` to hold; no wall-clock wait."""
    for _ in range(yields):
        if predicate():
            return
        await asyncio.sleep(0)
    assert predicate()


# -- plumbing endpoints ---------------------------------------------------


def test_healthz_and_unknown_routes() -> None:
    async def scenario(server, client):
        health = await client.request("GET", "/healthz")
        assert health.status == 200
        assert health.json_body()["status"] == "ok"

        missing = await client.request("GET", "/no/such/route")
        assert missing.status == 404

        wrong_method = await client.request("GET", "/v1/runs")
        assert wrong_method.status == 405
        assert wrong_method.headers.get("allow") == "POST"

        unknown = await client.request("GET", "/v1/runs/deadbeef")
        assert unknown.status == 404
        assert "deadbeef" in unknown.json_body()["error"]

    run_with_server(ServeConfig(port=0), scenario)


def test_malformed_specs_are_400_with_clear_errors() -> None:
    """Malformed and hostile bodies are 400s naming the fault; nothing
    is admitted or executed.  The raw bytes reach the parser, so
    invalid UTF-8 is refused, not replaced by U+FFFD and admitted."""
    bodies = [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"workload": ""}',
        b'{"workload": "bt_b_4", "bogus_field": 1}',
        b'{"n_nodes": 4}',
    ]
    hostile = [
        (body if isinstance(body, bytes) else body.encode("utf-8"), needle)
        for _, body, needle in HOSTILE_RUN_PAYLOADS
    ]

    async def scenario(server, client):
        for body in bodies:
            response = await client.request("POST", "/v1/runs", body)
            assert response.status == 400, body
            assert "error" in response.json_body(), body
        for body, needle in hostile:
            response = await client.request("POST", "/v1/runs", body)
            assert response.status == 400, (body[:80], response.body)
            assert needle in response.json_body()["error"], body[:80]
        snapshot = server.registry.snapshot()
        assert snapshot.value("serve.runs.submitted") == 0
        assert snapshot.total("host.exec.executed") == 0

    run_with_server(ServeConfig(port=0), scenario)


@pytest.mark.parametrize(
    "kind, overrides",
    [
        ("workload", {"workload": "no_such_workload"}),
        ("rig", {"rigs": (RigSpec("no_such_rig"),)}),
        ("ambient model", {"ambient": RigSpec("no_such_ambient")}),
        ("platform", {"platform": "no_such_platform"}),
    ],
)
def test_unknown_registry_names_are_400_naming_the_kind(kind, overrides) -> None:
    """A spec naming a workload, rig, ambient model or platform that no
    registry knows is refused as a 400 that names the kind, before it
    is admitted or takes an executor slot."""
    spec = dataclasses.replace(cheap_spec(), **overrides)
    body = post_body(spec)
    assert RunSpec.from_json(body) == spec  # well formed: only a name is unknown

    async def scenario(server, client):
        for path in ("/v1/runs", "/v1/runs?wait=1"):
            response = await client.request("POST", path, body)
            assert response.status == 400, response.body
            error = response.json_body()["error"]
            assert f"unknown {kind} " in error, error
        snapshot = server.registry.snapshot()
        assert snapshot.value("serve.runs.submitted") == 0
        assert snapshot.total("host.exec.executed") == 0

    run_with_server(ServeConfig(port=0), scenario)
    with pytest.raises(ConfigurationError, match=f"unknown {kind} "):
        execute_spec(spec)


# -- the determinism contract ---------------------------------------------


def test_cold_run_result_bytes_match_local_execution() -> None:
    """Acceptance pin: served fig07-quick bytes == local execute_spec."""
    spec = quick_fig07_spec()
    expected = summary_bytes(spec, execute_spec(spec))

    async def scenario(server, client):
        posted = await client.request("POST", "/v1/runs", post_body(spec))
        assert posted.status == 202, posted.body
        envelope = posted.json_body()
        assert envelope["status"] == "queued"
        digest = envelope["digest"]

        final = await poll_until_terminal(client, digest)
        assert final["status"] == "done"
        # The done job left the ledger; the poll reads the store.
        assert final["source"] == "cache"
        assert server.executor.stats.executed == 1
        assert final["result"]["digest"] == digest

        result = await client.request("GET", f"/v1/runs/{digest}/result")
        assert result.status == 200
        return result.body

    served = run_with_server(ServeConfig(port=0), scenario)
    assert served == expected


def test_hot_cache_path_is_byte_identical(tmp_path) -> None:
    """Acceptance pin: a fresh server on a warm cache answers every hot
    request from the cache, executes nothing, and serves the cold bytes.

    The cold phase POSTs every spec twice, concurrently over two
    connections: each duplicate rides its leader or reads the store
    once the leader is done, so only the distinct specs execute.
    """
    specs = [quick_fig07_spec()] + [cheap_spec(seed=600 + i) for i in range(2)]
    bodies = [post_body(spec) for spec in specs]
    cache_dir = str(tmp_path / "cache")

    async def post_each(client, expect):
        envelopes = []
        for body in bodies:
            posted = await client.request("POST", "/v1/runs", body)
            assert posted.status in expect, posted.body
            envelopes.append(posted.json_body())
        return envelopes

    async def cold(server, client):
        second = ClientSession(HOST, server.port)
        try:
            waves = await asyncio.gather(
                post_each(client, (200, 202)), post_each(second, (200, 202))
            )
        finally:
            await second.close()
        served = await served_results(
            client, [envelope["digest"] for envelope in waves[0]]
        )
        snapshot = server.registry.snapshot()
        assert snapshot.total("host.exec.executed") == len(specs)
        assert snapshot.value("serve.runs.submitted") == len(specs)
        return served

    cold_bytes = run_with_server(ServeConfig(port=0, cache_dir=cache_dir), cold)

    async def hot(server, client):
        hits = await post_each(client, (200,))
        repeats = await post_each(client, (200,))
        # Cache hits are terminal on arrival: 200, no queueing, no
        # worker; a repeat is answered from the store the same way.
        for envelope in hits + repeats:
            assert envelope["status"] == "done", envelope
            assert envelope["source"] == "cache", envelope
        assert [e["disposition"] for e in hits] == ["cache"] * len(specs)
        assert [e["disposition"] for e in repeats] == ["cache"] * len(specs)
        snapshot = server.registry.snapshot()
        assert snapshot.value("serve.runs.cache_hits") == 2 * len(specs)
        assert snapshot.value("serve.runs.submitted") == 0
        assert snapshot.total("host.exec.executed") == 0
        return await served_results(client, [e["digest"] for e in hits])

    hot_bytes = run_with_server(ServeConfig(port=0, cache_dir=cache_dir), hot)
    assert hot_bytes == cold_bytes
    for spec in specs:
        assert hot_bytes[spec.digest()] == summary_bytes(spec, execute_spec(spec))


def test_stored_summary_answers_warm_repeat_and_get(tmp_path, monkeypatch) -> None:
    """Acceptance pin: a warm request, a repeat and a ``GET`` by digest
    are answered from the summary in the entry header, byte for byte,
    while decoding a stored run and rebuilding a summary both raise."""
    spec = cheap_spec(seed=700)
    expected = summary_bytes(spec, execute_spec(spec))
    RunExecutor(cache_dir=tmp_path).run(spec)

    def broken(*args, **kwargs):
        raise AssertionError("the stored summary must answer")

    monkeypatch.setattr(RunResult, "from_canonical", broken)
    for module in (
        "repro.cluster.cluster",
        "repro.runtime.executor",
        "repro.serve.payloads",
        "repro.serve.jobs",
    ):
        monkeypatch.setattr(f"{module}.summary_bytes", broken)

    async def scenario(server, client):
        answers = []
        for _warm_then_repeat in range(2):
            posted = await client.request("POST", "/v1/runs", post_body(spec))
            assert posted.status == 200, posted.body
            assert posted.json_body()["disposition"] == "cache"
            answers.append(canonical_json_bytes(posted.json_body()["result"]))
        got = await client.request("GET", f"/v1/runs/{spec.digest()}/result")
        assert got.status == 200, got.body
        assert server.executor.stats.executed == 0
        return answers + [got.body]

    config = ServeConfig(port=0, cache_dir=str(tmp_path))
    assert run_with_server(config, scenario) == [expected] * 3


@pytest.mark.parametrize("where", ["summary", "trace"])
def test_a_damaged_entry_is_never_served(tmp_path, where) -> None:
    """A flipped byte in the header's summary or in a trace makes the
    entry a miss: a ``GET`` finds no run, and a ``POST`` re-runs the
    spec and serves the true bytes."""
    spec = cheap_spec(seed=710)
    expected = summary_bytes(spec, execute_spec(spec))
    RunExecutor(cache_dir=tmp_path).run(spec)
    entry = tmp_path / f"{spec.digest()}.result"
    data = entry.read_bytes()
    at = data.index(b'"summary":') + 12 if where == "summary" else len(data) - 4
    entry.write_bytes(flip(data, at))

    async def scenario(server, client):
        missing = await client.request("GET", f"/v1/runs/{spec.digest()}/result")
        assert missing.status == 404, missing.body
        posted = await client.request("POST", "/v1/runs?wait=1", post_body(spec))
        assert posted.json_body()["disposition"] == "queued"
        got = await client.request("GET", f"/v1/runs/{spec.digest()}/result")
        assert server.executor.stats.executed == 1
        return got.body

    config = ServeConfig(port=0, cache_dir=str(tmp_path))
    assert run_with_server(config, scenario) == expected


def test_batch_coalescing_on_and_off_are_byte_identical() -> None:
    """Acceptance pin: how a sweep falls into windows never changes bytes.

    On: the first spec's window is held, so the other three arrive
    while it runs and go through as one window (one lockstep group).
    Off: each spec is awaited before the next is POSTed, so each is a
    window of its own.
    """
    specs = fig07_max_pwm.specs(quick=True)
    digests = [spec.digest() for spec in specs]

    async def coalesced(server, client, gate):
        for spec in specs:
            posted = await client.request("POST", "/v1/runs", post_body(spec))
            assert posted.status == 202, posted.body
            if spec is specs[0]:
                job = server.jobs.get(digests[0])
                await yield_until(lambda: job.state == "running")
        gate.open()
        collected = await served_results(client, digests)
        assert gate.window_digests() == [digests[:1], digests[1:]]
        snapshot = server.registry.snapshot()
        # Each window is one lockstep group: the lone first spec (four
        # nodes) and the other three together.
        assert snapshot.total("host.exec.batch_groups") == 2
        assert snapshot.total("host.exec.batched_specs") == len(specs)
        return collected

    async def one_at_a_time(server, client, gate):
        gate.open()
        for spec in specs:
            posted = await client.request(
                "POST", "/v1/runs?wait=1", post_body(spec)
            )
            assert posted.status == 200, posted.body
        assert gate.window_digests() == [[digest] for digest in digests]
        return await served_results(client, digests)

    batched = run_gated(ServeConfig(port=0), coalesced)
    unbatched = run_gated(ServeConfig(port=0), one_at_a_time)
    assert batched == unbatched
    for spec in specs:
        assert batched[spec.digest()] == summary_bytes(spec, execute_spec(spec))


def test_idle_server_dispatches_on_arrival() -> None:
    """Work conservation: a POST to an idle server is running after
    event-loop turns alone — no timer stands between it and the
    executor."""
    spec = cheap_spec(seed=16)

    async def scenario(server, client, gate):
        posted = await client.request("POST", "/v1/runs", post_body(spec))
        assert posted.status == 202, posted.body
        job = server.jobs.get(posted.json_body()["digest"])
        await yield_until(lambda: job.state == "running")
        assert server.jobs.queued_count == 0

    run_gated(ServeConfig(port=0), scenario)


def test_specs_queued_behind_a_running_window_run_as_one_map() -> None:
    """Specs POSTed while a window runs wait for it, then go to the
    executor together as the next window — one ``map`` call — and each
    result carries its local-execution bytes."""
    first = cheap_spec(seed=17)
    rest = [cheap_spec(seed=18 + i) for i in range(3)]

    async def scenario(server, client, gate):
        posted = await client.request("POST", "/v1/runs", post_body(first))
        assert posted.status == 202, posted.body
        job = server.jobs.get(first.digest())
        await yield_until(lambda: job.state == "running")
        for spec in rest:
            posted = await client.request("POST", "/v1/runs", post_body(spec))
            assert posted.status == 202, posted.body
            assert posted.json_body()["status"] == "queued"
        assert server.jobs.queued_count == len(rest)
        gate.open()
        served = await served_results(
            client, [spec.digest() for spec in [first, *rest]]
        )
        return gate.window_digests(), served

    windows, served = run_gated(ServeConfig(port=0), scenario)
    assert windows == [[first.digest()], [spec.digest() for spec in rest]]
    for spec in [first, *rest]:
        assert served[spec.digest()] == summary_bytes(spec, execute_spec(spec))


# -- admission control and dedup ------------------------------------------


def test_admission_control_sheds_with_429() -> None:
    """Acceptance pin: overflow is a 429 + ``Retry-After: 1``; duplicates
    are not shed.  With ``queue_depth=1``, one running and one queued
    job fill the server."""
    running = cheap_spec()
    queued = cheap_spec(seed=12)
    overflow = cheap_spec(seed=19)

    async def scenario(server, client, gate):
        admitted = await client.request("POST", "/v1/runs", post_body(running))
        assert admitted.status == 202, admitted.body
        job = server.jobs.get(running.digest())
        await yield_until(lambda: job.state == "running")

        waiting = await client.request("POST", "/v1/runs", post_body(queued))
        assert waiting.status == 202, waiting.body
        assert waiting.json_body()["status"] == "queued"

        shed = await client.request("POST", "/v1/runs", post_body(overflow))
        assert shed.status == 429, shed.body
        assert shed.headers["retry-after"] == "1"
        assert shed.json_body()["retry_after"] == 1

        # Duplicates of the running and the queued spec attach as
        # followers — they occupy no queue slot, so they are NOT shed.
        for spec in (running, queued):
            follower = await client.request("POST", "/v1/runs", post_body(spec))
            assert follower.status == 202, follower.body
            assert follower.json_body()["disposition"] == "follower"

        snapshot = server.registry.snapshot()
        assert snapshot.value("serve.runs.rejected") == 1
        assert snapshot.value("serve.runs.dedup_followers") == 2

    run_gated(ServeConfig(port=0, queue_depth=1), scenario)


def test_inflight_duplicates_execute_once() -> None:
    """Acceptance pin: N identical POSTs, one execution, identical bytes."""
    spec = cheap_spec()
    copies = 5

    async def scenario(server, client, gate):
        dispositions = []
        digest = ""
        for _ in range(copies):
            posted = await client.request("POST", "/v1/runs", post_body(spec))
            assert posted.status == 202, posted.body
            envelope = posted.json_body()
            dispositions.append(envelope["disposition"])
            digest = envelope["digest"]
        # The gate holds the leader running while its copies arrive.
        assert dispositions == ["queued"] + ["follower"] * (copies - 1)

        gate.open()
        await poll_until_terminal(client, digest)
        bodies = set()
        for _ in range(copies):
            result = await client.request("GET", f"/v1/runs/{digest}/result")
            assert result.status == 200
            bodies.add(result.body)
        assert len(bodies) == 1

        assert server.executor.stats.executed == 1
        snapshot = server.registry.snapshot()
        assert snapshot.value("serve.runs.dedup_followers") == copies - 1
        assert snapshot.value("serve.runs.submitted") == 1
        return bodies.pop()

    served = run_gated(ServeConfig(port=0), scenario)
    assert served == summary_bytes(spec, execute_spec(spec))


def test_wait_flag_blocks_until_done() -> None:
    spec = cheap_spec(seed=13)

    async def scenario(server, client):
        posted = await client.request(
            "POST", "/v1/runs?wait=1", post_body(spec)
        )
        assert posted.status == 200, posted.body
        envelope = posted.json_body()
        assert envelope["status"] == "done"
        assert envelope["result"]["digest"] == envelope["digest"]

        # The result endpoint serves a pre-terminal 409 only for open
        # jobs; this one is terminal, so the bytes come straight back.
        result = await client.request(
            "GET", f"/v1/runs/{envelope['digest']}/result"
        )
        assert result.status == 200

    run_with_server(ServeConfig(port=0), scenario)


def test_result_endpoint_409_while_open() -> None:
    spec = cheap_spec(seed=14)

    async def scenario(server, client, gate):
        posted = await client.request("POST", "/v1/runs", post_body(spec))
        digest = posted.json_body()["digest"]
        # The gate holds the job open while we probe.
        early = await client.request("GET", f"/v1/runs/{digest}/result")
        assert early.status == 409
        assert digest in early.json_body()["error"]

    run_gated(ServeConfig(port=0), scenario)


# -- the ledger forgets ----------------------------------------------------


def test_ledger_holds_only_open_and_failed_jobs() -> None:
    """Many distinct digests leave nothing behind: at every admission
    and every answer the ledger holds only queued, running and kept
    failed jobs, and afterwards every result is read from the store."""
    specs = [cheap_spec(seed=3000 + i, params={"duration": 5.0}) for i in range(50)]

    async def scenario(server, client):
        jobs = server.jobs
        peak = []

        def check_bound():
            open_jobs = sum(
                job.state in ("queued", "running") for job in jobs._jobs.values()
            )
            assert len(jobs._jobs) <= open_jobs + len(jobs._failed_fifo)
            peak.append(len(jobs._jobs))

        submit = jobs.submit

        def checked_submit(spec):
            answer = submit(spec)
            check_bound()
            return answer

        jobs.submit = checked_submit
        for spec in specs:
            posted = await client.request("POST", "/v1/runs?wait=1", post_body(spec))
            assert posted.status == 200, posted.body
            assert posted.json_body()["source"] == "executed"
            check_bound()
        assert jobs._jobs == {}
        assert max(peak) == 1
        served = await served_results(client, [spec.digest() for spec in specs])
        assert server.executor.stats.executed == len(specs)
        return served

    served = run_with_server(ServeConfig(port=0), scenario)
    for spec in specs[::10]:
        assert served[spec.digest()] == summary_bytes(spec, execute_spec(spec))


def test_failed_jobs_stay_in_a_fifo_bounded_by_queue_depth() -> None:
    """A failed job stays readable until ``queue_depth`` newer failures
    push it out; a repeat of a kept failure answers ``failed``."""
    specs = [cheap_spec(seed=4000 + i) for i in range(3)]

    async def scenario(server, client):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        server.executor.map = boom
        server.executor.run = boom
        for spec in specs:
            posted = await client.request("POST", "/v1/runs?wait=1", post_body(spec))
            assert posted.status == 200, posted.body
            assert posted.json_body()["status"] == "failed"
        assert len(server.jobs._jobs) == 2
        evicted = await client.request("GET", f"/v1/runs/{specs[0].digest()}")
        assert evicted.status == 404
        for spec in specs[1:]:
            kept = await client.request("GET", f"/v1/runs/{spec.digest()}")
            assert kept.status == 200
            assert kept.json_body()["error"] == "RuntimeError: boom"
        repeat = await client.request("POST", "/v1/runs", post_body(specs[2]))
        assert repeat.json_body()["disposition"] == "failed"

    run_with_server(ServeConfig(port=0, queue_depth=2), scenario)


def test_server_without_cache_dir_uses_a_temporary_store() -> None:
    """No ``--cache-dir``: results go to a temporary store, so a repeat
    is still a cache answer, and the store goes when the server stops."""
    spec = cheap_spec(seed=21)

    async def scenario(server, client):
        root = server.executor.cache_dir
        for disposition in ("queued", "cache"):
            posted = await client.request("POST", "/v1/runs?wait=1", post_body(spec))
            assert posted.json_body()["disposition"] == disposition
        assert [p.name for p in root.iterdir()] == [f"{spec.digest()}.result"]
        return root

    root = run_with_server(ServeConfig(port=0), scenario)
    assert not root.exists()


def test_stop_waits_for_the_running_window() -> None:
    """Stopping mid-window waits for the executor thread, so the window's
    store writes are done before the temporary store is removed."""
    spec = cheap_spec(seed=22)

    async def scenario(server, client, gate):
        posted = await client.request("POST", "/v1/runs", post_body(spec))
        job = server.jobs.get(posted.json_body()["digest"])
        await yield_until(lambda: job.state == "running")
        stopping = asyncio.ensure_future(server.stop())
        for _ in range(20):
            await asyncio.sleep(0)
        assert not stopping.done()
        gate.open()
        await stopping
        assert server.executor.stats.executed == 1
        assert not server.executor.cache_dir.exists()

    run_gated(ServeConfig(port=0), scenario)


def test_cache_dir_that_cannot_be_a_directory_refuses_to_start(
    tmp_path, capsys
) -> None:
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ConfigurationError, match="not a usable directory"):
        ReproServer(ServeConfig(port=0, cache_dir=str(blocker)))
    assert main(["serve", "--port", "0", "--cache-dir", str(blocker)]) == 2
    assert "not a usable directory" in capsys.readouterr().err


# -- observability ---------------------------------------------------------


def test_metrics_endpoint_is_valid_prometheus() -> None:
    spec = cheap_spec(seed=15)

    async def scenario(server, client):
        await client.request("GET", "/healthz")
        posted = await client.request(
            "POST", "/v1/runs?wait=1", post_body(spec)
        )
        assert posted.status == 200
        scrape = await client.request("GET", "/metrics")
        assert scrape.status == 200
        assert scrape.headers["content-type"].startswith("text/plain")
        return scrape.body.decode("utf-8")

    text = run_with_server(ServeConfig(port=0), scenario)
    check_prometheus_text(text)
    # One scrape sees the whole request path: HTTP front, job ledger,
    # queue gauge, and the executor's host.* counters.
    for needle in (
        "repro_serve_http_requests_total",
        "repro_serve_http_latency_seconds_bucket",
        "repro_serve_runs_submitted_total",
        "repro_serve_queue_depth",
        "repro_host_exec_executed_total",
    ):
        assert needle in text, needle


def test_request_counter_labels_are_bounded() -> None:
    """Unknown paths and methods the router does not handle each share
    one label value, so a client cannot add series by its choice of
    path or method."""

    async def scenario(server, client):
        for i in range(5):
            assert (await client.request("GET", f"/probe-{i}")).status == 404
        assert (await client.request("PUT", "/probe-9")).status == 404
        for method in ("DELETE", "PATCH", "BREW"):
            assert (await client.request(method, "/healthz")).status == 405
        return server.registry.snapshot()

    snapshot = run_with_server(ServeConfig(port=0), scenario)
    series = {
        tuple(value for _, value in sorted(sample.labels)): sample.value
        for sample in snapshot.samples
        if sample.name == "serve.http.requests"
    }
    # labels sort as (method, route, status)
    assert series == {
        ("GET", "{other}", "404"): 5.0,
        ("OTHER", "{other}", "404"): 1.0,
        ("OTHER", "/healthz", "405"): 3.0,
    }


# -- CLI wiring ------------------------------------------------------------


def test_cli_serve_parser_defaults() -> None:
    args = build_parser().parse_args(["serve"])
    assert args.command == "serve"
    assert args.host == "127.0.0.1"
    assert args.port == 8080
    assert args.jobs == 1
    assert args.queue_depth == 64
    assert args.cache_dir is None
    assert not hasattr(args, "no_batch")
    assert not hasattr(args, "batch_window")


def test_cli_serve_parser_overrides() -> None:
    args = build_parser().parse_args(
        [
            "serve",
            "--host", "0.0.0.0",
            "--port", "0",
            "--jobs", "4",
            "--cache-dir", "/tmp/cache",
            "--queue-depth", "2",
        ]
    )
    assert args.host == "0.0.0.0"
    assert args.port == 0
    assert args.jobs == 4
    assert args.cache_dir == "/tmp/cache"
    assert args.queue_depth == 2
    # There is no dispatch timer to tune.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--batch-window", "0.5"])


def test_envelope_is_canonical_json() -> None:
    """Envelopes render with sorted keys + trailing newline (canonical)."""

    async def scenario(server, client):
        health = await client.request("GET", "/healthz")
        return health.body

    body = run_with_server(ServeConfig(port=0), scenario)
    document = json.loads(body)
    recanonical = (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")
    assert body == recanonical
