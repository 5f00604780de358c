"""The serving determinism contract, pinned over a real socket.

Every test here drives a full :class:`ReproServer` — listening socket,
HTTP parser, job ledger, executor — through the stdlib client, because
the contract under test is end to end: the bytes ``GET
/v1/runs/<digest>/result`` returns must equal
``summary_bytes(spec, execute_spec(spec))`` no matter how the run
materialized (cold execution, cache hit, dedup follower, lockstep batch
group).  Admission control and in-flight dedup are behavioural
contracts of the same surface, so they are pinned here too.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import build_parser
from repro.experiments import fig07_max_pwm
from repro.runtime.execute import execute_spec
from repro.runtime.spec import RunSpec
from repro.serve import (
    ClientSession,
    ReproServer,
    ServeConfig,
    summary_bytes,
)
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
    bodies = [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"workload": ""}',
        b'{"workload": "bt_b_4", "bogus_field": 1}',
        b'{"n_nodes": 4}',
    ]

    async def scenario(server, client):
        for body in bodies:
            response = await client.request("POST", "/v1/runs", body)
            assert response.status == 400, body
            assert "error" in response.json_body(), body

    run_with_server(ServeConfig(port=0), scenario)


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
        assert final["source"] == "executed"
        assert final["result"]["digest"] == digest

        result = await client.request("GET", f"/v1/runs/{digest}/result")
        assert result.status == 200
        return result.body

    served = run_with_server(
        ServeConfig(port=0, batch_window=0.01), scenario
    )
    assert served == expected


def test_hot_cache_path_is_byte_identical(tmp_path) -> None:
    """Acceptance pin: a cache-hit answer carries the same bytes."""
    spec = quick_fig07_spec()
    cache_dir = str(tmp_path / "cache")

    async def cold(server, client):
        posted = await client.request(
            "POST", "/v1/runs?wait=1", post_body(spec)
        )
        assert posted.status == 200, posted.body
        digest = posted.json_body()["digest"]
        result = await client.request("GET", f"/v1/runs/{digest}/result")
        return result.body

    cold_bytes = run_with_server(
        ServeConfig(port=0, cache_dir=cache_dir, batch_window=0.01), cold
    )

    async def hot(server, client):
        posted = await client.request("POST", "/v1/runs", post_body(spec))
        # Cache hits are terminal on arrival: 200, no queueing, no worker.
        assert posted.status == 200, posted.body
        envelope = posted.json_body()
        assert envelope["disposition"] == "cache"
        assert envelope["source"] == "cache"
        assert envelope["status"] == "done"
        result = await client.request(
            "GET", f"/v1/runs/{envelope['digest']}/result"
        )
        snapshot = server.registry.snapshot()
        assert snapshot.value("serve.runs.cache_hits") == 1
        assert snapshot.value("serve.runs.submitted") == 0
        return result.body

    hot_bytes = run_with_server(
        ServeConfig(port=0, cache_dir=cache_dir, batch_window=0.01), hot
    )
    assert hot_bytes == cold_bytes
    assert hot_bytes == summary_bytes(spec, execute_spec(spec))


def test_batch_coalescing_on_and_off_are_byte_identical() -> None:
    """Acceptance pin: the coalescing window never changes result bytes."""
    specs = fig07_max_pwm.specs(quick=True)

    async def sweep(server, client):
        digests = []
        for spec in specs:
            posted = await client.request("POST", "/v1/runs", post_body(spec))
            assert posted.status == 202, posted.body
            digests.append(posted.json_body()["digest"])
        collected = {}
        for digest in digests:
            await poll_until_terminal(client, digest)
            result = await client.request("GET", f"/v1/runs/{digest}/result")
            assert result.status == 200
            collected[digest] = result.body
        return collected, server.registry.snapshot()

    batched, batched_snapshot = run_with_server(
        ServeConfig(port=0, batch_window=0.25), sweep
    )
    # The four compatible specs landed in one window and actually went
    # through the lockstep stepper, not just one-by-one.
    assert batched_snapshot.total("host.exec.batch_groups") >= 1
    assert batched_snapshot.total("host.exec.batched_specs") > 0

    unbatched, _ = run_with_server(
        ServeConfig(port=0, batch_window=0.0), sweep
    )
    assert batched == unbatched
    for spec in specs:
        digest = spec.digest()
        assert batched[digest] == summary_bytes(spec, execute_spec(spec))


# -- admission control and dedup ------------------------------------------


def test_admission_control_sheds_with_429() -> None:
    """Acceptance pin: overflow is a 429 + Retry-After, duplicates are not."""
    first = cheap_spec()
    second = cheap_spec(seed=12)

    async def scenario(server, client):
        admitted = await client.request("POST", "/v1/runs", post_body(first))
        assert admitted.status == 202, admitted.body

        shed = await client.request("POST", "/v1/runs", post_body(second))
        assert shed.status == 429, shed.body
        assert "retry-after" in shed.headers
        assert int(shed.headers["retry-after"]) >= 1
        assert shed.json_body()["retry_after"] >= 1

        # A duplicate of the queued spec attaches as a follower — it
        # does not occupy a queue slot, so it must NOT be shed.
        follower = await client.request("POST", "/v1/runs", post_body(first))
        assert follower.status == 202, follower.body
        assert follower.json_body()["disposition"] == "follower"

        snapshot = server.registry.snapshot()
        assert snapshot.value("serve.runs.rejected") == 1
        assert snapshot.value("serve.runs.dedup_followers") == 1

    # A long window keeps the first job queued while we overflow.
    run_with_server(
        ServeConfig(port=0, queue_depth=1, batch_window=30.0), scenario
    )


def test_inflight_duplicates_execute_once() -> None:
    """Acceptance pin: N identical POSTs, one execution, identical bytes."""
    spec = cheap_spec()
    copies = 5

    async def scenario(server, client):
        dispositions = []
        digest = ""
        for _ in range(copies):
            posted = await client.request("POST", "/v1/runs", post_body(spec))
            assert posted.status == 202, posted.body
            envelope = posted.json_body()
            dispositions.append(envelope["disposition"])
            digest = envelope["digest"]
        assert dispositions == ["queued"] + ["follower"] * (copies - 1)

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

    served = run_with_server(ServeConfig(port=0, batch_window=0.2), scenario)
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

    run_with_server(ServeConfig(port=0, batch_window=0.01), scenario)


def test_result_endpoint_409_while_open() -> None:
    spec = cheap_spec(seed=14)

    async def scenario(server, client):
        posted = await client.request("POST", "/v1/runs", post_body(spec))
        digest = posted.json_body()["digest"]
        early = await client.request("GET", f"/v1/runs/{digest}/result")
        assert early.status == 409
        assert digest in early.json_body()["error"]

    # A long window guarantees the job is still open when we probe.
    run_with_server(
        ServeConfig(port=0, queue_depth=4, batch_window=30.0), scenario
    )


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

    text = run_with_server(ServeConfig(port=0, batch_window=0.01), scenario)
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


# -- CLI wiring ------------------------------------------------------------


def test_cli_serve_parser_defaults() -> None:
    args = build_parser().parse_args(["serve"])
    assert args.command == "serve"
    assert args.host == "127.0.0.1"
    assert args.port == 8080
    assert args.jobs == 1
    assert args.queue_depth == 64
    assert args.batch_window == pytest.approx(0.05)
    assert args.cache_dir is None
    assert not hasattr(args, "no_batch")


def test_cli_serve_parser_overrides() -> None:
    args = build_parser().parse_args(
        [
            "serve",
            "--host", "0.0.0.0",
            "--port", "0",
            "--jobs", "4",
            "--cache-dir", "/tmp/cache",
            "--queue-depth", "2",
            "--batch-window", "0.5",
        ]
    )
    assert args.host == "0.0.0.0"
    assert args.port == 0
    assert args.jobs == 4
    assert args.cache_dir == "/tmp/cache"
    assert args.queue_depth == 2
    assert args.batch_window == pytest.approx(0.5)


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
