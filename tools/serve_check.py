#!/usr/bin/env python3
"""End-to-end CI check for ``repro serve``.

Boots a real server through the CLI entry point (``python -m repro
serve``), drives it over a socket, and verifies the serving determinism
contract from outside the process:

1. ``GET /healthz`` answers ok,
2. a quick fig07 spec POSTed to ``/v1/runs`` runs to completion,
3. ``GET /v1/runs/<digest>/result`` returns bytes **identical** to a
   local in-process execution of the same spec (the byte-identity
   contract ``docs/serving.md`` pins),
4. a duplicate POST answers from the terminal job without re-running,
5. ``GET /metrics`` parses under the telemetry suite's Prometheus
   text-format checker and carries the serve instruments,
6. a hostile body (a ``NaN`` timeout) is answered 400 with an error
   naming ``timeout``, and ``GET /healthz`` still answers ok after it.

Usage::

    python tools/serve_check.py

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # for tests.test_telemetry_exporters
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import fig07_max_pwm  # noqa: E402
from repro.runtime.execute import execute_spec  # noqa: E402
from repro.serve import ClientSession, summary_bytes  # noqa: E402
from tests.test_telemetry_exporters import check_prometheus_text  # noqa: E402


def start_server(cache_dir: str) -> tuple:
    """Launch ``python -m repro serve`` and return (process, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0",
            "--cache-dir", cache_dir,
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = process.stdout.readline().strip()
    if "listening on" not in line:
        process.kill()
        raise SystemExit(f"server failed to start: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    print(f"server up: {line}")
    return process, port


async def drive(port: int) -> None:
    spec = fig07_max_pwm.specs(quick=True)[0]
    expected = summary_bytes(spec, execute_spec(spec))
    client = ClientSession("127.0.0.1", port)
    try:
        health = await client.request("GET", "/healthz")
        assert health.status == 200, health.body
        assert json.loads(health.body)["status"] == "ok"
        print("healthz: ok")

        body = spec.to_json().encode("utf-8")
        posted = await client.request("POST", "/v1/runs", body)
        assert posted.status == 202, posted.body
        receipt = json.loads(posted.body)
        digest = receipt["digest"]
        print(f"posted: {digest} ({receipt['disposition']})")

        for _ in range(1200):
            envelope = await client.request("GET", f"/v1/runs/{digest}")
            assert envelope.status == 200, envelope.body
            if json.loads(envelope.body)["status"] in ("done", "failed"):
                break
            await asyncio.sleep(0.05)
        assert json.loads(envelope.body)["status"] == "done", envelope.body
        print("run: done")

        result = await client.request("GET", f"/v1/runs/{digest}/result")
        assert result.status == 200, result.body
        assert result.body == expected, (
            "served result bytes differ from local execution "
            f"({len(result.body)} vs {len(expected)} bytes)"
        )
        print(f"result: byte-identical to local run ({len(expected)} bytes)")

        duplicate = await client.request("POST", "/v1/runs", body)
        assert duplicate.status == 200, duplicate.body
        assert json.loads(duplicate.body)["status"] == "done"
        print("duplicate POST: answered terminal, no re-run")

        scrape = await client.request("GET", "/metrics")
        assert scrape.status == 200
        text = scrape.body.decode("utf-8")
        check_prometheus_text(text)
        for needle in (
            "repro_serve_http_requests_total",
            "repro_serve_runs_submitted_total",
            "repro_serve_queue_depth",
            "repro_host_exec_executed_total",
        ):
            assert needle in text, f"missing metric: {needle}"
        print("metrics: valid Prometheus 0.0.4, serve instruments present")

        hostile = b'{"workload": "bt_b_4", "timeout": NaN}'
        refused = await client.request("POST", "/v1/runs", hostile)
        assert refused.status == 400, refused.body
        assert "timeout" in json.loads(refused.body)["error"], refused.body
        health = await client.request("GET", "/healthz")
        assert health.status == 200, health.body
        print("hostile body: 400 naming 'timeout', server still healthy")
    finally:
        await client.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-check-") as cache_dir:
        process, port = start_server(cache_dir)
        try:
            asyncio.run(drive(port))
        finally:
            process.terminate()
            process.wait(timeout=10)
    print("serve check: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
