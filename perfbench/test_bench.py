"""Self-tests of the benchmark harness: ``pytest perfbench/test_bench.py``."""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.loadgen import Request, drive  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_quick(workload: str) -> None:
    completed = bench("--workload", workload, "--seconds", "1", "--quick")
    assert completed.returncode == 0, completed.stderr
    result = last_json(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["value"] > 0, name


def test_traced_run_prints_every_layer_metric(tmp_path: Path) -> None:
    record = tmp_path / "runs.jsonl"
    completed = bench(
        "--workload", "fleet_epochs", "--seconds", "1", "--quick",
        "--trace", "1", "--json", str(record),
    )
    assert completed.returncode == 0, completed.stderr
    metrics = last_json(completed)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.match(name) for name in metrics)
    assert metrics["fleet.shard_epoch.calls"]["value"] > 0
    assert metrics["layers.share_sum"]["value"] <= 1.0
    trace = json.loads((ROOT / ".perfbench-out" / "fleet_epochs" / "trace.json").read_text())
    assert any(s["name"] == "fleet.shard_epoch" for s in trace["spans"])
    assert len(trace["pids"]) > 1, "forked shards wrote no spans"


def test_benchmark_json_is_valid() -> None:
    from perfbench.run import validate_spec

    assert validate_spec(SPEC) == []


def test_compare_verdicts() -> None:
    from perfbench.run import compare

    parent = [100.0 + i % 3 for i in range(10)]
    assert compare(parent, [x * 1.2 for x in parent], "higher", 0.1).startswith("better")
    assert compare(parent, [x * 0.8 for x in parent], "higher", 0.1).startswith("worse")
    assert compare(parent, parent[::-1], "higher", 0.1).startswith("no regression")
    noisy = [100.0, 60.0] * 5
    assert compare(noisy, noisy, "lower", 0.1).startswith("unresolved")
    assert compare(parent[:5], parent[:5], "lower", 0.1).startswith("unresolved")


def test_tracer_self_time_on_nested_calls(tmp_path: Path) -> None:
    tracer = Tracer(tmp_path)
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body() -> None:
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    layers = tracer.export()["layers"]
    calls, total, own = layers["outer"]
    assert calls == 1
    assert total / 1e9 == pytest.approx(0.05, abs=0.01)
    assert own / 1e9 == pytest.approx(0.01, abs=0.005)
    calls, total, own = layers["inner"]
    assert calls == 2
    assert own / 1e9 == pytest.approx(0.04, abs=0.01)


def test_open_loop_times_requests_from_their_due_time() -> None:
    """A 1 s stall delays every request behind it; latency shows it."""

    async def scenario():
        handled = []

        async def handle(reader, writer):
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
                await reader.readexactly(length)
                handled.append(time.perf_counter())
                if len(handled) == 3:
                    await asyncio.sleep(1.0)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                await writer.drain()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        schedule = [Request(i * 0.05, "/", b"{}") for i in range(10)]
        try:
            return await drive("127.0.0.1", port, schedule, connections=1)
        finally:
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(scenario())
    assert all(o.status == 200 for o in outcomes)
    assert outcomes[0].latency < 0.2
    # Request 3 stalls 1 s; requests 4.. were due during the stall and
    # are charged the wait from their due time, and were sent late.
    for o in outcomes[3:]:
        assert o.late > 0.5
        assert o.latency > 0.5


def test_corrupted_pin_fails_the_run(tmp_path: Path) -> None:
    import numpy

    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({
        "fleet_epochs": {
            "seed": 0,
            "numpy": numpy.__version__,
            "key": {"quick": True},
            "results_sha256": "0" * 64,
        }
    }))
    record = tmp_path / "runs.jsonl"
    completed = bench(
        "--workload", "fleet_epochs", "--seconds", "1", "--quick",
        "--pins", str(pins), "--json", str(record),
    )
    assert completed.returncode != 0
    assert last_json(completed)["correct"] is False
    line = json.loads(record.read_text().splitlines()[-1])
    assert line["diagnostics"]["failed_frac"] == 1.0
    assert line["checks"]["results_pin"].startswith("mismatch")


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "paper_sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
