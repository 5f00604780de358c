"""The benchmark's four workloads.

Each workload is a ``setup`` that builds everything a user builds
before the first timed operation, and a ``run`` that repeats timed
operations until the run's time is up (or, for a traced re-run,
exactly as many as the untraced run did), then checks every output
before any number is used.

The workloads call only the stable public API: ``RunSpec``, each
experiment's ``specs()``, ``RunExecutor(jobs=, cache_dir=, platform=)``,
``run_fleet(spec, shards=)`` and the ``repro serve`` server and client.
They pass no engine-path flag, so they measure what a user gets by
default.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime import DEFAULT_SEED, RunExecutor, RunSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Experiments whose full-length specs make the paper sweep, in order.
PAPER_FIGURES = ("fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1")
#: The platform sweep's experiments, retargeted to an 8-core floorplan.
PLATFORM_FIGURES = ("fig7", "table1", "fig10")
PLATFORM = "biglittle_4p4e"

#: Offered request rates of the serve workload's steps, requests/s.
SERVE_RATES = (20, 40, 60)
#: p95 latency limit a rate step must meet to count as sustained, s.
SERVE_LIMIT_S = 0.25
#: A request not answered within this many seconds has failed.
SERVE_TIMEOUT_S = 5.0
#: Simulated seconds of one served spec.
SERVE_DURATION_S = 20.0
#: The request mix: kind -> share of requests.
SERVE_MIX = (("cold", 0.25), ("dup", 0.10), ("warm", 0.35), ("repeat", 0.30))


@dataclass
class Context:
    """Inputs of one workload run."""

    seed: int
    seconds: float
    quick: bool
    work_dir: Path
    #: Spool for the span files of traced processes; None when untraced.
    spool: Optional[Path] = None
    #: Timed operations to repeat (a traced re-run); None = until time is up.
    units: Optional[int] = None
    #: The span tracer of a traced run (records only inside operations).
    tracer: Optional[object] = None

    @property
    def base_seed(self) -> int:
        """The spec seed: ``--seed 0`` runs the paper's own seed."""
        return DEFAULT_SEED + self.seed

    def measure(self, host: "HostSpeed", operation: Callable[[], object]):
        """``host.timed(operation)``, with spans recorded only inside it."""
        if self.tracer is not None:
            self.tracer.active = True
        try:
            return host.timed(operation)
        finally:
            if self.tracer is not None:
                self.tracer.active = False

    def more(self, done: int, elapsed: float) -> bool:
        """Whether to start another timed operation.

        One more is started only if, at the mean pace so far, it ends
        within the run's time (10 % over allowed), so a run never
        measures much longer than ``seconds``.
        """
        if self.units is not None:
            return done < self.units
        return done == 0 or elapsed * (done + 1) / done <= 1.1 * self.seconds


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Untraced measurements: end-to-end metrics and diagnostics.
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Check name -> "ok" | "unverified" | a mismatch description.
    checks: Dict[str, str]
    #: ``results_sha256`` over the canonical result bytes.
    results_sha256: str
    #: Timed operations done (a traced re-run repeats exactly these).
    units: int
    #: Time callers waited on the timed operations, s (the basis of
    #: the tracing overhead).
    wait_s: float
    #: Host time the timed work could use: wall time times the processes
    #: taking part (see :func:`_processes`).
    capacity_s: float
    #: Whether work runs in forked workers (layer spans need fork).
    uses_workers: bool
    #: Pin key: the outcome's results are comparable only under it.
    pin_key: Dict[str, object] = field(default_factory=dict)
    #: Extra records for trace.json (per-request timings).
    records: List[dict] = field(default_factory=list)


def _p95(values: List[float]) -> float:
    """The 95th percentile, linear between order statistics."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _processes(workers: int) -> int:
    """Processes taking part in an operation run on ``workers`` workers.

    With more than one worker, the parent dispatching to them and
    waiting on them takes part too: its wait is ``runtime.map``'s and
    the fleet engine's self time, beside the workers' own.
    """
    return workers + 1 if workers > 1 else 1


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _node_seconds(spec: RunSpec, result) -> float:
    """Simulated node-seconds one run covered."""
    tail = spec.tail if spec.fault is None else 0.0
    return (result.execution_time + tail) * spec.n_nodes


#: Seconds the reference kernel takes on the host the baseline was
#: recorded on (2-vCPU VM, Python 3.11, numpy 2.4) when that host runs
#: at full speed, one copy or two at once alike.
REF_NOMINAL_S = 0.048


def _reference_kernel() -> float:
    """Fixed work of the kind the simulator does: small numpy ops in a
    Python loop.  It calls nothing in ``repro``, so no change to the
    program can change its time; only the host's speed can."""
    import numpy

    matrix = numpy.eye(4) * 0.5
    vector = numpy.ones(4)
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(30000):
        vector = matrix @ vector + 0.1
        acc += float(vector[0]) * 1.0001
        table[i & 63] = acc
    return acc


def _kernel_worker(conn) -> None:
    """A reference-kernel process: one timed kernel per request."""
    _reference_kernel()
    try:
        while conn.recv():
            t0 = time.perf_counter()
            _reference_kernel()
            conn.send(time.perf_counter() - t0)
    except EOFError:
        pass
    finally:
        conn.close()


class HostSpeed:
    """Times operations and scales them to a nominal host speed.

    The 2-vCPU host this benchmark was built on changes speed by up to
    2x from one second to the next (its cores are shared).  Each timed
    operation is bracketed by runs of a fixed reference kernel, with as
    many copies running at once as the operation uses processes, and
    its time is scaled by :data:`REF_NOMINAL_S` over the mean kernel
    time around it.  A stretch of host running at half speed doubles
    both, and the scaled time stays put.
    """

    def __init__(self, parallel: int = 1) -> None:
        self.refs: List[float] = []
        self._workers = []
        if parallel == 1:
            _reference_kernel()
            return
        context = multiprocessing.get_context("spawn")
        for _ in range(parallel):
            ours, theirs = context.Pipe()
            process = context.Process(target=_kernel_worker, args=(theirs,))
            process.start()
            theirs.close()
            self._workers.append((process, ours))

    def probe(self) -> float:
        """One kernel run on every copy; the mean time, s."""
        if not self._workers:
            t0 = time.perf_counter()
            _reference_kernel()
            took = time.perf_counter() - t0
        else:
            for _, conn in self._workers:
                conn.send(True)
            took = statistics.mean(conn.recv() for _, conn in self._workers)
        self.refs.append(took)
        return took

    def timed(self, operation: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``operation``; return its result, scaled and raw seconds."""
        before = self.probe()
        t0 = time.perf_counter()
        result = operation()
        raw = time.perf_counter() - t0
        after = self.probe()
        return result, raw * REF_NOMINAL_S * 2 / (before + after), raw

    @property
    def speed(self) -> float:
        """Host speed over the run, relative to the nominal host."""
        return REF_NOMINAL_S / statistics.median(self.refs)

    def close(self) -> None:
        for process, conn in self._workers:
            conn.send(False)
            conn.close()
            process.join(timeout=30)
        self._workers = []


# -- sweeps -----------------------------------------------------------------


@dataclass
class _Sweep:
    #: Each figure's specs, in figure order.
    figures: List[List[RunSpec]]
    executor: RunExecutor


def _setup_sweep(ctx: Context, names, jobs: int, platform) -> _Sweep:
    from repro.experiments import REGISTRY

    figures = [
        REGISTRY[name][0].specs(seed=ctx.base_seed, quick=ctx.quick)
        for name in names
    ]
    return _Sweep(figures, RunExecutor(jobs=jobs, platform=platform))


def setup_paper_sweep(ctx: Context) -> _Sweep:
    return _setup_sweep(ctx, PAPER_FIGURES, jobs=1, platform=None)


def setup_platform_sweep(ctx: Context) -> _Sweep:
    return _setup_sweep(ctx, PLATFORM_FIGURES, jobs=2, platform=PLATFORM)


def _run_sweep(ctx: Context, sweep: _Sweep) -> Outcome:
    """Whole passes over the figures, one ``map`` call per figure."""
    from repro.serve.payloads import summary_bytes

    executor = sweep.executor
    jobs = executor.effective_jobs
    host = HostSpeed(jobs)
    figure_s: List[float] = []
    #: Each spec's share of its figure's scaled map time.
    spec_s: List[float] = []
    node_s = wall = 0.0
    passes: List[List[bytes]] = []
    attempted = failed = 0
    started = time.perf_counter()
    try:
        while ctx.more(len(passes), time.perf_counter() - started):
            results = []
            for specs in sweep.figures:
                attempted += len(specs)
                try:
                    out, scaled, raw = ctx.measure(host, lambda: executor.map(specs))
                except Exception:
                    failed += len(specs)
                    continue
                wall += raw
                figure_s.append(scaled)
                spec_s.extend([scaled / len(specs)] * len(specs))
                results.extend(zip(specs, out))
                node_s += sum(_node_seconds(s, r) for s, r in zip(specs, out))
            passes.append([summary_bytes(s, r) for s, r in results])
    finally:
        host.close()
    snapshot = executor.registry.snapshot()
    executor.close()

    checks = {
        "passes_identical": "ok"
        if all(p == passes[0] for p in passes)
        else "mismatch: a later pass produced different result bytes",
    }
    executed = snapshot.total("host.exec.executed")
    spec_wall = snapshot.get("host.spec.wall_seconds")
    metrics = {
        "sim_node_s_per_s": node_s / sum(figure_s),
        "latency_p50_ms": statistics.median(spec_s) * 1e3,
        "host.speed": host.speed,
        "runtime.fanout_efficiency": spec_wall.sum / (wall * jobs),
        "runtime.batched_frac": snapshot.total("host.exec.batched_specs")
        / max(executed, 1.0),
    }
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        checks=checks,
        results_sha256=_sha(passes[0]),
        units=len(passes),
        wait_s=wall,
        capacity_s=wall * _processes(jobs),
        uses_workers=jobs > 1,
        pin_key={"quick": ctx.quick},
    )


run_paper_sweep = _run_sweep
run_platform_sweep = _run_sweep


# -- fleet ------------------------------------------------------------------


def setup_fleet_epochs(ctx: Context):
    from repro.fleet import FleetFaultSpec, FleetSpec

    racks, nodes = (4, 4) if ctx.quick else (16, 8)
    horizon = 30.0 if ctx.quick else 120.0
    return FleetSpec(
        racks=racks,
        nodes_per_rack=nodes,
        horizon=horizon,
        seed=ctx.base_seed,
        workload="imbalance",
        power_budget=45.0 * racks * nodes,
        fault=FleetFaultSpec(rack=0, at=horizon / 3.0),
        quick=ctx.quick,
    )


def run_fleet_epochs(ctx: Context, spec) -> Outcome:
    """Alternating legs: the same fleet at ``shards=1``, then ``shards=2``."""
    from repro.fleet import run_fleet

    node_s = spec.total_nodes * spec.total_ticks() * spec.dt
    hosts = {1: HostSpeed(1), 2: HostSpeed(2)}
    legs: Dict[int, List[float]] = {1: [], 2: []}
    outputs: List[bytes] = []
    attempted = failed = 0
    wall = capacity = 0.0
    started = time.perf_counter()
    try:
        while ctx.more(len(legs[2]), time.perf_counter() - started):
            for shards in (1, 2):
                attempted += 1
                try:
                    result, scaled, raw = ctx.measure(
                        hosts[shards], lambda: run_fleet(spec, shards=shards)
                    )
                except Exception:
                    failed += 1
                    continue
                legs[shards].append(scaled)
                wall += raw
                capacity += raw * _processes(shards)
                outputs.append(result.canonical_bytes())
    finally:
        for host in hosts.values():
            host.close()
    checks = {
        "shards_1_eq_2": "ok"
        if outputs and all(o == outputs[0] for o in outputs)
        else "mismatch: shards=1 and shards=2 results differ",
    }
    metrics = {
        "sim_node_s_per_s": node_s / statistics.median(legs[1]),
        "fleet.sharded_sim_node_s_per_s": node_s / statistics.median(legs[2]),
        "latency_p50_ms": statistics.median(legs[1]) * 1e3,
        "host.speed": hosts[1].speed,
    }
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        checks=checks,
        results_sha256=_sha(outputs[:1]),
        units=len(legs[2]),
        wait_s=wall,
        capacity_s=capacity,
        uses_workers=True,
        pin_key={"quick": ctx.quick},
    )


# -- serve ------------------------------------------------------------------


def serve_spec(seed: int) -> RunSpec:
    """The served spec shape: one node, the mixed thermal profile, 20 s."""
    return RunSpec.of(
        "mixed_thermal_profile",
        {"duration": SERVE_DURATION_S},
        rigs=[("constant_fan", {"duty": 0.45})],
        n_nodes=1,
        seed=seed,
        timeout=120.0,
    )


@dataclass(frozen=True)
class _Planned:
    due: float
    step: int
    kind: str
    spec: RunSpec


def requests_per_step(seconds: float) -> int:
    """Requests per rate step so the steps together last ``seconds``."""
    return max(20, int(seconds / sum(1.0 / r for r in SERVE_RATES)))


def plan_requests(seed: int, per_step: int) -> List[_Planned]:
    """The seeded request schedule over every rate step.

    Every block of 20 requests holds the :data:`SERVE_MIX` shares
    exactly, in seeded order, so seeds vary which requests are cold,
    not how many.
    A ``dup`` repeats the cold request just planned and is due 1 ms
    after it, so it arrives while that leader is in flight.  A
    ``repeat`` names a spec requested at least a second earlier, so the
    server has completed it.  ``warm`` specs are on disk but never
    requested before.  Cold and warm seeds come from disjoint ranges.
    """
    rng = random.Random(seed)
    base = DEFAULT_SEED + 1_000_000 * (seed % 1000)
    planned: List[_Planned] = []
    cold = warm = 0
    start = 0.0
    last_cold: Optional[_Planned] = None
    block = [k for k, share in SERVE_MIX for _ in range(round(share * 20))]
    for step, rate in enumerate(SERVE_RATES):
        kinds: List[str] = []
        while len(kinds) < per_step:
            rng.shuffle(block)
            kinds.extend(block)
        for i, kind in enumerate(kinds[:per_step]):
            due = start + i / rate
            if kind == "dup" and (last_cold is None or last_cold.step != step):
                kind = "cold"
            if kind == "repeat":
                earlier = [p for p in planned if p.due <= due - 1.0]
                if earlier:
                    spec = rng.choice(earlier).spec
                else:
                    kind = "warm"
            if kind == "cold":
                spec = serve_spec(base + cold)
                cold += 1
            elif kind == "warm":
                spec = serve_spec(base + 500_000 + warm)
                warm += 1
            elif kind == "dup":
                spec, due = last_cold.spec, last_cold.due + 0.001
            planned.append(_Planned(due, step, kind, spec))
            if kind == "cold":
                last_cold = planned[-1]
        start += per_step / rate
    planned.sort(key=lambda p: p.due)
    return planned


@dataclass
class _Server:
    process: subprocess.Popen
    port: int

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def start_server(cache_dir: Path, spool: Optional[Path]) -> _Server:
    """``repro serve`` through the launcher; returns once /healthz is 200."""
    from repro.serve.client import request

    command = [sys.executable, "-u", str(HERE / "serve_launcher.py")]
    if spool is not None:
        command += ["--trace-spool", str(spool)]
    command += ["--", "--port", "0", "--jobs", "1", "--cache-dir", str(cache_dir)]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env()
    )
    server = _Server(process, 0)
    try:
        line = process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        server.port = int(line.rsplit(":", 1)[1])
        deadline = time.monotonic() + 30.0
        while True:
            try:
                response = asyncio.run(
                    request("127.0.0.1", server.port, "GET", "/healthz")
                )
                if response.status == 200:
                    return server
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)
    except BaseException:
        server.stop()
        raise


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


@dataclass
class _Serve:
    per_step: int
    planned: List[_Planned]
    cache_dir: Path
    warm_summaries: Dict[str, bytes]
    fixture_s: float
    server: Optional[_Server] = None


def build_serve_fixture(ctx: Context) -> _Serve:
    """Plan the requests and put the warm specs' results on disk."""
    from repro.serve.payloads import summary_bytes

    t0 = time.perf_counter()
    per_step = 20 if ctx.quick else requests_per_step(ctx.seconds)
    planned = plan_requests(ctx.seed, per_step)
    cache_dir = ctx.work_dir / "serve-cache"
    warm = [p.spec for p in planned if p.kind == "warm"]
    with RunExecutor(jobs=2, cache_dir=cache_dir) as executor:
        results = executor.map(warm)
    summaries = {s.digest(): summary_bytes(s, r) for s, r in zip(warm, results)}
    return _Serve(per_step, planned, cache_dir, summaries, time.perf_counter() - t0)


def setup_serve_mixed(ctx: Context, fixture: Optional[_Serve] = None) -> _Serve:
    """Start the server (over the fixture's cache when one is given)."""
    state = fixture or _Serve(0, [], ctx.work_dir / "serve-cache", {}, 0.0)
    state.server = start_server(state.cache_dir, ctx.spool)
    return state


def _prom_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def run_serve_mixed(ctx: Context, state: _Serve) -> Outcome:
    """The open-loop request mix against the server, one rate per step."""
    from perfbench.loadgen import Request, drive
    from repro.runtime import execute_spec
    from repro.serve.client import request
    from repro.serve.payloads import canonical_json_bytes, summary_bytes

    planned = state.planned
    server = state.server
    schedule = [
        Request(p.due, "/v1/runs?wait=1", p.spec.to_json().encode("utf-8"))
        for p in planned
    ]
    host = HostSpeed(1)
    try:
        # Latencies are not scaled (they are partly timer waits); the
        # host's speed around the load is reported beside them.
        host.probe()
        t0 = time.perf_counter()
        outcomes = asyncio.run(
            drive("127.0.0.1", server.port, schedule, timeout_s=SERVE_TIMEOUT_S)
        )
        wall = time.perf_counter() - t0
        host.probe()

        async def fetch(paths):
            return [await request("127.0.0.1", server.port, "GET", p) for p in paths]

        digests = sorted({p.spec.digest() for p in planned})
        served = asyncio.run(
            fetch(["/metrics"] + [f"/v1/runs/{d}/result" for d in digests])
        )
    finally:
        server.stop()
    prom = served[0].body.decode("utf-8")
    served_bytes = {
        d: r.body for d, r in zip(digests, served[1:]) if r.status == 200
    }

    metrics: Dict[str, float] = {}
    records = []
    failed = 0
    by_step: Dict[int, List[Tuple[_Planned, object]]] = {}
    for p, o in zip(planned, outcomes):
        ok = o.status == 200 and o.latency <= SERVE_TIMEOUT_S
        failed += not ok
        by_step.setdefault(p.step, []).append((p, o))
        records.append(
            {
                "request": len(records),
                "step": p.step,
                "kind": p.kind,
                "digest": p.spec.digest()[:16],
                "due_s": o.due,
                "sent_s": o.sent,
                "done_s": o.done,
                "status": o.status,
            }
        )
    max_rate = 0.0
    for step, pairs in sorted(by_step.items()):
        rate = SERVE_RATES[step]
        lat = [o.latency for _, o in pairs]
        late = [o.late for _, o in pairs]
        q = max(1, len(pairs) // 4)
        growing = statistics.median(late[-q:]) - statistics.median(late[:q]) > 0.05
        p95 = _p95(lat)
        tag = f"r{rate}"
        metrics[f"serve.latency_p50_ms.{tag}"] = statistics.median(lat) * 1e3
        metrics[f"serve.latency_p95_ms.{tag}"] = p95 * 1e3
        metrics[f"client.late_p95_ms.{tag}"] = _p95(late) * 1e3
        duration = len(pairs) / rate
        metrics[f"serve.goodput_rps.{tag}"] = sum(
            1 for _, o in pairs if o.status == 200 and o.latency <= SERVE_LIMIT_S
        ) / duration
        if p95 <= SERVE_LIMIT_S and not growing:
            max_rate = max(max_rate, float(rate))
    metrics["serve.max_rate_rps"] = max_rate
    # End-to-end numbers come from the lowest rate, below the knee: the
    # higher steps exist to find the knee (max_rate_rps, goodput).
    base = SERVE_RATES[0]
    metrics["latency_p50_ms"] = metrics[f"serve.latency_p50_ms.r{base}"]
    cold = [(p, o) for p, o in by_step[0] if p.kind == "cold"]
    metrics["sim_node_s_per_s"] = sum(
        SERVE_DURATION_S * p.spec.n_nodes for p, _ in cold
    ) / sum(o.latency for _, o in cold)
    all_lat = [o.latency for o in outcomes]
    sent = {k: sum(1 for p in planned if p.kind == k) for k, _ in SERVE_MIX}
    hits = _prom_value(prom, "repro_serve_runs_cache_hits_total")
    metrics["serve.cache_hit_ratio"] = hits / max(sent["warm"], 1)
    metrics["serve.dedup_ratio"] = _prom_value(
        prom, "repro_serve_runs_dedup_followers_total"
    ) / max(sent["dup"], 1)
    metrics["serve.rejected"] = _prom_value(prom, "repro_serve_runs_rejected_total")
    count = _prom_value(prom, "repro_serve_http_latency_seconds_count")
    metrics["serve.http.handle_ms_mean"] = (
        _prom_value(prom, "repro_serve_http_latency_seconds_sum") / count * 1e3
        if count
        else 0.0
    )
    metrics["fixture_s"] = state.fixture_s
    metrics["host.speed"] = host.speed

    # Correctness: every answer carries its spec's served result bytes;
    # warm results equal the fixture's local bytes; every 10th cold
    # digest equals a local execute_spec of the same spec.
    checks: Dict[str, str] = {}
    missing = [d for d in digests if d not in served_bytes]
    checks["all_results_served"] = (
        "ok" if not missing else f"mismatch: {len(missing)} digests unserved"
    )
    wrong = 0
    for p, o in zip(planned, outcomes):
        if o.status == 200:
            envelope = json.loads(o.body)
            digest = p.spec.digest()
            wrong += envelope["digest"] != digest or canonical_json_bytes(
                envelope["result"]
            ) != served_bytes.get(digest)
    checks["answers_eq_served"] = (
        "ok" if not wrong else f"mismatch: {wrong} answers differ"
    )
    bad_warm = [
        d for d, b in state.warm_summaries.items() if served_bytes.get(d) != b
    ]
    checks["warm_eq_fixture"] = (
        "ok" if not bad_warm else f"mismatch: {len(bad_warm)} warm results differ"
    )
    cold_specs = [p.spec for p in planned if p.kind == "cold"][::10]
    bad_cold = [
        s
        for s in cold_specs
        if served_bytes.get(s.digest()) != summary_bytes(s, execute_spec(s))
    ]
    checks["cold_eq_local"] = (
        "ok" if not bad_cold else f"mismatch: {len(bad_cold)} cold results differ"
    )
    return Outcome(
        metrics=metrics,
        attempted=len(outcomes),
        failed=failed,
        checks=checks,
        results_sha256=_sha(served_bytes[d] for d in digests if d in served_bytes),
        units=1,
        wait_s=sum(all_lat),
        capacity_s=wall,
        uses_workers=False,
        pin_key={"quick": ctx.quick, "requests_per_step": state.per_step},
        records=records,
    )


#: name -> (setup, run)
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "paper_sweep": (setup_paper_sweep, run_paper_sweep),
    "platform_sweep": (setup_platform_sweep, run_platform_sweep),
    "fleet_epochs": (setup_fleet_epochs, run_fleet_epochs),
    "serve_mixed": (setup_serve_mixed, run_serve_mixed),
}
