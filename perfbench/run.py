"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload serve_mixed --trace 1   # per-layer run
    python3 perfbench/run.py --check                            # validate BENCHMARK.json
    python3 perfbench/run.py --record 10                        # write baseline.json
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

A run measures set-up time in several fresh processes, runs the
workload in one more fresh process, checks its outputs, and prints
one JSON object as the last line of standard output::

    {"correct": true, "attempted": 23, "failed": 0,
     "metrics": {"setup_s": {"value": 0.61, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` the workload runs again with
the span tracer installed and the metrics are the ``per_layer`` ones.
Spans are written to ``.perfbench-out/<workload>/trace.json``.
A failed output check prints the record with ``correct: false`` and
exits 1.  See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NoReturn, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SPEC_FILE = ROOT / "BENCHMARK.json"
PINS_FILE = HERE / "pins.json"
BASELINE_FILE = HERE / "baseline.json"

#: Fresh processes whose set-up times give ``setup_s`` (their median).
SETUP_PROBES = 5
#: Seed whose results are pinned in pins.json.
PINNED_SEED = 0
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def require_checkout() -> None:
    """Exit non-zero unless the program's sources are here."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no src/repro under {ROOT}: run from a full checkout")
    if not SPEC_FILE.is_file():
        fail(f"no BENCHMARK.json under {ROOT}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def environment() -> Dict[str, object]:
    """What every record states about the host and the code."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


# -- child processes ----------------------------------------------------------


def _context(args, work_dir: Path, spool: Optional[Path] = None, units=None):
    from perfbench.workloads import Context

    return Context(
        seed=args.seed,
        seconds=float(args.seconds),
        quick=args.quick,
        work_dir=work_dir,
        spool=spool,
        units=units,
    )


def _teardown(state) -> None:
    server = getattr(state, "server", None)
    if server is not None:
        server.stop()
    executor = getattr(state, "executor", None)
    if executor is not None:
        executor.close()


def probe_main(args) -> int:
    """Set the workload up once, say ``ready``, tear it down."""
    from perfbench.workloads import WORKLOADS

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    state = WORKLOADS[args.probe][0](_context(args, work_dir))
    print("ready", flush=True)
    _teardown(state)
    return 0


def child_main(args) -> int:
    """Run one workload and write its outcome as JSON to ``--out``."""
    import resource

    spool = Path(args.spool) if args.spool else None
    tracer = None
    if spool is not None and args.child != "serve_mixed":
        from perfbench.tracing import Tracer

        tracer = Tracer(spool).install()
    from perfbench import workloads

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = _context(args, work_dir, spool, args.units)
    if tracer is not None:
        tracer.active = False
        ctx.tracer = tracer
    setup, run = workloads.WORKLOADS[args.child]
    if args.child == "serve_mixed":
        state = setup(ctx, workloads.build_serve_fixture(ctx))
    else:
        state = setup(ctx)
    try:
        outcome = run(ctx, state)
    finally:
        _teardown(state)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "metrics": dict(outcome.metrics, peak_rss_mb=rss_kb / 1024.0),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "results_sha256": outcome.results_sha256,
        "pin_key": outcome.pin_key,
        "units": outcome.units,
        "wait_s": outcome.wait_s,
        "capacity_s": outcome.capacity_s,
        "uses_workers": outcome.uses_workers,
        "records": outcome.records,
    }
    if spool is not None:
        from perfbench.tracing import merge_spool

        local = (
            tracer.export()
            if tracer is not None
            else {"pid": os.getpid(), "layers": {}, "folded": {}, "spans": []}
        )
        record["trace"] = merge_spool(local, spool)
    Path(args.out).write_text(json.dumps(record))
    return 0


def _python_args(args, *extra: str) -> List[str]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    return command + (["--quick"] if args.quick else [])


def measure_setup(args, work_dir: Path) -> List[float]:
    """Seconds from process start to ready, in fresh processes.

    Each start is timed like a workload's operations: bracketed by the
    reference kernel and scaled to the nominal host speed.
    """
    from perfbench.workloads import HostSpeed, child_env

    host = HostSpeed(1)
    times = []
    for k in range(1 if args.quick else SETUP_PROBES):
        command = _python_args(
            args, "--probe", args.workload, "--work-dir", str(work_dir / f"probe{k}")
        )

        def start():
            process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                text=True,
                env=child_env(),
                start_new_session=True,
            )
            return process, process.stdout.readline()

        (process, line), scaled, _raw = host.timed(start)
        process.stdout.close()
        if _wait(process, timeout=60) != 0 or line.strip() != "ready":
            fail(f"set-up probe for {args.workload} failed", 1)
        times.append(scaled)
    return times


def run_child(args, work_dir: Path, spool=None, units=None) -> dict:
    from perfbench.workloads import child_env

    out = work_dir / ("traced.json" if spool else "untraced.json")
    extra = ["--child", args.workload, "--work-dir", str(work_dir / out.stem),
             "--out", str(out)]
    if spool is not None:
        extra += ["--spool", str(spool)]
    if units is not None:
        extra += ["--units", str(units)]
    process = subprocess.Popen(
        _python_args(args, *extra), env=child_env(), start_new_session=True
    )
    code = _wait(process, timeout=4 * args.seconds + 60)
    if code != 0:
        fail(f"workload {args.workload} failed (exit {code})", 1)
    return json.loads(out.read_text())


def _wait(process: subprocess.Popen, timeout: float) -> int:
    """Wait for a child started in its own session; past ``timeout``,
    kill its whole process group (pool workers, shards, the server)."""
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return -signal.SIGKILL


# -- correctness --------------------------------------------------------------


def check_pin(args, child: dict, env: dict) -> str:
    """``results_sha256`` against the pin for this workload, if one applies."""
    path = Path(args.pins)
    pins = json.loads(path.read_text()) if path.is_file() else {}
    pin = pins.get(args.workload)
    if (
        pin is None
        or args.seed != pin["seed"]
        or env["numpy"] != pin["numpy"]
        or child["pin_key"] != pin["key"]
    ):
        return "unverified"
    if child["results_sha256"] == pin["results_sha256"]:
        return "ok"
    return f"mismatch: results_sha256 {child['results_sha256'][:16]} != pin"


# -- one benchmark run --------------------------------------------------------


def _layer_metrics(untraced: dict, traced: dict) -> Dict[str, Optional[float]]:
    from perfbench.tracing import absent_layers, layer_metrics

    trace = traced["trace"]
    absent = absent_layers(trace.get("absent", {}))
    unknown = traced["uses_workers"] and not trace.get("workers_traced", True)
    metrics = layer_metrics(trace, traced["capacity_s"], unknown, absent)
    shares = [v for k, v in metrics.items() if k.endswith(".share") and v is not None]
    metrics["layers.share_sum"] = sum(shares)
    metrics["tracer.call_cost_ns"] = float(trace.get("call_cost_ns", 0))
    metrics["trace_overhead_pct"] = (
        traced["wait_s"] / untraced["wait_s"] - 1.0
    ) * 100.0
    epoch = trace["layers"].get("fleet.shard_epoch")
    metrics["fleet.shard_busy_frac"] = (
        epoch[1] / 1e9 / traced["capacity_s"] if epoch else 0.0
    )
    return metrics


def bench_main(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"workload {args.workload!r} is not implemented")
    env = environment()
    work_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup_times = measure_setup(args, work_dir)
        untraced = run_child(args, work_dir)
        traced = None
        if args.trace:
            spool = work_dir / "spool"
            traced = run_child(args, work_dir, spool=spool, units=untraced["units"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = dict(untraced["checks"])
    checks["results_pin"] = check_pin(args, untraced, env)
    if traced is not None and traced["results_sha256"] != untraced["results_sha256"]:
        checks["traced_eq_untraced"] = "mismatch: traced results differ"
    correct = all(v in ("ok", "unverified") for v in checks.values())

    measured = dict(untraced["metrics"])
    measured["setup_s"] = statistics.median(setup_times)
    measured["failed_frac"] = (
        1.0 if not correct else untraced["failed"] / untraced["attempted"]
    )
    if args.trace:
        wanted = spec["per_layer"]
        measured.update(_layer_metrics(untraced, traced))
        _write_trace(args, env, untraced, traced, checks)
    else:
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if value is None or args.trace:
            continue
        if value == 0.0:
            print(f"perfbench: end-to-end metric {metric['name']} read 0",
                  file=sys.stderr)
            correct = False

    record = {
        "correct": correct,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"] if correct else untraced["attempted"],
        "metrics": metrics,
    }
    _report(args, env, checks, measured, setup_times, record, untraced)
    print(json.dumps(record))
    return 0 if correct else 1


def _write_trace(args, env, untraced, traced, checks) -> None:
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    trace = traced["trace"]
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "checks": checks,
        "untraced_wait_s": untraced["wait_s"],
        "traced_wait_s": traced["wait_s"],
        "capacity_s": traced["capacity_s"],
        "call_cost_ns": trace.get("call_cost_ns"),
        "pids": trace["pids"],
        "layers": {
            k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
            for k, v in sorted(trace["layers"].items())
        },
        "folded": {
            k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
            for k, v in sorted(trace["folded"].items())
        },
        "spans": sorted(trace["spans"], key=lambda s: (s["pid"], s["start_ns"])),
        "requests": traced["records"],
    }
    (out / "trace.json").write_text(json.dumps(document, indent=1) + "\n")


def _report(args, env, checks, measured, setup_times, record, untraced) -> None:
    """A human summary on stderr; with ``--json`` also an appended record."""
    err = sys.stderr
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)}  {env}", file=err)
    for name, state in sorted(checks.items()):
        print(f"  check {name}: {state}", file=err)
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}", file=err)
    if args.json:
        line = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "env": env,
            "checks": checks,
            "results_sha256": untraced["results_sha256"],
            "pin_key": untraced["pin_key"],
            "setup_runs_s": setup_times,
            "diagnostics": measured,
            "result": record,
        }
        with open(args.json, "a") as handle:
            handle.write(json.dumps(line) + "\n")


# -- --check, --record, --compare -------------------------------------------


def validate_spec(spec: dict) -> List[str]:
    """Problems with BENCHMARK.json (empty when it is valid)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    if not 1 <= len(spec["paths"]) <= 16:
        problems.append("paths: 1 to 16 directories")
    for path in spec["paths"]:
        if not re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) or path.startswith("/") \
                or ".." in path.split("/") or not (ROOT / path).is_dir():
            problems.append(f"path {path!r} is not a relative directory here")
    command = spec["command"]
    if not 1 <= len(command) <= 32 or any(len(c) > 200 for c in command):
        problems.append("command: 1 to 32 strings of at most 200 characters")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    sections = (("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128))
    seen = set()
    for section, lo, hi in sections:
        entries = spec[section]
        if not lo <= len(entries) <= hi:
            problems.append(f"{section}: {lo} to {hi} entries, got {len(entries)}")
        for entry in entries:
            name = entry.get("name", "")
            if not NAME_RE.match(name) or name in seen:
                problems.append(f"{section}: bad or repeated name {name!r}")
            seen.add(name)
            if section == "workloads":
                if set(entry) != {"name", "why"} or len(entry["why"]) > 200:
                    problems.append(f"workload {name}: name and a short why")
                continue
            want = {"name", "unit", "better"} | (
                {"bound"} if section == "end_to_end" else set()
            )
            if set(entry) != want:
                problems.append(f"{section} {name}: keys {sorted(entry)}")
            if not re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry.get("unit", "")):
                problems.append(f"{section} {name}: bad unit")
            if entry.get("better") not in ("higher", "lower"):
                problems.append(f"{section} {name}: better is higher or lower")
            if section == "end_to_end" and not 0 < entry.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    return problems


def check_main(args) -> int:
    spec = load_spec()
    problems = validate_spec(spec)
    if BASELINE_FILE.is_file():
        baseline = json.loads(BASELINE_FILE.read_text())
        names = {m["name"] for m in spec["end_to_end"]}
        for workload, metrics in baseline["workloads"].items():
            if set(metrics) != names:
                problems.append(f"baseline {workload}: metrics {sorted(metrics)}")
    else:
        problems.append("no perfbench/baseline.json (run --record)")
    for problem in problems:
        print(f"BENCHMARK.json: {problem}", file=sys.stderr)
    print("BENCHMARK.json: ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, relative spread and count of one metric."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def record_main(args) -> int:
    """Run every workload ``--record`` times on seeds 1..N; write baseline.json.

    The raw run records go to ``--json`` (default
    ``.perfbench-out/record.jsonl``); seeds are the outer loop so drift
    of the host touches every workload alike.
    """
    spec = load_spec()
    runs_file = Path(args.json or OUT / "record.jsonl")
    runs_file.parent.mkdir(parents=True, exist_ok=True)
    runs_file.write_text("")
    for seed in range(1, args.record + 1):
        for workload in (w["name"] for w in spec["workloads"]):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--trace", "0", "--json", str(runs_file)]
            completed = subprocess.run(command, capture_output=True, text=True)
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                fail(f"{workload} seed {seed} failed", 1)
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    baseline = build_baseline(spec, runs_file)
    BASELINE_FILE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    for w, metrics in baseline["workloads"].items():
        for name, s in metrics.items():
            print(f"{w:15s} {name:18s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.3f}  n {s['n']}")
    return 0


def build_baseline(spec: dict, runs_file: Path) -> dict:
    """Median, quartiles and n per workload x metric from run records.

    ``workloads`` holds the end-to-end metrics; ``diagnostics`` every
    other number the untraced runs measured (per-rate serve latency,
    the ``shards=2`` fleet throughput, ...).
    """
    e2e = {m["name"] for m in spec["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {}
    env = None
    seeds = set()
    for line in runs_file.read_text().splitlines():
        entry = json.loads(line)
        if entry["trace"]:
            continue
        env, workload = entry["env"], entry["workload"]
        seeds.add(entry["seed"])
        for name, value in entry["diagnostics"].items():
            if isinstance(value, (int, float)):
                values.setdefault(workload, {}).setdefault(name, []).append(value)
    return {
        "env": env,
        "run_seconds": spec["run_seconds"],
        "seeds": sorted(seeds),
        "workloads": {
            w: {k: summarize(v) for k, v in m.items() if k in e2e}
            for w, m in values.items()
        },
        "diagnostics": {
            w: {k: summarize(v) for k, v in m.items() if k not in e2e}
            for w, m in values.items()
        },
    }


def _load_runs(path: str) -> Dict[str, List[dict]]:
    by_workload: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            entry = json.loads(line)
            if not entry.get("trace"):
                by_workload.setdefault(entry["workload"], []).append(entry["result"])
    return by_workload


def compare(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    """The verdict for one workload x metric.

    Runs pair up in order (run i of the parent with run i of the
    change, taken alternately).  A win needs at least 10 pairs, the
    change better in 9/10 of them (ties count for neither) and medians
    further apart than the parent's interquartile range.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    if len(pairs) < 10:
        return f"unresolved: {len(pairs)} pairs (need 10)"
    p = summarize(parent)
    c_median = statistics.median(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    delta = sign * (c_median - p["median"])
    medians = f"median {c_median:.5g} vs {p['median']:.5g}"
    if wins >= 0.9 * len(pairs) and delta > p["q3"] - p["q1"]:
        return f"better: {wins}/{len(pairs)} pairs, {medians}"
    if p["spread"] > bound:
        return f"unresolved: parent spread {p['spread']:.1%} exceeds the bound"
    if -delta > bound * abs(p["median"]):
        return f"worse: {medians} (bound {bound:.0%})"
    return f"no regression: {medians}"


def compare_main(args) -> int:
    spec = load_spec()
    parent, change = _load_runs(args.compare[0]), _load_runs(args.compare[1])
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in parent.get(workload, [])]
            b = [r["metrics"][name]["value"] for r in change.get(workload, [])]
            if not a or not b:
                print(f"{workload:15s} {name:18s} no runs")
                continue
            verdict = compare(a, b, metric["better"], metric["bound"])
            worse |= verdict.startswith("worse")
            print(f"{workload:15s} {name:18s} {verdict}")
    return 1 if worse else 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", metavar="NAME")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs for the self-tests")
    parser.add_argument("--json", metavar="FILE",
                        help="append a full record of the run to FILE")
    parser.add_argument("--pins", default=str(PINS_FILE), metavar="FILE",
                        help="results_sha256 pins (default perfbench/pins.json)")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--record", type=int, metavar="N")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    # Internal: the processes a run starts.
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--spool", help=argparse.SUPPRESS)
    parser.add_argument("--units", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_checkout()
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.probe:
        return probe_main(args)
    if args.child:
        return child_main(args)
    if args.check:
        return check_main(args)
    if args.record:
        return record_main(args)
    if args.compare:
        return compare_main(args)
    if not args.workload:
        fail("--workload is required")
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
