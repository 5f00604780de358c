"""Command-line experiment runner.

Usage::

    python -m repro list
    python -m repro run table1
    python -m repro run fig9 --quick --seed 7
    python -m repro run all --export results/
    python -m repro run fig7 --jobs 4 --cache-dir .repro-cache
    python -m repro run fig5 --quick --telemetry=jsonl
    python -m repro telemetry fig5 --limit 20
    python -m repro serve --port 8080 --jobs 4 --cache-dir .repro-cache

Each experiment prints its paper-style table; ``all`` runs the whole
evaluation section in order (several minutes of simulated cluster
time, well under a minute of wall time each).  With ``--export DIR``
each experiment also writes ``<name>.txt`` (the rendered table) and
``<name>.json`` (the raw result object) into ``DIR`` for downstream
tooling.  ``--jobs N`` fans independent runs out over N worker
processes and ``--cache-dir DIR`` reuses cached results across
invocations; both are exact — output is byte-identical to a serial,
uncached run.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, List, Optional

from .errors import ConfigurationError
from .experiments import REGISTRY
from .platform import PLATFORM_REGISTRY
from .runtime import DEFAULT_SEED, RunExecutor
from .telemetry import (
    EXPORTER_FORMATS,
    export_jsonl,
    export_prometheus,
    export_summary,
    render_decisions,
)

__all__ = ["main", "build_parser", "to_jsonable"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert experiment result objects to JSON-safe data.

    Handles dataclasses, enums (by value), dict keys that are enums or
    tuples, and falls back to ``str`` for anything exotic.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {
            str(to_jsonable(key)): to_jsonable(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-thermal",
        description=(
            "Reproduce the evaluation of 'System-level, Unified In-band "
            "and Out-of-band Dynamic Thermal Control' (ICPP 2010) on a "
            "simulated power-aware cluster."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument(
        "experiment",
        choices=sorted(REGISTRY) + ["all"],
        help="experiment id (see 'list')",
    )
    run_p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"platform seed (default {DEFAULT_SEED})",
    )
    run_p.add_argument(
        "--quick",
        action="store_true",
        help="shortened workloads (for smoke testing)",
    )
    run_p.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="write <name>.txt and <name>.json per experiment into DIR",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent runs (default 1: serial)",
    )
    run_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory (default: no cache)",
    )
    run_p.add_argument(
        "--telemetry",
        choices=EXPORTER_FORMATS,
        default=None,
        metavar="FMT",
        help=(
            "record decision provenance and metrics; print (or, with "
            f"--export, write) them in FMT ({'/'.join(EXPORTER_FORMATS)})"
        ),
    )
    run_p.add_argument(
        "--platform",
        choices=sorted(PLATFORM_REGISTRY),
        default=None,
        metavar="NAME",
        help=(
            "silicon to simulate (platform registry key; default: the "
            "paper's Athlon64 testbed via the exact historical path). "
            f"Choices: {', '.join(sorted(PLATFORM_REGISTRY))}"
        ),
    )

    tel_p = sub.add_parser(
        "telemetry",
        help="replay an experiment with telemetry and show its decisions",
    )
    tel_p.add_argument(
        "experiment",
        nargs="?",
        default="fig5",
        choices=sorted(REGISTRY),
        help="experiment to replay (default: fig5)",
    )
    tel_p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="platform seed"
    )
    tel_p.add_argument(
        "--full",
        action="store_true",
        help="full-length workloads (default: quick replay)",
    )
    tel_p.add_argument(
        "--format",
        choices=("decisions",) + EXPORTER_FORMATS,
        default="decisions",
        help="output view (default: the per-tick decision table)",
    )
    tel_p.add_argument(
        "--limit",
        type=int,
        default=12,
        metavar="N",
        help="decision rows shown per run (0 = unlimited; default 12)",
    )
    tel_p.add_argument(
        "--export",
        metavar="FILE",
        default=None,
        help="write the output to FILE instead of stdout",
    )

    series_p = sub.add_parser(
        "series", help="regenerate a figure's raw curves as CSVs"
    )
    from .experiments.series import SERIES_REGISTRY

    series_p.add_argument(
        "figure",
        choices=sorted(SERIES_REGISTRY),
        help="figure whose curves to regenerate",
    )
    series_p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="platform seed"
    )
    series_p.add_argument(
        "--quick", action="store_true", help="shortened workloads"
    )
    series_p.add_argument(
        "--export",
        metavar="DIR",
        default="series_out",
        help="directory for the per-curve CSVs (default: series_out/)",
    )
    series_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent runs (default 1: serial)",
    )
    series_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory (default: no cache)",
    )
    series_p.add_argument(
        "--platform",
        choices=sorted(PLATFORM_REGISTRY),
        default=None,
        metavar="NAME",
        help=(
            "silicon to simulate (platform registry key; default: the "
            "paper's Athlon64 testbed via the exact historical path)"
        ),
    )

    serve_p = sub.add_parser(
        "serve",
        help="serve simulations over HTTP (POST RunSpec JSON to /v1/runs)",
    )
    serve_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (default 8080; 0 picks an ephemeral port)",
    )
    serve_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cold runs (default 1: serial)",
    )
    serve_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result store directory (default: a temporary directory "
        "removed when the server stops)",
    )
    serve_p.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="admission-control bound on queued runs (overflow -> 429; "
        "default 64)",
    )

    fleet_p = sub.add_parser(
        "fleet",
        help=(
            "simulate one coupled fleet (racks sharing a hot aisle) with "
            "the sharded deterministic engine"
        ),
    )
    fleet_p.add_argument(
        "--racks", type=int, default=4, metavar="R",
        help="racks in the hot-aisle row (default 4)",
    )
    fleet_p.add_argument(
        "--nodes-per-rack", type=int, default=8, metavar="M",
        help="nodes per rack (default 8)",
    )
    fleet_p.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help=(
            "worker processes; results are bitwise identical for every "
            "value (default 1: in-process)"
        ),
    )
    fleet_p.add_argument(
        "--epoch-ticks", type=int, default=40, metavar="E",
        help="physics ticks per synchronization epoch (default 40)",
    )
    fleet_p.add_argument(
        "--horizon", type=float, default=120.0, metavar="SECONDS",
        help="simulated seconds (default 120)",
    )
    fleet_p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload phase seed (default {DEFAULT_SEED})",
    )
    fleet_p.add_argument(
        "--workload",
        choices=("uniform", "imbalance", "wave"),
        default="imbalance",
        help="fleet workload profile (default imbalance)",
    )
    fleet_p.add_argument(
        "--power-budget", type=float, default=None, metavar="WATTS",
        help="fleet-wide CPU power cap the coordinator tracks "
        "(default: uncapped)",
    )
    fleet_p.add_argument(
        "--recirculation", type=float, default=0.2, metavar="FRACTION",
        help="hot-aisle recirculated fraction of rack exhaust (default 0.2)",
    )
    fleet_p.add_argument(
        "--fault-at", type=float, default=None, metavar="SECONDS",
        help="inject a hot-aisle containment breach at this time "
        "(default: no fault)",
    )
    fleet_p.add_argument(
        "--fault-rack", type=int, default=0, metavar="R",
        help="victim rack of the containment breach (default 0)",
    )
    fleet_p.add_argument(
        "--platform",
        choices=sorted(PLATFORM_REGISTRY),
        default=None,
        metavar="NAME",
        help="silicon the nodes run (default: the paper's Athlon64 testbed)",
    )
    fleet_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed fleet result cache (default: no cache)",
    )
    fleet_p.add_argument(
        "--quick", action="store_true", help="shortened horizon smoke mode"
    )
    fleet_p.add_argument(
        "--export",
        metavar="FILE",
        default=None,
        help="write the full result JSON to FILE",
    )

    sub.add_parser(
        "lint",
        help="run the repro.lint invariant checker (see 'repro-lint --help')",
        add_help=False,
    )
    return parser


#: Export filename per telemetry format (under ``--export DIR``).
_TELEMETRY_SUFFIX = {"jsonl": "jsonl", "prometheus": "prom", "summary": "txt"}


def _render_telemetry(
    fmt: str, executor: RunExecutor, limit: int = 12
) -> str:
    """Render the executor's collected telemetry in ``fmt``."""
    if fmt == "jsonl":
        return export_jsonl(executor.collected)
    if fmt == "prometheus":
        return export_prometheus(executor.telemetry_snapshot())
    if fmt == "summary":
        return export_summary(executor.telemetry_snapshot())
    return render_decisions(executor.collected, limit=limit)


def _run_one(
    name: str,
    seed: int,
    quick: bool,
    export: Optional[str] = None,
    executor: Optional[RunExecutor] = None,
) -> None:
    module, description = REGISTRY[name]
    t0 = time.perf_counter()
    result = module.run(seed=seed, quick=quick, executor=executor)
    elapsed = time.perf_counter() - t0
    rendered = module.render(result)
    print(f"== {name}: {description} ==")
    print(rendered)
    print(f"({elapsed:.1f}s wall time)\n")
    if export is not None:
        out_dir = Path(export)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(rendered + "\n")
        payload = {
            "experiment": name,
            "description": description,
            "seed": seed,
            "quick": quick,
            "wall_time_s": round(elapsed, 3),
            "result": to_jsonable(result),
        }
        (out_dir / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.errors.ConfigurationError` from any subcommand is
    printed as ``repro <command>: <message>`` on stderr, exit code 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # `lint` forwards its arguments verbatim (argparse.REMAINDER cannot:
    # it refuses option-looking tokens right after the subcommand).
    if argv[:1] == ["lint"]:
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])

    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; returns the exit code."""
    if args.command == "list":
        width = max(len(n) for n in REGISTRY)
        for name in REGISTRY:
            print(f"{name:<{width}}  {REGISTRY[name][1]}")
        return 0

    if args.command == "telemetry":
        executor = RunExecutor(telemetry=True)
        module, description = REGISTRY[args.experiment]
        print(
            f"== telemetry replay: {args.experiment} ({description}), "
            f"seed={args.seed}, {'full' if args.full else 'quick'} ==",
            file=sys.stderr,
        )
        module.run(seed=args.seed, quick=not args.full, executor=executor)
        text = _render_telemetry(args.format, executor, limit=args.limit)
        if args.export is not None:
            path = Path(args.export)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text if text.endswith("\n") else text + "\n")
            print(f"wrote {path}", file=sys.stderr)
        else:
            print(text)
        return 0

    if args.command == "serve":
        import asyncio

        from .serve import ServeConfig, serve_forever

        config = ServeConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            queue_depth=args.queue_depth,
        )
        try:
            asyncio.run(serve_forever(config))
        except KeyboardInterrupt:
            print("repro.serve: shutting down")
        return 0

    if args.command == "fleet":
        from .fleet import FleetFaultSpec, FleetSpec, run_fleet
        from .runtime.store import ResultStore

        fault = (
            None
            if args.fault_at is None
            else FleetFaultSpec(rack=args.fault_rack, at=args.fault_at)
        )
        spec = FleetSpec(
            racks=args.racks,
            nodes_per_rack=args.nodes_per_rack,
            horizon=args.horizon if not args.quick else min(args.horizon, 30.0),
            epoch_ticks=args.epoch_ticks,
            seed=args.seed,
            workload=args.workload,
            power_budget=args.power_budget,
            recirculation=args.recirculation,
            platform=args.platform,
            fault=fault,
            quick=args.quick,
        )
        t0 = time.perf_counter()
        result = run_fleet(spec, shards=args.shards, cache_dir=args.cache_dir)
        elapsed = time.perf_counter() - t0
        ticks = spec.total_ticks()
        print(f"== {spec.describe()} ==")
        print(
            f"digest {spec.digest()}  epochs {spec.epochs()}  "
            f"ticks {ticks}  shards {args.shards}"
        )
        # sha256 of canonical_bytes(), from the entry header when stored.
        sha = args.cache_dir and ResultStore(args.cache_dir).load(
            "fleet",
            spec.digest(),
            lambda header, _body: header["sha256"],
            spec=spec.canonical(),
        )
        sha = sha or hashlib.sha256(result.canonical_bytes()).hexdigest()
        print(f"result sha256 {sha}")
        print(
            f"peak die {result.peak_die_c():.2f} C  "
            f"cpu energy {result.total_cpu_energy_j() / 1e3:.1f} kJ  "
            f"fan energy {result.total_fan_energy_j() / 1e3:.1f} kJ  "
            f"throttles {result.total_throttles()}"
        )
        print("rack  inlet_C  duty   fan_kJ  throttles")
        throttles_by_rack = {r.rack: 0 for r in result.racks}
        for node in result.nodes:
            throttles_by_rack[node.rack] += node.throttles
        for rack in result.racks:
            print(
                f"{rack.rack:>4}  {rack.inlet_c:7.2f}  {rack.duty:.2f}  "
                f"{rack.fan_energy_j / 1e3:7.2f}  "
                f"{throttles_by_rack[rack.rack]:>9}"
            )
        rate = spec.total_nodes * ticks / elapsed if elapsed > 0 else 0.0
        print(
            f"({elapsed:.1f}s wall time, {rate:,.0f} node-ticks/s)"
        )
        if args.export is not None:
            path = Path(args.export)
            if path.parent != Path(""):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(result.to_jsonable(), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"wrote {path}")
        return 0

    if args.command == "series":
        import csv

        from .experiments.series import SERIES_REGISTRY

        executor = RunExecutor(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            platform=args.platform,
        )
        curves = SERIES_REGISTRY[args.figure](
            seed=args.seed, quick=args.quick, executor=executor
        )
        out_dir = Path(args.export)
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, (times, values) in curves.items():
            path = out_dir / f"{args.figure}.{label}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["time_s", label])
                for t, v in zip(times, values):
                    writer.writerow([f"{t:.6f}", f"{v:.6f}"])
            print(f"wrote {path} ({len(times)} samples)")
        return 0

    executor = RunExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        telemetry=args.telemetry is not None,
        platform=args.platform,
    )
    names = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    for name in names:
        _run_one(
            name,
            seed=args.seed,
            quick=args.quick,
            export=args.export,
            executor=executor,
        )
    if args.telemetry is not None:
        text = _render_telemetry(args.telemetry, executor)
        if args.export is not None:
            out_dir = Path(args.export)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"telemetry.{_TELEMETRY_SUFFIX[args.telemetry]}"
            path.write_text(text if text.endswith("\n") else text + "\n")
            print(f"wrote {path}")
        else:
            print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
