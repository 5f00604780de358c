"""The fleet engine: sharded BSP execution with a deterministic reduce.

:func:`run_fleet` advances one coupled fleet to its horizon.  The
shard count is an *execution strategy*, never a semantic input:

* racks partition contiguously across shards (near-equal slices);
* within an epoch every shard advances its racks with cross-rack
  state frozen (rack physics is rack-local — see
  :mod:`repro.fleet.model`);
* at each epoch boundary the engine gathers per-rack reports, the
  :class:`~repro.fleet.coordinator.FleetCoordinator` computes the next
  inlets and budgets from them in fixed rack order, and the commands
  fan back out.

Because each rack's trajectory is a function of ``(spec, epoch
commands)`` and the coordinator is a function of the ordered reports,
the whole :class:`FleetResult` is bitwise identical for every
``shards`` value — :meth:`FleetResult.canonical_bytes` is the
equivalence gate the tests and the benchmark both assert on.

Results ride the runtime layer's
:class:`~repro.runtime.store.ResultStore` keyed by the spec digest
alone (no shard count — a fleet simulated once is a hit at any shard
count); the entry body is :meth:`FleetResult.canonical_bytes`.
The fleet package deliberately does not import the cluster layer (the
RPR014 shard-isolation rule pins this): shards rebuild their world
from the spec wire form only.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError
from ..runtime.store import ResultStore
from ..sim.events import Event
from ..telemetry import TelemetrySnapshot
from .coordinator import FleetCoordinator
from .shard import NodeFinal, RackFinal, RackReport, ShardRunner, shard_worker
from .spec import FleetSpec

__all__ = ["FleetResult", "partition_racks", "run_fleet"]


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet simulation produced, frozen and picklable.

    Attributes
    ----------
    spec:
        The spec that named the run.
    nodes:
        Per-node finals in ``(rack, node)`` order.
    racks:
        Per-rack finals in rack order.
    series:
        Per-epoch ``(t_end, total_power_w, max_die_c, pp_global)`` rows.
    events:
        The coordinator's event log (epoch summaries, fault injection).
    telemetry:
        Merged shard + coordinator snapshot (rack-labeled instruments;
        nothing in it depends on the shard count).
    """

    spec: FleetSpec
    nodes: Tuple[NodeFinal, ...]
    racks: Tuple[RackFinal, ...]
    series: Tuple[Tuple[float, float, float, float], ...]
    events: Tuple[Event, ...]
    telemetry: TelemetrySnapshot

    # -- summaries ---------------------------------------------------------

    def peak_die_c(self) -> float:
        """Hottest die temperature any node reached, °C."""
        return max(node.max_die_c for node in self.nodes)

    def total_cpu_energy_j(self) -> float:
        """Fleet CPU energy over the horizon, J (fixed node order)."""
        total = 0.0
        for node in self.nodes:
            total += node.energy_j
        return total

    def total_fan_energy_j(self) -> float:
        """Fleet fan-wall energy over the horizon, J (fixed rack order)."""
        total = 0.0
        for rack in self.racks:
            total += rack.fan_energy_j
        return total

    def total_throttles(self) -> int:
        """Total DVFS throttle-down decisions across the fleet."""
        return sum(node.throttles for node in self.nodes)

    # -- canonical form ----------------------------------------------------

    def to_jsonable(self) -> dict:
        """Plain-data rendering (CLI output, service payloads)."""
        return {
            "spec": json.loads(self.spec.to_json()),
            "digest": self.spec.digest(),
            "nodes": [
                {
                    "rack": n.rack,
                    "node": n.node,
                    "final_die_c": n.final_die_c,
                    "final_sink_c": n.final_sink_c,
                    "max_die_c": n.max_die_c,
                    "energy_j": n.energy_j,
                    "pstate_index": n.pstate_index,
                    "throttles": n.throttles,
                }
                for n in self.nodes
            ],
            "racks": [
                {
                    "rack": r.rack,
                    "inlet_c": r.inlet_c,
                    "duty": r.duty,
                    "fan_energy_j": r.fan_energy_j,
                }
                for r in self.racks
            ],
            "series": [list(row) for row in self.series],
            "events": [
                {
                    "time": e.time,
                    "category": e.category,
                    "source": e.source,
                    "data": {k: e.data[k] for k in sorted(e.data)},
                }
                for e in self.events
            ],
            "telemetry": self.telemetry.to_jsonable(),
            "summary": {
                "peak_die_c": self.peak_die_c(),
                "total_cpu_energy_j": self.total_cpu_energy_j(),
                "total_fan_energy_j": self.total_fan_energy_j(),
                "total_throttles": self.total_throttles(),
            },
        }

    @classmethod
    def from_canonical(cls, spec: FleetSpec, data: bytes) -> "FleetResult":
        """Invert :meth:`canonical_bytes` (the result-store body); raises
        on a malformed document."""
        doc = json.loads(data)
        return cls(
            spec=spec,
            nodes=tuple(NodeFinal(**n) for n in doc["nodes"]),
            racks=tuple(RackFinal(**r) for r in doc["racks"]),
            series=tuple(map(tuple, doc["series"])),
            events=tuple(Event(**e) for e in doc["events"]),
            telemetry=TelemetrySnapshot.from_jsonable(doc["telemetry"]),
        )

    def canonical_bytes(self) -> bytes:
        """Bitwise-faithful serialization — the equivalence gate.

        Floats serialize through :func:`json.dumps`'s shortest
        round-trip ``repr``, which is injective on float64, so two
        results agree on these bytes iff every float in them is
        bitwise identical.
        """
        return json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")


def partition_racks(racks: int, shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous near-equal ``(rack_lo, rack_hi)`` slices per shard.

    ``shards`` is clamped into ``[1, racks]``; the first ``racks %
    shards`` slices take one extra rack.
    """
    shards = max(1, min(shards, racks))
    base, extra = divmod(racks, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)


class _LocalShard:
    """In-process shard handle (the ``shards == 1`` fast path)."""

    def __init__(self, spec: FleetSpec, rack_lo: int, rack_hi: int) -> None:
        self._runner = ShardRunner(spec, rack_lo, rack_hi)
        self._reports: List[RackReport] = []

    def submit_epoch(
        self,
        inlets: Tuple[float, ...],
        pps: Tuple[float, ...],
        n_ticks: int,
    ) -> None:
        self._reports = self._runner.run_epoch(inlets, pps, n_ticks)

    def collect_reports(self) -> List[RackReport]:
        return self._reports

    def finish(self):
        return self._runner.finish()

    def stop(self) -> None:
        pass


class _ProcessShard:
    """Worker-process shard handle speaking the pipe protocol."""

    def __init__(self, spec: FleetSpec, rack_lo: int, rack_hi: int) -> None:
        self.rack_lo = rack_lo
        self.rack_hi = rack_hi
        self._conn, child = multiprocessing.Pipe()
        self._process = multiprocessing.Process(
            target=shard_worker,
            args=(child, spec.to_json(), rack_lo, rack_hi),
            daemon=True,
        )
        self._process.start()
        child.close()

    def _receive(self, expected: str):
        try:
            kind, payload = self._conn.recv()
        except EOFError:
            raise SimulationError(
                f"fleet shard [{self.rack_lo}, {self.rack_hi}) died "
                "without reporting"
            ) from None
        if kind == "error":
            raise SimulationError(
                f"fleet shard [{self.rack_lo}, {self.rack_hi}) failed: "
                f"{payload}"
            )
        if kind != expected:
            raise SimulationError(
                f"fleet shard [{self.rack_lo}, {self.rack_hi}) sent "
                f"{kind!r}, expected {expected!r}"
            )
        return payload

    def submit_epoch(
        self,
        inlets: Tuple[float, ...],
        pps: Tuple[float, ...],
        n_ticks: int,
    ) -> None:
        self._conn.send(("epoch", inlets, pps, n_ticks))

    def collect_reports(self) -> List[RackReport]:
        return self._receive("reports")

    def finish(self):
        self._conn.send(("finish",))
        return self._receive("result")

    def stop(self) -> None:
        try:
            self._conn.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=10.0)
        self._conn.close()


# -- the engine ------------------------------------------------------------


def _epoch_tick_counts(spec: FleetSpec) -> List[int]:
    total = spec.total_ticks()
    counts: List[int] = []
    done = 0
    while done < total:
        n = min(spec.epoch_ticks, total - done)
        counts.append(n)
        done += n
    return counts


def _reduce(
    spec: FleetSpec,
    shard_results: Sequence,
    coordinator: FleetCoordinator,
    series: Sequence[Tuple[float, float, float, float]],
) -> FleetResult:
    """Deterministic fold of shard results into one :class:`FleetResult`.

    Node and rack finals sort by their ``(rack, node)`` identity (the
    shards cover disjoint rack ranges, so this is a pure reordering),
    and the telemetry merge is order-independent by the snapshot
    contract — so the reduce is a function of the result *set*, not of
    shard arrival order.
    """
    nodes: List[NodeFinal] = sorted(
        (n for sr in shard_results for n in sr.nodes),
        key=lambda n: (n.rack, n.node),
    )
    racks: List[RackFinal] = sorted(
        (r for sr in shard_results for r in sr.racks),
        key=lambda r: r.rack,
    )
    telemetry = TelemetrySnapshot.merge(
        coordinator.registry.snapshot(),
        *(sr.telemetry for sr in shard_results),
    )
    return FleetResult(
        spec=spec,
        nodes=tuple(nodes),
        racks=tuple(racks),
        series=tuple(series),
        events=tuple(coordinator.events),
        telemetry=telemetry,
    )


def run_fleet(
    spec: FleetSpec,
    shards: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> FleetResult:
    """Simulate one coupled fleet; bitwise identical for any ``shards``.

    Parameters
    ----------
    spec:
        The fleet to simulate.
    shards:
        Worker count; clamped into ``[1, spec.racks]``.  ``1`` runs
        in-process, anything larger forks one worker per shard.
    cache_dir:
        Optional :class:`~repro.runtime.store.ResultStore` directory,
        shared with run results.  Keyed by the spec digest only — shard
        count is not part of a result's identity.
    """
    store = None if cache_dir is None else ResultStore(cache_dir)
    if store is not None:
        cached = store.load(
            "fleet",
            spec.digest(),
            lambda _header, body: FleetResult.from_canonical(spec, body),
            spec=spec.canonical(),
        )
        if cached is not None:
            return cached
    bounds = partition_racks(spec.racks, shards)
    if len(bounds) == 1:
        handles: List = [_LocalShard(spec, *bounds[0])]
    else:
        handles = [_ProcessShard(spec, lo, hi) for lo, hi in bounds]
    coordinator = FleetCoordinator(spec)
    series: List[Tuple[float, float, float, float]] = []
    try:
        t = 0.0
        for n_ticks in _epoch_tick_counts(spec):
            inlets, pps = coordinator.begin_epoch(t)
            for (lo, hi), handle in zip(bounds, handles):
                handle.submit_epoch(inlets[lo:hi], pps[lo:hi], n_ticks)
            reports: List[RackReport] = []
            for handle in handles:
                reports.extend(handle.collect_reports())
            t += n_ticks * spec.dt
            coordinator.end_epoch(t, reports)
            last = coordinator.events[len(coordinator.events) - 1]
            series.append(
                (
                    t,
                    last.data["total_power_w"],
                    last.data["max_die_c"],
                    last.data["pp_global"],
                )
            )
        shard_results = [handle.finish() for handle in handles]
    finally:
        for handle in handles:
            handle.stop()
    result = _reduce(spec, shard_results, coordinator, series)
    if store is not None:
        store.save(
            "fleet", spec.digest(), spec.canonical(), result.canonical_bytes()
        )
    return result
