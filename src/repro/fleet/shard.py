"""Shard execution: a contiguous rack range stepped in lockstep.

A :class:`ShardRunner` owns racks ``[rack_lo, rack_hi)`` of one fleet
and advances *all* of its nodes' CPU packages through one
:class:`~repro.fastpath.batch.PackageBatch` — the stacked stepper whose
per-member bitwise equality with
:meth:`RCNetwork.step <repro.thermal.rc.RCNetwork.step>` is exactly
what makes the partition a pure layout choice.  When the batch cannot
take a tick (a ``dt`` past the package's stability limit needs
sub-steps) it raises before writing any temperature, and the shard
steps every network on its own from then on — the same bits.  Between
two synchronization epochs a shard touches nothing but its own racks,
so the trajectory of rack *r* is a function of ``(spec, r, epoch
commands)`` — never of which shard (or how many shards) hosted it.

The process protocol is deliberately tiny and synchronous (BSP):

* ``("epoch", inlets, pps, n_ticks)`` → ``("reports", [RackReport])``
* ``("finish",)`` → ``("result", ShardResult)``
* ``("stop",)`` → worker exits

Workers rebuild their world from the spec's JSON wire form, so the
protocol works identically under fork and spawn start methods, and no
parent-side mutable state can leak into a worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import SimulationError
from ..fastpath.batch import PackageBatch, Unbatchable
from ..telemetry import MetricsRegistry, TelemetrySnapshot
from .model import FleetRack, build_rack, node_band
from .spec import FleetSpec

__all__ = [
    "NodeFinal",
    "RackFinal",
    "RackReport",
    "ShardResult",
    "ShardRunner",
    "shard_worker",
]


@dataclass(frozen=True)
class RackReport:
    """One rack's epoch-boundary summary, shipped to the coordinator."""

    rack: int
    outlet_c: float
    mean_power_w: float
    max_die_c: float
    throttles: int
    duty: float


@dataclass(frozen=True)
class NodeFinal:
    """One node's end-of-run accumulators."""

    rack: int
    node: int
    final_die_c: float
    final_sink_c: float
    max_die_c: float
    energy_j: float
    pstate_index: int
    throttles: int


@dataclass(frozen=True)
class RackFinal:
    """One rack's end-of-run accumulators."""

    rack: int
    inlet_c: float
    duty: float
    fan_energy_j: float


@dataclass(frozen=True)
class ShardResult:
    """Everything a shard returns at ``finish`` (picklable primitives)."""

    rack_lo: int
    rack_hi: int
    nodes: Tuple[NodeFinal, ...]
    racks: Tuple[RackFinal, ...]
    telemetry: TelemetrySnapshot


class ShardRunner:
    """Advance racks ``[rack_lo, rack_hi)`` of ``spec`` in lockstep.

    The runner keeps one *global* tick counter so control-tick and
    epoch alignment are properties of the fleet schedule, not of the
    shard: every shard sees the same tick indices for the same wall of
    simulated time.
    """

    def __init__(self, spec: FleetSpec, rack_lo: int, rack_hi: int) -> None:
        if not 0 <= rack_lo < rack_hi <= spec.racks:
            raise SimulationError(
                f"shard rack range [{rack_lo}, {rack_hi}) is outside the "
                f"{spec.racks}-rack fleet"
            )
        self.spec = spec
        self.rack_lo = rack_lo
        self.rack_hi = rack_hi
        self.registry = MetricsRegistry()
        self.racks: List[FleetRack] = [
            build_rack(spec, r) for r in range(rack_lo, rack_hi)
        ]
        self._band = node_band(spec)
        packages = [node.package for rack in self.racks for node in rack.nodes]
        self._nets = [package._net for package in packages]
        self._batch: Optional[PackageBatch] = PackageBatch(packages)
        self._tick = 0
        self._throttles_reported = [0] * len(self.racks)

    def run_epoch(
        self,
        inlets: Tuple[float, ...],
        pps: Tuple[float, ...],
        n_ticks: int,
    ) -> List[RackReport]:
        """Advance ``n_ticks`` under frozen epoch commands; report racks.

        ``inlets[k]`` / ``pps[k]`` address this shard's k-th rack (the
        engine slices the fleet-wide vectors before dispatch).
        """
        spec = self.spec
        racks = self.racks
        if len(inlets) != len(racks) or len(pps) != len(racks):
            raise SimulationError(
                f"epoch command length {len(inlets)}/{len(pps)} does not "
                f"match the shard's {len(racks)} racks"
            )
        for rack, inlet, pp in zip(racks, inlets, pps):
            rack.begin_epoch(inlet, pp)
        dt = spec.dt
        control_ticks = spec.control_ticks
        for _ in range(n_ticks):
            tick = self._tick
            if tick % control_ticks == 0:
                t = tick * dt
                for rack in racks:
                    rack.control_step(spec, t, self._band)
            for rack in racks:
                rack.tick(dt)
            self._step_packages(dt)
            self._tick += 1
            for rack in racks:
                for node in rack.nodes:
                    node.observe()
        reports: List[RackReport] = []
        for k, rack in enumerate(racks):
            throttles = sum(node.throttles for node in rack.nodes)
            delta = throttles - self._throttles_reported[k]
            self._throttles_reported[k] = throttles
            label = f"{rack.index:03d}"
            self.registry.counter(
                "fleet.shard.node_ticks", rack=label
            ).inc(len(rack.nodes) * n_ticks)
            if delta:
                self.registry.counter(
                    "fleet.shard.throttles", rack=label
                ).inc(delta)
            self.registry.gauge("fleet.rack.duty", rack=label).set(rack.duty)
            reports.append(
                RackReport(
                    rack=rack.index,
                    outlet_c=rack.outlet_c(),
                    mean_power_w=rack.mean_power_w(),
                    max_die_c=rack.max_die_c(),
                    throttles=throttles,
                    duty=rack.duty,
                )
            )
        return reports

    def _step_packages(self, dt: float) -> None:
        """One physics tick: the batch, or each network once it declines."""
        batch = self._batch
        if batch is not None:
            try:
                batch.step(dt)
                return
            except Unbatchable:
                # Raised before any temperature write: the per-network
                # path continues from exactly the same state.
                batch.release()
                self._batch = None
        for net in self._nets:
            net.step(dt)

    def finish(self) -> ShardResult:
        """Detach the batch and freeze the shard's final state."""
        if self._batch is not None:
            self._batch.release()
        nodes: List[NodeFinal] = []
        racks: List[RackFinal] = []
        for rack in self.racks:
            for node in rack.nodes:
                nodes.append(
                    NodeFinal(
                        rack=rack.index,
                        node=node.index,
                        final_die_c=node.package.die_temperature,
                        final_sink_c=node.package.sink_temperature,
                        max_die_c=node.max_die_c,
                        energy_j=node.energy_j,
                        pstate_index=node.pstate,
                        throttles=node.throttles,
                    )
                )
            racks.append(
                RackFinal(
                    rack=rack.index,
                    inlet_c=rack.inlet_c,
                    duty=rack.duty,
                    fan_energy_j=rack.fan_energy_j,
                )
            )
        return ShardResult(
            rack_lo=self.rack_lo,
            rack_hi=self.rack_hi,
            nodes=tuple(nodes),
            racks=tuple(racks),
            telemetry=self.registry.snapshot(),
        )


def shard_worker(conn, spec_json: str, rack_lo: int, rack_hi: int) -> None:
    """Worker-process main loop: build from the wire form, serve epochs.

    Any exception is shipped back as ``("error", message)`` so the
    engine can raise a :class:`~repro.errors.SimulationError` with the
    shard identified instead of hanging on a dead pipe.
    """
    try:
        runner = ShardRunner(FleetSpec.from_json(spec_json), rack_lo, rack_hi)
        while True:
            message = conn.recv()
            command = message[0]
            if command == "epoch":
                _, inlets, pps, n_ticks = message
                conn.send(("reports", runner.run_epoch(inlets, pps, n_ticks)))
            elif command == "finish":
                conn.send(("result", runner.finish()))
            elif command == "stop":
                break
            else:
                conn.send(("error", f"unknown shard command {command!r}"))
                break
    except EOFError:
        pass
    except Exception as exc:  # pragma: no cover - transport of failures
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):
            pass
    finally:
        conn.close()
