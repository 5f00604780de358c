"""Shard execution: a contiguous rack range stepped in lockstep.

A :class:`ShardRunner` owns racks ``[rack_lo, rack_hi)`` of one fleet
and advances *all* of its nodes' CPU packages through one
:class:`~repro.fastpath.batch.PackageBatch` — the stacked stepper whose
per-member bitwise equality with
:meth:`RCNetwork.step <repro.thermal.rc.RCNetwork.step>` is exactly
what makes the partition a pure layout choice.  Between two control
steps a package's only moving input is its die power, so the shard
*holds* the other inputs in the stack: it gathers them after each epoch
start and each control step, integrates every tick, and writes the
temperatures and powers back into the node objects before each control
step and at the epoch end.  The objects are current there — at gathers,
control steps and epoch ends — not after every tick.  When the stack
cannot take a tick (a ``dt`` past the package's stability limit needs
sub-steps, a link written between gathers) it declines with its
temperatures untouched, writes back, and the batch steps every network
on its own from then on — the same bits.  Between two synchronization
epochs a shard touches nothing but its own racks, so the trajectory of
rack *r* is a function of ``(spec, r, epoch commands)`` — never of which
shard (or how many shards) hosted it.

The node work around the physics step is stacked the same way: one
:class:`NodeStack` pass per tick computes every node's die power,
energy, rack power sum and running peak as vector operations whose
per-element arithmetic is the serial per-node tick's, operation for
operation.  While the batch holds its inputs the pass writes the die
powers into the stack and reads the die temperatures from it directly.

The process protocol is deliberately tiny and synchronous (BSP):

* ``("epoch", inlets, pps, n_ticks)`` → ``("reports", [RackReport])``
* ``("finish",)`` → ``("result", ShardResult)``
* ``("stop",)`` → worker exits

Workers rebuild their world from the spec's JSON wire form, so the
protocol works identically under fork and spawn start methods, and no
parent-side mutable state can leak into a worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Sequence, Tuple

import numpy as np

from ..cpu.power import PowerParams
from ..errors import SimulationError
from ..fastpath.batch import PackageBatch
from ..sim.marker import coldpath, hotpath, reject
from ..telemetry import MetricsRegistry, TelemetrySnapshot
from ..thermal.rc import RCNetwork
from ..units import require_in_range
from .model import FleetRack, WorkloadProfile, build_rack, node_band
from .spec import FleetSpec

__all__ = [
    "NodeFinal",
    "NodeStack",
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


_get_temperature = attrgetter("temperature")


@coldpath
def _reject_nan_power(
    nets: Sequence[RCNetwork], names: Sequence[str], watts: np.ndarray
) -> None:
    """Raise :meth:`RCNetwork.set_power`'s error for the first NaN power."""
    for net, name, w in zip(nets, names, watts.tolist()):
        net.set_power(name, w)
    raise AssertionError("the NaN guard fired, but every power is a number")


class NodeStack:
    """A shard's per-node tick, one vector pass over all of its nodes.

    Each node's die power is ``CpuPowerModel.power`` written out for the
    stack: ``max(dyn + leak · exp(scale · (T − t_ref)), idle_floor)``.
    The two coefficients change only when a control step moves a
    P-state or a utilization, so :meth:`refresh` computes them after
    every control step with the model's own Python float operations.
    Per tick :meth:`inject` evaluates the rest elementwise, with
    :func:`math.exp` (``np.exp`` rounds differently on some inputs),
    writes each power where the physics step reads it, adds ``W · dt``
    to each node's energy and sums each rack's power node by node from
    0.0, the serial order.  After the physics step :meth:`observe`
    gathers every die temperature in one pass and raises the running
    peaks.  Between :meth:`hold` and :meth:`unhold` the powers go into
    the batch's die power column and the temperatures come from its die
    temperature column, and :meth:`unhold` puts the last powers into
    the dicts; otherwise the powers go into each network's ``_powers``
    dict (what :meth:`RCNetwork.step` reads) and the temperatures come
    from the die nodes.  :meth:`load` and :meth:`store` move the
    accumulators between the node and rack objects and the stack at an
    epoch's start and end.
    """

    __slots__ = (
        "_racks",
        "_nodes",
        "_nets",
        "_dies",
        "_die_names",
        "_power_dicts",
        "_params",
        "_columns",
        "_ticks",
        "_T",
        "_x",
        "_W",
        "_dyn",
        "_leak",
        "_energy",
        "_peak",
        "_rack_w",
        "_power_sum",
        "_fan_w",
        "_fan_energy",
        "_fan_dt",
        "_held_W",
        "_held_T",
    )

    def __init__(
        self, racks: Sequence[FleetRack], params: PowerParams
    ) -> None:
        nodes = [node for rack in racks for node in rack.nodes]
        packages = [node.package for node in nodes]
        self._racks = tuple(racks)
        self._nodes = tuple(nodes)
        self._nets = tuple(package._net for package in packages)
        self._die_names = tuple(package._die for package in packages)
        self._dies = tuple(
            net.node(name) for net, name in zip(self._nets, self._die_names)
        )
        self._power_dicts = tuple(net._powers for net in self._nets)
        self._params = params
        self._ticks = 0
        n, n_racks = len(nodes), len(racks)
        zeros = np.zeros
        self._T = zeros(n)  # die temperatures
        self._x = zeros(n)  # exponent, then W · dt
        self._W = zeros(n)  # die powers
        self._dyn = zeros(n)
        self._leak = zeros(n)
        self._energy = zeros(n)
        self._peak = zeros(n)
        self._rack_w = zeros(n_racks)  # this tick's rack power
        self._power_sum = zeros(n_racks)
        self._fan_w = zeros(n_racks)
        self._fan_dt = zeros(n_racks)  # fan power · dt
        self._fan_energy = zeros(n_racks)
        # Nodes are rack-major, so column j holds every rack's node j.
        by_rack = self._W.reshape(n_racks, len(racks[0].nodes))
        self._columns = tuple(by_rack[:, j] for j in range(by_rack.shape[1]))
        self._held_W = None
        self._held_T = None

    def hold(self, batch: PackageBatch) -> bool:
        """Read and write ``batch``'s die columns until :meth:`unhold`.

        The batch stacks this pass's packages in its order and has just
        gathered; every package's die is the same free node.  True: the
        pass can run on held inputs.
        """
        die = self._nets[0]._free_names.index(self._die_names[0])
        self._held_W, self._held_T = batch.columns(die)
        return True

    def unhold(self) -> None:
        """Write the held die powers into the power dicts, and go back
        to the dicts and the die nodes."""
        self._held_W = None
        self._held_T = None
        self._write_powers()

    def load(self) -> None:
        """Take the accumulators and die temperatures at an epoch start."""
        nodes, racks = self._nodes, self._racks
        self._energy[:] = [node.energy_j for node in nodes]
        self._peak[:] = [node.max_die_c for node in nodes]
        self._power_sum[:] = [rack.epoch_power_sum for rack in racks]
        self._fan_energy[:] = [rack.fan_energy_j for rack in racks]
        self._ticks = 0
        self._T[:] = [die.temperature for die in self._dies]

    @hotpath
    def refresh(self) -> None:
        """Recompute the per-node power coefficients after a control step."""
        p = self._params
        c_eff = p.c_eff
        leak_ref = p.leak_ref
        v_ref = p.v_ref
        dyn = self._dyn
        leak = self._leak
        for k, node in enumerate(self._nodes):
            u = node.util
            if not (0.0 <= u <= 1.0):
                reject(require_in_range, u, 0.0, 1.0, "utilization")
            pstate = node.table[node.pstate]
            voltage = pstate.voltage
            dyn[k] = float(u) * c_eff * voltage**2 * pstate.frequency
            leak[k] = leak_ref * (voltage / v_ref)
        fan_w = self._fan_w
        for i, rack in enumerate(self._racks):
            fan_w[i] = rack.fan_power_w

    @hotpath
    def inject(self, dt: float) -> None:
        """Write this tick's die powers and add up energy (pre-step)."""
        p = self._params
        floor = p.idle_floor
        x = self._x
        W = self._W
        np.subtract(self._T, p.t_ref, out=x)
        np.multiply(x, p.leak_temp_scale, out=x)
        x[:] = np.fromiter(map(math.exp, x.tolist()), np.float64, len(x))
        np.multiply(self._leak, x, out=W)
        np.add(self._dyn, W, out=W)
        np.maximum(W, floor, out=W)
        if not (W.min() >= floor):  # a NaN power
            _reject_nan_power(self._nets, self._die_names, W)
        held = self._held_W
        if held is None:
            self._write_powers()
        else:
            held[:] = W
        np.multiply(W, dt, out=x)
        np.add(self._energy, x, out=self._energy)
        rack_w = self._rack_w
        rack_w.fill(0.0)
        for column in self._columns:
            np.add(rack_w, column, out=rack_w)
        np.add(self._power_sum, rack_w, out=self._power_sum)
        np.multiply(self._fan_w, dt, out=self._fan_dt)
        np.add(self._fan_energy, self._fan_dt, out=self._fan_energy)
        self._ticks += 1

    @hotpath
    def _write_powers(self) -> None:
        for powers, name, watts in zip(
            self._power_dicts, self._die_names, self._W.tolist()
        ):
            powers[name] = watts

    @hotpath
    def observe(self) -> None:
        """Gather every die temperature and raise the peaks (post-step)."""
        T = self._T
        held = self._held_T
        if held is None:
            T[:] = np.fromiter(
                map(_get_temperature, self._dies), np.float64, len(T)
            )
        else:
            T[:] = held
        np.maximum(self._peak, T, out=self._peak)

    def store(self) -> None:
        """Write the accumulators back at an epoch end, as Python floats."""
        for node, energy, peak in zip(
            self._nodes, self._energy.tolist(), self._peak.tolist()
        ):
            node.energy_j = energy
            node.max_die_c = peak
        for rack, power_sum, fan_energy in zip(
            self._racks, self._power_sum.tolist(), self._fan_energy.tolist()
        ):
            rack.epoch_power_sum = power_sum
            rack.epoch_ticks_done += self._ticks
            rack.fan_energy_j = fan_energy


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
        self._profile = WorkloadProfile(spec)
        self._nodes = NodeStack(self.racks, self._band[1])
        packages = [node.package for rack in self.racks for node in rack.nodes]
        self._nets = [package._net for package in packages]
        self._batch = PackageBatch(packages)
        self._tick = 0
        self._finished = False
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
        if self._finished:
            raise SimulationError(
                f"shard [{self.rack_lo}, {self.rack_hi}) already finished"
            )
        if len(inlets) != len(racks) or len(pps) != len(racks):
            raise SimulationError(
                f"epoch command length {len(inlets)}/{len(pps)} does not "
                f"match the shard's {len(racks)} racks"
            )
        for rack, inlet, pp in zip(racks, inlets, pps):
            rack.begin_epoch(inlet, pp)
        dt = spec.dt
        control_ticks = spec.control_ticks
        profile = self._profile
        band = self._band
        nodes = self._nodes
        batch = self._batch
        nodes.load()
        held = False
        for _ in range(n_ticks):
            tick = self._tick
            if tick % control_ticks == 0:
                if held:
                    self._unhold()
                    held = False
                t = tick * dt
                for rack in racks:
                    rack.control_step(profile, t, band)
                nodes.refresh()
            if not held:
                held = batch.gather(dt) and nodes.hold(batch)
            nodes.inject(dt)
            if not held:
                batch.step(dt)
            elif not batch.integrate():
                nodes.unhold()
                batch.decline(dt)
                held = False
            self._tick += 1
            nodes.observe()
        if held:
            self._unhold()
        nodes.store()
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

    def _unhold(self) -> None:
        """Write the held temperatures and die powers back into the
        objects and point the node pass at them again."""
        self._batch.writeback()
        self._nodes.unhold()

    def finish(self) -> ShardResult:
        """Detach the batch and freeze the shard's final state.

        The shard is spent afterwards.  Releasing the batch takes its
        traps off every link; each link then also drops its network as
        resistance observer, which breaks the link ↔ network reference
        cycle: the shard's packages are freed with the runner instead of
        piling up until a full cyclic garbage collection.
        """
        self._batch.release()
        for net in self._nets:
            for link in net._link_list:
                link._observer = None
        self._finished = True
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
