"""Lockstep batching: N independent packages stepped as one.

The engine's tick loop amortizes interpreter overhead *within* one run;
this module amortizes it *across* runs.  Parameter sweeps (fig07's
max-PWM ladder, the governor comparisons) re-run the same 4-node
cluster with different knob settings, on any platform, and a fleet
shard advances hundreds of servers on one tick schedule — every member
a package of one structure: the die/sink
:class:`~repro.thermal.package.CpuPackage` or an N-core
:class:`~repro.thermal.multicore.MulticorePackage` floorplan.  Stacking
them turns ``N × (tiny matmul + ufunc chain)`` per tick into one
``(N, m, m)`` stacked matmul and one fused ufunc sequence, the same
move ControlPULP makes when one controller services many cores in
lockstep.

Two parts:

* :class:`PackageBatch` — the physics step of N packages.  Two or more
  packages of equal :func:`batch_signature` step as one stack, in three
  bodies: :meth:`~PackageBatch.gather` reads the inputs (powers,
  boundary resistances and temperatures) and refreshes the boundary
  rows' coefficients and the stability predicate,
  :meth:`~PackageBatch.integrate` takes one stacked Euler step, and
  :meth:`~PackageBatch.writeback` puts the free-node temperatures back
  into the objects.  Free-node temperatures persist in the stack
  between ticks.  The cluster lanes run all three every tick
  (:meth:`~PackageBatch.step`), so their node objects are current after
  every tick.  A fleet shard (:class:`~repro.fleet.shard.ShardRunner`)
  *holds* its inputs: it gathers after each epoch start and control
  step, integrates every tick with its die powers written straight into
  the stack, and writes back only before a control step and at an
  epoch end, so its objects are current there and nowhere else.
  Otherwise — one package, mixed structures, or a tick the stack
  declines — each network steps with
  :meth:`RCNetwork.step <repro.thermal.rc.RCNetwork.step>`.
* :func:`run_jobs_batch` — the one ``run_job`` protocol: bind, wire
  tasks, reset meters, run every lane on
  :func:`~repro.sim.engine.run_fused` with the nodes' tick halves
  around one :class:`PackageBatch` step, then tail and summarize each
  lane as it finishes.
  :meth:`Cluster.run_job <repro.cluster.cluster.Cluster.run_job>` is
  its one-lane call.

The equivalence contract: every run's traces, events and telemetry
come out bitwise identical to its own tick-by-tick execution.  Stacked
``np.matmul`` over ``(N, m, m) @ (N, m, 1)`` produces the same bits as
the per-slice products (einsum does **not**, and is not used),
elementwise ufuncs are per-element exact, and gather/scatter copies are
exact — so stacking is a pure layout change.  A tick the stack cannot
take bitwise (a frozen link's resistance written, or a live link's
since the last gather, a stability limit demanding sub-steps, a
non-finite result) is declined with the stack's temperatures
untouched: the batch writes them back, releases the networks and steps
each on its own from then on, which also reproduces the serial path's
exact error behaviour.
"""

from __future__ import annotations

import math
from operator import attrgetter, getitem
from typing import List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..sim.engine import _raise_budget_exhausted, run_fused
from ..sim.marker import coldpath, hotpath
from ..thermal.rc import RCNetwork

__all__ = ["PackageBatch", "batch_signature", "run_jobs_batch"]


def batch_signature(net: RCNetwork) -> tuple:
    """The structural identity of a network, as the integration sees it.

    Covers everything that shapes the integration: free-node count,
    link count, per-row link incidence (in accumulation order), the
    boundary-coupling terms and each link's endpoint indices.  Values
    (capacitances, resistances, temperatures, powers) are free to
    differ — they live in the stacked arrays.  :class:`PackageBatch`
    stacks networks whose signatures are equal.
    """
    if net._stale:
        net._flatten()
    bterm_ids = tuple((i, slot) for i, slot, _ in net._bterms)
    rows = tuple(tuple(row) for row in net._rows)
    return (net._m, len(net._links), rows, bterm_ids, tuple(net._link_ends))


# --------------------------------------------------------------------------
# The stacked stepper.
# --------------------------------------------------------------------------

#: Serial ``_relink`` treats diagonals at or below this as degenerate.
_DIAG_FLOOR = 1e-300

_get_resistance = attrgetter("_resistance")
_get_temperature = attrgetter("temperature")


class _DirtyTrap:
    """Observer installed on the members' links while
    :class:`PackageBatch` steps the stack.  The frozen links' trap stays
    tripped: the stack froze their conductances when it was built.  The
    live links' trap is reset by each :meth:`PackageBatch.gather`, so a
    write through a public setter after a gather makes the stack decline
    its next integration (checked once per tick)."""

    __slots__ = ("tripped",)

    def __init__(self) -> None:
        self.tripped = False

    def mark_link_dirty(self, slot: int) -> None:
        self.tripped = True


class PackageBatch:
    """The physics step of N packages: stacked in lockstep, or each on
    its own.

    Two or more packages whose networks share a :func:`batch_signature`
    stack into ``(N, m)`` arrays: the die/sink
    :class:`~repro.thermal.package.CpuPackage`, or an N-core
    :class:`~repro.thermal.multicore.MulticorePackage` floorplan.  A
    :meth:`gather` reads every free node's power and, for every link to
    a boundary node (the convective hop), its live resistance and the
    boundary temperature; it recomputes those links' conductances, the
    forcing vectors with their ``g · T_boundary`` terms and the boundary
    rows' diagonals in the serial accumulation order (so an unchanged
    ``1/r`` yields the bits the serial dirty-refresh keeps) and checks
    the stability predicate for the gathered ``dt``.  Every other link
    is frozen: :meth:`RCNetwork._assemble` builds its matrix entries
    once.  An :meth:`integrate` takes one Euler step of the whole stack
    from the held inputs; between two integrations the caller may write
    the power of a free node without a boundary link through
    :meth:`columns`.  A :meth:`writeback` puts the free-node
    temperatures into the node objects.  Free-node temperatures persist
    in the stack between ticks: the objects are current after a
    writeback, and nothing else writes them mid-run.

    While the batch is stacked, each link's public setter trips a trap:
    a frozen link's for good, a live link's until the next gather.  The
    stack declines a tick it cannot take bitwise — a tripped trap, a
    matrix diagonal at the degenerate floor, a stability limit demanding
    sub-steps (``0.5 · min C/G_ii < dt``: the default package's limit is
    1.875 s, ~37x the cluster's 0.05 s tick) or a non-finite result —
    with the stack's temperatures untouched.  The caller then steps each
    network with :meth:`RCNetwork.step` from that tick on
    (:meth:`decline`), as the batch does from the start for one package
    (a one-member stack costs more than it saves) or for packages of
    differing structure.
    """

    __slots__ = (
        "_nets",
        "_stacked",
        "_trap",
        "_live_trap",
        "_power_dicts",
        "_power_keys",
        "_live_links",
        "_boundary_nodes",
        "_free_nodes",
        "_live",
        "_diag_rules",
        "_diag",
        "_r_flat",
        "_amb_flat",
        "_bs",
        "_bs_flat",
        "_lim",
        "_tmp",
        "_dt",
        "_Gs",
        "_Cs",
        "_Ts",
        "_Ts_col",
        "_Ts_flat",
        "_Gt3",
        "_Gt",
        "_dTs",
        "_dTs_flat",
    )

    def __init__(self, packages: Sequence) -> None:
        nets = [package._net for package in packages]
        self._nets = nets
        self._stacked = len(nets) > 1 and len(
            {batch_signature(net) for net in nets}
        ) == 1
        if not self._stacked:
            return
        n, m = len(nets), nets[0]._m
        bterms = nets[0]._bterms
        live_slots = {slot for _, slot, _ in bterms}
        self._trap = _DirtyTrap()
        # Tripped until the first gather: nothing is held yet.
        self._live_trap = _DirtyTrap()
        self._live_trap.tripped = True
        for net in nets:
            for slot, link in enumerate(net._link_list):
                live = slot in live_slots
                link._observer = self._live_trap if live else self._trap
        f64 = np.float64
        g = np.array([[ln.conductance for ln in net._link_list] for net in nets])
        self._Gs = np.array([net._assemble()[1] for net in nets])
        self._Cs = np.array([net._C for net in nets])
        self._Ts = np.array(
            [[node.temperature for node in net._free_nodes] for net in nets],
            dtype=f64,
        )

        # The gathers, member-major: (N, m) powers, (N, nb) boundary-link
        # resistances and boundary temperatures.
        self._power_dicts = [net._powers for net in nets for _ in range(m)]
        self._power_keys = [name for net in nets for name in net._free_names]
        self._free_nodes = [node for net in nets for node in net._free_nodes]
        self._live_links = [
            net._link_list[slot] for net in nets for _, slot, _ in net._bterms
        ]
        self._boundary_nodes = [b for net in nets for _, _, b in net._bterms]
        nb = len(bterms)
        self._r_flat = np.empty(n * nb, dtype=f64)
        self._amb_flat = np.empty(n * nb, dtype=f64)
        r = self._r_flat.reshape(n, nb)
        amb = self._amb_flat.reshape(n, nb)
        self._bs = np.empty((n, m), dtype=f64)
        self._bs_flat = self._bs.reshape(-1)
        # One entry per boundary term, in the serial forcing order.
        self._live = tuple(
            (r[:, t], g[:, slot], amb[:, t], self._bs[:, i])
            for t, (i, slot, _) in enumerate(bterms)
        )
        # A boundary term's row: its diagonal's frozen prefix, summed
        # once, then the columns added to it at every gather.
        rules = []
        for i in sorted({i for i, _, _ in bterms}):
            slots = [slot for slot, _ in nets[0]._rows[i]]
            p = next(q for q, slot in enumerate(slots) if slot in live_slots)
            prefix = np.zeros(n, dtype=f64)
            for slot in slots[:p]:
                np.add(prefix, g[:, slot], out=prefix)
            cols = tuple(g[:, slot] for slot in slots[p:])
            rules.append((self._Gs[:, i, i], prefix, cols))
        self._diag_rules = tuple(rules)
        self._diag = self._Gs.diagonal(axis1=1, axis2=2)
        self._lim = np.empty((n, m), dtype=f64)
        self._tmp = np.empty(n, dtype=f64)
        self._dt = 0.0
        self._Ts_col = self._Ts[:, :, None]
        self._Ts_flat = self._Ts.reshape(-1)
        self._Gt3 = np.empty((n, m, 1), dtype=f64)
        self._Gt = self._Gt3[:, :, 0]
        self._dTs = np.empty((n, m), dtype=f64)
        self._dTs_flat = self._dTs.reshape(-1)

    def columns(self, i: int) -> tuple:
        """Free node ``i``'s ``(powers, temperatures)`` over the members.

        Views into the stack, for a caller that holds the inputs: a
        power written into the first enters the next :meth:`integrate`,
        and the second holds each member's temperature after it.  The
        caller owns the powers it writes there and puts them into the
        networks' power dicts itself before a :meth:`decline`.  A node
        with a boundary link has no power column: the gather folds its
        ``g · T_boundary`` terms into its forcing entry.
        """
        if any(j == i for j, _, _ in self._nets[0]._bterms):
            raise SimulationError(
                f"free node {i} couples to a boundary: its power is not held"
            )
        return self._bs[:, i], self._Ts[:, i]

    @coldpath
    def release(self) -> None:
        """Hand the networks back to their own :meth:`RCNetwork.step`.

        Every link's observer returns to its network, and every link is
        marked dirty: the next serial step rebuilds the coefficients
        from the live resistances (a full refresh is
        bitwise-deterministic).  The node objects must be current: a
        caller that holds the inputs writes them back first
        (:meth:`decline`).  A batch that is not stacked has nothing to
        release.
        """
        if not self._stacked:
            return
        self._stacked = False
        for net in self._nets:
            for link in net._link_list:
                link._observer = net
            net._dirty.update(range(len(net._link_list)))

    @coldpath
    def decline(self, dt: float) -> None:
        """Give up a held tick: write the temperatures back, release,
        and step each network on its own with the powers in its dict."""
        self.writeback()
        self.release()
        for net in self._nets:
            net.step(dt)

    @hotpath
    def step(self, dt: float) -> None:
        """One physics tick of every member network.

        Call after this tick's inputs are written into every network.
        """
        if self._stacked:
            if self._step_stack(dt):
                return
            self.release()
        for net in self._nets:
            net.step(dt)

    @hotpath
    def _step_stack(self, dt: float) -> bool:
        """One stacked tick from the objects to the objects; False, with
        no temperature written, when the stack declines it."""
        if not (self.gather(dt) and self.integrate()):
            return False
        self.writeback()
        return True

    @hotpath
    def gather(self, dt: float) -> bool:
        """Read the inputs and refresh what depends only on them.

        Powers, boundary-link resistances and boundary temperatures come
        from the objects; the boundary links' conductances, the forcing
        vectors ``b = P`` plus each ``g · T_boundary`` term in the serial
        order, and the boundary rows' diagonals are rebuilt, and the
        diagonal floor and stability limit are checked for ``dt``.
        False, with the live trap left tripped, when the stack cannot
        take a ``dt`` step from these inputs.
        """
        if not self._stacked:
            return False
        live_trap = self._live_trap
        live_trap.tripped = True
        fromiter = np.fromiter
        f64 = np.float64
        divide = np.divide
        multiply = np.multiply
        add = np.add
        bs_flat = self._bs_flat
        bs_flat[:] = fromiter(
            map(getitem, self._power_dicts, self._power_keys), f64, len(bs_flat)
        )
        r_flat = self._r_flat
        nb = len(r_flat)
        r_flat[:] = fromiter(map(_get_resistance, self._live_links), f64, nb)
        self._amb_flat[:] = fromiter(
            map(_get_temperature, self._boundary_nodes), f64, nb
        )
        # Boundary links: conductance, then b[i] += g · T_boundary, the
        # serial forcing order; then their rows' diagonals.
        tmp = self._tmp
        for r_col, g_col, t_col, b_col in self._live:
            divide(1.0, r_col, out=g_col)
            multiply(g_col, t_col, out=tmp)
            add(b_col, tmp, out=b_col)
        for out, acc, cols in self._diag_rules:
            for col in cols:
                add(acc, col, out=out)
                acc = out
        # Stability predicate: every member must keep n_sub == 1, i.e.
        # 0.5 * min_i(C_i / G_ii) >= dt — checked via the global minimum
        # (exact: 0.5*x is exact scaling).
        diag = self._diag
        if not (diag.min() > _DIAG_FLOOR):
            return False
        lim = self._lim
        divide(self._Cs, diag, out=lim)
        if not (0.5 * lim.min() >= dt):
            return False
        self._dt = dt
        live_trap.tripped = False
        return True

    @hotpath
    def integrate(self) -> bool:
        """One stacked Euler step (``n_sub == 1``, ``h == dt``) from the
        held inputs; False, with the stack's temperatures untouched, when
        the stack declines it."""
        if self._trap.tripped or self._live_trap.tripped:
            return False
        dTs = self._dTs
        np.matmul(self._Gs, self._Ts_col, out=self._Gt3)
        np.subtract(self._bs, self._Gt, out=dTs)
        np.divide(dTs, self._Cs, out=dTs)
        np.multiply(dTs, self._dt, out=dTs)
        Ts = self._Ts
        np.add(Ts, dTs, out=dTs)
        # A non-finite entry makes the sum non-finite.  Finite entries
        # whose sum overflows only decline a tick the serial step takes
        # to the same bits.
        if not math.isfinite(np.add.reduce(self._dTs_flat)):
            return False
        Ts[...] = dTs
        return True

    @hotpath
    def writeback(self) -> None:
        """Put the stack's free-node temperatures into the node objects."""
        for node, temperature in zip(self._free_nodes, self._Ts_flat.tolist()):
            node.temperature = temperature


# --------------------------------------------------------------------------
# The run_job protocol.
# --------------------------------------------------------------------------


class _Lane:
    """One (cluster, job) member of a lockstep run: bound, wired and
    metered on construction, as :meth:`Cluster.run_job
    <repro.cluster.cluster.Cluster.run_job>` promises."""

    __slots__ = ("cluster", "job", "timeout", "tail", "t0", "budget", "limit")

    def __init__(self, cluster, job, timeout: float, tail: float) -> None:
        cluster.bind_job(job)
        cluster._wire_tasks()
        for node in cluster.nodes:
            node.meter.reset()
        self.cluster = cluster
        self.job = job
        self.timeout = timeout
        self.tail = tail
        clock = cluster.engine.clock
        self.t0 = clock.now
        self.budget = clock.ticks_for(timeout)
        self.limit = clock.ticks + self.budget

    def finished(self) -> bool:
        return self.job.finished

    def finish(self):
        """The post-run half: the reference errors, tail and summary."""
        cluster = self.cluster
        job = self.job
        engine = cluster.engine
        if not job.finished:
            raise SimulationError(
                f"job {job.name!r} did not finish within {self.timeout}s "
                "of simulated time"
            )
        execution_time = engine.clock.now - self.t0
        if self.tail > 0:
            try:
                engine.run(duration=self.tail)
            finally:
                cluster._flush_traces()
        if cluster.telemetry.enabled:
            cluster.telemetry.gauge("sim.execution_seconds", job=job.name).set(
                execution_time
            )
            cluster.telemetry.gauge("sim.final_time_seconds").set(
                engine.clock.now
            )
        return cluster.result(job.name, execution_time)


def run_jobs_batch(
    clusters: Sequence,
    jobs: Sequence,
    timeouts: Sequence[float],
    tails: Sequence[float],
) -> List:
    """Run one job per cluster, every cluster on one tick counter.

    The ``run_job`` protocol: each lane binds its job, wires its tasks
    and resets its meters; then :func:`~repro.sim.engine.run_fused`
    advances every lane, with every node's
    :meth:`~repro.cluster.node.Node.tick_pair` halves around one
    :class:`PackageBatch` step over all their packages.  When lanes
    finish, the batch is released, each finished lane runs its tail
    through its own engine and is summarized, and the rest re-stack and
    continue — re-stacking is bitwise-neutral because the stack is
    rebuilt from the always-current node objects.

    A lane whose ``timeout`` runs out raises the reference
    ``max_ticks=… exhausted`` :class:`~repro.errors.SimulationError`; a
    lane whose engine was asked to stop before its job finished raises
    the reference "did not finish" error.  Results come back in lane
    order, each bitwise what its own run would produce.
    """
    from ..cluster.node import Node

    for cluster in clusters:
        for component in cluster.engine._components:
            if not isinstance(component, Node):
                raise SimulationError(
                    "run_job steps cluster nodes only, not "
                    f"{type(component).__name__}"
                )
    lanes = [
        _Lane(*args) for args in zip(clusters, jobs, timeouts, tails, strict=True)
    ]
    results: List[Optional[object]] = [None] * len(lanes)
    active = list(enumerate(lanes))
    while active:
        nodes = [node for _, lane in active for node in lane.cluster.nodes]
        batch = PackageBatch([node.package for node in nodes])
        pairs = [node.tick_pair() for node in nodes]
        try:
            finished = run_fused(
                [lane.cluster.engine for _, lane in active],
                [pre for pre, _ in pairs],
                batch.step,
                [post for _, post in pairs],
                [lane.finished for _, lane in active],
                min(lane.limit for _, lane in active),
            )
        finally:
            batch.release()
            for _, lane in active:
                lane.cluster._flush_traces()
        if not finished:
            ticks = active[0][1].cluster.engine.clock.ticks
            spent = next(lane for _, lane in active if lane.limit == ticks)
            _raise_budget_exhausted(spent.budget)
        for k in finished:
            index, lane = active[k]
            results[index] = lane.finish()
        active = [member for k, member in enumerate(active) if k not in finished]
    return results
