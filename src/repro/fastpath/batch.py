"""Lockstep batching: N independent packages stepped as one.

The compiled engine loop amortizes interpreter overhead *within* one run;
this module amortizes it *across* runs.  Parameter sweeps (fig07's
max-PWM ladder, the governor comparisons) re-run the same 4-node
cluster with different knob settings, and a fleet shard advances
hundreds of servers on one tick schedule — every member one
die/sink/ambient :class:`~repro.thermal.package.CpuPackage`.  Stacking
them turns ``N × (tiny matmul + ufunc chain)`` per tick into one
``(N, 2, 2)`` stacked matmul and one fused ufunc sequence, the same
move ControlPULP makes when one controller services many cores in
lockstep.

Two layers, each independently testable:

* :class:`PackageBatch` — the stacked stepper over N CPU packages:
  per-tick coefficient refresh, forcing-vector assembly and the
  stability predicate are fully vectorized, and free-node temperatures
  persist in the stack between ticks (the per-tick writeback keeps the
  node objects current, and nothing else writes them mid-run).  Both
  the cluster sweeps (:func:`run_jobs_batch`) and the fleet shards
  (:class:`~repro.fleet.shard.ShardRunner`) step on it.
* :func:`run_fused_batch` / :func:`run_jobs_batch` — the lockstep run
  loop (mirroring :meth:`SimulationEngine.run
  <repro.sim.engine.SimulationEngine.run>`'s boundary arithmetic per
  engine) and the ``Cluster.run_job`` protocol replicated across
  members.

The equivalence contract: every run's traces, events and telemetry
come out bitwise identical to its own serial execution.  Stacked
``np.matmul`` over ``(N, m, m) @ (N, m, 1)`` produces the same bits as
the per-slice products (einsum does **not**, and is not used),
elementwise ufuncs are per-element exact, and gather/scatter copies are
exact — so stacking is a pure layout change.  Anything the lockstep
path cannot guarantee bitwise (a junction resistance write, a
stability limit demanding sub-steps, budget exhaustion, an engine stop
request) raises :class:`Unbatchable` and the caller falls back to
per-network stepping, which also reproduces the serial path's exact
error behaviour.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..sim.engine import task_schedule
from ..sim.marker import coldpath, hotpath
from ..thermal.package import CpuPackage
from ..thermal.rc import RCNetwork

__all__ = [
    "PackageBatch",
    "Unbatchable",
    "batch_signature",
    "run_fused_batch",
    "run_jobs_batch",
]


class Unbatchable(Exception):
    """Lockstep batch execution cannot (or can no longer) proceed.

    Deliberately *not* a :mod:`repro.errors` type: it is internal
    control flow — callers catch it and fall back to serial execution,
    which reproduces the serial path's exact results and errors.  It
    must never escape to users.
    """


def batch_signature(net: RCNetwork) -> tuple:
    """The structural identity of a network, as the integration sees it.

    Covers everything that shapes the integration: free-node count,
    link count, per-row link incidence (in accumulation order), the
    boundary-coupling terms and each link's endpoint indices.  Values
    (capacitances, resistances, temperatures, powers) are free to
    differ — they live in the stacked arrays.  :class:`PackageBatch`
    admits only networks with the CpuPackage signature.
    """
    if net._stale:
        net._flatten()
    bterm_ids = tuple((i, slot) for i, slot, _ in net._bterms)
    rows = tuple(tuple(row) for row in net._rows)
    return (net._m, len(net._links), rows, bterm_ids, tuple(net._link_ends))


def _raise_diverged_member(k: int) -> None:
    raise SimulationError(
        f"thermal integration diverged (non-finite T) in batch member {k}"
    )


# --------------------------------------------------------------------------
# The stacked stepper over the CpuPackage topology.
# --------------------------------------------------------------------------

#: Serial ``_refresh`` treats diagonals at or below this as degenerate.
_DIAG_FLOOR = 1e-300

#: CpuPackage structure as RCNetwork flattens it (see batch_signature):
#: free nodes are [die, sink]; link 0 (die↔sink) is the fixed
#: junction/sink resistance, link 1 (sink↔ambient) the per-tick
#: convective hop, the one boundary term.
_PACK_SIGNATURE = (
    2,
    2,
    (((0, 1),), ((0, 0), (1, -1))),
    ((1, 1),),
    ((0, 1), (1, -1)),
)


class _DirtyTrap:
    """Observer installed on each member's junction link while
    :class:`PackageBatch` owns the integration: the batch freezes that
    link's conductance when it is built, so a write through the public
    setter invalidates the whole batch (checked once per tick)."""

    __slots__ = ("tripped",)

    def __init__(self) -> None:
        self.tripped = False

    def mark_link_dirty(self, slot: int) -> None:
        self.tripped = True


def _raise_trap_tripped() -> None:
    raise Unbatchable(
        "a junction resistance was written through its public setter "
        "during batched stepping"
    )


def _raise_substep_needed() -> None:
    raise Unbatchable(
        "stability limit requires sub-stepping; the vectorized package "
        "lane only handles n_sub == 1"
    )


def _raise_stop_requested() -> None:
    raise Unbatchable("engine requested stop during batched run")


class PackageBatch:
    """Vectorized lockstep stepper over N die/sink/ambient CPU packages.

    Each tick it gathers the three inputs the caller wrote into every
    live network — die power, convective resistance, boundary
    temperature — into ``(N,)`` columns; the convective conductance
    and matrix diagonal are recomputed unconditionally (idempotent —
    recomputing an unchanged ``1/r`` yields the same bits the serial
    dirty-refresh would have kept), and free-node temperatures persist
    in the stack between ticks (writeback keeps the node objects
    current; nothing else writes them mid-run).  The convective link
    stays observed by its own network, so its public setter works as
    usual; the junction link's conductance is frozen at construction.

    Equivalence guards, enforced every tick before any node temperature
    is written, downgrade to :class:`Unbatchable` instead of silently
    diverging: a junction resistance write through the public setter
    (the :class:`_DirtyTrap` observer), a matrix diagonal at the
    degenerate floor, or a stability limit demanding sub-steps
    (``0.5 · min C/G_ii < dt``: the default package's limit is 1.875 s,
    ~37x the cluster's 0.05 s physics tick).
    """

    __slots__ = (
        "_nets",
        "_inputs",
        "_writes",
        "_b_die",
        "_conv_r",
        "_amb",
        "_g0",
        "_g1",
        "_diag1",
        "_Cs",
        "_Cs1",
        "_lim1",
        "_lim0_min",
        "_Ts",
        "_Ts_col",
        "_bs",
        "_b_sink",
        "_tmp",
        "_Gs",
        "_Gt3",
        "_Gt",
        "_dTs",
        "_trap",
    )

    def __init__(self, packages: Sequence[CpuPackage]) -> None:
        packages = list(packages)
        if not packages:
            raise Unbatchable("package batch needs at least one package")
        n = len(packages)
        self._g0 = np.empty(n, dtype=np.float64)
        self._g1 = np.empty(n, dtype=np.float64)
        self._diag1 = np.empty(n, dtype=np.float64)
        self._Cs = np.empty((n, 2), dtype=np.float64)
        self._lim1 = np.empty(n, dtype=np.float64)
        self._Ts = np.empty((n, 2), dtype=np.float64)
        self._Ts_col = self._Ts[:, :, None]
        self._bs = np.empty((n, 2), dtype=np.float64)
        self._b_die = self._bs[:, 0]
        self._b_sink = self._bs[:, 1]
        self._conv_r = np.empty(n, dtype=np.float64)
        self._amb = np.empty(n, dtype=np.float64)
        self._tmp = np.empty(n, dtype=np.float64)
        self._Gs = np.zeros((n, 2, 2), dtype=np.float64)
        self._Gt3 = np.empty((n, 2, 1), dtype=np.float64)
        self._Gt = self._Gt3[:, :, 0]
        self._dTs = np.empty((n, 2), dtype=np.float64)
        self._trap = _DirtyTrap()

        nets = []
        inputs = []
        writes = []
        for k, package in enumerate(packages):
            net = package._net
            amb_node = net._nodes[package._amb]
            if (
                batch_signature(net) != _PACK_SIGNATURE
                or net._free_names != [package._die, package._sink]
                or net._link_list[1] is not package._conv_link
                or net._bterms[0][2] is not amb_node
            ):
                raise Unbatchable("package is not the die/sink/ambient stack")
            if net._powers[package._sink] != 0.0:
                raise Unbatchable("sink node carries injected power")
            g0 = 1.0 / net._link_list[0]._resistance
            if not (g0 > _DIAG_FLOOR):
                raise Unbatchable("junction/sink conductance is degenerate")
            self._g0[k] = g0
            self._Cs[k, :] = net._C
            die, sink = net._free_nodes
            self._Ts[k, 0] = die.temperature
            self._Ts[k, 1] = sink.temperature
            # Fixed matrix entries, accumulated exactly as the serial
            # row rebuild does (row[:] = 0.0 then -= / = writes).
            self._Gs[k, 0, 0] = g0
            self._Gs[k, 0, 1] = -g0
            self._Gs[k, 1, 0] = -g0
            nets.append(net)
            inputs.append(
                (net._powers, package._die, package._conv_link, amb_node)
            )
            writes.append((die, sink))
            net._link_list[0]._observer = self._trap
        self._nets = nets
        self._inputs = inputs
        self._writes = writes
        self._Cs1 = self._Cs[:, 1]
        # Die-row stability limit is fixed (g0 never changes): the
        # serial lim is C_die / diag0 with diag0 = g0 > _DIAG_FLOOR.
        lim0 = self._Cs[:, 0] / self._g0
        self._lim0_min = float(lim0.min())

    def release(self) -> None:
        """Hand the networks back to their own :meth:`RCNetwork.step`.

        Junction observers return to the networks, and every link is
        marked dirty: the next serial step rebuilds the coefficients
        from the live resistances (a full refresh is
        bitwise-deterministic).  The node objects themselves are
        already current.
        """
        for net in self._nets:
            net._link_list[0]._observer = net
            net._dirty.update(range(len(net._link_list)))

    @hotpath
    def step(self, dt: float) -> None:
        """One lockstep physics tick across all member packages.

        Call after this tick's inputs are written into every network.
        """
        if self._trap.tripped:
            _raise_trap_tripped()
        b_die = self._b_die
        conv_r = self._conv_r
        amb = self._amb
        k = 0
        for powers, die_key, conv_link, amb_node in self._inputs:
            b_die[k] = powers[die_key]
            conv_r[k] = conv_link._resistance
            amb[k] = amb_node.temperature
            k += 1
        g1 = self._g1
        diag1 = self._diag1
        np.divide(1.0, conv_r, out=g1)
        np.add(self._g0, g1, out=diag1)
        self._Gs[:, 1, 1] = diag1
        # Stability predicate: all members must keep n_sub == 1, i.e.
        # 0.5 * min_i(C_i / G_ii) >= dt for every member — checked via
        # the global minimum (exact: 0.5*x is exact scaling).
        lim1 = self._lim1
        np.divide(self._Cs1, diag1, out=lim1)
        lim_min = lim1.min()
        if self._lim0_min < lim_min:
            lim_min = self._lim0_min
        h_max = 0.5 * lim_min
        if not (h_max >= dt) or not (diag1 > _DIAG_FLOOR).all():
            _raise_substep_needed()
        # Forcing vector: b[sink] = 0.0 + g_conv * T_amb, the serial
        # accumulation order.
        tmp = self._tmp
        np.multiply(g1, amb, out=tmp)
        np.add(0.0, tmp, out=self._b_sink)
        # One stacked integration step (n_sub == 1, h == dt exactly).
        Ts = self._Ts
        dTs = self._dTs
        np.matmul(self._Gs, self._Ts_col, out=self._Gt3)
        np.subtract(self._bs, self._Gt, out=dTs)
        np.divide(dTs, self._Cs, out=dTs)
        np.multiply(dTs, dt, out=dTs)
        np.add(Ts, dTs, out=Ts)
        if not np.isfinite(Ts).all():
            self._raise_diverged()
        k = 0
        for die, sink in self._writes:
            row = Ts[k]
            item = row.item
            die.temperature = item(0)
            sink.temperature = item(1)
            k += 1

    @coldpath
    def _raise_diverged(self) -> None:
        for k in range(len(self._nets)):
            if not np.isfinite(self._Ts[k]).all():
                _raise_diverged_member(k)
        raise SimulationError("thermal integration diverged (non-finite T)")


# --------------------------------------------------------------------------
# The lockstep run loop and the batched run_job protocol.
# --------------------------------------------------------------------------


def run_fused_batch(
    engines: Sequence,
    stepper,
    pres: Sequence[Callable[[float, float], None]],
    posts: Sequence[Callable[[float, float], None]],
    limits: Sequence[int],
    untils: Sequence[Callable[[], bool]],
) -> List[int]:
    """Advance ``engines`` in lockstep until at least one ``until`` fires.

    Mirrors :meth:`SimulationEngine.run
    <repro.sim.engine.SimulationEngine.run>` per engine — the same
    arithmetically computed task-firing ticks, the same microtick
    batching between boundaries, ``until`` evaluated after **every**
    tick — but with one shared physics step: per tick, every engine's
    pre-closures run (in component registration order), then
    ``stepper.step(dt)`` integrates all thermal networks at once, then
    every post-closure runs.  Post-closures emit no events and read
    only node-local state, so each engine's event/trace streams are
    bitwise what a solo run would produce.

    ``limits`` are absolute tick ceilings (start tick + ``max_ticks``);
    reaching one before its ``until`` fires raises :class:`Unbatchable`
    (the serial rerun then raises the reference ``max_ticks`` error).
    An engine ``stop()`` request likewise defers to the serial path.

    Returns the indices of the engines whose ``until`` fired on the
    final tick; callers finalize those and re-enter with the rest.
    """
    n = len(engines)
    clocks = [engine.clock for engine in engines]
    dt = clocks[0].dt
    ticks = clocks[0].ticks
    for clock in clocks:
        if clock.dt != dt or clock.ticks != ticks:
            raise Unbatchable("engines disagree on dt or tick count")
    # Next firing tick per task per engine — the engine's own schedule.
    fires: List[List[int]] = []
    periods: List[List[int]] = []
    tasklists = []
    for engine in engines:
        efires, eperiods = task_schedule(engine._tasks, ticks)
        fires.append(efires)
        periods.append(eperiods)
        tasklists.append(engine._tasks)
    limit = min(limits)
    all_pres = tuple(pres)
    all_posts = tuple(posts)
    step = stepper.step
    engine_range = range(n)

    while True:
        if ticks >= limit:
            raise Unbatchable("max_ticks exhausted in batched run")
        # Boundary: the earliest task firing across engines, or the
        # shared tick ceiling.  Microticks strictly before it cannot
        # fire any task on any engine.
        boundary = limit
        for efires in fires:
            for fire in efires:
                if fire < boundary:
                    boundary = fire
        stopped: List[int] = []
        last = boundary - 1
        while ticks < last:
            ticks += 1
            for clock in clocks:
                clock._ticks = ticks
            t = ticks * dt
            for f in all_pres:
                f(t, dt)
            step(dt)
            for f in all_posts:
                f(t, dt)
            for i in engine_range:
                if engines[i]._stop_requested:
                    _raise_stop_requested()
                if untils[i]():
                    stopped.append(i)
            if stopped:
                return stopped
        # The boundary tick: components, then due tasks per engine, in
        # registration order — exactly the per-engine reference step().
        ticks += 1
        for clock in clocks:
            clock._ticks = ticks
        t = ticks * dt
        for f in all_pres:
            f(t, dt)
        step(dt)
        for f in all_posts:
            f(t, dt)
        for e in engine_range:
            efires = fires[e]
            eperiods = periods[e]
            tasks = tasklists[e]
            for i in range(len(tasks)):
                if efires[i] == ticks:
                    task = tasks[i]
                    task.callback(t)
                    task.fire_count += 1
                    efires[i] = ticks + eperiods[i]
        for i in engine_range:
            if engines[i]._stop_requested:
                _raise_stop_requested()
            if untils[i]():
                stopped.append(i)
        if stopped:
            return stopped


class _Lane:
    """One (cluster, job) member of a batched run."""

    __slots__ = ("cluster", "job", "tail", "index", "t0", "limit")

    def __init__(self, cluster, job, timeout: float, tail: float, index: int):
        self.cluster = cluster
        self.job = job
        self.tail = tail
        self.index = index
        clock = cluster.engine.clock
        self.t0 = clock.now
        self.limit = clock.ticks + clock.ticks_for(timeout)

    def finished(self) -> bool:
        return self.job.finished


def _finalize_lane(lane: _Lane):
    """The post-run half of ``Cluster.run_job`` for one finished lane."""
    from ..cluster.cluster import RunResult

    cluster = lane.cluster
    job = lane.job
    engine = cluster.engine
    execution_time = engine.clock.now - lane.t0
    if lane.tail > 0:
        try:
            engine.run(duration=lane.tail)
        finally:
            cluster._flush_traces()
    if cluster.telemetry.enabled:
        cluster.telemetry.gauge("sim.execution_seconds", job=job.name).set(
            execution_time
        )
        cluster.telemetry.gauge("sim.final_time_seconds").set(
            engine.clock.now
        )
    return RunResult(
        execution_time=execution_time,
        traces=cluster.traces,
        events=cluster.events,
        average_power=[n.meter.average_power for n in cluster.nodes],
        energy_joules=[n.meter.energy_joules for n in cluster.nodes],
        job_name=job.name,
        node_shutdown=[n.is_shutdown for n in cluster.nodes],
        retired_cycles=[float(n.core.retired_cycles) for n in cluster.nodes],
        telemetry=(
            cluster.telemetry.snapshot() if cluster.telemetry.enabled else None
        ),
    )


def run_jobs_batch(
    clusters: Sequence,
    jobs: Sequence,
    timeouts: Sequence[float],
    tails: Sequence[float],
) -> List:
    """Run one job per cluster, all clusters advancing in lockstep.

    Replicates the :meth:`~repro.cluster.cluster.Cluster.run_job`
    protocol per member — bind, wire tasks, reset meters, run to the
    job's completion under the timeout budget, tail, summarize — with
    the thermal integration of every node of every cluster stacked
    into one :class:`PackageBatch` between the halves of each node's
    :meth:`~repro.cluster.node.Node.tick_pair`.  When a lane's job
    finishes the batch is released (members' caches invalidated,
    observers restored), the lane is finalized serially (its tail, if
    any, runs through the ordinary engine loop), and the remaining
    lanes re-stack and continue — re-attachment is bitwise-neutral because
    the stack is rebuilt from the always-current node objects.

    Raises :class:`Unbatchable` whenever lockstep execution cannot
    guarantee bitwise equivalence or serial error semantics (foreign
    components, mismatched clocks, budget exhaustion, divergence);
    callers are expected to fall back to per-spec serial execution.
    """
    from ..cluster.node import Node

    n = len(clusters)
    if not (len(jobs) == len(timeouts) == len(tails) == n):
        raise Unbatchable("mismatched batch argument lengths")
    lanes: List[_Lane] = []
    for i in range(n):
        cluster = clusters[i]
        cluster.bind_job(jobs[i])
        cluster._wire_tasks()
        for node in cluster.nodes:
            node.meter.reset()
        for component in cluster.engine._components:
            if type(component) is not Node:
                # Covers foreign components and MulticoreNode alike:
                # the trusted package lane hard-assumes the 2-node
                # die/sink CpuPackage, so N-core floorplans take the
                # serial fallback instead.
                raise Unbatchable(
                    "engine has non-node components "
                    f"({type(component).__name__})"
                )
        lanes.append(_Lane(cluster, jobs[i], timeouts[i], tails[i], i))

    results: List[Optional[object]] = [None] * n
    active = list(lanes)
    while active:
        engines = [lane.cluster.engine for lane in active]
        members = [
            node for lane in active for node in lane.cluster.engine._components
        ]
        pack = PackageBatch([node.package for node in members])
        pairs = [node.tick_pair() for node in members]
        pres = [pre for pre, _ in pairs]
        posts = [post for _, post in pairs]
        untils = [lane.finished for lane in active]
        limits = [lane.limit for lane in active]
        try:
            stopped = run_fused_batch(
                engines, pack, pres, posts, limits, untils
            )
        finally:
            pack.release()
            for lane in active:
                lane.cluster._flush_traces()
        for i in stopped:
            results[active[i].index] = _finalize_lane(active[i])
        remaining = [
            lane for i, lane in enumerate(active) if i not in stopped
        ]
        active = remaining
    return results
