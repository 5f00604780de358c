"""Lockstep batching: N independent packages stepped as one.

The compiled engine loop amortizes interpreter overhead *within* one run;
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

Two layers, each independently testable:

* :class:`PackageBatch` — the stacked stepper over N packages with
  equal :func:`batch_signature`: the input gather, the boundary rows'
  coefficient refresh, forcing-vector assembly and the stability
  predicate are vectorized, and free-node temperatures persist in the
  stack between ticks (the per-tick writeback keeps the node objects
  current, and nothing else writes them mid-run).  Both the cluster
  sweeps (:func:`run_jobs_batch`) and the fleet shards
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
path cannot guarantee bitwise (a frozen link's resistance write, a
stability limit demanding sub-steps, budget exhaustion, an engine stop
request) raises :class:`Unbatchable` and the caller falls back to
per-network stepping, which also reproduces the serial path's exact
error behaviour.
"""

from __future__ import annotations

from operator import attrgetter, getitem
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..sim.engine import task_schedule
from ..sim.marker import coldpath, hotpath
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
    stacks networks whose signatures are equal.
    """
    if net._stale:
        net._flatten()
    bterm_ids = tuple((i, slot) for i, slot, _ in net._bterms)
    rows = tuple(tuple(row) for row in net._rows)
    return (net._m, len(net._links), rows, bterm_ids, tuple(net._link_ends))


@coldpath
def _raise_diverged(Ts: np.ndarray) -> None:
    k = int(np.argmin(np.isfinite(Ts).all(axis=1)))
    raise SimulationError(
        f"thermal integration diverged (non-finite T) in batch member {k}"
    )


# --------------------------------------------------------------------------
# The stacked stepper.
# --------------------------------------------------------------------------

#: Serial ``_relink`` treats diagonals at or below this as degenerate.
_DIAG_FLOOR = 1e-300

_get_resistance = attrgetter("_resistance")
_get_temperature = attrgetter("temperature")


class _DirtyTrap:
    """Observer installed on each member's frozen links while
    :class:`PackageBatch` owns the integration: the batch freezes their
    conductances when it is built, so a write through a public setter
    invalidates the whole batch (checked once per tick)."""

    __slots__ = ("tripped",)

    def __init__(self) -> None:
        self.tripped = False

    def mark_link_dirty(self, slot: int) -> None:
        self.tripped = True


def _raise_trap_tripped() -> None:
    raise Unbatchable(
        "a frozen link's resistance was written through its public "
        "setter during batched stepping"
    )


def _raise_substep_needed() -> None:
    raise Unbatchable(
        "stability limit requires sub-stepping (or a diagonal is "
        "degenerate); the stacked stepper only handles n_sub == 1"
    )


def _raise_stop_requested() -> None:
    raise Unbatchable("engine requested stop during batched run")


class PackageBatch:
    """Vectorized lockstep stepper over N packages of one structure.

    Packages whose networks share a :func:`batch_signature` stack into
    ``(N, m)`` arrays: the die/sink
    :class:`~repro.thermal.package.CpuPackage`, or an N-core
    :class:`~repro.thermal.multicore.MulticorePackage` floorplan.  Each
    tick gathers every free node's power and, for every link to a
    boundary node (the convective hop), its live resistance and the
    boundary temperature; those links' conductances and their rows'
    diagonals are recomputed in the serial accumulation order, so an
    unchanged ``1/r`` yields the bits the serial dirty-refresh keeps.
    Every other link is frozen: :meth:`RCNetwork._assemble` builds its
    matrix entries once, and a write through its public setter trips a
    trap.  Free-node temperatures persist in the stack between ticks
    (the writeback keeps the node objects current; nothing else writes
    them mid-run).

    Equivalence guards, enforced every tick before any temperature is
    written, raise :class:`Unbatchable` instead of silently diverging:
    the tripped trap, a matrix diagonal at the degenerate floor, or a
    stability limit demanding sub-steps (``0.5 · min C/G_ii < dt``: the
    default package's limit is 1.875 s, ~37x the cluster's 0.05 s
    tick).
    """

    __slots__ = (
        "_nets",
        "_trap",
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
        "_Gs",
        "_Cs",
        "_Ts",
        "_Ts_col",
        "_Ts_flat",
        "_Gt3",
        "_Gt",
        "_dTs",
    )

    def __init__(self, packages: Sequence) -> None:
        nets = [package._net for package in packages]
        if not nets:
            raise Unbatchable("package batch needs at least one package")
        signature = batch_signature(nets[0])
        if any(batch_signature(net) != signature for net in nets):
            raise Unbatchable("packages differ in network structure")
        n, m = len(nets), nets[0]._m
        bterms = nets[0]._bterms
        live_slots = {slot for _, slot, _ in bterms}
        self._trap = _DirtyTrap()
        for net in nets:
            for slot, link in enumerate(net._link_list):
                if slot not in live_slots:
                    link._observer = self._trap
        self._nets = nets
        f64 = np.float64
        g = np.array([[ln.conductance for ln in net._link_list] for net in nets])
        self._Gs = np.array([net._assemble()[1] for net in nets])
        self._Cs = np.array([net._C for net in nets])
        self._Ts = np.array(
            [[node.temperature for node in net._free_nodes] for net in nets],
            dtype=f64,
        )

        # Per-tick gathers, member-major: (N, m) powers, (N, nb)
        # boundary-link resistances and boundary temperatures.
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
        # once, then the columns added to it every tick.
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
        self._Ts_col = self._Ts[:, :, None]
        self._Ts_flat = self._Ts.reshape(-1)
        self._Gt3 = np.empty((n, m, 1), dtype=f64)
        self._Gt = self._Gt3[:, :, 0]
        self._dTs = np.empty((n, m), dtype=f64)

    def release(self) -> None:
        """Hand the networks back to their own :meth:`RCNetwork.step`.

        Every link's observer returns to its network, and every link is
        marked dirty: the next serial step rebuilds the coefficients
        from the live resistances (a full refresh is
        bitwise-deterministic).  The node objects are already current.
        """
        for net in self._nets:
            for link in net._link_list:
                link._observer = net
            net._dirty.update(range(len(net._link_list)))

    @hotpath
    def step(self, dt: float) -> None:
        """One lockstep physics tick across all member packages.

        Call after this tick's inputs are written into every network.
        """
        if self._trap.tripped:
            _raise_trap_tripped()
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
            _raise_substep_needed()
        lim = self._lim
        divide(self._Cs, diag, out=lim)
        if not (0.5 * lim.min() >= dt):
            _raise_substep_needed()
        # One stacked integration step (n_sub == 1, h == dt exactly).
        Ts = self._Ts
        dTs = self._dTs
        np.matmul(self._Gs, self._Ts_col, out=self._Gt3)
        np.subtract(self._bs, self._Gt, out=dTs)
        divide(dTs, self._Cs, out=dTs)
        multiply(dTs, dt, out=dTs)
        add(Ts, dTs, out=Ts)
        if not np.isfinite(Ts).all():
            _raise_diverged(Ts)
        for node, temperature in zip(self._free_nodes, self._Ts_flat.tolist()):
            node.temperature = temperature


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
            if not isinstance(component, Node):
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
