"""The cluster assembly: nodes + job + governors under one engine.

:class:`Cluster` is the top-level object experiments interact with:

.. code-block:: python

    cluster = Cluster(ClusterConfig(n_nodes=4))
    job = bt_b_4(rng=cluster.rngs.stream("workload"))
    for node in cluster.nodes:
        cluster.add_governor(node, DynamicFanControl(...))
    result = cluster.run_job(job)
    result.execution_time, result.traces["node0.temp"].mean()

Responsibilities:

* build N :class:`~repro.cluster.node.Node` objects with independent
  RNG streams,
* bind a :class:`~repro.workloads.base.Job`'s ranks onto the nodes,
* deliver sensor samples (at the configured 4 Hz) and control
  intervals to the attached governors,
* record the standard trace set every experiment consumes
  (``node{i}.temp/duty/rpm/freq_ghz/power/util``), and
* run until the job finishes, returning a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import ClusterConfig
from ..errors import ConfigurationError, SimulationError
from ..governors.base import Governor
from ..sim.engine import SimulationEngine
from ..sim.events import EventLog
from ..sim.rng import RngStreams
from ..sim.trace import TraceSet
from ..telemetry.registry import NULL_REGISTRY, MetricsRegistry
from ..telemetry.snapshot import TelemetrySnapshot
from ..workloads.base import Job
from .node import Node

__all__ = ["Cluster", "RunResult"]


@dataclass
class RunResult:
    """Everything an experiment needs from one cluster run.

    Attributes
    ----------
    execution_time:
        Wall time from job start to the last rank finishing, seconds.
    traces:
        The recorded trace set (sensor cadence).
    events:
        All discrete events (DVFS changes, governor actions).
    average_power:
        Mean wall power per node over the run, W (index-aligned).
    energy_joules:
        Wall energy per node over the run, J.
    job_name:
        Name of the job that ran.
    node_shutdown:
        Whether each node THERMTRIP'd during the run (index-aligned;
        empty on legacy constructions).
    retired_cycles:
        Work retired per node over the run, cycles.
    telemetry:
        Frozen :class:`~repro.telemetry.snapshot.TelemetrySnapshot` of
        the run's metrics registry, or None when telemetry was off.

    The whole object is cheaply picklable (traces and events are
    numpy/dataclass-backed with no references back into the live
    cluster), which is what lets the runtime layer ship results across
    process boundaries and cache them on disk.
    """

    execution_time: float
    traces: TraceSet
    events: EventLog
    average_power: List[float]
    energy_joules: List[float]
    job_name: str
    node_shutdown: List[bool] = field(default_factory=list)
    retired_cycles: List[float] = field(default_factory=list)
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def cluster_average_power(self) -> float:
        """Mean of the per-node average powers, W."""
        return sum(self.average_power) / len(self.average_power)

    @property
    def cluster_energy(self) -> float:
        """Total wall energy across nodes, J."""
        return sum(self.energy_joules)

    def power_delay_product(self, node: int = 0) -> float:
        """Table 1's metric: average power × execution time (W·s)."""
        return self.average_power[node] * self.execution_time

    def dvfs_change_count(self, node: int = 0) -> int:
        """Number of P-state transitions on ``node`` during the run."""
        return self.events.count("dvfs.change", source=f"node{node}.dvfs")


class Cluster:
    """N simulated nodes under one fixed-step engine.

    Parameters
    ----------
    config:
        Cluster-wide configuration (node physics, dt, seed).
    ambient_factory:
        Optional callable ``(node_index) -> AmbientModel`` giving each
        node its own inlet model — used by the scaling experiment to
        impose a rack thermal gradient.  Default: every node sees the
        constant ambient from the node config.
    telemetry:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`.
        When given (and enabled), governors wired through
        :mod:`repro.experiments.platform` record decision provenance
        into it, the cluster counts sensor rounds, and the run's
        :class:`RunResult` carries a frozen snapshot.  Default: the
        shared :data:`~repro.telemetry.registry.NULL_REGISTRY` (true
        no-op).
    platform:
        Optional :class:`~repro.platform.spec.PlatformSpec` this
        cluster's node config was derived from.  Carried so rigging
        helpers can scale policies to the platform's safe band; when
        None (the default) riggings use the paper's band unchanged.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        ambient_factory=None,
        telemetry: Optional[MetricsRegistry] = None,
        platform=None,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.platform = platform
        self._writers: list = []
        self.rngs = RngStreams(self.config.seed)
        self.engine = SimulationEngine(dt=self.config.dt)
        self.events: EventLog = self.engine.events
        self.traces: TraceSet = self.engine.traces
        self.nodes: List[Node] = []
        if self.config.node.floorplan is None:
            node_cls = Node
        else:
            from .multicore_node import MulticoreNode

            node_cls = MulticoreNode
        for i in range(self.config.n_nodes):
            node = node_cls(
                name=f"node{i}",
                config=self.config.node,
                events=self.events,
                rng=self.rngs.stream(f"node{i}.sensor"),
                ambient=ambient_factory(i) if ambient_factory else None,
            )
            self.nodes.append(node)
            self.engine.add_component(node)
        self._governors: Dict[str, List[Governor]] = {n.name: [] for n in self.nodes}
        self._wired = False

    # -- wiring ----------------------------------------------------------

    def node(self, index: int) -> Node:
        """The ``index``-th node."""
        try:
            return self.nodes[index]
        except IndexError:
            raise ConfigurationError(
                f"node index {index} out of range (cluster has "
                f"{len(self.nodes)} nodes)"
            ) from None

    def add_governor(self, node: Node, governor: Governor) -> Governor:
        """Attach a governor daemon to ``node``."""
        if node.name not in self._governors:
            raise ConfigurationError(f"unknown node {node.name!r}")
        if self._wired:
            raise SimulationError("cannot attach governors after the run started")
        self._governors[node.name].append(governor)
        return governor

    def add_governor_per_node(self, factory) -> List[Governor]:
        """Attach ``factory(node)``'s governor to every node; returns them."""
        return [self.add_governor(n, factory(n)) for n in self.nodes]

    def bind_job(self, job: Job) -> None:
        """Assign job ranks to nodes (rank i → node i).

        The job may span fewer ranks than the cluster has nodes; the
        remainder idle.  More ranks than nodes is an error.
        """
        if job.n_ranks > len(self.nodes):
            raise ConfigurationError(
                f"job {job.name!r} has {job.n_ranks} ranks but the cluster "
                f"only has {len(self.nodes)} nodes"
            )
        for i, rank in enumerate(job.ranks):
            self.nodes[i].bind_rank(rank)

    # -- running ------------------------------------------------------------

    def _wire_tasks(self) -> None:
        """Register the sensor/trace task and per-governor interval tasks."""
        if self._wired:
            return
        self._wired = True

        # Resolved once: the per-tick cost with telemetry off is two
        # no-op method calls on the shared null instruments.
        sensor_rounds = self.telemetry.counter("sim.sensor_rounds")
        sensor_samples = self.telemetry.counter("sim.samples")
        n_nodes = float(len(self.nodes))

        sample_and_record = self._compile_sampler(
            sensor_rounds, sensor_samples, n_nodes
        )
        self.engine.every(self.config.node.sensor_period, sample_and_record)

        for node in self.nodes:
            for governor in self._governors[node.name]:
                # Bind loop variables explicitly; each governor gets its
                # own periodic task at its own control interval.
                self.engine.every(
                    governor.period,
                    (lambda gov: lambda t: gov.on_interval(t))(governor),
                )

        for node in self.nodes:
            for governor in self._governors[node.name]:
                governor.start(self.engine.clock.now)

    def _compile_sampler(self, sensor_rounds, sensor_samples, n_nodes: float):
        """The sensor task: pre-resolved handles, block-buffered traces.

        Creates the standard per-node traces up front (in the order a
        first sampling round would create them) and binds one
        :class:`~repro.fastpath.recording.TraceBlockWriter` appender per
        trace, so the per-sample cost is list appends instead of
        f-string keys, dict lookups and numpy scalar writes.  Sample
        values are read from the same state the public node properties
        expose.  Buffers flush into the traces around every engine run.
        """
        from ..fastpath.recording import TraceBlockWriter

        plans = []
        for node in self.nodes:
            writers = [
                TraceBlockWriter(self.traces.trace(f"{node.name}.{suffix}"))
                for suffix in ("temp", "duty", "rpm", "freq_ghz", "power", "util")
            ]
            self._writers.extend(writers)
            plans.append(
                (
                    node,
                    node.sensor.sample,
                    node.fan_motor,
                    node.dvfs,
                    node.core,
                    tuple(w.add for w in writers),
                    tuple(self._governors[node.name]),
                )
            )
        plans = tuple(plans)

        def sample_and_record(t: float) -> None:
            sensor_rounds.inc()
            sensor_samples.inc(n_nodes)
            for node, sample, motor, dvfs, core, recs, governors in plans:
                temp = sample(t)
                recs[0](t, temp)
                recs[1](t, motor._duty)
                recs[2](t, motor._rpm)
                recs[3](t, dvfs.pstate.frequency_ghz)
                recs[4](t, node._wall_power)
                recs[5](t, core._utilization)
                for governor in governors:
                    governor.on_sample(t, temp)

        return sample_and_record

    def _flush_traces(self) -> None:
        """Flush the sampler's block writers into their traces."""
        for writer in self._writers:
            writer.flush()

    def run_job(
        self,
        job: Job,
        timeout: float = 3600.0,
        tail: float = 0.0,
    ) -> RunResult:
        """Bind ``job``, run until it finishes, and summarize.

        Parameters
        ----------
        job:
            The parallel workload.
        timeout:
            Hard ceiling on simulated seconds; exceeding it raises
            :class:`SimulationError` (a stuck barrier would otherwise
            hang forever).
        tail:
            Extra seconds to keep simulating after the job finishes
            (lets temperature decay be observed).
        """
        self.bind_job(job)
        self._wire_tasks()
        for node in self.nodes:
            node.meter.reset()
        t0 = self.engine.clock.now

        try:
            self.engine.run(
                until=lambda: job.finished,
                max_ticks=self.engine.clock.ticks_for(timeout),
            )
        finally:
            self._flush_traces()
        if not job.finished:
            raise SimulationError(
                f"job {job.name!r} did not finish within {timeout}s of "
                "simulated time"
            )
        execution_time = self.engine.clock.now - t0
        if tail > 0:
            try:
                self.engine.run(duration=tail)
            finally:
                self._flush_traces()

        if self.telemetry.enabled:
            self.telemetry.gauge("sim.execution_seconds", job=job.name).set(
                execution_time
            )
            self.telemetry.gauge("sim.final_time_seconds").set(
                self.engine.clock.now
            )

        return RunResult(
            execution_time=execution_time,
            traces=self.traces,
            events=self.events,
            average_power=[n.meter.average_power for n in self.nodes],
            energy_joules=[n.meter.energy_joules for n in self.nodes],
            job_name=job.name,
            node_shutdown=[n.is_shutdown for n in self.nodes],
            retired_cycles=[float(n.core.retired_cycles) for n in self.nodes],
            telemetry=(
                self.telemetry.snapshot() if self.telemetry.enabled else None
            ),
        )

    def run_for(self, duration: float) -> None:
        """Advance the cluster with whatever is bound for ``duration`` s."""
        self._wire_tasks()
        try:
            self.engine.run(duration=duration)
        finally:
            self._flush_traces()
