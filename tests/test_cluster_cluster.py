"""Cluster assembly: job binding, governor delivery, run results."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ConfigurationError, SimulationError
from repro.governors.base import Governor
from repro.thermal.ambient import ConstantAmbient
from repro.workloads.base import ComputeSegment, Job, RankProgram
from repro.workloads.npb import bt_b_4


def short_job(n_ranks=2, seconds=2.0) -> Job:
    ranks = [
        RankProgram([ComputeSegment(2.4e9 * seconds)], name=f"r{i}")
        for i in range(n_ranks)
    ]
    return Job(ranks, name="short")


class RecordingGovernor(Governor):
    """Captures every callback for assertions."""

    def __init__(self, period=0.5):
        super().__init__(name="recorder", period=period)
        self.samples = []
        self.intervals = []
        self.started_at = None

    def start(self, t):
        self.started_at = t

    def on_sample(self, t, temperature):
        self.samples.append((t, temperature))

    def on_interval(self, t):
        self.intervals.append(t)


class TestConstruction:
    def test_node_count(self, small_cluster):
        assert len(small_cluster.nodes) == 2

    def test_node_lookup(self, small_cluster):
        assert small_cluster.node(0).name == "node0"
        with pytest.raises(ConfigurationError):
            small_cluster.node(5)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(dt=1.0)  # exceeds the 0.25 s sensor period

    def test_ambient_factory(self):
        cluster = Cluster(
            ClusterConfig(n_nodes=3, seed=1),
            ambient_factory=lambda i: ConstantAmbient(28.0 + i),
        )
        temps = [n.package.ambient_temperature for n in cluster.nodes]
        assert temps == pytest.approx([28.0, 29.0, 30.0])


class TestJobBinding:
    def test_too_many_ranks_rejected(self, small_cluster):
        with pytest.raises(ConfigurationError):
            small_cluster.bind_job(short_job(n_ranks=3))

    def test_fewer_ranks_than_nodes_ok(self, small_cluster):
        result = small_cluster.run_job(short_job(n_ranks=1))
        assert result.execution_time > 0


class TestRunJob:
    def test_runs_to_completion(self, small_cluster):
        result = small_cluster.run_job(short_job(seconds=2.0))
        assert result.execution_time == pytest.approx(2.0, abs=0.2)
        assert result.job_name == "short"

    def test_standard_traces_recorded(self, small_cluster):
        result = small_cluster.run_job(short_job())
        for suffix in ("temp", "duty", "rpm", "freq_ghz", "power", "util"):
            assert f"node0.{suffix}" in result.traces
            assert f"node1.{suffix}" in result.traces
        # 4 Hz sampling over ~2 s
        assert len(result.traces["node0.temp"]) >= 7

    def test_timeout_raises(self, small_cluster):
        with pytest.raises(SimulationError):
            small_cluster.run_job(short_job(seconds=100.0), timeout=1.0)

    def test_average_power_per_node(self, small_cluster):
        result = small_cluster.run_job(short_job())
        assert len(result.average_power) == 2
        assert all(40.0 < p < 130.0 for p in result.average_power)
        assert result.cluster_average_power == pytest.approx(
            sum(result.average_power) / 2
        )

    def test_energy_consistent_with_power(self, small_cluster):
        result = small_cluster.run_job(short_job(seconds=2.0))
        expected = result.average_power[0] * result.execution_time
        assert result.energy_joules[0] == pytest.approx(expected, rel=0.02)

    def test_tail_extends_traces(self):
        cluster = Cluster(ClusterConfig(n_nodes=1, seed=1))
        result = cluster.run_job(short_job(n_ranks=1, seconds=1.0), tail=3.0)
        assert result.traces["node0.temp"].times[-1] >= 3.5

    def test_power_delay_product(self, small_cluster):
        result = small_cluster.run_job(short_job())
        assert result.power_delay_product(0) == pytest.approx(
            result.average_power[0] * result.execution_time
        )


class TestGovernorDelivery:
    def test_samples_delivered_at_4hz(self, single_node_cluster):
        gov = RecordingGovernor()
        single_node_cluster.add_governor(single_node_cluster.nodes[0], gov)
        single_node_cluster.run_job(short_job(n_ranks=1, seconds=2.0))
        assert gov.started_at == 0.0
        assert len(gov.samples) >= 7
        gaps = [b[0] - a[0] for a, b in zip(gov.samples, gov.samples[1:])]
        assert all(g == pytest.approx(0.25) for g in gaps)

    def test_intervals_at_governor_period(self, single_node_cluster):
        gov = RecordingGovernor(period=0.5)
        single_node_cluster.add_governor(single_node_cluster.nodes[0], gov)
        single_node_cluster.run_job(short_job(n_ranks=1, seconds=2.0))
        gaps = [b - a for a, b in zip(gov.intervals, gov.intervals[1:])]
        assert all(g == pytest.approx(0.5) for g in gaps)

    def test_unknown_node_rejected(self, small_cluster):
        from repro.cluster.node import Node

        stranger = Node("stranger")
        with pytest.raises(ConfigurationError):
            small_cluster.add_governor(stranger, RecordingGovernor())

    def test_cannot_attach_after_run(self, small_cluster):
        small_cluster.run_job(short_job())
        with pytest.raises(SimulationError):
            small_cluster.add_governor(
                small_cluster.nodes[0], RecordingGovernor()
            )


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        from repro.workloads.npb import NpbJob, NpbParams

        def one_run():
            cluster = Cluster(ClusterConfig(n_nodes=2, seed=777))
            params = NpbParams(
                name="bt-mini",
                n_ranks=2,
                iterations=4,
                compute_seconds=0.4,
                comm_seconds=0.1,
                iteration_noise=0.05,
            )
            job = NpbJob(params, rng=cluster.rngs.stream("wl")).build()
            result = cluster.run_job(job)
            return (
                result.execution_time,
                result.average_power[0],
                result.traces["node0.temp"].mean(),
            )

        assert one_run() == one_run()

    def test_different_seed_differs(self):
        def one_run(seed):
            cluster = Cluster(ClusterConfig(n_nodes=1, seed=seed))
            result = cluster.run_job(short_job(n_ranks=1, seconds=3.0))
            return result.traces["node0.temp"].mean()

        assert one_run(1) != one_run(2)
